"""Chunk-size policies shared by the pool and cluster dispatchers.

A dispatcher that ships jobs in chunks trades two costs against each other:
per-dispatch overhead (pickling, frame round-trips) is amortised by *large*
chunks, while tail load-balancing and prompt streaming want *small* ones.
The static policy — the process pool's — resolves the
tension with a fixed cap (:func:`static_chunk_size`); the adaptive policy
(:class:`AdaptiveChunkPolicy`) resolves it with a target *lease duration*:
observe how long one job actually takes, then size the next chunk so a
worker stays busy for roughly ``target_lease_s`` before it has to come back
for more.  Cheap jobs get big chunks, expensive jobs get leased one at a
time, and a grid that mixes both converges per observation.

The :class:`~repro.execution.backends.ProcessPoolBackend` dispatches with
the static policy and the :class:`~repro.cluster.ClusterBackend`
coordinator leases with the adaptive one.  Chunking never affects
*results* — jobs are seeded before dispatch, so records are bit-identical
under any policy.
"""

from __future__ import annotations

from ..exceptions import ConfigurationError
from ..reprs import ContentRepr

__all__ = ["AdaptiveChunkPolicy", "static_chunk_size"]

#: Ceiling on the static default chunk size (see
#: :data:`~repro.execution.backends.DEFAULT_CHUNK_CAP`, re-exported there
#: for backwards compatibility).
STATIC_CHUNK_CAP = 4


def static_chunk_size(n_jobs: int, n_workers: int, cap: int = STATIC_CHUNK_CAP) -> int:
    """The historical fixed-cap chunk size: ``len // (4 * workers)``, capped.

    The cap keeps dispatch granularity fine enough that heterogeneous grids
    stay load-balanced and records stream promptly, while still amortising
    pickling for tiny jobs.  This is the process pool's default policy and
    must stay bit-identical to it.
    """
    workers = min(max(n_workers, 1), max(n_jobs, 1))
    return max(1, min(cap, n_jobs // (4 * workers)))


class AdaptiveChunkPolicy(ContentRepr):
    """Size chunks so one lease keeps a worker busy ``target_lease_s``.

    The policy starts conservatively at ``initial_chunk`` (one job by
    default — nothing is known yet, and a wrong big first lease starves the
    tail), then tracks an exponentially weighted moving average of observed
    per-job wall seconds and sizes every subsequent chunk as
    ``target_lease_s / per_job_s``, clamped to ``[min_chunk, max_chunk]``.

    The policy is deliberately *stateful but result-free*: it only decides
    how many jobs travel per dispatch, never which jobs or with what seeds,
    so any sequence of observations produces bit-identical records.

    Parameters
    ----------
    target_lease_s:
        Wall seconds one chunk should occupy a worker.  Small enough that
        stealing and re-leasing stay responsive, large enough to amortise
        dispatch overhead.
    min_chunk / max_chunk:
        Hard clamps on the computed size.
    initial_chunk:
        Size used before the first observation.
    smoothing:
        EWMA weight of the newest observation (``1`` = only the latest,
        ``0 <`` small values smooth heavily).
    """

    def __init__(
        self,
        target_lease_s: float = 0.25,
        min_chunk: int = 1,
        max_chunk: int = 64,
        initial_chunk: int = 1,
        smoothing: float = 0.5,
    ) -> None:
        if target_lease_s <= 0:
            raise ConfigurationError("target_lease_s must be positive")
        if min_chunk < 1:
            raise ConfigurationError("min_chunk must be at least 1")
        if max_chunk < min_chunk:
            raise ConfigurationError("max_chunk must be >= min_chunk")
        if not min_chunk <= initial_chunk <= max_chunk:
            raise ConfigurationError(
                "initial_chunk must lie within [min_chunk, max_chunk]"
            )
        if not 0 < smoothing <= 1:
            raise ConfigurationError("smoothing must be in (0, 1]")
        self._target_lease_s = float(target_lease_s)
        self._min_chunk = int(min_chunk)
        self._max_chunk = int(max_chunk)
        self._initial_chunk = int(initial_chunk)
        self._smoothing = float(smoothing)
        self._per_job_s: float | None = None

    @property
    def target_lease_s(self) -> float:
        """Wall seconds one chunk should occupy a worker."""
        return self._target_lease_s

    @property
    def per_job_s(self) -> float | None:
        """Smoothed per-job wall seconds, ``None`` before any observation."""
        return self._per_job_s

    def observe(self, n_jobs: int, elapsed_s: float) -> None:
        """Fold one completed dispatch (``n_jobs`` over ``elapsed_s``) in.

        Non-positive observations are ignored rather than folded in as
        zero: a sub-resolution timer reading would otherwise drive the
        estimate to "jobs are free" and the chunk size to its ceiling.
        """
        if n_jobs < 1 or elapsed_s <= 0:
            return
        observed = elapsed_s / n_jobs
        if self._per_job_s is None:
            self._per_job_s = observed
        else:
            self._per_job_s += self._smoothing * (observed - self._per_job_s)

    def chunk_size(self) -> int:
        """Jobs the next dispatch should carry."""
        if self._per_job_s is None:
            return self._initial_chunk
        ideal = int(self._target_lease_s / self._per_job_s)
        return max(self._min_chunk, min(self._max_chunk, ideal))

    def fresh(self) -> "AdaptiveChunkPolicy":
        """An unobserved copy with the same configuration.

        Dispatchers take a policy as *configuration* and call this per
        submission, so one backend instance reused across campaigns does
        not leak timing state from one job population into the next.
        """
        return AdaptiveChunkPolicy(
            target_lease_s=self._target_lease_s,
            min_chunk=self._min_chunk,
            max_chunk=self._max_chunk,
            initial_chunk=self._initial_chunk,
            smoothing=self._smoothing,
        )
