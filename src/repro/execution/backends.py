"""The serial and process-pool execution backends.

Both satisfy the same streaming contract
(:meth:`~repro.execution.base.ExecutionBackend.submit` yields
``(job_id, record)`` pairs as jobs finish) and, because seeds are bound to
jobs before anything runs, both produce bit-identical records for the
same job list at any worker count — the orchestrator sorts by job id after
draining, so completion order never leaks into results.

* :class:`SerialBackend` runs jobs in submission order in-process: the
  reference implementation every other backend is tested against, and the
  right choice under a debugger.
* :class:`ProcessPoolBackend` fans chunks of jobs out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (the extraction pipeline
  is CPU-bound pure Python, so processes beat threads) and yields each
  chunk's records the moment its future completes, rather than blocking on
  a pool-wide ``map``.  Records travel back through the pool's pickle pipe.

The third stock backend, :class:`~repro.cluster.ClusterBackend`, lives in
:mod:`repro.cluster`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Iterator

from ..exceptions import ConfigurationError
from .base import ExecutionBackend, SupportsJobId, WorkerCrash, register_backend
from .chunking import STATIC_CHUNK_CAP, static_chunk_size

__all__ = ["DEFAULT_CHUNK_CAP", "ProcessPoolBackend", "SerialBackend"]

#: Ceiling on the default process-pool chunk size.  The old campaign default
#: (``len(jobs) // (4 * workers)``) grows with the grid, so a 1000-job grid
#: on 2 workers shipped 125-job chunks — one chunk of expensive scenario
#: jobs could starve the pool tail while every other worker sat idle, and
#: nothing streamed back until a whole chunk finished.  Capping the chunk
#: keeps dispatch granularity fine enough that heterogeneous grids stay
#: load-balanced and records stream promptly, while still amortising
#: pickling for tiny jobs.  (The policy itself now lives in
#: :func:`~repro.execution.chunking.static_chunk_size`, shared with the
#: cluster scheduler.)
DEFAULT_CHUNK_CAP = STATIC_CHUNK_CAP


class SerialBackend(ExecutionBackend):
    """Run jobs one after another in the calling process."""

    name = "serial"

    def submit(
        self,
        jobs: Iterable[SupportsJobId],
        run_one: Callable[[Any], Any],
    ) -> Iterator[tuple[int, Any]]:
        for job in jobs:
            yield job.job_id, run_one(job)


def _run_chunk(
    run_one: Callable[[Any], Any],
    chunk: tuple[SupportsJobId, ...],
) -> list[tuple[int, Any]]:
    """Worker-side body: run one chunk of jobs, pairing records with ids."""
    return [(job.job_id, run_one(job)) for job in chunk]


class ProcessPoolBackend(ExecutionBackend):
    """Fan jobs out over a process pool, streaming records per finished chunk.

    Parameters
    ----------
    max_workers:
        Pool size; clamped to the job count at submit time.
    chunk_size:
        Jobs shipped to a worker per dispatch.  Defaults to roughly four
        chunks per worker capped at :data:`DEFAULT_CHUNK_CAP`, so large
        grids keep fine-grained dispatch (tail load-balancing) and small
        grids still amortise pickling.
    """

    name = "process"

    def __init__(self, max_workers: int, chunk_size: int | None = None) -> None:
        if max_workers < 1:
            raise ConfigurationError("max_workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be at least 1")
        self._max_workers = int(max_workers)
        self._chunk_size = chunk_size

    @property
    def max_workers(self) -> int:
        """Configured pool size."""
        return self._max_workers

    def effective_chunk_size(self, n_jobs: int) -> int:
        """The chunk size a grid of ``n_jobs`` would be dispatched with."""
        if self._chunk_size is not None:
            return self._chunk_size
        return static_chunk_size(n_jobs, self._max_workers)

    def submit(
        self,
        jobs: Iterable[SupportsJobId],
        run_one: Callable[[Any], Any],
    ) -> Iterator[tuple[int, Any]]:
        """Stream records per finished chunk, surviving worker death.

        A worker that hard-exits (``os._exit``, OOM kill, an injected
        :class:`~repro.faults.WorkerCrashFault`) breaks the whole
        :class:`~concurrent.futures.ProcessPoolExecutor`: the chunk it was
        running *and* every chunk still pending raise
        :class:`~concurrent.futures.process.BrokenProcessPool`, and before
        this backend handled it the records of already-completed chunks were
        abandoned with the raise.  Now completed chunks have already been
        streamed by the time the break surfaces, and the affected jobs are
        retried one at a time, each in a fresh single-worker pool: a job
        that breaks *that* pool is unambiguously the culprit and yields a
        :class:`~repro.execution.base.WorkerCrash` marker, while innocent
        collateral jobs re-run (deterministically seeded, so to identical
        records).  Crash attribution is exact at the cost of running the
        post-break remainder serially — the failure path trades throughput
        for never misblaming a job.
        """
        jobs = tuple(jobs)
        if not jobs:
            return
        chunk = self.effective_chunk_size(len(jobs))
        suspects: list[SupportsJobId] = []
        with ProcessPoolExecutor(
            max_workers=min(self._max_workers, len(jobs))
        ) as pool:
            futures = {}
            for start in range(0, len(jobs), chunk):
                batch = jobs[start : start + chunk]
                futures[pool.submit(_run_chunk, run_one, batch)] = batch
            try:
                for future in as_completed(futures):
                    try:
                        results = future.result()
                    except BrokenProcessPool:
                        suspects.extend(futures[future])
                        continue
                    yield from results
            finally:
                # When the consumer abandons the stream (an interrupting
                # progress hook, a raising chunk) cancel every not-yet-
                # started chunk so teardown waits only for the chunks
                # already running, not the whole remaining grid.
                for future in futures:
                    future.cancel()
        yield from self._rescue_suspects(jobs, suspects, run_one)

    def _rescue_suspects(
        self,
        jobs: tuple[SupportsJobId, ...],
        suspects: list,
        run_one: Callable[[Any], Any],
    ) -> Iterator[tuple[int, Any]]:
        """Re-run each broken-pool suspect alone in a fresh single-worker pool.

        Submission order keeps the recovery pass deterministic regardless
        of which chunk happened to break first; a job that breaks its own
        private pool is unambiguously the culprit and yields a
        :class:`~repro.execution.base.WorkerCrash` marker.
        """
        order = {id(job): i for i, job in enumerate(jobs)}
        for job in sorted(suspects, key=lambda job: order[id(job)]):
            with ProcessPoolExecutor(max_workers=1) as rescue:
                try:
                    yield from rescue.submit(_run_chunk, run_one, (job,)).result()
                except BrokenProcessPool:
                    yield job.job_id, WorkerCrash(job_id=job.job_id)


def _process_spec(
    arg: str, n_workers: int, chunk_size: int | None
) -> ProcessPoolBackend:
    """Build from a ``"process:N"`` spec: ``N`` workers, overriding the knob."""
    try:
        workers = int(arg)
    except ValueError:
        raise ConfigurationError(
            f"malformed backend spec 'process:{arg}': expected an integer "
            "worker count, e.g. 'process:8'"
        ) from None
    if workers < 1:
        raise ConfigurationError(
            f"malformed backend spec 'process:{arg}': worker count must be "
            "at least 1"
        )
    return ProcessPoolBackend(workers, chunk_size)


register_backend("serial", lambda n_workers, chunk_size: SerialBackend())
register_backend(
    "process",
    lambda n_workers, chunk_size: ProcessPoolBackend(n_workers, chunk_size),
    spec_factory=_process_spec,
)
