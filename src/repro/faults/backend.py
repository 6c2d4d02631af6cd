"""Fault-injecting measurement backend wrapper.

:class:`FaultyBackend` sits between a :class:`~repro.instrument.measurement.ChargeSensorMeter`
and any inner :class:`~repro.instrument.measurement.MeasurementBackend`,
applying probe-scope fault models to every read.  Draws are keyed by the
probe timestamp (see :mod:`repro.faults.models`), so the wrapper is
stateless between calls and a probe faults the same way whichever batch it
is measured in.

The meter does not call ``currents`` on this backend; it asks for a
:class:`BatchPlan` via :meth:`FaultyBackend.plan_batch` — the corrupted
values for a whole candidate batch plus the first *disruption* (a stall or
a raising error), if any.  That lets the meter commit the fault-free prefix
in one vectorised step and handle only the disrupted probe through its
retry loop, keeping chaos runs close to clean-path speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError, MeasurementError
from ..instrument.measurement import MeasurementBackend
from .models import FaultModel

__all__ = ["BatchPlan", "FaultyBackend", "ProbeDisruption", "probe_fault_models"]

#: Spawn-key branch for fault streams.  DeviceBackend derives its temporal
#: noise and drift children at (2**31, 0) and (2**31, 1) off the same root,
#: so fault keys start at (2**31, 2): sharing one seed between the inner
#: backend and its fault wrapper never collides streams.
_FAULT_SPAWN_OFFSET = 2


@dataclass(frozen=True)
class ProbeDisruption:
    """The first probe of a planned batch that does not read cleanly.

    Exactly one of the two effects is set: ``error`` for a raising fault,
    a positive ``stall_s`` for a hang.
    """

    index: int
    stall_s: float = 0.0
    error: Exception | None = None


@dataclass(frozen=True)
class BatchPlan:
    """What a candidate batch of probes would return.

    ``values`` covers every planned probe (corruptions applied);
    ``disruption`` is the first stall/error, or ``None`` for a clean batch.
    Probes after the disruption index carry values too, but the meter must
    not commit them — the disruption shifts the clock, which shifts their
    timestamps and therefore their draws.
    """

    values: np.ndarray
    disruption: ProbeDisruption | None = None


def probe_fault_models(models) -> tuple[FaultModel, ...]:
    """The probe-scope subset of a fault model collection."""
    return tuple(m for m in models if m.scope == "probe")


class FaultyBackend(MeasurementBackend):
    """Apply probe-scope fault models on top of any measurement backend.

    Parameters
    ----------
    inner:
        The backend producing clean values.
    models:
        Probe-scope fault models, applied in order (corruptions compose;
        the first stall or error at a probe wins).
    seed:
        Seed for the per-model fault keys.  May be the *same* seed object
        the inner backend uses: children are derived by extending the spawn
        key at a reserved branch, never by ``spawn()``, so the caller's and
        the inner backend's streams are untouched.
    """

    def __init__(
        self,
        inner: MeasurementBackend,
        models,
        seed: int | np.random.SeedSequence | None = None,
    ) -> None:
        self._inner = inner
        self._models = tuple(models)
        if any(m.scope != "probe" for m in self._models):
            bad = next(m for m in self._models if m.scope != "probe")
            raise ConfigurationError(
                f"{type(bad).__name__} is {bad.scope}-scope; FaultyBackend "
                "applies probe-scope models only (worker-scope models are "
                "applied by the campaign layer)"
            )
        self._seed = seed
        self._keys_cache: tuple[np.uint64, ...] | None = None

    # ------------------------------------------------------------------
    @property
    def inner(self) -> MeasurementBackend:
        """The wrapped backend."""
        return self._inner

    @property
    def models(self) -> tuple[FaultModel, ...]:
        """The applied fault models."""
        return self._models

    @property
    def x_voltages(self) -> np.ndarray:
        return self._inner.x_voltages

    @property
    def y_voltages(self) -> np.ndarray:
        return self._inner.y_voltages

    @property
    def is_time_dependent(self) -> bool:
        """Always true: fault draws are keyed by the probe timestamp."""
        return True

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: forward the inner
        # backend's extra surface (``gate_x_name``/``gate_y_name``, a
        # DatasetBackend's ``csd``) so wrapping stays invisible to
        # consumers that sniff backend attributes.  Private names are not
        # forwarded — during unpickling ``_inner`` itself is briefly
        # missing, and forwarding would recurse.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)

    def _keys(self) -> tuple[np.uint64, ...]:
        if self._keys_cache is None:
            root = (
                self._seed
                if isinstance(self._seed, np.random.SeedSequence)
                else np.random.SeedSequence(self._seed)
            )
            self._keys_cache = tuple(
                np.random.SeedSequence(
                    entropy=root.entropy,
                    spawn_key=root.spawn_key + (2**31, _FAULT_SPAWN_OFFSET + i),
                ).generate_state(1, dtype=np.uint64)[0]
                for i in range(len(self._models))
            )
        return self._keys_cache

    # ------------------------------------------------------------------
    def plan_batch(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        times_s: np.ndarray,
    ) -> BatchPlan:
        """Plan a candidate batch scheduled at the given timestamps.

        Returns the corrupted values and the first disruption.  Pure: the
        same ``(rows, cols, times)`` always yield the same plan, which is
        what lets the meter re-plan a disrupted probe after committing the
        prefix and get the identical outcome.  The pixels are validated
        once, by the inner backend's ``currents``.
        """
        times = np.ascontiguousarray(np.asarray(times_s, dtype=float)).ravel()
        if times.size != np.size(rows):
            raise MeasurementError(
                f"expected {np.size(rows)} probe timestamps, got {times.size}"
            )
        inner_times = times if self._inner.is_time_dependent else None
        values = np.asarray(
            self._inner.currents(rows, cols, times_s=inner_times), dtype=float
        )
        keys = self._keys()
        stalls = np.zeros(times.shape, dtype=float)
        erroring = np.zeros(times.shape, dtype=bool)
        error_model = np.full(times.shape, -1, dtype=np.int64)
        for i, model in enumerate(self._models):
            values = model.corrupt(values, times, keys[i])
            stalls = stalls + model.stall_s(times, keys[i])
            mask = model.error_mask(times, keys[i]) & ~erroring
            erroring |= mask
            error_model[mask] = i
        disrupted = np.flatnonzero(erroring | (stalls > 0))
        if disrupted.size == 0:
            return BatchPlan(values=values)
        first = int(disrupted[0])
        if erroring[first]:
            model = self._models[int(error_model[first])]
            disruption = ProbeDisruption(
                index=first, error=model.error_at(float(times[first]))
            )
        else:
            disruption = ProbeDisruption(index=first, stall_s=float(stalls[first]))
        return BatchPlan(values=values, disruption=disruption)

    # ------------------------------------------------------------------
    def currents(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        times_s: np.ndarray | None = None,
    ) -> np.ndarray:
        """Corrupted currents of a direct read, without a meter.

        Stalls are meaningful only under a virtual clock, so a direct read
        applies the value corruptions and raises the first injected error;
        the meter plans its batches through :meth:`plan_batch` instead and
        honours stalls.  Fault draws are keyed by timestamp, so ``times_s``
        is required.
        """
        times = self.validate_times(times_s, np.size(rows))
        plan = self.plan_batch(rows, cols, times)
        disruption = plan.disruption
        if disruption is not None and disruption.error is not None:
            raise disruption.error
        return plan.values
