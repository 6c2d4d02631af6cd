"""Fault-injecting measurement backend wrapper.

:class:`FaultyBackend` sits between a :class:`~repro.instrument.measurement.ChargeSensorMeter`
and any inner :class:`~repro.instrument.measurement.MeasurementBackend`,
applying probe-scope fault models to every read.  Draws are keyed by the
probe timestamp (see :mod:`repro.faults.models`), so the wrapper is
stateless between calls and a probe faults the same way whichever batch it
is measured in.  The wrapper sits below the instrument layer, so it does
not subclass the backend base class: it forwards the grid surface
(``x_voltages``, ``shape``, ``validate_keys``, ...) to the inner backend.

The meter does not call ``currents`` on this backend; it asks for a
:class:`BatchPlan` via :meth:`FaultyBackend.plan_batch`, handing over the
flat pixel keys of the pending probes, their timestamps and its stall
timeout.  The plan holds the first *disruption* of the candidate batch (a
stall or a raising error), if any, and the corrupted values of the probes
the meter can commit.  Every fault hook is a pure function of the probe
timestamp, so the plan finds the disruption from the timestamps alone and
then reads the inner backend only for the probes before it, and for a
stalled probe itself when the timeout tolerates the stall (its late read
lands).  The meter commits the values in one vectorised step; a disruption
the plan did not read is a failed attempt of that probe, and the meter's
next plan covers the retry and every probe after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError, MeasurementError
from ..seeding import FAULT_INDEX, reserved_seeds
from .models import FaultModel

__all__ = ["BatchPlan", "FaultyBackend", "ProbeDisruption", "probe_fault_models"]

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

    ``disruption`` is the first stall/error, or ``None`` for a clean batch.
    ``values`` (corruptions applied) covers exactly the probes the meter
    commits: the whole batch when it is clean, the probes before an error
    or an over-timeout stall, and the probes up to and including a stall
    within the timeout.  Probes after the disruption get no value, because
    the disruption shifts the clock, which shifts their timestamps and
    therefore their draws.
    """

    values: np.ndarray
    disruption: ProbeDisruption | None = None


def probe_fault_models(models) -> tuple[FaultModel, ...]:
    """The probe-scope subset of a fault model collection."""
    return tuple(m for m in models if m.scope == "probe")


class FaultyBackend:
    """Apply probe-scope fault models on top of any measurement backend.

    Parameters
    ----------
    inner:
        The backend producing clean values (a
        :class:`~repro.instrument.measurement.MeasurementBackend`).
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
        inner,
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
    def inner(self):
        """The wrapped backend."""
        return self._inner

    @property
    def models(self) -> tuple[FaultModel, ...]:
        """The applied fault models."""
        return self._models

    # The grid surface the meter reads on every batch: forwarded here, not
    # through __getattr__, whose failed normal lookup costs about 1 us.
    x_voltages = property(lambda self: self._inner.x_voltages)
    y_voltages = property(lambda self: self._inner.y_voltages)
    shape = property(lambda self: self._inner.shape)
    validate_keys = property(lambda self: self._inner.validate_keys)

    @property
    def is_time_dependent(self) -> bool:
        """Always true: fault draws are keyed by the probe timestamp."""
        return True

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: forward the inner
        # backend's grid surface and its extras (``gate_x_name``/
        # ``gate_y_name``, a DatasetBackend's ``csd``) so wrapping stays
        # invisible to the meter and to consumers that sniff attributes.
        # Private names are not forwarded — during unpickling ``_inner``
        # itself is briefly missing, and forwarding would recurse.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)

    def _keys(self) -> tuple[np.uint64, ...]:
        if self._keys_cache is None:
            indices = range(FAULT_INDEX, FAULT_INDEX + len(self._models))
            self._keys_cache = tuple(
                child.generate_state(1, dtype=np.uint64)[0]
                for child in reserved_seeds(self._seed, indices)
            )
        return self._keys_cache

    # ------------------------------------------------------------------
    def _validated(self, keys, times_s) -> tuple[np.ndarray, np.ndarray]:
        """Every key of the batch checked, and one timestamp per key."""
        keys = self._inner.validate_keys(keys)
        times = np.ascontiguousarray(np.asarray(times_s, dtype=float)).ravel()
        if times.size != keys.size:
            raise MeasurementError(
                f"expected {keys.size} probe timestamps, got {times.size}"
            )
        return keys, times

    def _first_disruption(self, times: np.ndarray) -> ProbeDisruption | None:
        """The first stall or error among probes at ``times``, if any."""
        stalls = np.zeros(times.shape, dtype=float)
        erroring = np.zeros(times.shape, dtype=bool)
        masks = []
        for model, fault_key in zip(self._models, self._keys()):
            stalls += model.stall_s(times, fault_key)
            masks.append(model.error_mask(times, fault_key))
            erroring |= masks[-1]
        disrupted = np.flatnonzero(erroring | (stalls > 0))
        if disrupted.size == 0:
            return None
        first = int(disrupted[0])
        if erroring[first]:
            # The first model that errors at the probe raises.
            model = next(m for m, mask in zip(self._models, masks) if mask[first])
            return ProbeDisruption(index=first, error=model.error_at(float(times[first])))
        return ProbeDisruption(index=first, stall_s=float(stalls[first]))

    def _read(self, keys: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Corrupted inner values of validated probes; an empty batch reads nothing."""
        if not times.size:
            return np.zeros(0)
        inner_times = times if self._inner.is_time_dependent else None
        values = np.asarray(self._inner.currents(keys, times_s=inner_times), dtype=float)
        for model, fault_key in zip(self._models, self._keys()):
            values = model.corrupt(values, times, fault_key)
        return values

    def plan_batch(
        self, keys: np.ndarray, times_s: np.ndarray, timeout_s: float | None
    ) -> BatchPlan:
        """Plan a candidate batch of flat pixel keys at the given timestamps.

        Returns the first disruption and the corrupted values of the probes
        the meter commits (see :class:`BatchPlan`).  A stall is read when
        ``timeout_s`` is ``None`` or the stall lasts at most ``timeout_s``;
        a longer stall is a failed attempt, and its probe is not read.
        Every key is validated, even when the first probe errors, but the
        inner backend reads only the committable probes.  Pure: the same
        arguments always yield the same plan, so a campaign's probes fault
        the same way on every run, however its batches are split.
        """
        keys, times = self._validated(keys, times_s)
        disruption = self._first_disruption(times)
        if disruption is None:
            return BatchPlan(values=self._read(keys, times))
        # A tolerated stall lands late, so the meter keeps its value.
        landed = disruption.error is None and (
            timeout_s is None or disruption.stall_s <= timeout_s
        )
        n_read = disruption.index + landed
        return BatchPlan(
            values=self._read(keys[:n_read], times[:n_read]), disruption=disruption
        )

    # ------------------------------------------------------------------
    def currents(
        self, keys: np.ndarray, times_s: np.ndarray | None = None
    ) -> np.ndarray:
        """Corrupted currents of a direct read, without a meter.

        Stalls are meaningful only under a virtual clock, so a direct read
        applies the value corruptions to every probe and raises the
        injected error when the batch's first disruption is one; the meter
        plans its batches through :meth:`plan_batch` instead and honours
        stalls.  Fault draws are keyed by timestamp, so ``times_s`` is
        required.
        """
        if times_s is None:
            raise MeasurementError(
                "fault draws are keyed by the probe time; probes require "
                "per-probe timestamps — measure through a ChargeSensorMeter, "
                "or pass times_s explicitly"
            )
        keys, times = self._validated(keys, times_s)
        disruption = self._first_disruption(times)
        if disruption is not None and disruption.error is not None:
            raise disruption.error
        return self._read(keys, times)
