"""Deterministic fault models: seeded, timestamp-keyed lab misbehaviour.

Each model is a frozen dataclass describing one failure mode of a simulated
lab.  Models never hold random state; every draw is a pure function of
``(probe timestamp, key)`` where the key is a ``uint64`` derived from a
:class:`numpy.random.SeedSequence` child by the
:class:`~repro.faults.backend.FaultyBackend` that applies the model.  Hashing
the timestamp (SplitMix64, the same construction the time-dependent noise
samplers use) instead of consuming a generator stream is what makes a probe
fail the same way however its batch is split: the n-th probe faults based on
*when* it happens, not on how many draws preceded it.

Probe-scope models act through three hooks, all vectorised over a batch:

``corrupt(values, times, key)``
    Rewrite measured values (stuck/railed sensors).
``stall_s(times, key)``
    Per-probe extra latency in simulated seconds (hangs).  The meter
    charges the stall to the virtual clock — or gives up after its
    timeout budget.
``error_at(times, key)``
    Per-probe boolean mask of raising faults plus an exception factory
    (transient read errors, dropout bursts).

Worker-scope models (:class:`WorkerCrashFault`) instead decide per *job*
whether the executing worker dies; the campaign layer applies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..exceptions import ConfigurationError, TransientReadError
from ..physics.noise import _mix_bits

__all__ = [
    "FaultModel",
    "TransientReadFault",
    "ProbeHangFault",
    "StuckSensorFault",
    "DropoutFault",
    "WorkerCrashFault",
    "fault_uniforms",
]

#: Salt mixed into a model's key when it needs a second independent draw
#: stream (e.g. burst occurrence vs. within-burst dropouts).
_SECOND_STREAM_SALT = np.uint64(0x9E3779B97F4A7C15)


def _as_times(times_s: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(times_s, dtype=float))


def fault_uniforms(bits: np.ndarray, key: np.uint64) -> np.ndarray:
    """Uniform (0, 1) variates from uint64 identifiers, keyed by ``key``.

    The identifiers are timestamp float bits (probe-scope draws) or window /
    job indices; identical identifiers under the same key always map to the
    same variate, which is the whole determinism story of this package.
    """
    mixed = _mix_bits(np.atleast_1d(bits).astype(np.uint64) ^ key)
    return (np.right_shift(mixed, np.uint64(11)) + 0.5) * 2.0**-53


def _time_uniforms(times_s: np.ndarray, key: np.uint64) -> np.ndarray:
    times = _as_times(times_s)
    return fault_uniforms(times.view(np.uint64), key)


@dataclass(frozen=True)
class FaultModel:
    """Base fault model: a no-op for every hook.

    Subclasses override the hooks for their scope; the base implementations
    mean a model only has to define the behaviour it injects.
    """

    #: "probe" models act on individual measurements through FaultyBackend;
    #: "worker" models act on whole execution jobs through the campaign layer.
    scope: ClassVar[str] = "probe"

    # -- probe-scope hooks ------------------------------------------------
    def corrupt(
        self, values: np.ndarray, times_s: np.ndarray, key: np.uint64
    ) -> np.ndarray:
        """Return (possibly rewritten) measured values."""
        return values

    def stall_s(self, times_s: np.ndarray, key: np.uint64) -> np.ndarray:
        """Per-probe extra latency in simulated seconds (0 = none)."""
        return np.zeros(_as_times(times_s).shape, dtype=float)

    def error_mask(self, times_s: np.ndarray, key: np.uint64) -> np.ndarray:
        """Per-probe mask of probes whose read raises."""
        return np.zeros(_as_times(times_s).shape, dtype=bool)

    def error_at(self, time_s: float) -> Exception:
        """Exception for a probe flagged by :meth:`error_mask`."""
        return TransientReadError(f"injected read fault at t={time_s:.3f}s")

    # -- worker-scope hook ------------------------------------------------
    def crashes(self, token: int, key: np.uint64) -> bool:
        """Whether the worker executing job ``token`` dies."""
        return False


def _validate_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"fault rate must lie in [0, 1], got {rate!r}")


@dataclass(frozen=True)
class TransientReadFault(FaultModel):
    """Independent per-probe read failures, retryable.

    Each probe fails with probability ``rate``, independently of its
    neighbours — the ADC-glitch / serial-bus-hiccup failure mode.
    """

    rate: float = 0.05

    def __post_init__(self) -> None:
        _validate_rate(self.rate)

    def error_mask(self, times_s: np.ndarray, key: np.uint64) -> np.ndarray:
        if self.rate == 0.0:
            return super().error_mask(times_s, key)
        return _time_uniforms(times_s, key) < self.rate

    def error_at(self, time_s: float) -> Exception:
        return TransientReadError(
            f"injected transient read failure at t={time_s:.3f}s"
        )


@dataclass(frozen=True)
class ProbeHangFault(FaultModel):
    """Probes that hang: the read eventually returns, ``stall_s`` late.

    With probability ``rate`` a probe takes ``hang_s`` extra simulated
    seconds.  Under a :class:`~repro.instrument.resilience.ProbeRetryPolicy`
    timeout budget shorter than ``hang_s`` the meter abandons the read
    instead of waiting it out.
    """

    rate: float = 0.01
    hang_s: float = 5.0

    def __post_init__(self) -> None:
        _validate_rate(self.rate)
        if self.hang_s <= 0:
            raise ConfigurationError("hang_s must be positive")

    def stall_s(self, times_s: np.ndarray, key: np.uint64) -> np.ndarray:
        times = _as_times(times_s)
        if self.rate == 0.0:
            return np.zeros(times.shape, dtype=float)
        hung = _time_uniforms(times, key) < self.rate
        return np.where(hung, self.hang_s, 0.0)


@dataclass(frozen=True)
class StuckSensorFault(FaultModel):
    """The sensor rails to a constant for whole windows of simulated time.

    Time is divided into ``window_s``-second windows; each window is stuck
    with probability ``rate`` (drawn from the *window index*, so every probe
    inside an afflicted window, in any batch, reads the rail value).
    """

    rate: float = 0.05
    window_s: float = 10.0
    rail_na: float = 0.0

    def __post_init__(self) -> None:
        _validate_rate(self.rate)
        if self.window_s <= 0:
            raise ConfigurationError("window_s must be positive")

    def _stuck(self, times_s: np.ndarray, key: np.uint64) -> np.ndarray:
        windows = np.floor(_as_times(times_s) / self.window_s).astype(np.uint64)
        return fault_uniforms(windows, key) < self.rate

    def corrupt(
        self, values: np.ndarray, times_s: np.ndarray, key: np.uint64
    ) -> np.ndarray:
        if self.rate == 0.0:
            return values
        return np.where(self._stuck(times_s, key), self.rail_na, values)


@dataclass(frozen=True)
class DropoutFault(FaultModel):
    """Burst-correlated read dropouts.

    Time is divided into ``burst_s``-second windows; each window is a
    dropout burst with probability ``rate``, and *within* an active burst
    each probe fails with probability ``within_rate``.  Unlike
    :class:`TransientReadFault`, failures cluster — the failure mode of a
    flaky cable or an interfering pump cycle — so retry policies tuned on
    independent errors get exercised against correlated ones.
    """

    rate: float = 0.02
    burst_s: float = 2.0
    within_rate: float = 0.9

    def __post_init__(self) -> None:
        _validate_rate(self.rate)
        _validate_rate(self.within_rate)
        if self.burst_s <= 0:
            raise ConfigurationError("burst_s must be positive")

    def error_mask(self, times_s: np.ndarray, key: np.uint64) -> np.ndarray:
        times = _as_times(times_s)
        if self.rate == 0.0 or self.within_rate == 0.0:
            return np.zeros(times.shape, dtype=bool)
        windows = np.floor(times / self.burst_s).astype(np.uint64)
        in_burst = fault_uniforms(windows, key) < self.rate
        within_key = _mix_bits(np.atleast_1d(key ^ _SECOND_STREAM_SALT))[0]
        dropped = _time_uniforms(times, within_key) < self.within_rate
        return in_burst & dropped

    def error_at(self, time_s: float) -> Exception:
        return TransientReadError(
            f"injected dropout burst swallowed the read at t={time_s:.3f}s"
        )


@dataclass(frozen=True)
class WorkerCrashFault(FaultModel):
    """Deterministic worker death, keyed by job identity.

    A worker-scope model: the campaign layer evaluates :meth:`crashes` per
    job (the token is the job id) and, when it fires, hard-exits the worker
    process (spawned pools) or raises
    :class:`~repro.exceptions.WorkerCrashError` (in-process backends) —
    either way the campaign loop turns the job into a ``worker_error``
    record rather than aborting the campaign.
    """

    scope: ClassVar[str] = "worker"
    rate: float = 0.25

    def __post_init__(self) -> None:
        _validate_rate(self.rate)

    def crashes(self, token: int, key: np.uint64) -> bool:
        if self.rate == 0.0:
            return False
        uniform = fault_uniforms(np.array([np.uint64(token)]), key)[0]
        return bool(uniform < self.rate)
