"""Probe-level resilience policy for the charge-sensor meter.

Real measurement stacks wrap every instrument read in a retry loop: a
transient ADC glitch is retried after a short backoff, a read that exceeds
its timeout is abandoned, and an instrument that keeps failing trips a
circuit breaker so the control software reports a fault instead of hanging
forever.  :class:`ProbeRetryPolicy` captures that loop for
:class:`~repro.instrument.measurement.ChargeSensorMeter`.

Everything here is *simulated-time* resilience: backoffs, stalls, and
timeout budgets are charged to the session's
:class:`~repro.instrument.timing.VirtualClock`, never to the wall clock, so
a chaos run with thousands of injected faults still executes in milliseconds
and is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = ["ProbeRetryPolicy"]


@dataclass(frozen=True)
class ProbeRetryPolicy:
    """How the meter retries a probe that a fault disrupted.

    Attributes
    ----------
    max_attempts:
        Total attempts per probe including the first (1 = fail on the first
        fault).  Every attempt charges a full probe cost to the virtual
        clock, so retried probes are *later* probes — their fault draws are
        fresh, exactly as on real hardware where the retry samples a
        different instant.
    backoff_s:
        Simulated pause before the first retry; doubles by
        ``backoff_factor`` on each subsequent retry.  Charged to the
        virtual clock.
    backoff_factor:
        Multiplier applied to the backoff between consecutive retries.
    timeout_s:
        Per-probe stall budget.  A probe whose injected stall exceeds this
        charges only ``timeout_s`` (the time spent waiting before giving
        up) and counts as a failed attempt raising
        :class:`~repro.exceptions.ProbeTimeoutError`; ``None`` tolerates
        stalls of any length.
    breaker_failures:
        Circuit breaker: after this many *consecutive* failed attempts
        (across probes), the meter stops touching the backend and raises
        :class:`~repro.exceptions.CircuitBreakerOpenError` on every further
        probe until :meth:`~repro.instrument.measurement.ChargeSensorMeter.reset`.
        ``0`` disables the breaker.  A successful attempt resets the count.
    """

    max_attempts: int = 3
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    timeout_s: float | None = None
    breaker_failures: int = 8

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        # Chained comparisons are false for NaN, so NaN is refused too; an
        # infinite timeout tolerates every stall, the same as None.
        if not 0 <= self.backoff_s < float("inf"):
            raise ConfigurationError("backoff_s must be finite and non-negative")
        if not 1.0 <= self.backoff_factor < float("inf"):
            raise ConfigurationError("backoff_factor must be finite and at least 1.0")
        if self.timeout_s is not None and not self.timeout_s >= 0:
            raise ConfigurationError("timeout_s must be a non-negative number")
        if self.breaker_failures < 0:
            raise ConfigurationError("breaker_failures must be non-negative")

    @classmethod
    def no_retry(cls) -> "ProbeRetryPolicy":
        """Fail on the first fault (but still with typed errors)."""
        return cls(max_attempts=1, breaker_failures=0)
