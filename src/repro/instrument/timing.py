"""Virtual experiment clock.

Every probed voltage point on a real device costs a *dwell time* — the paper
uses 50 ms, the typical settling time of the heavily filtered DC lines — plus
a small per-point overhead for setting the DACs and digitising the sensor
current.  Those delays, not the computation, dominate virtual gate extraction,
so reproducing the paper's Table 1 runtimes requires an explicit cost model.

:class:`VirtualClock` accumulates that simulated time; it never sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class TimingModel:
    """Per-operation costs of the simulated experiment, in seconds.

    Attributes
    ----------
    dwell_time_s:
        Wait between setting gate voltages and sampling the sensor current
        (50 ms in the paper, Section 5.1).
    set_voltage_s:
        DAC update cost per probed point.
    readout_s:
        Digitiser integration time per probed point.
    """

    dwell_time_s: float = 0.050
    set_voltage_s: float = 0.0
    readout_s: float = 0.0

    def __post_init__(self) -> None:
        for cost in (self.dwell_time_s, self.set_voltage_s, self.readout_s):
            # The chained comparison is false for NaN, so it is refused too.
            if not 0 <= cost < np.inf:
                raise ConfigurationError("timing costs must be finite and non-negative")

    @property
    def cost_per_probe_s(self) -> float:
        """Total simulated cost of one probed voltage point."""
        return self.dwell_time_s + self.set_voltage_s + self.readout_s

    @classmethod
    def paper_default(cls) -> "TimingModel":
        """The timing model used in the paper's evaluation (50 ms dwell)."""
        return cls(dwell_time_s=0.050, set_voltage_s=0.0, readout_s=0.0)


class VirtualClock:
    """Accumulates simulated experiment time."""

    def __init__(self, timing: TimingModel | None = None) -> None:
        self._timing = timing or TimingModel.paper_default()
        self._elapsed_s = 0.0

    @property
    def timing(self) -> TimingModel:
        """The per-operation cost model."""
        return self._timing

    @property
    def elapsed_s(self) -> float:
        """Total simulated experiment time accumulated so far, in seconds."""
        return self._elapsed_s

    def advance(self, seconds: float) -> None:
        """Advance the simulated clock by an arbitrary amount."""
        if not 0 <= seconds < np.inf:
            raise ConfigurationError(
                "cannot advance the clock by a negative or non-finite amount"
            )
        self._elapsed_s += seconds

    def charge_probe(self) -> None:
        """Charge the cost of one probed voltage point."""
        self.advance(self._timing.cost_per_probe_s)

    def charge_probes(self, n: int) -> np.ndarray:
        """Charge ``n`` probes at once; return the elapsed time after each.

        Bit-identical to ``n`` successive :meth:`charge_probe` calls: the
        timestamps are :meth:`preview_probes`' sequential float additions.
        """
        if n < 0:
            raise ConfigurationError("cannot charge a negative number of probes")
        times = self.preview_probes(n)
        if n == 0:
            return times
        self._elapsed_s = float(times[-1])
        return times

    def preview_probes(self, n: int) -> np.ndarray:
        """Timestamps :meth:`charge_probes` *would* return, without charging.

        One in-place ``cumsum`` from the current reading: the same
        sequential float additions as ``n`` :meth:`charge_probe` calls, so
        committing any prefix later via ``charge_probes(k)`` (``k <= n``)
        yields exactly the first ``k`` previewed floats.  The meter plans a
        whole candidate batch against a fault-injecting backend this way,
        then charges only the prefix that measured cleanly.
        """
        if n < 0:
            raise ConfigurationError("cannot preview a negative number of probes")
        times = np.empty(int(n) + 1)
        times.fill(self._timing.cost_per_probe_s)
        times[0] = self._elapsed_s
        times.cumsum(out=times)
        return times[1:]

    def reset(self) -> None:
        """Reset the accumulated simulated time to zero."""
        self._elapsed_s = 0.0
