"""Slow time evolution of the device itself (not just the sensor signal).

Additive noise corrupts the *measured current*; real devices additionally
change underneath the measurement: the charge-sensor operating point wanders
as nearby traps charge and discharge, background charges hop and shift every
transition at once, mains and cryocooler cycles modulate the electrostatics
periodically, and effective lever arms creep as the fridge temperature moves.
The paper's "Fail" benchmarks are what such evolution does to a tuning run —
a virtualization matrix extracted at time zero is simply wrong an hour later.

:class:`DeviceDrift` is the declarative description of that evolution, and
:meth:`DeviceDrift.at_times` compiles it (with a seeded generator) into a
:class:`DeviceDriftState` that maps per-probe simulated timestamps onto two
physical effects:

* :meth:`DeviceDriftState.detuning_offset_mv` — an extra sensor detuning in
  millivolts (operating-point ramp + periodic interference + discrete charge
  jumps), applied inside the charge-sensor response;
* :meth:`DeviceDriftState.gate_scale` — a multiplicative factor on the swept
  gate voltages, equivalent to a fractional drift of every plunger lever arm
  (the capacitance-matrix entries the virtualization matrix is built from).

Both are pure functions of the timestamp once constructed, so the batched and
scalar probe paths see bit-identical devices.  Only the second moves the
charge states (:attr:`DeviceDrift.moves_charge_states`); with it at zero,
``gate_scale`` is exactly ``1.0`` at every finite timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from .events import ExponentialEventStream, require_finite as _require_finite

#: Seconds per hour; drift rates are quoted per hour because that is the
#: natural unit of a tuning shift (a 50 ms dwell makes per-second rates
#: absurdly small numbers).
_HOUR_S = 3600.0


@dataclass(frozen=True)
class DeviceDrift:
    """Declarative time evolution of a simulated device.

    Attributes
    ----------
    operating_point_mv_per_hour:
        Linear ramp of the sensor operating point, in mV of sensor detuning
        per simulated hour.  May be negative (the sensor can wander either
        way off its flank).
    lever_arm_fraction_per_hour:
        Fractional drift of the swept-gate lever arms per simulated hour
        (``0.01`` means every swept voltage acts 1% stronger after an hour).
        May be negative.
    charge_jumps_per_hour:
        Mean rate of discrete background-charge rearrangements (a Poisson
        process in simulated time).
    charge_jump_mv:
        Magnitude scale of one charge jump, in mV of sensor detuning; each
        jump's sign is random and its size is exponentially distributed
        around this scale (most jumps are small, the occasional one is not).
    interference_mv:
        Amplitude of periodic interference (mains pickup, cryocooler cycle)
        in mV of sensor detuning.
    interference_period_s:
        Period of the interference in simulated seconds.
    """

    operating_point_mv_per_hour: float = 0.0
    lever_arm_fraction_per_hour: float = 0.0
    charge_jumps_per_hour: float = 0.0
    charge_jump_mv: float = 0.4
    interference_mv: float = 0.0
    interference_period_s: float = 60.0

    def __post_init__(self) -> None:
        _require_finite("operating_point_mv_per_hour", self.operating_point_mv_per_hour)
        _require_finite("lever_arm_fraction_per_hour", self.lever_arm_fraction_per_hour)
        _require_finite("charge_jumps_per_hour", self.charge_jumps_per_hour)
        _require_finite("charge_jump_mv", self.charge_jump_mv)
        _require_finite("interference_mv", self.interference_mv)
        _require_finite("interference_period_s", self.interference_period_s)
        if self.charge_jumps_per_hour < 0:
            raise ConfigurationError("charge_jumps_per_hour must be non-negative")
        if self.charge_jump_mv < 0:
            raise ConfigurationError("charge_jump_mv must be non-negative")
        if self.interference_mv < 0:
            raise ConfigurationError("interference_mv must be non-negative")
        if self.interference_period_s <= 0:
            raise ConfigurationError("interference_period_s must be positive")

    @property
    def is_static(self) -> bool:
        """Whether this drift model leaves the device unchanged."""
        return (
            self.operating_point_mv_per_hour == 0
            and self.lever_arm_fraction_per_hour == 0
            and (self.charge_jumps_per_hour == 0 or self.charge_jump_mv == 0)
            and self.interference_mv == 0
        )

    @property
    def moves_charge_states(self) -> bool:
        """Whether the drift changes which charge state a pixel is in.

        Only lever-arm drift does: it scales the swept gate voltages the
        solver sees.  The other terms shift the sensor's detuning alone, so
        a pixel's charge state, and the detuning it induces, never move.
        """
        return self.lever_arm_fraction_per_hour != 0

    def at_times(self, rng: np.random.Generator) -> "DeviceDriftState":
        """Compile the drift into a seeded, time-evaluable state."""
        return DeviceDriftState(self, rng)

    def describe(self) -> str:
        """One-line human readable description used in metadata."""
        parts = []
        if self.operating_point_mv_per_hour:
            parts.append(f"op={self.operating_point_mv_per_hour:g} mV/h")
        if self.lever_arm_fraction_per_hour:
            parts.append(f"lever={self.lever_arm_fraction_per_hour:g}/h")
        if self.charge_jumps_per_hour and self.charge_jump_mv:
            parts.append(
                f"jumps={self.charge_jumps_per_hour:g}/h x {self.charge_jump_mv:g} mV"
            )
        if self.interference_mv:
            parts.append(
                f"hum={self.interference_mv:g} mV @ {self.interference_period_s:g} s"
            )
        return "drift(" + (", ".join(parts) if parts else "static") + ")"


class DeviceDriftState:
    """A :class:`DeviceDrift` bound to one seeded random realisation.

    Jump times and magnitudes ride on one fixed
    :class:`~repro.physics.events.ExponentialEventStream`, exactly like the
    temporal telegraph sampler: values depend only on the timestamp, never
    on query batching or order.
    """

    def __init__(self, drift: DeviceDrift, rng: np.random.Generator) -> None:
        self._drift = drift
        self._interference_phase = float(rng.uniform(0.0, 2.0 * np.pi))
        self._jump_offsets_mv = np.zeros(1, dtype=float)  # cumulative, leading 0
        self._jumps: ExponentialEventStream | None = None
        if drift.charge_jumps_per_hour > 0 and drift.charge_jump_mv > 0:
            self._jumps = ExponentialEventStream(
                rng,
                _HOUR_S / drift.charge_jumps_per_hour,
                draw_marks=self._draw_jump_marks,
            )

    @property
    def drift(self) -> DeviceDrift:
        """The declarative model this state realises."""
        return self._drift

    def _draw_jump_marks(self, n: int, rng: np.random.Generator) -> None:
        signs = np.where(rng.integers(0, 2, size=n) == 1, 1.0, -1.0)
        sizes = rng.exponential(self._drift.charge_jump_mv, size=n)
        self._jump_offsets_mv = np.concatenate(
            [
                self._jump_offsets_mv,
                self._jump_offsets_mv[-1] + np.cumsum(signs * sizes),
            ]
        )

    # ------------------------------------------------------------------
    def detuning_offset_mv(self, times_s: np.ndarray) -> np.ndarray:
        """Extra sensor detuning (mV) at each simulated timestamp."""
        drift = self._drift
        times = np.asarray(times_s, dtype=float)
        offsets = (drift.operating_point_mv_per_hour / _HOUR_S) * times
        if drift.interference_mv:
            offsets = offsets + drift.interference_mv * np.sin(
                2.0 * np.pi * times / drift.interference_period_s
                + self._interference_phase
            )
        if self._jumps is not None and times.size:
            # count_before extends the stream (growing _jump_offsets_mv), so
            # it must run before the offsets array is read.
            jumps_before = self._jumps.count_before(times)
            offsets = offsets + self._jump_offsets_mv[jumps_before]
        return offsets

    def gate_scale(self, times_s: np.ndarray) -> np.ndarray:
        """Multiplicative factor on swept gate voltages at each timestamp."""
        times = np.asarray(times_s, dtype=float)
        return 1.0 + (self._drift.lever_arm_fraction_per_hour / _HOUR_S) * times
