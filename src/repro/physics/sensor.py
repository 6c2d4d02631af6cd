"""Charge-sensor model: a single-electron transistor (SET) next to the array.

The devices in the paper detect charge transitions with proximal sensor dots
(C1/C2 in Figure 1a): the sensor's conductance sits on the flank of a Coulomb
peak, so any change in the local electrostatic environment — an electron
entering a nearby dot, or the plunger voltages themselves moving — shifts the
peak and changes the measured current.

The model implemented here is the standard one used by quantum-dot simulators:

* the sensor has a "detuning" coordinate (in millivolts of effective gate
  voltage on the sensor island) built from three contributions:
  a static operating point, direct capacitive cross-talk from the swept
  plunger gates, and a discrete shift for every electron added to each array
  dot;
* the conductance is a sum of periodically spaced Coulomb peaks with
  thermally broadened line shapes (``cosh^-2``), multiplied by a bias current
  scale.

Charge transitions therefore appear in the charge-stability diagram as sharp
steps of varying sign and magnitude on top of a smooth background — exactly
the structure the extraction algorithms must cope with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import SensorModelError


@dataclass(frozen=True)
class ChargeSensorConfig:
    """Parameters of the SET charge sensor.

    Attributes
    ----------
    peak_spacing_mv:
        Spacing of the sensor's own Coulomb peaks in effective sensor-gate
        millivolts.
    peak_width_mv:
        Thermal broadening (FWHM-like scale) of each Coulomb peak in mV.
    peak_current_na:
        Current at the top of a Coulomb peak, in nanoamperes.
    operating_point_mv:
        Static detuning of the sensor from the nearest peak centre; the sensor
        is normally parked on the steep flank of a peak (around a quarter of
        the spacing) for maximum sensitivity.
    dot_shift_mv:
        Detuning shift caused by one electron entering each array dot, in mV.
        One entry per dot; closer dots produce larger shifts.
    gate_crosstalk_mv_per_v:
        Direct capacitive cross-talk of each swept gate onto the sensor
        island, in mV of sensor detuning per volt of gate voltage.  This is
        what produces the smooth background gradient across a CSD.
    background_current_na:
        Residual current far from any peak (leakage / amplifier offset).
    """

    peak_spacing_mv: float = 4.0
    peak_width_mv: float = 0.9
    peak_current_na: float = 1.0
    operating_point_mv: float = 1.0
    dot_shift_mv: tuple[float, ...] = (0.9, 0.55)
    gate_crosstalk_mv_per_v: tuple[float, ...] = (6.0, 4.0)
    background_current_na: float = 0.02

    def __post_init__(self) -> None:
        if self.peak_spacing_mv <= 0:
            raise SensorModelError("peak_spacing_mv must be positive")
        if self.peak_width_mv <= 0:
            raise SensorModelError("peak_width_mv must be positive")
        if self.peak_current_na <= 0:
            raise SensorModelError("peak_current_na must be positive")
        if len(self.dot_shift_mv) == 0:
            raise SensorModelError("dot_shift_mv must have at least one entry")
        if self.background_current_na < 0:
            raise SensorModelError("background_current_na must be non-negative")


class ChargeSensor:
    """Maps (dot occupations, gate voltages) to a sensor current in nA."""

    def __init__(self, config: ChargeSensorConfig | None = None) -> None:
        self._config = config or ChargeSensorConfig()

    @property
    def config(self) -> ChargeSensorConfig:
        """The sensor configuration."""
        return self._config

    # ------------------------------------------------------------------
    def detuning_mv(
        self, occupations: np.ndarray | list, gate_voltages: np.ndarray | list
    ) -> float:
        """Effective sensor detuning in mV for a charge state and gate point."""
        cfg = self._config
        n = np.asarray(occupations, dtype=float).ravel()
        vg = np.asarray(gate_voltages, dtype=float).ravel()
        shifts = np.asarray(cfg.dot_shift_mv, dtype=float)
        crosstalk = np.asarray(cfg.gate_crosstalk_mv_per_v, dtype=float)
        if n.size < shifts.size:
            raise SensorModelError(
                f"expected at least {shifts.size} dot occupations, got {n.size}"
            )
        if vg.size < crosstalk.size:
            raise SensorModelError(
                f"expected at least {crosstalk.size} gate voltages, got {vg.size}"
            )
        charge_term = float(np.dot(shifts, n[: shifts.size]))
        gate_term = float(np.dot(crosstalk, vg[: crosstalk.size]))
        return cfg.operating_point_mv + charge_term + gate_term

    def current_from_detuning(self, detuning_mv: float | np.ndarray) -> np.ndarray | float:
        """Sensor current (nA) as a function of detuning (mV).

        The conductance is a periodic train of thermally broadened Coulomb
        peaks; folding the detuning into one period and evaluating a single
        ``cosh^-2`` line shape is equivalent and cheap.
        """
        cfg = self._config
        detuning = np.asarray(detuning_mv, dtype=float)
        folded = np.mod(detuning + 0.5 * cfg.peak_spacing_mv, cfg.peak_spacing_mv) - (
            0.5 * cfg.peak_spacing_mv
        )
        peak = cfg.peak_current_na / np.cosh(folded / cfg.peak_width_mv) ** 2
        current = cfg.background_current_na + peak
        if np.isscalar(detuning_mv):
            return float(current)
        return current

    def current(
        self,
        occupations: np.ndarray | list,
        gate_voltages: np.ndarray | list,
        detuning_offset_mv: float = 0.0,
    ) -> float:
        """Sensor current (nA) for a charge state at the given gate voltages.

        ``detuning_offset_mv`` shifts the sensor operating point, which is
        how time-dependent device drift (trap charging, charge jumps, mains
        pickup) enters the sensor response.
        """
        detuning = self.detuning_mv(occupations, gate_voltages) + detuning_offset_mv
        return float(self.current_from_detuning(detuning))

    def detunings(self, occupations: np.ndarray, gate_voltages: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`detuning_mv` over a batch of points.

        The time-independent part of :meth:`currents`: the operating point
        plus the charge term plus the gate cross-talk, summed in that order.
        A drift-aware backend caches these per pixel and applies the drift
        offset and the line shape per probe, the same float operations in
        the same order as :meth:`currents`.

        Parameters
        ----------
        occupations:
            Per-point dot occupations, shape ``(n_points, >= n_dot_shifts)``.
        gate_voltages:
            Per-point gate voltages, shape ``(n_points, >= n_crosstalk)``.

        Returns
        -------
        numpy.ndarray
            Sensor detunings in mV, shape ``(n_points,)``.
        """
        cfg = self._config
        occ = np.asarray(occupations, dtype=float)
        vg = np.asarray(gate_voltages, dtype=float)
        if occ.ndim != 2 or vg.ndim != 2 or occ.shape[0] != vg.shape[0]:
            raise SensorModelError(
                "occupations and gate_voltages must be 2-D with one row per "
                f"point, got shapes {occ.shape} and {vg.shape}"
            )
        shifts = np.asarray(cfg.dot_shift_mv, dtype=float)
        crosstalk = np.asarray(cfg.gate_crosstalk_mv_per_v, dtype=float)
        if occ.shape[1] < shifts.size:
            raise SensorModelError(
                f"expected at least {shifts.size} dot occupations, got {occ.shape[1]}"
            )
        if vg.shape[1] < crosstalk.size:
            raise SensorModelError(
                f"expected at least {crosstalk.size} gate voltages, got {vg.shape[1]}"
            )
        # einsum, not BLAS @: its per-element summation is independent of the
        # batch size, so one-point and many-point batches agree bit-for-bit.
        charge_term = np.einsum("nd,d->n", occ[:, : shifts.size], shifts)
        gate_term = np.einsum("ng,g->n", vg[:, : crosstalk.size], crosstalk)
        return cfg.operating_point_mv + charge_term + gate_term

    def currents(
        self,
        occupations: np.ndarray,
        gate_voltages: np.ndarray,
        detuning_offset_mv: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Vectorised :meth:`current` over a batch of points.

        Parameters
        ----------
        occupations:
            Per-point dot occupations, shape ``(n_points, >= n_dot_shifts)``.
        gate_voltages:
            Per-point gate voltages, shape ``(n_points, >= n_crosstalk)``.
        detuning_offset_mv:
            Extra sensor detuning per point (scalar or ``(n_points,)``), used
            by drift-aware backends to move the operating point over time.

        Returns
        -------
        numpy.ndarray
            Sensor currents in nA, shape ``(n_points,)``; identical values to
            calling :meth:`current` per point.
        """
        detuning = self.detunings(occupations, gate_voltages) + detuning_offset_mv
        return np.asarray(self.current_from_detuning(detuning), dtype=float)

    # ------------------------------------------------------------------
    def step_contrast(self, dot: int) -> float:
        """Approximate current change when one electron enters ``dot``.

        Evaluated at the configured operating point with zero gate voltages;
        useful for choosing noise amplitudes relative to the signal step.
        """
        cfg = self._config
        if not 0 <= dot < len(cfg.dot_shift_mv):
            raise SensorModelError(f"dot index {dot} out of range")
        zeros = np.zeros(len(cfg.gate_crosstalk_mv_per_v))
        before = self.current(np.zeros(len(cfg.dot_shift_mv)), zeros)
        after_occ = np.zeros(len(cfg.dot_shift_mv))
        after_occ[dot] = 1
        after = self.current(after_occ, zeros)
        return float(after - before)

    @classmethod
    def with_sensitivity(
        cls,
        n_dots: int,
        n_gates: int,
        dot_shifts_mv: tuple[float, ...] | None = None,
        gate_crosstalk_mv_per_v: tuple[float, ...] | None = None,
        **kwargs: float,
    ) -> "ChargeSensor":
        """Convenience constructor that sizes the coupling vectors to a device."""
        defaults = ChargeSensorConfig()
        if dot_shifts_mv is None:
            base = defaults.dot_shift_mv[0]
            dot_shifts_mv = tuple(base * (0.6 ** i) for i in range(n_dots))
        if gate_crosstalk_mv_per_v is None:
            base_ct = defaults.gate_crosstalk_mv_per_v[0]
            gate_crosstalk_mv_per_v = tuple(
                base_ct * (0.7 ** i) for i in range(n_gates)
            )
        config = ChargeSensorConfig(
            dot_shift_mv=tuple(dot_shifts_mv),
            gate_crosstalk_mv_per_v=tuple(gate_crosstalk_mv_per_v),
            **kwargs,
        )
        return cls(config)
