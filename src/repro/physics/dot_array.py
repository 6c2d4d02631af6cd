"""Device-level model: gate layout plus electrostatics plus charge sensing.

:class:`DotArrayDevice` bundles everything the rest of the library needs to
pretend a silicon quantum dot chip is connected:

* a :class:`~repro.physics.capacitance.CapacitanceModel` describing the
  electrostatics of the dots and plunger gates,
* a :class:`~repro.physics.charge_state.ChargeStateSolver` that finds the
  ground-state charge configuration at any gate-voltage point,
* a :class:`~repro.physics.sensor.ChargeSensor` that converts charge
  configurations into the measured sensor current,
* gate metadata (names, allowed voltage ranges).

Factory methods build the double-dot device used throughout the evaluation and
a quadruple-dot device mirroring the paper's Figure 1 for the n-dot array
extension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DeviceModelError
from .capacitance import CapacitanceModel
from .charge_state import ChargeState, ChargeStateSolver
from .sensor import ChargeSensor, ChargeSensorConfig


@dataclass(frozen=True)
class GateSpec:
    """Metadata for one plunger gate: its name and safe voltage range."""

    name: str
    min_voltage: float = 0.0
    max_voltage: float = 1.0

    def __post_init__(self) -> None:
        if self.max_voltage <= self.min_voltage:
            raise DeviceModelError(
                f"gate {self.name!r}: max_voltage must exceed min_voltage"
            )

    def clamp(self, voltage: float) -> float:
        """Clamp a requested voltage into the safe range."""
        return float(min(max(voltage, self.min_voltage), self.max_voltage))

    def contains(self, voltage: float) -> bool:
        """Whether a voltage lies inside the safe range (inclusive)."""
        return self.min_voltage <= voltage <= self.max_voltage


class DotArrayDevice:
    """A simulated gate-defined quantum dot array with a charge sensor."""

    def __init__(
        self,
        capacitance: CapacitanceModel,
        sensor: ChargeSensor | None = None,
        gate_specs: tuple[GateSpec, ...] | None = None,
        max_electrons_per_dot: int = 3,
        name: str = "device",
        adjacency: tuple[tuple[int, int], ...] | None = None,
    ) -> None:
        self._capacitance = capacitance
        self._solver = ChargeStateSolver(
            capacitance, max_electrons_per_dot=max_electrons_per_dot
        )
        self._sensor = sensor or ChargeSensor.with_sensitivity(
            n_dots=capacitance.n_dots, n_gates=capacitance.n_gates
        )
        # Catch sensor/device size mismatches at construction rather than
        # deep inside a measurement: a sensor coupled to more dots or gates
        # than the device has cannot be evaluated.
        sensor_config = self._sensor.config
        if len(sensor_config.dot_shift_mv) > capacitance.n_dots:
            raise DeviceModelError(
                f"sensor couples to {len(sensor_config.dot_shift_mv)} dots but "
                f"the device has only {capacitance.n_dots}"
            )
        if len(sensor_config.gate_crosstalk_mv_per_v) > capacitance.n_gates:
            raise DeviceModelError(
                f"sensor crosstalk covers {len(sensor_config.gate_crosstalk_mv_per_v)} "
                f"gates but the device has only {capacitance.n_gates}"
            )
        if gate_specs is None:
            gate_specs = tuple(
                GateSpec(name=gate_name) for gate_name in capacitance.gate_names
            )
        if len(gate_specs) != capacitance.n_gates:
            raise DeviceModelError(
                f"expected {capacitance.n_gates} gate specs, got {len(gate_specs)}"
            )
        self._gate_specs = tuple(gate_specs)
        self._name = name
        if adjacency is not None:
            edges = tuple((int(a), int(b)) for a, b in adjacency)
            for a, b in edges:
                if not (0 <= a < capacitance.n_dots and 0 <= b < capacitance.n_dots):
                    raise DeviceModelError(
                        f"adjacency edge ({a}, {b}) references a dot outside "
                        f"0..{capacitance.n_dots - 1}"
                    )
                if a >= b:
                    raise DeviceModelError(
                        f"adjacency edges must be ordered pairs (a < b), got ({a}, {b})"
                    )
            if len(set(edges)) != len(edges):
                raise DeviceModelError("adjacency must not repeat edges")
            adjacency = edges
        self._adjacency = adjacency

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable device name."""
        return self._name

    @property
    def capacitance(self) -> CapacitanceModel:
        """The electrostatic model."""
        return self._capacitance

    @property
    def solver(self) -> ChargeStateSolver:
        """The ground-state solver."""
        return self._solver

    @property
    def sensor(self) -> ChargeSensor:
        """The charge sensor."""
        return self._sensor

    @property
    def n_dots(self) -> int:
        """Number of dots."""
        return self._capacitance.n_dots

    @property
    def n_gates(self) -> int:
        """Number of plunger gates."""
        return self._capacitance.n_gates

    @property
    def gate_names(self) -> tuple[str, ...]:
        """Names of the plunger gates."""
        return self._capacitance.gate_names

    @property
    def gate_specs(self) -> tuple[GateSpec, ...]:
        """Voltage-range metadata per gate."""
        return self._gate_specs

    def gate_index(self, gate: int | str) -> int:
        """Resolve a gate by index or name."""
        return self._capacitance.gate_index(gate)

    @property
    def adjacency(self) -> tuple[tuple[int, int], ...] | None:
        """Explicit dot-adjacency edges, or ``None`` for the linear chain."""
        return self._adjacency

    def neighbour_pairs(self) -> tuple[tuple[int, int, str, str], ...]:
        """``(dot_a, dot_b, gate_x, gate_y)`` for every neighbouring pair.

        The pairwise virtual gate procedure (paper §2.3) visits exactly
        one pair per adjacency edge; the array extractor and the campaign
        grid both enumerate them through this single helper.  Devices built
        without an explicit ``adjacency`` (every linear array) use the
        chain ``(i, i + 1)`` edges; 2-D lattices supply their 4-connected
        edge list so the procedure walks real neighbours instead of
        pairing a row's last dot with the next row's first.
        """
        plungers = self.gate_names[: self.n_dots]
        edges = (
            self._adjacency
            if self._adjacency is not None
            else tuple((i, i + 1) for i in range(self.n_dots - 1))
        )
        return tuple((a, b, plungers[a], plungers[b]) for a, b in edges)

    # ------------------------------------------------------------------
    # Physics queries
    # ------------------------------------------------------------------
    def charge_state(self, gate_voltages: np.ndarray | list) -> ChargeState:
        """Ground-state charge configuration at the given gate voltages."""
        vg = self._validated_voltages(gate_voltages)
        return self._solver.ground_state(vg)

    def sensor_current(
        self,
        gate_voltages: np.ndarray | list,
        occupations: np.ndarray | list | None = None,
    ) -> float:
        """Noise-free sensor current (nA) at the given gate voltages.

        If ``occupations`` is given it is used directly (useful when the
        caller already solved the ground state); otherwise the ground state is
        computed first.
        """
        vg = self._validated_voltages(gate_voltages)
        if occupations is None:
            occupations = self._solver.ground_state(vg).occupations
        return self._sensor.current(occupations, vg)

    def sensor_currents(
        self,
        gate_voltage_points: np.ndarray,
        occupations: np.ndarray | None = None,
        detuning_offset_mv: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Vectorised :meth:`sensor_current` over a batch of voltage points.

        Solves all ground states through the solver's batched lattice kernel
        and converts them to currents in one vectorised sensor evaluation —
        the physics core of the instrument layer's batch probe path.

        Parameters
        ----------
        gate_voltage_points:
            Gate-voltage points, shape ``(n_points, n_gates)``.
        occupations:
            Optional pre-solved occupations, shape ``(n_points, n_dots)``;
            computed from the ground states when omitted.
        detuning_offset_mv:
            Extra sensor detuning per point (scalar or ``(n_points,)``);
            drift-aware backends use it to move the sensor operating point
            as a function of probe time.

        Returns
        -------
        numpy.ndarray
            Noise-free sensor currents in nA, shape ``(n_points,)``.
        """
        points = self._validated_points(gate_voltage_points)
        if occupations is None:
            occupations = self._solver.occupations_at(points)
        return self._sensor.currents(
            np.asarray(occupations, dtype=float),
            points,
            detuning_offset_mv=detuning_offset_mv,
        )

    def sensor_detunings(self, gate_voltage_points: np.ndarray) -> np.ndarray:
        """Time-independent sensor detuning (mV) over a batch of voltage points.

        Solves the ground states like :meth:`sensor_currents` and stops
        before the drift offset and the line shape
        (:meth:`~repro.physics.sensor.ChargeSensor.detunings`).  A backend
        whose drift moves only the sensor caches these values per pixel;
        ``sensor.current_from_detuning(detunings + offset)`` then equals
        ``sensor_currents(points, detuning_offset_mv=offset)`` bit for bit.
        """
        points = self._validated_points(gate_voltage_points)
        return self._sensor.detunings(self._solver.occupations_at(points), points)

    def ground_truth_alphas(
        self, dot_a: int, dot_b: int, gate_x: int | str, gate_y: int | str
    ) -> tuple[float, float]:
        """Ground-truth virtualization coefficients for a swept gate pair."""
        return self._capacitance.virtualization_alphas(dot_a, dot_b, gate_x, gate_y)

    def ground_truth_slopes(
        self, dot_a: int, dot_b: int, gate_x: int | str, gate_y: int | str
    ) -> tuple[float, float]:
        """Ground-truth (steep, shallow) transition-line slopes for a pair."""
        return self._capacitance.transition_slopes(dot_a, dot_b, gate_x, gate_y)

    def _validated_points(self, gate_voltage_points: np.ndarray) -> np.ndarray:
        points = np.asarray(gate_voltage_points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.n_gates:
            raise DeviceModelError(
                f"expected voltage points of shape (n, {self.n_gates}), "
                f"got {points.shape}"
            )
        return points

    def _validated_voltages(self, gate_voltages: np.ndarray | list) -> np.ndarray:
        vg = np.asarray(gate_voltages, dtype=float)
        if vg.shape != (self.n_gates,):
            raise DeviceModelError(
                f"expected {self.n_gates} gate voltages, got shape {vg.shape}"
            )
        return vg

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def double_dot(
        cls,
        cross_coupling: tuple[float, float] = (0.25, 0.22),
        charging_energy_mev: tuple[float, float] = (3.2, 2.9),
        mutual_fraction: float = 0.15,
        plunger_lever_arms: tuple[float, float] = (0.10, 0.11),
        sensor_config: ChargeSensorConfig | None = None,
        voltage_range: tuple[float, float] = (0.0, 1.0),
        name: str = "double-dot",
    ) -> "DotArrayDevice":
        """A double quantum dot with two plunger gates (paper's Figure 2/3).

        ``cross_coupling`` are the fractions of each plunger's capacitance seen
        by the *other* dot — these are exactly the quantities the
        virtualization matrix must learn.
        """
        capacitance = CapacitanceModel.double_dot(
            charging_energy_mev=charging_energy_mev,
            mutual_fraction=mutual_fraction,
            plunger_lever_arms=plunger_lever_arms,
            cross_lever_fractions=cross_coupling,
            gate_names=("P1", "P2"),
        )
        sensor = (
            ChargeSensor(sensor_config)
            if sensor_config is not None
            else ChargeSensor.with_sensitivity(n_dots=2, n_gates=2)
        )
        low, high = voltage_range
        specs = tuple(
            GateSpec(name=gate, min_voltage=low, max_voltage=high)
            for gate in capacitance.gate_names
        )
        return cls(capacitance=capacitance, sensor=sensor, gate_specs=specs, name=name)

    @classmethod
    def linear_array(
        cls,
        n_dots: int = 4,
        nearest_cross_fraction: float = 0.25,
        next_nearest_cross_fraction: float = 0.05,
        charging_energy_mev: float = 3.0,
        voltage_range: tuple[float, float] = (0.0, 1.0),
        name: str | None = None,
    ) -> "DotArrayDevice":
        """A linear ``n_dots`` array with one plunger per dot (paper's Fig. 1)."""
        capacitance = CapacitanceModel.linear_array(
            n_dots=n_dots,
            charging_energy_mev=charging_energy_mev,
            nearest_cross_fraction=nearest_cross_fraction,
            next_nearest_cross_fraction=next_nearest_cross_fraction,
        )
        sensor = ChargeSensor.with_sensitivity(n_dots=n_dots, n_gates=n_dots)
        low, high = voltage_range
        specs = tuple(
            GateSpec(name=gate, min_voltage=low, max_voltage=high)
            for gate in capacitance.gate_names
        )
        return cls(
            capacitance=capacitance,
            sensor=sensor,
            gate_specs=specs,
            name=name or f"{n_dots}-dot-array",
        )

    @classmethod
    def quadruple_dot(cls, **kwargs) -> "DotArrayDevice":
        """Convenience wrapper for the four-dot device of the paper's Fig. 1."""
        kwargs.setdefault("n_dots", 4)
        kwargs.setdefault("name", "quadruple-dot")
        return cls.linear_array(**kwargs)

    @classmethod
    def grid_array(
        cls,
        rows: int = 2,
        cols: int = 3,
        nearest_cross_fraction: float = 0.25,
        next_nearest_cross_fraction: float = 0.05,
        charging_energy_mev: float = 3.0,
        voltage_range: tuple[float, float] = (0.0, 1.0),
        name: str | None = None,
    ) -> "DotArrayDevice":
        """A ``rows x cols`` 2-D dot lattice with one plunger per dot.

        Dots are indexed row-major; :meth:`neighbour_pairs` walks the
        lattice's 4-connected edges in sorted ``(dot_a, dot_b)`` order,
        so the pairwise extraction visits every physical neighbour bond —
        ``rows * (cols - 1) + (rows - 1) * cols`` pairs, more than the
        ``n - 1`` of a chain with the same dot count.
        """
        if rows < 1 or cols < 1:
            raise DeviceModelError("grid_array needs rows >= 1 and cols >= 1")
        capacitance = CapacitanceModel.grid_lattice(
            rows=rows,
            cols=cols,
            charging_energy_mev=charging_energy_mev,
            nearest_cross_fraction=nearest_cross_fraction,
            next_nearest_cross_fraction=next_nearest_cross_fraction,
        )
        n_dots = rows * cols
        site = lambda r, c: r * cols + c  # noqa: E731
        edges: list[tuple[int, int]] = []
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((site(r, c), site(r, c + 1)))
        for r in range(rows):
            for c in range(cols):
                if r + 1 < rows:
                    edges.append((site(r, c), site(r + 1, c)))
        sensor = ChargeSensor.with_sensitivity(n_dots=n_dots, n_gates=n_dots)
        low, high = voltage_range
        specs = tuple(
            GateSpec(name=gate, min_voltage=low, max_voltage=high)
            for gate in capacitance.gate_names
        )
        return cls(
            capacitance=capacitance,
            sensor=sensor,
            gate_specs=specs,
            name=name or f"{rows}x{cols}-lattice",
            adjacency=tuple(sorted(edges)),
        )
