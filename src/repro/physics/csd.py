"""Charge-stability-diagram (CSD) container and simulator.

A CSD is the measured sensor current over a 2-D grid of two plunger-gate
voltages.  The paper's algorithms consume CSDs in two different ways:

* the Hough baseline acquires the *full* pixel grid up front,
* the fast extraction probes individual voltage points on demand.

Both paths go through the same data: :class:`ChargeStabilityDiagram` stores
the pixel grid, its voltage axes, and ground-truth metadata (true transition
slopes and virtualization coefficients computed from the capacitance model),
while :class:`CSDSimulator` rasterises a :class:`~repro.physics.dot_array.DotArrayDevice`
into such a diagram, adding a configurable noise field.

Conventions (DESIGN.md §2): ``data[row, col]`` with ``col`` indexing the
x-axis gate (``V_P1``) and ``row`` indexing the y-axis gate (``V_P2``); the
origin is the lower-left corner (row 0 = lowest ``V_P2``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import DatasetError, DeviceModelError
from . import constants
from .dot_array import DotArrayDevice
from .noise import NoiseModel, NoNoise


def uniform_axis_step(axis: np.ndarray) -> float | None:
    """The grid step of a uniformly spaced, increasing axis, else ``None``.

    Voltage axes almost always come from :func:`numpy.linspace`, so nearest-
    pixel lookups can be done with O(1) arithmetic instead of an O(n)
    ``argmin`` scan; this helper detects when that fast path is safe.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < 2:
        return None
    step = float(axis[-1] - axis[0]) / (axis.size - 1)
    if step <= 0 or not np.isfinite(step):
        return None
    deviation = float(np.max(np.abs(np.diff(axis) - step)))
    if deviation > 1e-9 * abs(step):
        return None
    return step


def nearest_axis_index(axis: np.ndarray, value: float, step: float | None) -> int:
    """Index of the axis entry nearest to ``value`` (ties to the lower index).

    With a uniform ``step`` (from :func:`uniform_axis_step`) the lookup is
    O(1): arithmetic narrows the answer to a three-index neighbourhood whose
    *actual* axis distances are then compared, so the result matches the
    ``argmin(|axis - value|)`` scan exactly — including float midpoint ties,
    which break towards the lower index on both paths.  Irregular axes fall
    back to the argmin scan.
    """
    offset = None if step is None else (float(value) - float(axis[0])) / step
    if offset is None or not np.isfinite(offset):
        # Non-finite values (NaN/inf) take the argmin path so both lookup
        # paths agree on degenerate inputs (argmin returns index 0).
        return int(np.argmin(np.abs(np.asarray(axis) - value)))
    n = len(axis)
    estimate = int(min(max(np.floor(offset), 0), n - 1))
    best = -1
    best_distance = np.inf
    for candidate in range(max(estimate - 1, 0), min(estimate + 2, n)):
        distance = abs(float(axis[candidate]) - float(value))
        if distance < best_distance:
            best = candidate
            best_distance = distance
    return best


@dataclass(frozen=True)
class TransitionLineGeometry:
    """Ground-truth geometry of the two addition lines in a CSD window.

    Attributes
    ----------
    slope_steep:
        dVy/dVx of the dot-A addition line (nearly vertical, negative).
    slope_shallow:
        dVy/dVx of the dot-B addition line (nearly horizontal, negative).
    crossing_x, crossing_y:
        Voltage coordinates where the two from-(0,0) addition lines cross
        (between the two triple points).
    alpha_12, alpha_21:
        Ground-truth virtualization coefficients for the swept pair.
    """

    slope_steep: float
    slope_shallow: float
    crossing_x: float
    crossing_y: float
    alpha_12: float
    alpha_21: float


@dataclass
class ChargeStabilityDiagram:
    """A rasterised CSD plus its axes and ground-truth metadata.

    Attributes
    ----------
    data:
        Sensor current in nA, shape ``(n_rows, n_cols)``.
    x_voltages:
        Voltages of the x-axis gate per column, shape ``(n_cols,)``.
    y_voltages:
        Voltages of the y-axis gate per row, shape ``(n_rows,)``.
    gate_x, gate_y:
        Names of the swept gates.
    geometry:
        Ground-truth transition-line geometry, if known (synthetic data).
    occupations:
        Optional ground-state occupation map, shape ``(n_rows, n_cols, n_dots)``.
    metadata:
        Free-form provenance information (noise description, seed, device name).
    """

    data: np.ndarray
    x_voltages: np.ndarray
    y_voltages: np.ndarray
    gate_x: str = "P1"
    gate_y: str = "P2"
    geometry: TransitionLineGeometry | None = None
    occupations: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        self.x_voltages = np.asarray(self.x_voltages, dtype=float)
        self.y_voltages = np.asarray(self.y_voltages, dtype=float)
        if self.data.ndim != 2:
            raise DatasetError(f"CSD data must be 2-D, got shape {self.data.shape}")
        if self.data.shape != (self.y_voltages.size, self.x_voltages.size):
            raise DatasetError(
                "CSD axes do not match data: data "
                f"{self.data.shape} vs (len(y), len(x)) = "
                f"({self.y_voltages.size}, {self.x_voltages.size})"
            )
        if self.x_voltages.size < 2 or self.y_voltages.size < 2:
            raise DatasetError("CSD must have at least 2 pixels along each axis")
        if not (np.all(np.diff(self.x_voltages) > 0) and np.all(np.diff(self.y_voltages) > 0)):
            raise DatasetError("CSD voltage axes must be strictly increasing")
        self._x_lookup_step = uniform_axis_step(self.x_voltages)
        self._y_lookup_step = uniform_axis_step(self.y_voltages)

    # ------------------------------------------------------------------
    # Shape and axes
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)`` of the pixel grid."""
        return self.data.shape  # type: ignore[return-value]

    @property
    def n_pixels(self) -> int:
        """Total number of pixels."""
        return int(self.data.size)

    @property
    def x_step(self) -> float:
        """Voltage step between adjacent columns."""
        return float(self.x_voltages[1] - self.x_voltages[0])

    @property
    def y_step(self) -> float:
        """Voltage step between adjacent rows."""
        return float(self.y_voltages[1] - self.y_voltages[0])

    # ------------------------------------------------------------------
    # Pixel <-> voltage conversion
    # ------------------------------------------------------------------
    def voltage_at(self, row: int, col: int) -> tuple[float, float]:
        """Voltages ``(vx, vy)`` at a pixel ``(row, col)``."""
        return float(self.x_voltages[col]), float(self.y_voltages[row])

    def pixel_at(self, vx: float, vy: float) -> tuple[int, int]:
        """Nearest pixel ``(row, col)`` for a voltage point ``(vx, vy)``.

        O(1) arithmetic on uniformly spaced axes (the common case); falls
        back to an ``argmin`` scan on irregular axes.
        """
        col = nearest_axis_index(self.x_voltages, vx, self._x_lookup_step)
        row = nearest_axis_index(self.y_voltages, vy, self._y_lookup_step)
        return row, col

    def contains_voltage(self, vx: float, vy: float) -> bool:
        """Whether a voltage point lies within the scanned window."""
        return bool(
            self.x_voltages[0] <= vx <= self.x_voltages[-1]
            and self.y_voltages[0] <= vy <= self.y_voltages[-1]
        )

    def value(self, row: int, col: int) -> float:
        """Pixel value (nA) at ``(row, col)``."""
        return float(self.data[row, col])

    def value_at_voltage(self, vx: float, vy: float) -> float:
        """Pixel value (nA) at the pixel nearest to ``(vx, vy)``."""
        row, col = self.pixel_at(vx, vy)
        return float(self.data[row, col])

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def crop(
        self,
        row_slice: slice,
        col_slice: slice,
    ) -> "ChargeStabilityDiagram":
        """Return a cropped copy covering the given pixel slices."""
        data = self.data[row_slice, col_slice].copy()
        ys = self.y_voltages[row_slice].copy()
        xs = self.x_voltages[col_slice].copy()
        occupations = (
            self.occupations[row_slice, col_slice].copy()
            if self.occupations is not None
            else None
        )
        return ChargeStabilityDiagram(
            data=data,
            x_voltages=xs,
            y_voltages=ys,
            gate_x=self.gate_x,
            gate_y=self.gate_y,
            geometry=self.geometry,
            occupations=occupations,
            metadata=dict(self.metadata, cropped=True),
        )

    def crop_fraction(self, fraction: float = 0.5, center: str = "geometry") -> "ChargeStabilityDiagram":
        """Crop to a ``fraction`` of the width/height, as the paper does.

        The paper crops each qflow CSD to the 50% window containing the
        (0,0)/(0,1)/(1,0)/(1,1) regions.  With ``center="geometry"`` the crop
        is centred on the ground-truth crossing point when available,
        otherwise on the array centre.
        """
        if not 0 < fraction <= 1:
            raise DatasetError("fraction must lie in (0, 1]")
        rows, cols = self.shape
        new_rows = max(2, int(round(rows * fraction)))
        new_cols = max(2, int(round(cols * fraction)))
        if center == "geometry" and self.geometry is not None:
            crow, ccol = self.pixel_at(self.geometry.crossing_x, self.geometry.crossing_y)
        else:
            crow, ccol = rows // 2, cols // 2
        row0 = int(np.clip(crow - new_rows // 2, 0, rows - new_rows))
        col0 = int(np.clip(ccol - new_cols // 2, 0, cols - new_cols))
        return self.crop(slice(row0, row0 + new_rows), slice(col0, col0 + new_cols))

    def normalized(self) -> "ChargeStabilityDiagram":
        """Copy with data scaled to the [0, 1] range (for image baselines)."""
        lo = float(np.min(self.data))
        hi = float(np.max(self.data))
        span = hi - lo if hi > lo else 1.0
        return ChargeStabilityDiagram(
            data=(self.data - lo) / span,
            x_voltages=self.x_voltages.copy(),
            y_voltages=self.y_voltages.copy(),
            gate_x=self.gate_x,
            gate_y=self.gate_y,
            geometry=self.geometry,
            occupations=self.occupations,
            metadata=dict(self.metadata, normalized=True),
        )


class CSDSimulator:
    """Rasterise a :class:`DotArrayDevice` into charge-stability diagrams."""

    def __init__(
        self,
        device: DotArrayDevice,
        dot_a: int = 0,
        dot_b: int = 1,
        gate_x: int | str = "P1",
        gate_y: int | str = "P2",
    ) -> None:
        if device.n_dots < 2:
            raise DeviceModelError("CSDSimulator requires a device with at least two dots")
        self._device = device
        self._dot_a = int(dot_a)
        self._dot_b = int(dot_b)
        if self._dot_a == self._dot_b:
            raise DeviceModelError("dot_a and dot_b must differ")
        self._gate_x = device.gate_index(gate_x)
        self._gate_y = device.gate_index(gate_y)
        if self._gate_x == self._gate_y:
            raise DeviceModelError("gate_x and gate_y must differ")

    @property
    def device(self) -> DotArrayDevice:
        """The simulated device."""
        return self._device

    @property
    def gate_x_name(self) -> str:
        """Name of the x-axis gate."""
        return self._device.gate_names[self._gate_x]

    @property
    def gate_y_name(self) -> str:
        """Name of the y-axis gate."""
        return self._device.gate_names[self._gate_y]

    # ------------------------------------------------------------------
    # Ground-truth geometry helpers
    # ------------------------------------------------------------------
    def geometry(self) -> TransitionLineGeometry:
        """Ground-truth line geometry for the swept pair."""
        capacitance = self._device.capacitance
        m_steep, m_shallow = capacitance.transition_slopes(
            self._dot_a, self._dot_b, self._gate_x, self._gate_y
        )
        alpha_12, alpha_21 = capacitance.virtualization_alphas(
            self._dot_a, self._dot_b, self._gate_x, self._gate_y
        )
        crossing_x, crossing_y = self.first_transition_crossing()
        return TransitionLineGeometry(
            slope_steep=m_steep,
            slope_shallow=m_shallow,
            crossing_x=crossing_x,
            crossing_y=crossing_y,
            alpha_12=alpha_12,
            alpha_21=alpha_21,
        )

    def first_transition_crossing(self) -> tuple[float, float]:
        """Voltage point where the two from-(0,0) addition lines cross.

        The (0,0)->(1,0) boundary is ``(A Vg)_a = 0.5 e (Cdd^-1)_aa`` and the
        (0,0)->(0,1) boundary is ``(A Vg)_b = 0.5 e (Cdd^-1)_bb`` (with the
        non-swept gates at 0 V); solving the 2x2 linear system gives the
        crossing in the swept-gate plane.
        """
        capacitance = self._device.capacitance
        inv = capacitance.inverse_dot_dot
        lever = capacitance.lever_arm_matrix
        e_afv = constants.ELEMENTARY_CHARGE_AF_V
        pair = np.array(
            [
                [lever[self._dot_a, self._gate_x], lever[self._dot_a, self._gate_y]],
                [lever[self._dot_b, self._gate_x], lever[self._dot_b, self._gate_y]],
            ]
        )
        rhs = np.array(
            [
                0.5 * inv[self._dot_a, self._dot_a] * e_afv,
                0.5 * inv[self._dot_b, self._dot_b] * e_afv,
            ]
        )
        solution = np.linalg.solve(pair, rhs)
        return float(solution[0]), float(solution[1])

    def addition_voltage_spans(self) -> tuple[float, float]:
        """Approximate plunger-voltage spacing between charge transitions.

        Returns ``(span_x, span_y)``: how far the x-axis (resp. y-axis) gate
        must move to add one electron to its own dot, i.e. charging energy
        divided by lever arm.  Used to size simulation windows.
        """
        capacitance = self._device.capacitance
        inv = capacitance.inverse_dot_dot
        lever = capacitance.lever_arm_matrix
        e_afv = constants.ELEMENTARY_CHARGE_AF_V
        span_x = inv[self._dot_a, self._dot_a] * e_afv / lever[self._dot_a, self._gate_x]
        span_y = inv[self._dot_b, self._dot_b] * e_afv / lever[self._dot_b, self._gate_y]
        return float(span_x), float(span_y)

    def default_window(self, span_fraction: float = 0.75) -> tuple[tuple[float, float], tuple[float, float]]:
        """A voltage window centred on the first-transition crossing.

        ``span_fraction`` scales the window size relative to the addition
        voltage spacing; 0.75 comfortably contains the four lowest charge
        regions without reaching the next transitions.
        """
        crossing_x, crossing_y = self.first_transition_crossing()
        span_x, span_y = self.addition_voltage_spans()
        half_x = 0.5 * span_fraction * span_x
        half_y = 0.5 * span_fraction * span_y
        return (
            (crossing_x - half_x, crossing_x + half_x),
            (crossing_y - half_y, crossing_y + half_y),
        )

    # ------------------------------------------------------------------
    # Point-wise and grid simulation
    # ------------------------------------------------------------------
    def ideal_current(self, vx: float, vy: float) -> float:
        """Noise-free sensor current at a single voltage point."""
        vg = np.zeros(self._device.n_gates)
        vg[self._gate_x] = vx
        vg[self._gate_y] = vy
        return self._device.sensor_current(vg)

    def simulate(
        self,
        resolution: int | tuple[int, int],
        window: tuple[tuple[float, float], tuple[float, float]] | None = None,
        noise: NoiseModel | None = None,
        seed: int | None = None,
    ) -> ChargeStabilityDiagram:
        """Rasterise a full CSD.

        Parameters
        ----------
        resolution:
            Number of pixels per axis, either a single integer (square grid)
            or ``(n_rows, n_cols)``.
        window:
            ``((x_min, x_max), (y_min, y_max))`` voltage window; defaults to
            :meth:`default_window`.
        noise:
            Additive noise model; defaults to no noise.
        seed:
            Seed for the noise generator (ignored when ``noise`` is ``None``).
        """
        if isinstance(resolution, int):
            n_rows = n_cols = int(resolution)
        else:
            n_rows, n_cols = (int(resolution[0]), int(resolution[1]))
        if n_rows < 2 or n_cols < 2:
            raise DatasetError("resolution must be at least 2x2")
        if window is None:
            window = self.default_window()
        (x_min, x_max), (y_min, y_max) = window
        if x_max <= x_min or y_max <= y_min:
            raise DatasetError("voltage window must have positive extent")
        xs = np.linspace(x_min, x_max, n_cols)
        ys = np.linspace(y_min, y_max, n_rows)
        occupations = self._device.solver.occupation_map(
            self._gate_x, self._gate_y, xs, ys
        )
        data = self._sensor_currents(xs, ys, occupations)
        noise_model = noise or NoNoise()
        rng = np.random.default_rng(seed)
        data = data + noise_model.sample_grid(data.shape, rng)
        geometry = self.geometry()
        metadata = {
            "device": self._device.name,
            "dot_a": self._dot_a,
            "dot_b": self._dot_b,
            "noise": noise_model.describe(),
            "seed": seed,
        }
        return ChargeStabilityDiagram(
            data=data,
            x_voltages=xs,
            y_voltages=ys,
            gate_x=self.gate_x_name,
            gate_y=self.gate_y_name,
            geometry=geometry,
            occupations=occupations,
            metadata=metadata,
        )

    def _sensor_currents(
        self, xs: np.ndarray, ys: np.ndarray, occupations: np.ndarray
    ) -> np.ndarray:
        # Flatten the grid to explicit voltage points and evaluate through
        # the device's shared batch kernel (the same one the instrument
        # layer's batch probe path uses).
        points = np.zeros((ys.size * xs.size, self._device.n_gates))
        points[:, self._gate_x] = np.tile(xs, ys.size)
        points[:, self._gate_y] = np.repeat(ys, xs.size)
        flat_occupations = occupations.reshape(-1, occupations.shape[-1])
        currents = self._device.sensor_currents(points, occupations=flat_occupations)
        return currents.reshape(ys.size, xs.size)
