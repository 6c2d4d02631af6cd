"""Two-piece-wise linear fit of the transition lines (paper §4.3.3).

The filtered transition points trace two straight lines that meet near the
triple point.  Following the paper, the fit parameterises the shape by the two
*initial anchor points* (which are taken as fixed, they are known to lie on
the lines) and the intersection point ``(x0, y0)`` — only the intersection is
free.  SciPy's bounded ``least_squares`` finds the intersection that minimises
the vertical residuals of the filtered points; the two slopes then follow from
the anchor points and the fitted intersection.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from ..exceptions import FitError
from .config import FitConfig
from .result import SlopeFitResult


def piecewise_transition_model(
    x: np.ndarray,
    x0: float,
    y0: float,
    steep_anchor_v: tuple[float, float],
    shallow_anchor_v: tuple[float, float],
) -> np.ndarray:
    """Two-segment transition-line shape evaluated at x-axis voltages ``x``.

    For ``x <= x0`` the shape follows the shallow line through the shallow
    anchor and ``(x0, y0)``; for ``x > x0`` it follows the steep line through
    ``(x0, y0)`` and the steep anchor.
    """
    x = np.asarray(x, dtype=float)
    vx_steep, vy_steep = steep_anchor_v
    vx_shallow, vy_shallow = shallow_anchor_v
    shallow_den = x0 - vx_shallow
    steep_den = vx_steep - x0
    shallow_den = shallow_den if abs(shallow_den) > 1e-12 else 1e-12
    steep_den = steep_den if abs(steep_den) > 1e-12 else 1e-12
    shallow_slope = (y0 - vy_shallow) / shallow_den
    steep_slope = (vy_steep - y0) / steep_den
    shallow_branch = vy_shallow + shallow_slope * (x - vx_shallow)
    steep_branch = y0 + steep_slope * (x - x0)
    return np.where(x <= x0, shallow_branch, steep_branch)


class TransitionLineFitter:
    """Fit the intersection point and extract the two transition slopes."""

    def __init__(self, config: FitConfig | None = None) -> None:
        self._config = config or FitConfig()

    @property
    def config(self) -> FitConfig:
        """The fit configuration."""
        return self._config

    def fit(
        self,
        points_voltage: np.ndarray,
        steep_anchor_v: tuple[float, float],
        shallow_anchor_v: tuple[float, float],
    ) -> SlopeFitResult:
        """Fit the two-piece shape to transition points given in volts.

        Parameters
        ----------
        points_voltage:
            Array of shape ``(n, 2)`` with columns ``(vx, vy)``.
        steep_anchor_v, shallow_anchor_v:
            Voltage coordinates of the two initial anchor points.

        Raises
        ------
        FitError
            If there are too few points, a point is not finite, or the
            optimiser does not converge.
        """
        points = np.asarray(points_voltage, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise FitError(f"points must have shape (n, 2), got {points.shape}")
        if points.shape[0] < self._config.min_points:
            raise FitError(
                f"need at least {self._config.min_points} transition points to fit, "
                f"got {points.shape[0]}"
            )
        vx_steep, vy_steep = steep_anchor_v
        vx_shallow, vy_shallow = shallow_anchor_v
        if not (vx_steep > vx_shallow and vy_shallow > vy_steep):
            raise FitError(
                "anchor points are not in the expected arrangement "
                "(steep anchor right/below, shallow anchor left/above)"
            )
        x_data = points[:, 0]
        y_data = points[:, 1]

        def model(x: np.ndarray, x0: float, y0: float) -> np.ndarray:
            return piecewise_transition_model(
                x, x0, y0, (vx_steep, vy_steep), (vx_shallow, vy_shallow)
            )

        span_x = vx_steep - vx_shallow
        span_y = vy_shallow - vy_steep
        p0 = (vx_shallow + 0.85 * span_x, vy_steep + 0.85 * span_y)
        eps_x = 1e-6 * span_x
        eps_y = 1e-6 * span_y
        bounds = (
            (vx_shallow + eps_x, vy_steep + eps_y),
            (vx_steep - eps_x, vy_shallow - eps_y),
        )
        try:
            np.asarray_chkfinite(points)  # a NaN or inf point is refused, not fitted
            result = optimize.least_squares(
                lambda p: model(x_data, *p) - y_data,
                p0,
                jac="2-point",
                bounds=bounds,
                method="trf",
                max_nfev=self._config.max_function_evaluations,
            )
        except ValueError as exc:
            raise FitError(f"transition-line fit did not converge: {exc}") from exc
        if not result.success:
            raise FitError(f"transition-line fit did not converge: {result.message}")
        x0, y0 = float(result.x[0]), float(result.x[1])
        residuals = y_data - model(x_data, x0, y0)
        residual_rms = float(np.sqrt(np.mean(residuals**2)))

        steep_den = vx_steep - x0
        shallow_den = x0 - vx_shallow
        steep_slope = (vy_steep - y0) / (steep_den if abs(steep_den) > 1e-12 else 1e-12)
        shallow_slope = (y0 - vy_shallow) / (
            shallow_den if abs(shallow_den) > 1e-12 else 1e-12
        )
        return SlopeFitResult(
            intersection_voltage=(x0, y0),
            slope_steep=float(steep_slope),
            slope_shallow=float(shallow_slope),
            residual_rms=residual_rms,
            n_points_used=int(points.shape[0]),
        )
