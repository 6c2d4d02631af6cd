"""Two-piece-wise linear fit of the transition lines (paper §4.3.3).

The filtered transition points trace two straight lines that meet near the
triple point.  Following the paper, the fit parameterises the shape by the two
*initial anchor points* (which are taken as fixed, they are known to lie on
the lines) and the intersection point ``(x0, y0)`` — only the intersection is
free.  The fit finds the intersection that minimises the squared vertical
residuals of the filtered points, with ``x0`` and ``y0`` held at least
``1e-6`` of the anchors' span inside the anchors; the two slopes then follow
from the anchor points and the fitted intersection.

That bounded problem is solved exactly, with no start point and no
iteration.  Once the points are split at ``x0``, each branch is a line
through a fixed anchor with one unknown slope, so its best slope is a
one-unknown least squares (variable projection; Golub & Pereyra, SIAM J.
Numer. Anal. 10, 1973).  One sort and prefix sums of the points' offsets
from the shallow anchor (suffix sums from the steep anchor) give every
split in closed form, and the bounded minimum is one of three kinds of
candidate:

1. a split's unconstrained optimum, where its two best lines cross inside
   the split and the bounds;
2. ``x0`` at a data abscissa or at a bound, with the best ``y0`` for it
   clipped to the bounds (for fixed ``x0`` the model is affine in ``y0``);
3. ``y0`` at a bound, with ``x0`` at a real root of the split's quartic
   stationarity condition — solved only on the splits whose lower bound
   beats the best candidate of the first two kinds.

Every candidate is scored with :func:`piecewise_transition_model` itself,
and the smallest sum of squares wins.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import FitError
from .config import FitConfig
from .result import SlopeFitResult

#: Closest the intersection comes to an anchor, per axis, as a fraction of
#: the anchors' span.
_BOUND_FRACTION = 1e-6

#: A stationarity quartic whose leading coefficient is below this fraction of
#: its largest one is solved with that coefficient dropped, so its companion
#: matrix stays finite.
_NEGLIGIBLE_LEAD = 1e-12


def piecewise_transition_model(
    x: np.ndarray,
    x0: float | np.ndarray,
    y0: float | np.ndarray,
    steep_anchor_v: tuple[float, float],
    shallow_anchor_v: tuple[float, float],
) -> np.ndarray:
    """Two-segment transition-line shape evaluated at x-axis voltages ``x``.

    For ``x <= x0`` the shape follows the shallow line through the shallow
    anchor and ``(x0, y0)``; for ``x > x0`` it follows the steep line through
    ``(x0, y0)`` and the steep anchor.  ``x0`` and ``y0`` may be arrays that
    broadcast against ``x``, one intersection per row.
    """
    x = np.asarray(x, dtype=float)
    vx_steep, vy_steep = steep_anchor_v
    vx_shallow, vy_shallow = shallow_anchor_v
    shallow_den = x0 - vx_shallow
    steep_den = vx_steep - x0
    shallow_den = np.where(np.abs(shallow_den) > 1e-12, shallow_den, 1e-12)
    steep_den = np.where(np.abs(steep_den) > 1e-12, steep_den, 1e-12)
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
            If there are too few points, a point is not finite, or every
            point lies on an anchor's abscissa, where the residuals do not
            depend on the intersection.
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
        try:
            np.asarray_chkfinite(points)  # a NaN or inf point is refused, not fitted
        except ValueError as exc:
            raise FitError(f"transition-line fit did not converge: {exc}") from exc
        x_data = points[:, 0]
        y_data = points[:, 1]
        if np.all((x_data == vx_shallow) | (x_data == vx_steep)):
            raise FitError(
                "too few transition points to locate the intersection: every "
                "point lies on an anchor's abscissa"
            )
        x0, y0 = _exact_intersection(x_data, y_data, steep_anchor_v, shallow_anchor_v)
        residuals = y_data - piecewise_transition_model(
            x_data, x0, y0, steep_anchor_v, shallow_anchor_v
        )
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


def _exact_intersection(
    x: np.ndarray,
    y: np.ndarray,
    steep: tuple[float, float],
    shallow: tuple[float, float],
) -> tuple[float, float]:
    """The bounded ``(x0, y0)`` with the smallest sum of squared residuals."""
    vx_steep, vy_steep = steep
    vx_shallow, vy_shallow = shallow
    span_x = vx_steep - vx_shallow
    span_y = vy_shallow - vy_steep
    x_lo, x_hi = vx_shallow + _BOUND_FRACTION * span_x, vx_steep - _BOUND_FRACTION * span_x
    y_lo, y_hi = vy_steep + _BOUND_FRACTION * span_y, vy_shallow - _BOUND_FRACTION * span_y

    # Split k puts the first k points by abscissa on the shallow branch, for
    # x0 in [lo[k], hi[k]].  Its sums of dx², dx·dy and dy² run over the
    # shallow side from the shallow anchor (sll, sle, see) and over the
    # steep side from the steep anchor (rrr, rre, ree).
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = xs.size
    sums = np.zeros((6, n + 1))
    dx, dy = xs - vx_shallow, ys - vy_shallow
    np.cumsum(np.stack((dx * dx, dx * dy, dy * dy)), axis=1, out=sums[:3, 1:])
    dx, dy = xs[::-1] - vx_steep, ys[::-1] - vy_steep
    np.cumsum(np.stack((dx * dx, dx * dy, dy * dy)), axis=1, out=sums[3:, -2::-1])
    sll, sle, see, rrr, rre, ree = sums
    lo = np.concatenate(([x_lo], np.maximum(xs, x_lo)))
    hi = np.concatenate((np.minimum(xs, x_hi), [x_hi]))

    # 1. Each split's two best slopes, where their crossing is feasible.  A
    #    side without a lever arm (sll or rrr zero) has no best slope.  No
    #    intersection in a split beats its two best lines, so their sum of
    #    squares is the split's lower bound.
    with np.errstate(divide="ignore", invalid="ignore"):
        shallow_slope = sle / sll
        steep_slope = rre / rrr
        x1 = (vy_steep - vy_shallow + shallow_slope * vx_shallow - steep_slope * vx_steep) / (
            shallow_slope - steep_slope
        )
        y1 = vy_shallow + shallow_slope * (x1 - vx_shallow)
        lower = (see - np.where(sll > 0, sle * shallow_slope, 0.0)) + (
            ree - np.where(rrr > 0, rre * steep_slope, 0.0)
        )
    interior = (lo <= x1) & (x1 <= hi) & (y_lo <= y1) & (y1 <= y_hi)

    # 2. x0 at each abscissa and bound: y0 is the weighted mean of the heights
    #    the two sides' best slopes reach at x0.  Where neither side has a
    #    lever arm, y0 does not change the residuals and any value will do.
    x2 = np.concatenate(([x_lo, x_hi], np.clip(xs, x_lo, x_hi)))
    k_ll, k_le, _, k_rr, k_re, _ = sums[:, np.searchsorted(xs, x2, side="right")]
    p, q = x2 - vx_shallow, x2 - vx_steep
    weight = k_ll * q * q + k_rr * p * p
    height = q * q * (vy_shallow * k_ll + p * k_le) + p * p * (vy_steep * k_rr + q * k_re)
    y2 = np.divide(height, weight, out=np.full_like(height, y_hi), where=weight > 0)
    y2 = np.clip(y2, y_lo, y_hi)

    cand_x = np.concatenate((x1[interior], x2))
    cand_y = np.concatenate((y1[interior], y2))
    sse = _sum_squares(x, y, cand_x, cand_y, steep, shallow)

    # 3. y0 at a bound, on the splits whose unconstrained optimum is
    #    infeasible yet would beat the best candidate so far.
    splits = np.flatnonzero((lo <= hi) & ~interior & (lower < sse.min()))
    if splits.size:
        edge_x, edge_y = _edge_candidates(
            sums[:, splits], lo[splits], hi[splits], steep, shallow, (y_lo, y_hi)
        )
        cand_x = np.concatenate((cand_x, edge_x))
        cand_y = np.concatenate((cand_y, edge_y))
        sse = np.concatenate((sse, _sum_squares(x, y, edge_x, edge_y, steep, shallow)))
    best = int(np.argmin(sse))
    return float(cand_x[best]), float(cand_y[best])


def _sum_squares(x, y, cand_x, cand_y, steep, shallow) -> np.ndarray:
    """Sum of squared residuals of the real model at each candidate."""
    residuals = y - piecewise_transition_model(
        x, cand_x[:, None], cand_y[:, None], steep, shallow
    )
    return np.einsum("ij,ij->i", residuals, residuals)


def _edge_candidates(sums, lo, hi, steep, shallow, edges) -> tuple[np.ndarray, np.ndarray]:
    """Stationary ``(x0, y0)`` of each split with ``y0`` held at each edge.

    With ``t = (x0 - vx_shallow) / span_x`` and ``s = t - 1``, the derivative
    of a split's sum of squares in ``x0``, times ``t³s³``, is the quartic
    ``s³(a·t − b) + t³(c·s − d)``, where ``a = (y0 − vy_shallow)·sle·span_x``,
    ``b = (y0 − vy_shallow)²·sll``, ``c = (y0 − vy_steep)·rre·span_x`` and
    ``d = (y0 − vy_steep)²·rrr``.  Each edge is expanded around the anchor
    whose height it hugs (in ``s`` for the lower edge, in ``t`` for the
    upper), so the roots near that anchor keep their precision.  A complex
    root contributes its real part and a missing one the split's end, both
    clipped into the split: they only add feasible candidates.
    """
    vx_steep, vy_steep = steep
    vx_shallow, vy_shallow = shallow
    span_x = vx_steep - vx_shallow
    sll, sle, _, rrr, rre, _ = sums
    y_lo, y_hi = edges

    def terms(y0: float) -> tuple[np.ndarray, ...]:
        rise_l, rise_r = y0 - vy_shallow, y0 - vy_steep
        return rise_l * sle * span_x, rise_l**2 * sll, rise_r * rre * span_x, rise_r**2 * rrr

    a, b, c, d = terms(y_lo)
    lower = (a + c, a - b + 3 * c - d, 3 * (c - d), c - 3 * d, -d)
    a, b, c, d = terms(y_hi)
    upper = (a + c, -3 * a - b - c - d, 3 * (a + b), -a - 3 * b, b)
    coeffs = np.concatenate((np.stack(lower, axis=1), np.stack(upper, axis=1)))
    scale = np.abs(coeffs).max(axis=1, keepdims=True)
    coeffs = np.divide(coeffs, scale, out=np.zeros_like(coeffs), where=scale > 0)
    roots = np.zeros((coeffs.shape[0], 4))
    regular = np.abs(coeffs[:, 0]) > _NEGLIGIBLE_LEAD
    if regular.any():
        companion = np.zeros((int(regular.sum()), 4, 4))
        companion[:, 0, :] = -coeffs[regular, 1:] / coeffs[regular, :1]
        companion[:, (1, 2, 3), (0, 1, 2)] = 1.0
        roots[regular] = np.linalg.eigvals(companion).real
    for row in np.flatnonzero(~regular):
        significant = np.flatnonzero(np.abs(coeffs[row]) > _NEGLIGIBLE_LEAD)
        if significant.size:
            found = np.roots(coeffs[row, significant[0] :]).real
            roots[row, : found.size] = found
    n = sll.size
    origin = np.repeat((vx_steep, vx_shallow), n)[:, None]
    x0 = np.clip(origin + span_x * roots, np.tile(lo, 2)[:, None], np.tile(hi, 2)[:, None])
    return x0.ravel(), np.repeat((y_lo, y_hi), 4 * n)
