"""Success criteria and accuracy/efficiency metrics for the evaluation.

The paper judges success by *manually* inspecting whether the affine-warped
(virtualized) diagram has axis-aligned transition lines.  With synthetic
benchmarks the ground-truth virtualization coefficients are known exactly, so
this module replaces the manual check with an equivalent automatic criterion:
an extraction is successful when its own internal checks passed *and* the
extracted coefficients are close to the ground truth (within an absolute or a
relative tolerance), which is precisely the condition under which the warped
lines look orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.result import ExtractionResult
from ..exceptions import ConfigurationError
from ..physics.csd import TransitionLineGeometry


@dataclass(frozen=True)
class SuccessCriterion:
    """Tolerance used to declare an extraction successful against ground truth.

    An extracted coefficient matches if it is within ``max_alpha_abs_error``
    of the true value *or* within ``max_alpha_rel_error`` relative error; the
    extraction succeeds when both coefficients match and the extractor's own
    sanity checks passed.
    """

    max_alpha_abs_error: float = 0.08
    max_alpha_rel_error: float = 0.35
    #: Denominator floor of the relative-error branch.  Without it a
    #: near-zero (but non-zero) ground truth makes ``abs_error / |true|``
    #: overflow; with it, couplings below the floor are judged by the
    #: absolute branch alone — exactly how a truly-zero truth is handled.
    rel_error_denominator_floor: float = 1e-6

    def alpha_matches(self, extracted: float, true_value: float) -> bool:
        """Whether one extracted coefficient is acceptably close to the truth."""
        if not np.isfinite(extracted):
            return False
        abs_error = abs(extracted - true_value)
        if abs_error <= self.max_alpha_abs_error:
            return True
        denominator = abs(true_value)
        if denominator < self.rel_error_denominator_floor:
            return False
        return abs_error / denominator <= self.max_alpha_rel_error

    def evaluate(
        self, result: ExtractionResult, geometry: TransitionLineGeometry | None
    ) -> bool:
        """Final success verdict for one extraction run."""
        if not result.success or result.matrix is None:
            return False
        if geometry is None:
            # Without ground truth fall back to the extractor's own verdict.
            return result.success
        return self.alpha_matches(
            result.matrix.alpha_12, geometry.alpha_12
        ) and self.alpha_matches(result.matrix.alpha_21, geometry.alpha_21)


@dataclass(frozen=True)
class AccuracyMetrics:
    """Coefficient and slope errors of one extraction against ground truth."""

    alpha_12_error: float
    alpha_21_error: float
    slope_steep_error: float
    slope_shallow_error: float
    orthogonality_error_deg: float

    @property
    def max_alpha_error(self) -> float:
        """Worse of the two coefficient errors."""
        return max(self.alpha_12_error, self.alpha_21_error)


def accuracy_metrics(
    result: ExtractionResult, geometry: TransitionLineGeometry
) -> AccuracyMetrics:
    """Compute accuracy metrics; infinite errors when extraction failed."""
    if result.matrix is None or result.slopes is None:
        inf = float("inf")
        return AccuracyMetrics(inf, inf, inf, inf, inf)
    alpha_12_error = abs(result.matrix.alpha_12 - geometry.alpha_12)
    alpha_21_error = abs(result.matrix.alpha_21 - geometry.alpha_21)
    slope_steep_error = abs(result.slopes[0] - geometry.slope_steep)
    slope_shallow_error = abs(result.slopes[1] - geometry.slope_shallow)
    orthogonality = result.matrix.orthogonality_error(
        geometry.slope_steep, geometry.slope_shallow
    )
    return AccuracyMetrics(
        alpha_12_error=alpha_12_error,
        alpha_21_error=alpha_21_error,
        slope_steep_error=slope_steep_error,
        slope_shallow_error=slope_shallow_error,
        orthogonality_error_deg=orthogonality,
    )


def speedup(baseline_elapsed_s: float, fast_elapsed_s: float) -> float:
    """Wall-clock speedup of the fast method over the baseline.

    ``nan`` when both costs are zero (an empty run has no defined speedup),
    ``inf`` when only the fast cost is zero.
    """
    if fast_elapsed_s <= 0:
        return float("nan") if baseline_elapsed_s <= 0 else float("inf")
    return baseline_elapsed_s / fast_elapsed_s


def wilson_interval(
    n_success: int, n_total: int, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score confidence interval for a success proportion.

    The interval of choice for the small per-region counts a success
    surface aggregates: unlike the normal approximation it never escapes
    [0, 1] and stays informative at 0/n and n/n.  ``(0, 1)`` for an empty
    region — no evidence constrains nothing.
    """
    if n_total < 0 or n_success < 0 or n_success > n_total:
        raise ConfigurationError(
            f"need 0 <= n_success <= n_total, got {n_success}/{n_total}"
        )
    if z <= 0:
        raise ConfigurationError(f"z must be positive, got {z!r}")
    if n_total == 0:
        return (0.0, 1.0)
    p = n_success / n_total
    denom = 1.0 + z * z / n_total
    centre = (p + z * z / (2.0 * n_total)) / denom
    margin = (
        z * np.sqrt(p * (1.0 - p) / n_total + z * z / (4.0 * n_total * n_total))
    ) / denom
    return (max(0.0, centre - margin), min(1.0, centre + margin))
