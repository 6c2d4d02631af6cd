"""Configuration of the fast virtual gate extraction algorithm.

Every tunable of the paper's method lives here with its paper default:

* §4.4 anchor preprocessing — number of diagonal probes, the 10% start
  margin, the ``Mask_x``/``Mask_y`` kernels, and the Gaussian weighting;
* §4.3 sweeps — pixel granularity ``delta`` of the feature gradient;
* §4.3.3 slope extraction — fit tolerances and sanity bounds on the
  resulting slopes.

The defaults reproduce the paper's behaviour; alternative values are used by
the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError

#: The paper's 3x5 mask swept along the x axis to find the steep-line anchor
#: (Section 4.4).  Rows are listed top-to-bottom in the paper's image
#: convention; the anchor finder flips them for this library's bottom-up row
#: convention.
PAPER_MASK_X: tuple[tuple[float, ...], ...] = (
    (1, 1, -3, -4, -4),
    (2, 2, 0, -2, -2),
    (4, 4, 3, -1, -1),
)

#: The paper's 5x3 mask swept along the y axis to find the shallow-line anchor.
PAPER_MASK_Y: tuple[tuple[float, ...], ...] = (
    (-1, -2, -4),
    (-1, -2, -4),
    (3, 0, -3),
    (4, 2, 1),
    (4, 2, 1),
)


@dataclass(frozen=True)
class AnchorConfig:
    """Parameters of the anchor-point preprocessing step (paper §4.4)."""

    n_diagonal_points: int = 10
    start_margin_fraction: float = 0.10
    mask_x: tuple[tuple[float, ...], ...] = PAPER_MASK_X
    mask_y: tuple[tuple[float, ...], ...] = PAPER_MASK_Y
    gaussian_center_fraction: float = 0.5
    gaussian_sigma_fraction: float = 0.25
    min_grid_extent: int = 12

    def __post_init__(self) -> None:
        if self.n_diagonal_points < 2:
            raise ConfigurationError("n_diagonal_points must be at least 2")
        if self.min_grid_extent < 8:
            raise ConfigurationError("min_grid_extent must be at least 8")
        if not 0 <= self.start_margin_fraction < 0.5:
            raise ConfigurationError("start_margin_fraction must lie in [0, 0.5)")
        if not 0 < self.gaussian_sigma_fraction <= 2.0:
            raise ConfigurationError("gaussian_sigma_fraction must lie in (0, 2]")
        if not 0 <= self.gaussian_center_fraction <= 1:
            raise ConfigurationError("gaussian_center_fraction must lie in [0, 1]")
        for name, mask in (("mask_x", self.mask_x), ("mask_y", self.mask_y)):
            arr = np.asarray(mask, dtype=float)
            if arr.ndim != 2 or arr.size == 0:
                raise ConfigurationError(f"{name} must be a non-empty 2-D kernel")

    def mask_x_array(self) -> np.ndarray:
        """``Mask_x`` as a float array."""
        return np.asarray(self.mask_x, dtype=float)

    def mask_y_array(self) -> np.ndarray:
        """``Mask_y`` as a float array."""
        return np.asarray(self.mask_y, dtype=float)


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of the shrinking-triangle sweeps (paper §4.3)."""

    delta_pixels: int = 1

    def __post_init__(self) -> None:
        if self.delta_pixels < 1:
            raise ConfigurationError("delta_pixels must be at least 1")


@dataclass(frozen=True)
class FitConfig:
    """Parameters of the two-piece-wise linear slope fit (paper §4.3.3)."""

    min_points: int = 4
    min_steep_slope_magnitude: float = 1.0
    max_shallow_slope_magnitude: float = 1.0
    max_alpha: float = 1.5

    def __post_init__(self) -> None:
        if self.min_points < 3:
            raise ConfigurationError("min_points must be at least 3")
        if self.min_steep_slope_magnitude <= 0:
            raise ConfigurationError("min_steep_slope_magnitude must be positive")
        if self.max_shallow_slope_magnitude <= 0:
            raise ConfigurationError("max_shallow_slope_magnitude must be positive")
        if self.max_alpha <= 0:
            raise ConfigurationError("max_alpha must be positive")


@dataclass(frozen=True)
class ExtractionConfig:
    """Full configuration of the fast virtual gate extraction pipeline."""

    anchors: AnchorConfig = field(default_factory=AnchorConfig)
    sweeps: SweepConfig = field(default_factory=SweepConfig)
    fit: FitConfig = field(default_factory=FitConfig)

    @classmethod
    def paper_defaults(cls) -> "ExtractionConfig":
        """The configuration used throughout the paper's evaluation."""
        return cls()

    def replace(self, **kwargs) -> "ExtractionConfig":
        """Return a copy with any of ``anchors``/``sweeps``/``fit`` replaced."""
        current = {"anchors": self.anchors, "sweeps": self.sweeps, "fit": self.fit}
        unknown = set(kwargs) - set(current)
        if unknown:
            raise ConfigurationError(f"unknown ExtractionConfig fields: {sorted(unknown)}")
        current.update(kwargs)
        return ExtractionConfig(**current)
