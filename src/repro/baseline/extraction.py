"""The conventional baseline's configuration (§3, §5.1).

The baseline the paper compares against (refs [12, 18]) works in three steps:

1. acquire the *complete* charge-stability diagram by probing every pixel —
   this is where essentially all of its runtime goes, because each pixel
   costs a dwell time;
2. detect edges with the Canny detector;
3. find the two dominant transition lines with a Hough transform, classify
   them into the steep (x-axis dot) and shallow (y-axis dot) line by their
   normal angle, and convert their slopes into the virtualization matrix.

This package holds the steps (:mod:`repro.baseline.canny`,
:mod:`repro.baseline.hough`) and :class:`BaselineConfig`.  The procedure
is the ``dense-grid-baseline`` stage composition in
:mod:`repro.pipeline.baseline_stages`, and its public front,
:class:`~repro.pipeline.registry.HoughBaselineExtractor`, lives in
:mod:`repro.pipeline` next to the fast extractor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import BaselineError
from .canny import CannyConfig
from .hough import HoughConfig

#: Name used in result records and report tables.
BASELINE_METHOD_NAME = "hough-baseline"


@dataclass(frozen=True)
class BaselineConfig:
    """Configuration of the Canny + Hough baseline pipeline."""

    canny: CannyConfig = field(default_factory=CannyConfig)
    hough: HoughConfig = field(default_factory=HoughConfig)
    steep_theta_max_deg: float = 45.0
    min_steep_slope_magnitude: float = 1.0
    max_shallow_slope_magnitude: float = 1.0
    max_alpha: float = 1.5
    min_edge_pixels: int = 20

    def __post_init__(self) -> None:
        if not 0 < self.steep_theta_max_deg < 90:
            raise BaselineError("steep_theta_max_deg must lie in (0, 90)")
        if self.min_edge_pixels < 1:
            raise BaselineError("min_edge_pixels must be at least 1")
