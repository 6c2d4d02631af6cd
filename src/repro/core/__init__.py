"""The paper's steps of fast, probe-efficient virtual gate extraction.

Each step of Section 4 is here with its config and result types:

* :class:`AnchorFinder` — anchor-point preprocessing (§4.4);
* :class:`TransitionLineSweeper` — the shrinking-triangle row- and
  column-major sweeps (§4.3.2);
* :func:`build_point_set` — the erroneous-point filter;
* :class:`TransitionLineFitter` — the two-piece-wise linear fit (§4.3.3);
* :class:`VirtualizationMatrix` / :class:`ArrayVirtualization` — the output
  objects, including the affine transformation to virtual gate space (§2.3);
* :class:`TransitionWindowFinder` — the coarse window search;
* :class:`ExtractionConfig` — every tunable with its paper default.

The procedures built from these steps — ``FastVirtualGateExtractor``, the
n-dot ``ArrayVirtualGateExtractor`` and the ``AutoTuningWorkflow`` — live
in :mod:`repro.pipeline`, one layer up.
"""

from .anchors import AnchorFinder
from .config import (
    PAPER_MASK_X,
    PAPER_MASK_Y,
    AnchorConfig,
    ExtractionConfig,
    FitConfig,
    SweepConfig,
)
from .extraction import METHOD_NAME, gate_names_for, resolve_meter
from .fitting import TransitionLineFitter, piecewise_transition_model
from .gradient import FeatureGradient, MaskResponse, gaussian_window, oriented_mask
from .postprocess import (
    build_point_set,
    filter_transition_points,
    leftmost_point_per_row,
    lowest_point_per_column,
)
from .region import PixelPoint, TriangularRegion
from .result import (
    AnchorSearchResult,
    ExtractionResult,
    ProbeStatistics,
    SlopeFitResult,
    StageTelemetry,
    SweepTrace,
    TransitionPointSet,
)
from .sweeps import TransitionLineSweeper
from .virtualization import ArrayVirtualization, VirtualizationMatrix
from .window_search import (
    TransitionWindowFinder,
    WindowSearchConfig,
    WindowSearchResult,
    tilted_gradient_image,
)

__all__ = [
    "AnchorFinder",
    "AnchorConfig",
    "ExtractionConfig",
    "FitConfig",
    "SweepConfig",
    "PAPER_MASK_X",
    "PAPER_MASK_Y",
    "METHOD_NAME",
    "gate_names_for",
    "resolve_meter",
    "TransitionLineFitter",
    "piecewise_transition_model",
    "FeatureGradient",
    "MaskResponse",
    "gaussian_window",
    "oriented_mask",
    "build_point_set",
    "filter_transition_points",
    "leftmost_point_per_row",
    "lowest_point_per_column",
    "PixelPoint",
    "TriangularRegion",
    "AnchorSearchResult",
    "ExtractionResult",
    "ProbeStatistics",
    "SlopeFitResult",
    "StageTelemetry",
    "SweepTrace",
    "TransitionPointSet",
    "ArrayVirtualization",
    "VirtualizationMatrix",
    "TransitionWindowFinder",
    "WindowSearchConfig",
    "WindowSearchResult",
    "tilted_gradient_image",
]
