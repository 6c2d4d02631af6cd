"""Baseline method steps: Canny edges + Hough transform, and their config.

Implemented from scratch on numpy (no OpenCV) so the comparison in the
evaluation exercises the same mathematical pipeline the paper's baseline
references use, while still paying for every pixel of the diagram.  The
procedure that acquires the full diagram and runs these steps,
``HoughBaselineExtractor``, lives in :mod:`repro.pipeline`.
"""

from .canny import CannyConfig, CannyEdgeDetector
from .extraction import BASELINE_METHOD_NAME, BaselineConfig
from .filters import (
    SOBEL_X,
    SOBEL_Y,
    convolve2d,
    correlate2d,
    gaussian_blur,
    gaussian_kernel_1d,
    normalize_image,
    sobel_gradients,
)
from .hough import HoughConfig, HoughLine, HoughTransform

__all__ = [
    "CannyConfig",
    "CannyEdgeDetector",
    "BASELINE_METHOD_NAME",
    "BaselineConfig",
    "SOBEL_X",
    "SOBEL_Y",
    "convolve2d",
    "correlate2d",
    "gaussian_blur",
    "gaussian_kernel_1d",
    "normalize_image",
    "sobel_gradients",
    "HoughConfig",
    "HoughLine",
    "HoughTransform",
]
