"""Canny edge detection implemented from scratch (baseline pipeline, stage 1).

The classic five stages: Gaussian smoothing, Sobel gradients, non-maximum
suppression along the gradient direction, double thresholding, and edge
tracking by hysteresis.  Thresholds are expressed as fractions of the maximum
gradient magnitude, which makes the detector insensitive to the absolute
current scale of a charge-stability diagram.

Every stage works on whole arrays.  Suppression compares each pixel with the
two shifted views of the padded magnitude that its direction bin selects, and
hysteresis grows the strong set by masked 3x3 dilation until it stops
changing; both give exactly the result of a per-pixel walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import BaselineError
from .filters import gaussian_blur, normalize_image, sobel_gradients


@dataclass(frozen=True)
class CannyConfig:
    """Parameters of the Canny edge detector.

    Attributes
    ----------
    sigma:
        Standard deviation of the Gaussian pre-smoothing, in pixels.
    low_threshold_fraction, high_threshold_fraction:
        Hysteresis thresholds as fractions of the maximum gradient magnitude.
    """

    sigma: float = 1.4
    low_threshold_fraction: float = 0.10
    high_threshold_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise BaselineError("sigma must be positive")
        if not 0 < self.low_threshold_fraction < 1:
            raise BaselineError("low_threshold_fraction must lie in (0, 1)")
        if not 0 < self.high_threshold_fraction < 1:
            raise BaselineError("high_threshold_fraction must lie in (0, 1)")
        if self.low_threshold_fraction >= self.high_threshold_fraction:
            raise BaselineError("low threshold must be below the high threshold")


class CannyEdgeDetector:
    """Binary edge map from a charge-stability image."""

    def __init__(self, config: CannyConfig | None = None) -> None:
        self._config = config or CannyConfig()

    @property
    def config(self) -> CannyConfig:
        """The detector configuration."""
        return self._config

    # ------------------------------------------------------------------
    def detect(self, image: np.ndarray) -> np.ndarray:
        """Return a boolean edge map of the same shape as ``image``."""
        image = normalize_image(image)
        smoothed = gaussian_blur(image, self._config.sigma)
        _, _, magnitude, direction = sobel_gradients(smoothed)
        suppressed = self.non_maximum_suppression(magnitude, direction)
        strong, weak = self.double_threshold(suppressed)
        return self.hysteresis(strong, weak)

    # ------------------------------------------------------------------
    @staticmethod
    def non_maximum_suppression(magnitude: np.ndarray, direction: np.ndarray) -> np.ndarray:
        """Keep only pixels that are local maxima along their gradient direction.

        A pixel survives when it is ``>=`` both neighbours across its direction
        bin (a NaN angle takes the last bin); the result keeps the input dtype.
        """
        rows, cols = magnitude.shape
        angle = np.rad2deg(direction) % 180.0
        bins = [(angle < 22.5) | (angle >= 157.5), angle < 67.5, angle < 112.5]
        padded = np.pad(magnitude, 1, mode="constant")
        keep = np.ones(magnitude.shape, dtype=bool)
        # Each bin's first, then second neighbour, as (row, col) offsets into padded.
        for offsets in (((1, 0), (0, 0), (0, 1), (0, 2)), ((1, 2), (2, 2), (2, 1), (2, 0))):
            neighbours = [padded[r : r + rows, c : c + cols] for r, c in offsets]
            keep &= magnitude >= np.select(bins, neighbours[:3], neighbours[3])
        suppressed = np.zeros_like(magnitude)
        np.copyto(suppressed, magnitude, where=keep)
        return suppressed

    def double_threshold(self, suppressed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split suppressed magnitudes into strong and weak edge candidates."""
        peak = float(np.max(suppressed))
        if peak <= 0:
            empty = np.zeros_like(suppressed, dtype=bool)
            return empty, empty.copy()
        high = self._config.high_threshold_fraction * peak
        low = self._config.low_threshold_fraction * peak
        strong = suppressed >= high
        weak = (suppressed >= low) & ~strong
        return strong, weak

    @staticmethod
    def hysteresis(strong: np.ndarray, weak: np.ndarray) -> np.ndarray:
        """Keep weak pixels only when connected (8-neighbourhood) to strong ones."""
        candidates = strong | weak
        edges = strong.copy()
        while True:
            # One 3x3 dilation (rows, then columns), masked to the candidates.
            grown = edges.copy()
            grown[1:] |= edges[:-1]
            grown[:-1] |= edges[1:]
            spread = grown.copy()
            spread[:, 1:] |= grown[:, :-1]
            spread[:, :-1] |= grown[:, 1:]
            spread &= candidates
            if np.array_equal(spread, edges):
                return edges
            edges = spread
