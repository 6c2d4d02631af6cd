"""Hough line transform implemented from scratch (baseline pipeline, stage 2).

Edge pixels vote in a ``(rho, theta)`` accumulator with
``rho = col * cos(theta) + row * sin(theta)``; straight transition lines show
up as accumulator peaks.  A block of edge pixels votes with one ``np.bincount``
over flat ``(rho bin, theta)`` indices; no Python loop runs per pixel.  Peak
picking uses a greedy non-maximum suppression in accumulator space, and each
peak can be converted back to a slope in pixel coordinates (and, given the
voltage steps of the CSD axes, to a slope in voltage space).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import BaselineError

#: Edge pixels per voting block; bounds the (thetas x pixels) temporaries.
VOTE_BLOCK_PIXELS = 4096


@dataclass(frozen=True)
class HoughLine:
    """One detected line: its normal parameters, votes, and pixel slope."""

    rho: float
    theta_rad: float
    votes: int

    @property
    def theta_deg(self) -> float:
        """Normal angle in degrees, in [0, 180)."""
        return float(np.degrees(self.theta_rad) % 180.0)

    @property
    def slope_pixels(self) -> float:
        """Slope ``d(row)/d(col)`` of the line in pixel coordinates.

        The line direction is perpendicular to the normal: for a normal angle
        ``theta`` the slope is ``-cos(theta)/sin(theta)``; vertical lines
        (``theta`` near 0 or 180 degrees) return ``+/- inf``.
        """
        sin_t = np.sin(self.theta_rad)
        cos_t = np.cos(self.theta_rad)
        if abs(sin_t) < 1e-12:
            return float("inf") if cos_t <= 0 else float("-inf")
        return float(-cos_t / sin_t)

    def slope_voltage(self, x_step: float, y_step: float) -> float:
        """Slope ``dVy/dVx`` given the voltage step per column and per row."""
        slope = self.slope_pixels
        if np.isinf(slope):
            return slope
        return slope * (y_step / x_step)


@dataclass(frozen=True)
class HoughConfig:
    """Parameters of the Hough transform and its peak picker."""

    theta_resolution_deg: float = 1.0
    rho_resolution_pixels: float = 1.0
    n_peaks: int = 8
    min_votes_fraction: float = 0.25
    neighborhood_theta_deg: float = 10.0
    neighborhood_rho_pixels: float = 10.0

    def __post_init__(self) -> None:
        if self.theta_resolution_deg <= 0 or self.rho_resolution_pixels <= 0:
            raise BaselineError("accumulator resolutions must be positive")
        if self.n_peaks < 1:
            raise BaselineError("n_peaks must be at least 1")
        if not 0 < self.min_votes_fraction <= 1:
            raise BaselineError("min_votes_fraction must lie in (0, 1]")


class HoughTransform:
    """Accumulate edge pixels and extract dominant straight lines."""

    def __init__(self, config: HoughConfig | None = None) -> None:
        self._config = config or HoughConfig()

    @property
    def config(self) -> HoughConfig:
        """The transform configuration."""
        return self._config

    # ------------------------------------------------------------------
    def accumulate(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vote every edge pixel; returns ``(accumulator, thetas_rad, rhos)``."""
        edges = np.asarray(edges, dtype=bool)
        if edges.ndim != 2:
            raise BaselineError("edge map must be 2-D")
        rows, cols = edges.shape
        cfg = self._config
        thetas = np.deg2rad(np.arange(0.0, 180.0, cfg.theta_resolution_deg))
        diagonal = float(np.hypot(rows, cols))
        rhos = np.arange(-diagonal, diagonal + cfg.rho_resolution_pixels, cfg.rho_resolution_pixels)
        accumulator = np.zeros((rhos.size, thetas.size), dtype=np.int64)
        votes = accumulator.reshape(-1)
        edge_rows, edge_cols = np.nonzero(edges)
        cos_t = np.cos(thetas)
        sin_t = np.sin(thetas)
        theta_indices = np.arange(thetas.size)[:, np.newaxis]
        for start in range(0, edge_rows.size, VOTE_BLOCK_PIXELS):
            block = slice(start, start + VOTE_BLOCK_PIXELS)
            # rho per (theta, pixel), in place; theta-major so inner loops run over pixels.
            rho = np.multiply.outer(cos_t, edge_cols[block])
            rho += np.multiply.outer(sin_t, edge_rows[block])
            rho += diagonal
            rho /= cfg.rho_resolution_pixels
            bins = np.round(rho, out=rho).astype(int)
            np.clip(bins, 0, rhos.size - 1, out=bins)
            bins *= thetas.size
            bins += theta_indices
            votes += np.bincount(bins.ravel(), minlength=votes.size)
        return accumulator, thetas, rhos

    def find_lines(self, edges: np.ndarray) -> list[HoughLine]:
        """Detect up to ``n_peaks`` dominant lines in an edge map."""
        accumulator, thetas, rhos = self.accumulate(edges)
        if accumulator.max() == 0:
            return []
        cfg = self._config
        working = accumulator.astype(float)
        min_votes = cfg.min_votes_fraction * float(accumulator.max())
        theta_halfwidth = max(1, int(round(cfg.neighborhood_theta_deg / cfg.theta_resolution_deg)))
        rho_halfwidth = max(1, int(round(cfg.neighborhood_rho_pixels / cfg.rho_resolution_pixels)))
        lines: list[HoughLine] = []
        for _ in range(cfg.n_peaks):
            peak_index = int(np.argmax(working))
            rho_index, theta_index = np.unravel_index(peak_index, working.shape)
            votes = working[rho_index, theta_index]
            if votes < min_votes or votes <= 0:
                break
            lines.append(
                HoughLine(
                    rho=float(rhos[rho_index]),
                    theta_rad=float(thetas[theta_index]),
                    votes=int(accumulator[rho_index, theta_index]),
                )
            )
            # Suppress the neighbourhood of the accepted peak, including the
            # wrap-around in theta (0 and 180 degrees are the same line family).
            rho_lo = max(0, rho_index - rho_halfwidth)
            rho_hi = min(working.shape[0], rho_index + rho_halfwidth + 1)
            theta_lo = theta_index - theta_halfwidth
            theta_hi = theta_index + theta_halfwidth + 1
            theta_span = np.arange(theta_lo, theta_hi) % working.shape[1]
            working[rho_lo:rho_hi, theta_span] = -1.0
        return lines
