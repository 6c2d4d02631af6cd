"""Gradient features used to detect charge-transition points.

Two features from the paper:

* the **feature gradient** (Algorithm 2): for a pixel ``(row, col)`` the sum
  of its current differences with the pixel to the right and the pixel to the
  upper-right.  A charge transition line has a negative slope, so crossing it
  rightwards or diagonally up-right adds an electron and (with the sensor
  parked on the falling flank of a Coulomb peak) drops the current — the
  feature is therefore large and positive exactly on the transition lines;
* the **anchor masks** (Section 4.4): 3x5 / 5x3 kernels that compute a
  positively sloped gradient across three pixels, a more noise-resilient
  indicator used only to find the two initial anchor points.

Both features measure *on demand* through a
:class:`~repro.instrument.measurement.ChargeSensorMeter`, so every pixel they
touch is charged dwell time and logged — exactly how the real experiment pays
for them.

The sweeps score whole row and column segments through
:meth:`FeatureGradient.segment_values`, one meter call per step, with a
stencil built once per (fixed) meter grid: the coordinates along a segment,
clamped at the right and top edges, are a slice of a template, and the line
and its neighbour are filled in across it.  Requests go segment by segment,
per pixel centre, right, upper-right: the per-pixel :meth:`value` order.
They are written into one reused buffer, which is safe because the meter
copies whatever it keeps of a request.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..exceptions import ConfigurationError, MeasurementError
from ..instrument.measurement import ChargeSensorMeter


class FeatureGradient:
    """The paper's Algorithm 2 evaluated through a measurement meter.

    Parameters
    ----------
    meter:
        Measurement meter used to obtain sensor currents.
    delta_pixels:
        Pixel granularity of the finite differences (the paper's ``delta``),
        in grid pixels.
    """

    def __init__(self, meter: ChargeSensorMeter, delta_pixels: int = 1) -> None:
        if delta_pixels < 1:
            raise ConfigurationError("delta_pixels must be at least 1")
        self._meter = meter
        self._delta = int(delta_pixels)
        n_rows, n_cols = meter.shape
        self._last = (n_rows - 1, n_cols - 1)
        # Along a row the stencil's columns are (k, k + d, k + d) for its
        # k-th pixel from column 0, along a column its rows (k, k, k + d).
        d = self._delta
        self._along = tuple(
            np.minimum(np.arange(n)[:, None] + steps, n - 1).ravel()
            for n, steps in ((n_cols, (0, d, d)), (n_rows, (0, 0, d)))
        )
        # Reused by every call; room for a row and a column segment.
        self._rows = np.empty(3 * (n_rows + n_cols), dtype=np.int64)
        self._cols = np.empty_like(self._rows)

    def _clamped(self, row: int, col: int) -> tuple[int, int]:
        rows, cols = self._meter.shape
        return min(max(row, 0), rows - 1), min(max(col, 0), cols - 1)

    def value(self, row: int, col: int) -> float:
        """Feature gradient at pixel ``(row, col)``.

        Probes the pixel itself, its right neighbour and its upper-right
        neighbour (clamped at the grid edges) and returns
        ``(c - c_right) + (c - c_upper_right)``.
        """
        row, col = self._clamped(row, col)
        center = self._meter.get_current(row, col)
        right = self._meter.get_current(*self._clamped(row, col + self._delta))
        upper_right = self._meter.get_current(*self._clamped(row + self._delta, col + self._delta))
        return (center - right) + (center - upper_right)

    def segment_values(self, segments: Iterable[tuple[int, int, int, int]]) -> np.ndarray:
        """Feature gradients of every pixel of some on-grid segments, in one meter call.

        A segment ``(axis, line, start, size)`` is ``size`` pixels from
        ``start`` along row ``line`` (``axis`` 0) or column ``line`` (1).
        Requests, cache hits and values are those of :meth:`value` called
        per pixel, segment by segment; the gradients come back in that order.
        """
        rows, cols = self._rows, self._cols
        last_row, last_col = self._last
        d = self._delta
        end = 0
        for axis, line, start, size in segments:
            last_line, last_along = self._last[axis], self._last[1 - axis]
            if min(line, start, size) < 0 or line > last_line or start + size - 1 > last_along:
                raise MeasurementError(f"segment {axis, line, start, size} is off the grid")
            stop = end + 3 * size
            if stop > rows.size:
                grown = np.empty((2, 2 * stop), dtype=np.int64)
                grown[:, :end] = rows[:end], cols[:end]
                self._rows, self._cols = rows, cols = grown
            along = self._along[axis][3 * start : 3 * (start + size)]
            if axis == 0:
                # Rows (r, r, r + d), clamped at the top edge.
                rows[end:stop] = line
                rows[end + 2 : stop : 3] = min(line + d, last_row)
                cols[end:stop] = along
            else:
                # Columns (c, c + d, c + d), clamped at the right edge.
                cols[end:stop] = min(line + d, last_col)
                cols[end:stop:3] = line
                rows[end:stop] = along
            end = stop
        currents = self._meter.get_currents(rows[:end], cols[:end])
        center = currents[0::3]
        return (center - currents[1::3]) + (center - currents[2::3])


def oriented_mask(mask: np.ndarray | tuple) -> np.ndarray:
    """Convert a paper-printed mask (image row order) to bottom-up row order.

    The paper prints its masks with the first row at the top of the image;
    this library's grids have row 0 at the *bottom* (lowest ``V_P2``), so the
    kernels are flipped vertically before use.
    """
    return np.flipud(np.asarray(mask, dtype=float))


class MaskResponse:
    """Sweep an anchor mask along one axis, measuring pixels on demand.

    A whole sweep is one batched probe: the pixels under every kernel
    position are requested position by position, kernel row by kernel row,
    clamped at the grid edges — the order a per-pixel loop would probe them
    in, so probe counts, cache hits and the probe order are the same.
    """

    def __init__(self, meter: ChargeSensorMeter, mask: np.ndarray | tuple) -> None:
        self._meter = meter
        self._mask = oriented_mask(mask)

    def _responses(self, row0: np.ndarray, col0: np.ndarray) -> np.ndarray:
        """Responses with the kernel's lower-left corner at each ``(row0, col0)``."""
        kernel_rows, kernel_cols = self._mask.shape
        grid_rows, grid_cols = self._meter.shape
        shape = (row0.size, kernel_rows, kernel_cols)
        rows = np.clip(row0[:, None] + np.arange(kernel_rows), 0, grid_rows - 1)
        cols = np.clip(col0[:, None] + np.arange(kernel_cols), 0, grid_cols - 1)
        patches = self._meter.get_currents(
            np.broadcast_to(rows[:, :, None], shape).ravel(),
            np.broadcast_to(cols[:, None, :], shape).ravel(),
        )
        weighted = patches.reshape(row0.size, kernel_rows * kernel_cols) * self._mask.ravel()
        return weighted.sum(axis=1)

    def response(self, row0: int, col0: int) -> float:
        """Mask response with the kernel's lower-left corner at ``(row0, col0)``."""
        return float(self._responses(np.array([row0]), np.array([col0]))[0])

    def sweep_along_columns(self, start_col: int, end_col: int, center_row: int) -> np.ndarray:
        """Responses for every kernel position from ``start_col`` to ``end_col``.

        The kernel is vertically centred on ``center_row``; the returned array
        has one entry per starting column (inclusive range).
        """
        col0 = np.arange(int(start_col), int(end_col) + 1)
        row0 = np.full(col0.size, center_row - self._mask.shape[0] // 2)
        return self._responses(row0, col0)

    def sweep_along_rows(self, start_row: int, end_row: int, center_col: int) -> np.ndarray:
        """Responses for every kernel position from ``start_row`` to ``end_row``.

        The kernel is horizontally centred on ``center_col``.
        """
        row0 = np.arange(int(start_row), int(end_row) + 1)
        col0 = np.full(row0.size, center_col - self._mask.shape[1] // 2)
        return self._responses(row0, col0)


def gaussian_window(length: int, center_fraction: float = 0.5, sigma_fraction: float = 0.25) -> np.ndarray:
    """1-D Gaussian weighting used on the anchor mask responses (paper §4.4).

    Parameters
    ----------
    length:
        Number of response samples to weight.
    center_fraction:
        Centre of the Gaussian as a fraction of the response range.
    sigma_fraction:
        Width of the Gaussian as a fraction of the response range.
    """
    if length < 1:
        raise ConfigurationError("length must be at least 1")
    if length == 1:
        return np.ones(1)
    positions = np.linspace(0.0, 1.0, length)
    sigma = max(sigma_fraction, 1e-6)
    return np.exp(-0.5 * ((positions - center_fraction) / sigma) ** 2)
