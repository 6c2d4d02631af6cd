"""Success-rate surfaces over a scenario space's severity axes.

A surface answers "where does the tuner stop working?" quantitatively:
sample the space, run every draw through the campaign machinery, then bin
the outcomes over two severity axes and attach a Wilson confidence
interval to each cell's success rate.  Cells are laid out on the samplers'
declared support (not the observed draws), so two surfaces over the same
space bin identically regardless of seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.metrics import wilson_interval
from ..analysis.reporting import format_surface_table
from ..exceptions import ConfigurationError
from ..strictjson import record
from .space import SEVERITY_AXES, ScenarioSpace, run_draws


@record
@dataclass(frozen=True)
class SurfaceCell:
    """One region of the surface: bounds, counts, and the Wilson interval."""

    x_low: float
    x_high: float
    y_low: float
    y_high: float
    n_jobs: int
    n_succeeded: int
    ci_low: float
    ci_high: float

    @property
    def success_rate(self) -> float:
        """Fraction of the cell's jobs that succeeded (nan when empty)."""
        if self.n_jobs == 0:
            return float("nan")
        return self.n_succeeded / self.n_jobs


@record
@dataclass(frozen=True)
class SurfaceReport:
    """A binned success surface over two severity axes."""

    space: str
    x_axis: str
    y_axis: str
    n_draws: int
    seed: int
    cells: tuple[SurfaceCell, ...]

    @property
    def n_jobs(self) -> int:
        """Total jobs across all cells."""
        return sum(cell.n_jobs for cell in self.cells)

    @property
    def n_succeeded(self) -> int:
        """Total successes across all cells."""
        return sum(cell.n_succeeded for cell in self.cells)

    def worst_cell(self) -> SurfaceCell | None:
        """The populated cell with the lowest success rate (ties: first)."""
        populated = [cell for cell in self.cells if cell.n_jobs > 0]
        if not populated:
            return None
        return min(populated, key=lambda cell: cell.success_rate)

    def format(self) -> str:
        """Aligned plain-text table of the surface."""
        return format_surface_table(
            self.x_axis,
            self.y_axis,
            [cell.as_dict() for cell in self.cells],
            title=(
                f"Success surface: {self.space} "
                f"({self.n_succeeded}/{self.n_jobs} over {self.n_draws} draws, "
                f"seed {self.seed})"
            ),
        )


def _bin_edges(space: ScenarioSpace, axis: str, bins: int) -> np.ndarray:
    """Deterministic equal-width edges over a severity sampler's support."""
    low, high = getattr(space, axis).support
    if high == low:
        # Degenerate axis (a Fixed sampler): one cell holds everything.
        return np.array([low, low])
    return np.linspace(low, high, bins + 1)


def _bin_index(edges: np.ndarray, value: float) -> int:
    """The cell index of ``value``; the top edge belongs to the last cell."""
    if len(edges) == 2 and edges[0] == edges[1]:
        return 0
    index = int(np.searchsorted(edges, value, side="right")) - 1
    return min(max(index, 0), len(edges) - 2)


def success_surface(
    space: ScenarioSpace,
    n_draws: int = 48,
    seed: int = 0,
    axes: tuple[str, str] = ("noise_scale", "fault_rate"),
    bins: int = 3,
    resolution: int = 24,
    method: str = "fast",
    pairs: str = "first",
    backend=None,
    criterion=None,
    checkpoint=None,
    z: float = 1.96,
) -> SurfaceReport:
    """Sample the space, run every draw, and bin success over two axes.

    Each draw contributes its jobs (one per tuned gate pair) to the cell
    its *parameters* fall in; a cell's confidence interval is the Wilson
    score interval at the given ``z``.  With ``checkpoint`` set the
    underlying campaign journals per-job records, so an interrupted
    surface resumes without re-running completed jobs.
    """
    x_axis, y_axis = axes
    for axis in axes:
        if axis not in SEVERITY_AXES:
            raise ConfigurationError(
                f"unknown surface axis {axis!r}; known: {SEVERITY_AXES}"
            )
    if x_axis == y_axis:
        raise ConfigurationError("surface axes must differ")
    if bins < 1:
        raise ConfigurationError("bins must be at least 1")
    draws = space.sample(n_draws, seed=seed)
    result = run_draws(
        draws,
        resolution=resolution,
        method=method,
        pairs=pairs,
        backend=backend,
        criterion=criterion,
        checkpoint=checkpoint,
    )
    by_scenario = {draw.scenario.name: draw for draw in draws}
    x_edges = _bin_edges(space, x_axis, bins)
    y_edges = _bin_edges(space, y_axis, bins)
    n_x, n_y = len(x_edges) - 1, len(y_edges) - 1
    counts = np.zeros((n_x, n_y, 2), dtype=int)  # [..., (jobs, successes)]
    for record in result.records:
        draw = by_scenario[record.scenario]
        ix = _bin_index(x_edges, getattr(draw.params, x_axis))
        iy = _bin_index(y_edges, getattr(draw.params, y_axis))
        counts[ix, iy, 0] += 1
        counts[ix, iy, 1] += int(record.success)
    cells = []
    for ix in range(n_x):
        for iy in range(n_y):
            n_jobs, n_succeeded = int(counts[ix, iy, 0]), int(counts[ix, iy, 1])
            ci_low, ci_high = wilson_interval(n_succeeded, n_jobs, z=z)
            cells.append(
                SurfaceCell(
                    x_low=float(x_edges[ix]),
                    x_high=float(x_edges[ix + 1]),
                    y_low=float(y_edges[iy]),
                    y_high=float(y_edges[iy + 1]),
                    n_jobs=n_jobs,
                    n_succeeded=n_succeeded,
                    ci_low=ci_low,
                    ci_high=ci_high,
                )
            )
    return SurfaceReport(
        space=space.name,
        x_axis=x_axis,
        y_axis=y_axis,
        n_draws=n_draws,
        seed=int(seed),
        cells=tuple(cells),
    )
