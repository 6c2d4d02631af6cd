"""Virtual gate extraction for n-dot arrays via pairwise runs.

The paper (§2.3) notes that virtual gates for an ``n``-dot array are obtained
by applying the pairwise extraction to every pair of neighbouring plunger
gates — ``n - 1`` extractions.  :class:`ArrayVirtualGateExtractor` automates
exactly that against the simulated device of a
:class:`~repro.instrument.session.SessionFactory`: for each neighbouring pair
it opens a measurement session (``factory.make``) over a window centred on
that pair's first charge transitions (with all other plungers held at fixed
voltages), runs the fast extractor, and accumulates the pairwise
coefficients into a full :class:`~repro.core.virtualization.ArrayVirtualization`.

The pairs run one after another, as the paper describes the procedure.
Each opens its own meter over its own window with its own child seed,
spawned by pair index before any session runs.  To tune the pairs (or
many devices) in parallel, run a campaign over the device's
:class:`~repro.campaign.grid.DeviceSpec` — a
:class:`~repro.campaign.grid.CampaignGrid` makes every neighbouring pair
its own job — on a ``"process:N"`` or ``"cluster:local:N"`` backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import ExtractionConfig
from ..core.result import ExtractionResult
from ..core.virtualization import ArrayVirtualization
from ..exceptions import ExtractionError
from ..instrument.session import SessionFactory
from ..seeding import spawn_seeds
from .registry import FastVirtualGateExtractor


@dataclass(frozen=True)
class PairExtractionRecord:
    """Result of one neighbouring-pair extraction within an array run."""

    dot_a: int
    dot_b: int
    gate_x: str
    gate_y: str
    result: ExtractionResult
    true_alpha_12: float
    true_alpha_21: float


@dataclass(frozen=True)
class ArrayExtractionResult:
    """Outcome of a full n-dot array extraction."""

    virtualization: ArrayVirtualization
    pair_records: tuple[PairExtractionRecord, ...]
    total_probes: int
    total_elapsed_s: float
    metadata: dict = field(default_factory=dict)

    @property
    def n_pairs(self) -> int:
        """Number of neighbouring pairs processed."""
        return len(self.pair_records)

    @property
    def all_pairs_succeeded(self) -> bool:
        """Whether every pairwise extraction succeeded."""
        return all(record.result.success for record in self.pair_records)

    def max_alpha_error(self) -> float:
        """Largest absolute error of any extracted coefficient vs ground truth."""
        errors = []
        for record in self.pair_records:
            if record.result.matrix is None:
                errors.append(float("inf"))
                continue
            errors.append(abs(record.result.matrix.alpha_12 - record.true_alpha_12))
            errors.append(abs(record.result.matrix.alpha_21 - record.true_alpha_21))
        return float(max(errors)) if errors else 0.0


class ArrayVirtualGateExtractor:
    """Run the fast pairwise extraction on every neighbouring plunger pair, in order.

    ``factory`` is the simulated lab: the n-dot device, the resolution of
    every pair's window, and the noise, timing, drift and faults each pair
    is measured under.
    """

    def __init__(
        self,
        factory: SessionFactory,
        config: ExtractionConfig | None = None,
        seed: int | np.random.SeedSequence | None = None,
    ) -> None:
        if min(np.ravel(factory.resolution)) < 16:
            raise ExtractionError("array extraction needs a resolution of at least 16")
        self._factory = factory
        self._config = config or ExtractionConfig.paper_defaults()
        self._seed = seed

    # ------------------------------------------------------------------
    def extract(self) -> ArrayExtractionResult:
        """Extract the full virtualization matrix of the factory's device."""
        factory = self._factory
        device = factory.device
        if device.n_dots < 2:
            raise ExtractionError("array extraction requires at least two dots")
        if device.n_gates < device.n_dots:
            raise ExtractionError("array extraction expects one plunger gate per dot")
        gate_names = device.gate_names[: device.n_dots]
        pairs = device.neighbour_pairs()
        # Child seeds are spawned (not derived arithmetically) so every
        # pair's noise stream is independent of its neighbours and of runs
        # rooted at adjacent seeds.
        seeds = spawn_seeds(self._seed, len(pairs))
        extractor = FastVirtualGateExtractor(self._config)
        virtualization = ArrayVirtualization(gate_names)
        records: list[PairExtractionRecord] = []
        total_probes = 0
        total_elapsed = 0.0
        for (dot_a, dot_b, gate_x, gate_y), seed in zip(pairs, seeds):
            session = factory.make(
                gate_x=gate_x,
                gate_y=gate_y,
                dot_a=dot_a,
                dot_b=dot_b,
                seed=seed,
            )
            result = extractor.extract(session)
            true_alpha_12, true_alpha_21 = device.ground_truth_alphas(
                dot_a, dot_b, gate_x, gate_y
            )
            if result.success and result.matrix is not None:
                virtualization.add_pair(result.matrix)
            records.append(
                PairExtractionRecord(
                    dot_a=dot_a,
                    dot_b=dot_b,
                    gate_x=gate_x,
                    gate_y=gate_y,
                    result=result,
                    true_alpha_12=true_alpha_12,
                    true_alpha_21=true_alpha_21,
                )
            )
            total_probes += result.probe_stats.n_probes
            total_elapsed += result.probe_stats.elapsed_s
        return ArrayExtractionResult(
            virtualization=virtualization,
            pair_records=tuple(records),
            total_probes=total_probes,
            total_elapsed_s=total_elapsed,
            metadata={
                "device": device.name,
                "resolution": factory.resolution,
                "n_dots": device.n_dots,
            },
        )
