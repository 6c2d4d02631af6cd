"""Adversarial failure mining: push a scenario space toward tuner breakage.

The miner is a deterministic hill-climb over severity multipliers.  Each
round proposes stretching one severity axis up or down by a fixed step,
evaluates every proposal with a small seeded campaign over the stressed
space, and moves to the proposal with the highest failure rate when it
beats the incumbent.  Every failed job encountered anywhere along the
search — accepted or not — is harvested as a :class:`MinedFailure` carrying
the exact parameter vector and seed that reproduce it, which is what the
distiller (:mod:`repro.scenariospace.distill`) shrinks into regression
scenarios.

Determinism and resumability come from the campaign stack: round ``r``,
proposal ``c`` always evaluates the same draws with the same seeds, so
with ``checkpoint_dir`` set each evaluation journals its records and an
interrupted mine re-runs only the jobs that never finished.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..exceptions import ConfigurationError
from ..seeding import spawn_seeds
from .space import SEVERITY_AXES, ScenarioParams, ScenarioSpace, run_draws

#: Bounds on any single axis's cumulative severity multiplier.  The climb
#: must not wander to absurdity (a 10^6x noise scale "finds" failures that
#: say nothing about the tuner) nor collapse an axis to zero.
MULTIPLIER_RANGE = (1.0 / 16.0, 16.0)


@dataclass(frozen=True)
class MinedFailure:
    """One failed job found during mining, with everything to replay it."""

    space: str
    round_index: int
    params: ScenarioParams
    seed_entropy: int
    seed_spawn_key: tuple[int, ...]
    method: str
    resolution: int
    failure_category: str
    failure_reason: str

    @property
    def seed(self) -> np.random.SeedSequence:
        """The session seed that realises this failure."""
        return np.random.SeedSequence(
            entropy=self.seed_entropy, spawn_key=self.seed_spawn_key
        )


@dataclass(frozen=True)
class MiningRoundRecord:
    """Aggregate outcome of one hill-climb round."""

    round_index: int
    multipliers: tuple[tuple[str, float], ...]
    n_jobs: int
    n_failures: int
    accepted: bool


@dataclass(frozen=True)
class MiningResult:
    """Everything a finished mine produced."""

    space: str
    rounds: tuple[MiningRoundRecord, ...]
    failures: tuple[MinedFailure, ...]
    best_multipliers: tuple[tuple[str, float], ...]

    @property
    def n_failures(self) -> int:
        """Distinct failed jobs harvested across the whole search."""
        return len(self.failures)


def _clamp_multiplier(value: float) -> float:
    low, high = MULTIPLIER_RANGE
    return min(max(value, low), high)


def _evaluate(
    space: ScenarioSpace,
    multipliers: dict[str, float],
    draws_seed: np.random.SeedSequence,
    draws_per_round: int,
    resolution: int,
    method: str,
    criterion,
    checkpoint: Path | None,
):
    """Failure rate of a stressed space over one seeded batch of draws."""
    stressed = space.stressed(multipliers)
    draws = stressed.sample(draws_per_round, seed=draws_seed)
    result = run_draws(
        draws,
        resolution=resolution,
        method=method,
        criterion=criterion,
        checkpoint=checkpoint,
    )
    by_scenario = {draw.scenario.name: draw for draw in draws}
    failures = [
        (by_scenario[record.scenario], record)
        for record in result.records
        if not record.success
    ]
    rate = (
        len(failures) / len(result.records) if result.records else 0.0
    )
    return rate, failures, len(result.records)


def mine_failures(
    space: ScenarioSpace,
    n_rounds: int = 5,
    draws_per_round: int = 12,
    seed: int = 0,
    step: float = 1.6,
    resolution: int = 24,
    method: str = "fast",
    axes: tuple[str, ...] = SEVERITY_AXES,
    criterion=None,
    checkpoint_dir: str | Path | None = None,
    stop_at_failure_rate: float = 1.0,
) -> MiningResult:
    """Hill-climb the space's severity multipliers toward failure.

    Parameters are conventional: ``step`` is the per-round stretch factor
    applied up and down to each axis in ``axes``; ``stop_at_failure_rate``
    ends the search early once the incumbent's failure rate reaches it (1.0
    never stops early).  The result collects *every* failure seen — from
    rejected proposals too, since a failure reproduces from its parameter
    vector and seed regardless of where the climb went afterwards.
    """
    if n_rounds < 1:
        raise ConfigurationError("n_rounds must be at least 1")
    if draws_per_round < 1:
        raise ConfigurationError("draws_per_round must be at least 1")
    if step <= 1.0:
        raise ConfigurationError("step must be greater than 1")
    for axis in axes:
        if axis not in SEVERITY_AXES:
            raise ConfigurationError(
                f"unknown severity axis {axis!r}; known: {SEVERITY_AXES}"
            )
    journal_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None

    def journal_for(round_index: int, proposal: int) -> Path | None:
        if journal_dir is None:
            return None
        return journal_dir / f"round{round_index:02d}_prop{proposal:02d}.jsonl"

    # One spawned seed per round; each round's proposals share the round's
    # draw seed so proposals differ only by their multipliers, making the
    # comparison a paired one (same devices, same noise realisations).
    round_seeds = spawn_seeds(seed, n_rounds + 1)

    current = {axis: 1.0 for axis in axes}
    failures: dict[tuple, MinedFailure] = {}
    rounds: list[MiningRoundRecord] = []

    def harvest(round_index: int, found) -> None:
        for draw, record in found:
            key = (repr(draw.params), draw.seed_entropy)
            if key in failures:
                continue
            entropy, spawn_key = draw.seed_entropy
            failures[key] = MinedFailure(
                space=space.name,
                round_index=round_index,
                params=draw.params,
                seed_entropy=entropy,
                seed_spawn_key=spawn_key,
                method=method,
                resolution=resolution,
                failure_category=record.failure_category,
                failure_reason=record.failure_reason,
            )

    current_rate, found, n_jobs = _evaluate(
        space, current, round_seeds[0], draws_per_round,
        resolution, method, criterion, journal_for(0, 0),
    )
    harvest(0, found)
    rounds.append(
        MiningRoundRecord(
            round_index=0,
            multipliers=tuple(sorted(current.items())),
            n_jobs=n_jobs,
            n_failures=len(found),
            accepted=True,
        )
    )

    for round_index in range(1, n_rounds + 1):
        if current_rate >= stop_at_failure_rate:
            break
        proposals = []
        for axis in axes:
            for factor in (step, 1.0 / step):
                candidate = dict(current)
                candidate[axis] = _clamp_multiplier(candidate[axis] * factor)
                if candidate != current:
                    proposals.append(candidate)
        best = None  # (rate, order, candidate, found, n_jobs)
        for order, candidate in enumerate(proposals):
            rate, found, n_jobs = _evaluate(
                space, candidate, round_seeds[round_index], draws_per_round,
                resolution, method, criterion,
                journal_for(round_index, order),
            )
            harvest(round_index, found)
            # Ties break on proposal order, keeping the climb deterministic.
            if best is None or rate > best[0]:
                best = (rate, order, candidate, found, n_jobs)
        if best is None:  # every proposal clamped back onto the incumbent
            break
        accepted = best[0] > current_rate
        rounds.append(
            MiningRoundRecord(
                round_index=round_index,
                multipliers=tuple(sorted(best[2].items())),
                n_jobs=best[4],
                n_failures=len(best[3]),
                accepted=accepted,
            )
        )
        if accepted:
            current_rate, _, current, _, _ = best

    return MiningResult(
        space=space.name,
        rounds=tuple(rounds),
        failures=tuple(failures.values()),
        best_multipliers=tuple(sorted(current.items())),
    )
