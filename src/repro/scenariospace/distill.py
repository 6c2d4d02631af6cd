"""Failure distillation: shrink a mined failure to a minimal reproducer.

A raw mined failure typically has every severity axis loud at once, which
makes a terrible regression test — when it breaks again nobody knows which
physics mattered.  The distiller minimises the parameter vector while the
failure keeps reproducing, axis by axis in the fixed
:data:`~repro.scenariospace.space.SEVERITY_AXES` order:

1. **Zero first**: set the axis to 0; if the job still fails, the axis was
   irrelevant — keep it at 0.
2. **Bisect otherwise**: the failure needs this axis, so binary-search the
   smallest value (between the passing 0 and the failing original) that
   still fails, within a fixed evaluation budget.

Every evaluation replays the *same session seed* as the original failure,
so the search is deterministic and the minimised vector provably fails on
the recorded seed.  The result feeds a golden fixture plus a registered
regression scenario (:mod:`repro.scenariospace.regressions`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..campaign.grid import CampaignJob
from ..campaign.worker import run_campaign_job
from ..exceptions import ConfigurationError
from .mining import MinedFailure
from .space import SEVERITY_AXES, ScenarioParams, scenario_from_params


@dataclass(frozen=True)
class DistilledFailure:
    """A mined failure reduced to its minimal reproducing parameters."""

    space: str
    original: ScenarioParams
    minimal: ScenarioParams
    seed_entropy: int
    seed_spawn_key: tuple[int, ...]
    method: str
    resolution: int
    failure_category: str
    failure_reason: str
    n_evaluations: int

    def zeroed_axes(self) -> tuple[str, ...]:
        """Severity axes the distiller proved irrelevant to the failure."""
        return tuple(
            axis
            for axis in SEVERITY_AXES
            if getattr(self.original, axis) > 0 and getattr(self.minimal, axis) == 0
        )


def replay_failure(
    params: ScenarioParams,
    seed: np.random.SeedSequence,
    method: str = "fast",
    resolution: int = 24,
    criterion=None,
    name: str = "distill-probe",
):
    """Run the single job a parameter vector + seed describes.

    Returns the :class:`~repro.campaign.results.CampaignJobRecord` — the
    shared evaluation primitive of the distiller and the regression suite,
    so both judge "does it still fail?" identically.
    """
    dot_a, dot_b, gate_x, gate_y = params.device.build().neighbour_pairs()[0]
    job = CampaignJob(
        job_id=0,
        device=params.device,
        gate_x=gate_x,
        gate_y=gate_y,
        dot_a=dot_a,
        dot_b=dot_b,
        resolution=resolution,
        noise_scale=1.0,
        method=method,
        repeat=0,
        seed=seed,
        scenario=name,
        fault=None,
        environment=scenario_from_params(name, params),
    )
    return run_campaign_job(job, criterion)


def distill_failure(
    failure: MinedFailure,
    max_bisections: int = 6,
    criterion=None,
) -> DistilledFailure:
    """Minimise a mined failure's severity axes while it keeps failing.

    Raises :class:`~repro.exceptions.ConfigurationError` when the recorded
    failure does not reproduce at all — a fixture built from it would
    assert nothing.
    """
    if max_bisections < 1:
        raise ConfigurationError("max_bisections must be at least 1")
    seed = failure.seed
    evaluations = 0

    def fails(params: ScenarioParams):
        nonlocal evaluations
        evaluations += 1
        record = replay_failure(
            params,
            seed,
            method=failure.method,
            resolution=failure.resolution,
            criterion=criterion,
        )
        return (not record.success), record

    failed, record = fails(failure.params)
    if not failed:
        raise ConfigurationError(
            f"mined failure does not reproduce (params {failure.params!r}, "
            f"seed entropy {failure.seed_entropy}); refusing to distil a "
            "passing job into a regression fixture"
        )

    params = failure.params
    for axis in SEVERITY_AXES:
        value = getattr(params, axis)
        if value == 0:
            continue
        zeroed = params.with_axis(axis, 0.0)
        failed, zero_record = fails(zeroed)
        if failed:
            params, record = zeroed, zero_record
            continue
        # The axis is load-bearing: bisect down to the smallest failing
        # value.  Invariant: `value` fails, `passing` passes.
        passing = 0.0
        for _ in range(max_bisections):
            mid = (passing + value) / 2.0
            failed, mid_record = fails(params.with_axis(axis, mid))
            if failed:
                value, record = mid, mid_record
            else:
                passing = mid
        params = params.with_axis(axis, value)

    return DistilledFailure(
        space=failure.space,
        original=failure.params,
        minimal=params,
        seed_entropy=failure.seed_entropy,
        seed_spawn_key=failure.seed_spawn_key,
        method=failure.method,
        resolution=failure.resolution,
        failure_category=record.failure_category,
        failure_reason=record.failure_reason,
        n_evaluations=evaluations,
    )
