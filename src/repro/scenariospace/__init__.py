"""Scenario spaces: parametric distributions over lab conditions.

Where :mod:`repro.scenarios` names *individual* lab conditions, this package
describes *populations* of them: a :class:`ScenarioSpace` draws whole
:class:`~repro.scenarios.catalog.LabScenario` objects from seeded samplers
over device recipes, noise amplitude, device drift, and instrument-fault
rates.  Everything downstream is built on that one primitive:

* :func:`success_surface` fans sampled scenarios through a
  :class:`~repro.campaign.engine.TuningCampaign` and aggregates per-region
  success rates with Wilson confidence intervals — the tuner's operating
  envelope as a table instead of an anecdote.
* :func:`mine_failures` hill-climbs the space's severity axes toward tuner
  breakage, harvesting every failed draw along the way.
* :func:`distill_failure` shrinks a mined failure to a minimal reproducer
  (severity axes zeroed where irrelevant, bisected where not), ready to be
  committed as a named regression scenario with a golden fixture.
* :mod:`repro.scenariospace.regressions` is that commitment: the corpus of
  distilled failures, registered as permanent scenarios so the contract
  audit and the regression suite walk them forever.

Determinism is the load-bearing property: ``space.sample(n, seed)`` is a
pure function of the space and the seed — every draw gets its own
:class:`~numpy.random.SeedSequence.spawn` child, so the same call yields
bit-identical scenarios in any process, and campaign runs over the draws
are bit-identical across execution backends and worker counts.
"""

from .distill import DistilledFailure, distill_failure
from .distributions import Choice, Fixed, LogUniform, Sampler, Uniform
from .mining import MinedFailure, MiningResult, MiningRoundRecord, mine_failures
from .regressions import MINED_REGRESSIONS, MinedRegression, regression_record
from .space import (
    SEVERITY_AXES,
    ScenarioDraw,
    ScenarioParams,
    ScenarioSpace,
    jobs_for_draws,
    run_draws,
    scenario_from_params,
)
from .surface import SurfaceCell, SurfaceReport, success_surface

__all__ = [
    "Choice",
    "DistilledFailure",
    "Fixed",
    "LogUniform",
    "MINED_REGRESSIONS",
    "MinedFailure",
    "MinedRegression",
    "MiningResult",
    "MiningRoundRecord",
    "Sampler",
    "ScenarioDraw",
    "ScenarioParams",
    "ScenarioSpace",
    "SEVERITY_AXES",
    "SurfaceCell",
    "SurfaceReport",
    "distill_failure",
    "jobs_for_draws",
    "mine_failures",
    "regression_record",
    "run_draws",
    "scenario_from_params",
    "success_surface",
]
