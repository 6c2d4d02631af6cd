"""Declarative job grids for batch-tuning campaigns.

A campaign is declared, not scripted: a :class:`CampaignGrid` names the
devices, resolutions, noise amplitudes, lab scenarios, methods, and repeat
count, and :meth:`CampaignGrid.expand` turns the cross product into a flat
tuple of :class:`CampaignJob` specs.  Expansion is where determinism is
fixed:

* jobs are enumerated in a stable order (device → gate pair → resolution →
  noise → scenario → fault → method → repeat), and
* every job gets its own child of the grid's root seed via
  :func:`repro.seeding.spawn_seeds`, assigned by job index *before* anything
  runs.

The scenario axis sweeps named :class:`~repro.scenarios.catalog.LabScenario`
*environments* — noise, device drift, timing, time-dependence — across the
grid's own devices.  A ``None`` entry is the classic static environment and
is crossed with every ``noise_scales`` amplitude; a named entry runs the
scenario as registered (recorded at noise scale 1) and is *not* crossed with
the noise axis — that would only duplicate jobs whose noise the scenario
already fixes.  Hand-crafted jobs may still combine the two: the worker
scales a scenario's noise by the job's ``noise_scale`` through
:meth:`~repro.scenarios.catalog.LabScenario.scaled`.

Because the seeds are bound to job identity rather than execution order, a
campaign produces bit-identical per-job results whether it runs on one
worker or many.  A job names its scenario, method and fault condition;
:func:`resolve_jobs` looks each name up once, in the parent, and the
resolved job carries the objects themselves, so a worker process (spawn
start included) runs it without consulting any registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from typing import Iterable

import numpy as np

from ..exceptions import ConfigurationError
from ..faults.models import FaultModel
from ..faults.registry import get_fault
from ..physics.csd import ChargeStabilityDiagram
from ..physics.noise import NoiseModel, standard_lab_noise
from ..pipeline.composer import TuningPipeline
from ..pipeline.registry import get_pipeline, resolve_method
from ..scenarios.catalog import LabScenario, get_scenario
from ..scenarios.devices import DEVICE_FACTORIES, DeviceSpec
from ..seeding import spawn_seeds

__all__ = [
    "CampaignGrid",
    "CampaignJob",
    "DeviceSpec",
    "DEVICE_FACTORIES",
    "noise_for_scale",
    "resolve_jobs",
]


def noise_for_scale(scale: float) -> NoiseModel | None:
    """The campaign noise axis: ``scale`` multiples of the standard lab mix."""
    if scale < 0:
        raise ConfigurationError("noise scale must be non-negative")
    if scale == 0:
        return None
    return standard_lab_noise(
        white_sigma_na=0.012 * scale,
        pink_sigma_na=0.015 * scale,
        drift_na=0.02 * scale,
    )


@dataclass(frozen=True)
class CampaignJob:
    """One fully specified tuning job within a campaign.

    ``scenario`` names a registered :class:`~repro.scenarios.catalog.LabScenario`
    whose environment (noise, drift, timing, time-dependence) the job runs
    under, or ``None`` for the classic static noise-axis environment.
    ``fault`` names a registered fault condition
    (:func:`repro.faults.get_fault`) injected into the job — probe-scope
    models wrap the session's backend, worker-scope models may kill the
    executing worker — or ``None`` for a fault-free run.

    ``environment``, ``pipeline`` and ``fault_models`` are what those names
    resolve to; :func:`resolve_jobs` fills them.  They take no part in
    equality, ``repr`` or :attr:`label`, and a resolved job's objects win
    over its names: ``replace(resolved_job, method=...)`` still runs the
    old pipeline, so rename before resolving (or clear the field).

    ``diagram`` is a stored charge-stability diagram the job replays
    instead of measuring its device (a Table-1 CSD, say); such a job takes
    no scenario or fault condition, and its device spec, noise scale and
    seed go unused.  Its :attr:`device_name` and :attr:`label` name the
    diagram.  Like the resolved objects it takes no part in equality or
    ``repr``.
    """

    job_id: int
    device: DeviceSpec
    gate_x: str
    gate_y: str
    dot_a: int
    dot_b: int
    resolution: int
    noise_scale: float
    method: str
    repeat: int
    seed: np.random.SeedSequence | None
    scenario: str | None = None
    fault: str | None = None
    environment: LabScenario | None = field(default=None, compare=False, repr=False)
    pipeline: TuningPipeline | None = field(default=None, compare=False, repr=False)
    fault_models: tuple[FaultModel, ...] = field(default=(), compare=False, repr=False)
    diagram: ChargeStabilityDiagram | None = field(default=None, compare=False, repr=False)

    @property
    def device_name(self) -> str:
        """What the job measures: its diagram's name, or its device's label."""
        if self.diagram is None:
            return self.device.label
        return str(self.diagram.metadata.get("name", "diagram"))

    @property
    def label(self) -> str:
        """Stable identifier used in reports and failure listings."""
        if self.diagram is not None:
            return (
                f"#{self.job_id} {self.device_name}:{self.gate_x}-{self.gate_y}"
                f" r{self.resolution} {self.method} x{self.repeat}"
            )
        environment = (
            f"n{self.noise_scale:g}"
            if self.scenario is None
            else f"{self.scenario} n{self.noise_scale:g}"
        )
        if self.fault is not None:
            environment += f" !{self.fault}"
        return (
            f"#{self.job_id} {self.device.factory}:{self.gate_x}-{self.gate_y}"
            f" r{self.resolution} {environment} {self.method} x{self.repeat}"
        )


def resolve_jobs(jobs: Iterable[CampaignJob]) -> tuple[CampaignJob, ...]:
    """Jobs that carry the scenario, pipeline and fault models they run.

    Fills only the fields a job is missing, with one registry lookup per
    distinct name, so jobs that share a name share one object (and a
    pickled batch of them carries it once).  An object a job already
    carries wins over its name.  Unknown names, and a diagram job that
    names a scenario or fault condition, raise
    :class:`~repro.exceptions.ConfigurationError`.
    """
    scenario_for, pipeline_for, faults_for = (
        cache(get_scenario), cache(get_pipeline), cache(get_fault)
    )
    resolved = []
    for job in jobs:
        if job.diagram is not None and (job.scenario is not None or job.fault is not None):
            raise ConfigurationError(
                f"job {job.job_id} replays a stored diagram; scenarios and "
                "fault conditions apply only to simulated devices"
            )
        updates = {}
        if job.scenario is not None and job.environment is None:
            updates["environment"] = scenario_for(job.scenario)
        if job.pipeline is None:
            updates["pipeline"] = pipeline_for(job.method)
        if job.fault is not None and not job.fault_models:
            updates["fault_models"] = faults_for(job.fault)
        resolved.append(replace(job, **updates) if updates else job)
    return tuple(resolved)


@dataclass(frozen=True)
class CampaignGrid:
    """Cross product of campaign axes, expandable into concrete jobs.

    Every neighbouring plunger-gate pair of every device is tuned at every
    ``resolution`` × *environment* × ``method`` combination, ``n_repeats``
    times with independent seeds.  The environments are the ``None`` entry
    of ``scenarios`` crossed with every ``noise_scales`` amplitude (the
    classic static sweep), plus each named
    :class:`~repro.scenarios.catalog.LabScenario` once, as registered —
    named scenarios fix their own noise, so crossing them with the noise
    axis would only clone jobs.

    The ``faults`` axis crosses every environment with each named fault
    condition (``None`` = fault-free); it is a full axis — unlike scenarios
    it *is* crossed with everything — because fault resilience is exactly
    the question "the same tuning problem, with and without injected
    misbehaviour".
    """

    devices: tuple[DeviceSpec, ...] = (DeviceSpec(),)
    resolutions: tuple[int, ...] = (100,)
    noise_scales: tuple[float, ...] = (0.0,)
    scenarios: tuple[str | None, ...] = (None,)
    faults: tuple[str | None, ...] = (None,)
    methods: tuple[str, ...] = ("fast",)
    n_repeats: int = 1
    seed: int | None = 0

    def __post_init__(self) -> None:
        if not self.devices:
            raise ConfigurationError("a campaign grid needs at least one device")
        if not self.resolutions or any(r < 16 for r in self.resolutions):
            raise ConfigurationError("resolutions must all be at least 16")
        if not self.noise_scales or any(s < 0 for s in self.noise_scales):
            raise ConfigurationError("noise scales must be non-negative")
        if not self.scenarios:
            raise ConfigurationError(
                "the scenario axis must be non-empty; use (None,) for the "
                "classic static environment"
            )
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ConfigurationError("the scenario axis must not repeat entries")
        for name in self.scenarios:
            if name is not None:
                get_scenario(name)  # raises ConfigurationError when unknown
        if not self.faults:
            raise ConfigurationError(
                "the fault axis must be non-empty; use (None,) for "
                "fault-free runs"
            )
        if len(set(self.faults)) != len(self.faults):
            raise ConfigurationError("the fault axis must not repeat entries")
        for name in self.faults:
            if name is not None:
                get_fault(name)  # raises ConfigurationError when unknown
        if not self.methods:
            raise ConfigurationError("a campaign grid needs at least one method")
        for method in self.methods:
            # Any registered tuning pipeline is a valid method axis entry;
            # resolve_method raises ConfigurationError naming the known set.
            resolve_method(method)
        if self.n_repeats < 1:
            raise ConfigurationError("n_repeats must be at least 1")

    # ------------------------------------------------------------------
    @cache
    def _device_pairs(self) -> list[tuple[DeviceSpec, tuple[tuple[int, int, str, str], ...]]]:
        # Cached (the grid is frozen and hashable) so n_jobs + expand() do
        # not rebuild every device just to re-enumerate its gate pairs.
        pairs_per_device = []
        for spec in self.devices:
            pairs = spec.build().neighbour_pairs()
            if not pairs:
                raise ConfigurationError(
                    f"device {spec.label!r} has fewer than two dots"
                )
            pairs_per_device.append((spec, pairs))
        return pairs_per_device

    def _environments(self) -> list[tuple[str | None, float]]:
        """``(scenario, noise_scale)`` combinations, in deterministic order.

        The static (``None``) environment sweeps the noise axis; each named
        scenario appears once, recorded at scale 1 (its registered noise).
        """
        environments: list[tuple[str | None, float]] = []
        if None in self.scenarios:
            environments.extend((None, scale) for scale in self.noise_scales)
        environments.extend(
            (name, 1.0) for name in self.scenarios if name is not None
        )
        return environments

    @property
    def n_jobs(self) -> int:
        """Number of jobs the grid expands into."""
        n_pairs = sum(len(pairs) for _, pairs in self._device_pairs())
        return (
            n_pairs
            * len(self.resolutions)
            * len(self._environments())
            * len(self.faults)
            * len(self.methods)
            * self.n_repeats
        )

    def expand(self) -> tuple[CampaignJob, ...]:
        """Expand the grid into jobs with per-job spawned seeds."""
        combos = []
        for spec, pairs in self._device_pairs():
            for dot_a, dot_b, gate_x, gate_y in pairs:
                for resolution in self.resolutions:
                    for scenario, noise_scale in self._environments():
                        for fault in self.faults:
                            for method in self.methods:
                                for repeat in range(self.n_repeats):
                                    combos.append(
                                        (
                                            spec,
                                            dot_a,
                                            dot_b,
                                            gate_x,
                                            gate_y,
                                            resolution,
                                            noise_scale,
                                            scenario,
                                            fault,
                                            method,
                                            repeat,
                                        )
                                    )
        seeds = spawn_seeds(self.seed, len(combos))
        return tuple(
            CampaignJob(
                job_id=job_id,
                device=spec,
                gate_x=gate_x,
                gate_y=gate_y,
                dot_a=dot_a,
                dot_b=dot_b,
                resolution=resolution,
                noise_scale=noise_scale,
                method=method,
                repeat=repeat,
                seed=seeds[job_id],
                scenario=scenario,
                fault=fault,
            )
            for job_id, (
                spec,
                dot_a,
                dot_b,
                gate_x,
                gate_y,
                resolution,
                noise_scale,
                scenario,
                fault,
                method,
                repeat,
            ) in enumerate(combos)
        )
