"""Parametric scenario spaces and their deterministic sampling.

A :class:`ScenarioSpace` is a distribution over
:class:`~repro.scenarios.catalog.LabScenario` objects, factored along the
axes the tuner is known to be sensitive to: which device is bonded in, how
loud the sensor noise is, how fast the device drifts, and how often probes
fault.  A draw is a complete, runnable scenario plus the parameter vector
that produced it — the vector is what the miner perturbs and the distiller
shrinks, the scenario is what a campaign executes.

Sampling discipline mirrors the campaign grid: the caller's seed becomes a
:class:`~numpy.random.SeedSequence` root, every draw gets its own spawned
child, and each child splits again into a parameter stream and a session
seed.  ``sample(n, seed)`` is therefore a pure function of ``(space, n,
seed)`` — bit-identical across calls, processes, and machines — and two
different draws never share randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from ..campaign.engine import TuningCampaign
from ..campaign.grid import CampaignJob, noise_for_scale
from ..campaign.results import CampaignResult
from ..exceptions import ConfigurationError
from ..faults.models import TransientReadFault
from ..instrument.resilience import ProbeRetryPolicy
from ..physics.drift import DeviceDrift
from ..scenarios.catalog import LabScenario
from ..scenarios.devices import DeviceSpec
from ..seeding import spawn_seeds
from ..strictjson import record
from .distributions import Choice, Fixed, LogUniform, Sampler, Uniform

#: The numeric axes the adversarial miner may stress and the distiller
#: shrinks, in the deterministic order both walk them.
SEVERITY_AXES: tuple[str, ...] = ("noise_scale", "drift_mv_per_hour", "fault_rate")

#: Hard cap on a sampled/stressed per-probe fault rate.  Fault models
#: require rates in [0, 1], and a rate of 1 deadlocks every retry budget;
#: capping (rather than rejecting) keeps aggressively-stressed spaces
#: drawable while still representing "almost every probe faults".
MAX_FAULT_RATE = 0.9


@record
@dataclass(frozen=True)
class ScenarioParams:
    """The parameter vector behind one sampled scenario.

    This is the miner's and distiller's unit of currency: small enough to
    mutate and bisect axis-by-axis, complete enough to rebuild the exact
    scenario via :func:`scenario_from_params`.  Round-trips through strict
    JSON so mined reproducers can live in golden fixtures.
    """

    device: DeviceSpec = field(default_factory=DeviceSpec)
    noise_scale: float = 1.0
    drift_mv_per_hour: float = 0.0
    fault_rate: float = 0.0
    time_dependent: bool = True

    def __post_init__(self) -> None:
        for name in ("noise_scale", "drift_mv_per_hour", "fault_rate"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigurationError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        if self.fault_rate > 1.0:
            raise ConfigurationError(
                f"fault_rate must lie in [0, 1], got {self.fault_rate!r}"
            )

    def with_axis(self, axis: str, value: float) -> "ScenarioParams":
        """A copy with one severity axis replaced (distiller primitive)."""
        if axis not in SEVERITY_AXES:
            raise ConfigurationError(
                f"unknown severity axis {axis!r}; known: {SEVERITY_AXES}"
            )
        return replace(self, **{axis: float(value)})


def scenario_from_params(name: str, params: ScenarioParams) -> LabScenario:
    """Materialise the :class:`LabScenario` a parameter vector describes.

    The mapping is intentionally boring — the same standard lab noise mix
    the campaign noise axis uses, scaled; operating-point drift at the
    requested rate; independent per-probe read faults under the default
    retry policy — so a parameter vector's severity is comparable across
    spaces, miners, and fixture vintages.
    """
    noise = noise_for_scale(params.noise_scale)
    drift = (
        DeviceDrift(operating_point_mv_per_hour=params.drift_mv_per_hour)
        if params.drift_mv_per_hour > 0
        else None
    )
    faults = (
        TransientReadFault(rate=min(params.fault_rate, MAX_FAULT_RATE))
        if params.fault_rate > 0
        else None
    )
    return LabScenario(
        name=name,
        story=(
            f"sampled: noise x{params.noise_scale:g}, "
            f"drift {params.drift_mv_per_hour:g} mV/h, "
            f"fault rate {params.fault_rate:g}"
        ),
        device=params.device,
        noise=noise,
        drift=drift,
        time_dependent_noise=params.time_dependent and noise is not None,
        faults=faults,
        probe_retry=ProbeRetryPolicy() if faults is not None else None,
    )


@dataclass(frozen=True)
class ScenarioDraw:
    """One sample from a space: parameters, scenario, and session seed."""

    index: int
    space: str
    params: ScenarioParams
    scenario: LabScenario
    seed: np.random.SeedSequence

    @property
    def seed_entropy(self) -> tuple:
        """The seed's ``(entropy, spawn_key)`` identity, for fixtures."""
        return (self.seed.entropy, tuple(self.seed.spawn_key))


@dataclass(frozen=True)
class ScenarioSpace:
    """A seeded distribution over lab scenarios.

    Attributes
    ----------
    name:
        Short identifier; drawn scenarios are named ``{name}-{index:04d}``.
    device:
        Sampler yielding :class:`~repro.scenarios.devices.DeviceSpec`
        recipes — typically a :class:`~repro.scenariospace.distributions.Choice`
        spanning small doubles up to 6–8 dot chains and 2-D lattices.
    noise_scale:
        Sampler over multiples of the standard lab noise mix (the campaign
        noise axis); 0 silences the sensor.
    drift_mv_per_hour:
        Sampler over operating-point drift rates.
    fault_rate:
        Sampler over per-probe transient-read fault probabilities.
    time_dependent:
        Whether drawn scenarios evaluate noise at per-probe timestamps.
    """

    name: str
    device: Sampler = Fixed(DeviceSpec())
    noise_scale: Sampler = LogUniform(0.25, 4.0)
    drift_mv_per_hour: Sampler = Uniform(0.0, 30.0)
    fault_rate: Sampler = Fixed(0.0)
    time_dependent: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a scenario space needs a non-empty name")
        for axis in SEVERITY_AXES:
            sampler = getattr(self, axis)
            low, high = sampler.support  # raises for categorical samplers
            if low < 0:
                raise ConfigurationError(
                    f"{axis} sampler must have non-negative support, "
                    f"got [{low}, {high}]"
                )

    # ------------------------------------------------------------------
    def draw_params(self, rng: np.random.Generator) -> ScenarioParams:
        """One parameter vector; axes are drawn in fixed declaration order."""
        device = self.device.draw(rng)
        if not isinstance(device, DeviceSpec):
            raise ConfigurationError(
                f"the device sampler must draw DeviceSpec values, "
                f"got {type(device).__name__}"
            )
        return ScenarioParams(
            device=device,
            noise_scale=self.noise_scale.draw(rng),
            drift_mv_per_hour=self.drift_mv_per_hour.draw(rng),
            fault_rate=min(self.fault_rate.draw(rng), MAX_FAULT_RATE),
            time_dependent=self.time_dependent,
        )

    def sample(
        self, n: int, seed: int | np.random.SeedSequence = 0
    ) -> tuple[ScenarioDraw, ...]:
        """Draw ``n`` scenarios, bit-reproducibly.

        The seed is rebuilt into a root :class:`~numpy.random.SeedSequence`
        and every draw gets its own spawned child (so draws are pairwise
        independent and the sequence is prefix-stable: draw ``i`` of
        ``sample(10, s)`` equals draw ``i`` of ``sample(100, s)``).  Each
        child splits into a parameter stream and a session seed, keeping
        "which conditions" independent of "which noise realisation".
        """
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        children = spawn_seeds(seed, n)
        draws = []
        for index, child in enumerate(children):
            params_seed, session_seed = spawn_seeds(child, 2)
            params = self.draw_params(np.random.default_rng(params_seed))
            draws.append(
                ScenarioDraw(
                    index=index,
                    space=self.name,
                    params=params,
                    scenario=scenario_from_params(
                        f"{self.name}-{index:04d}", params
                    ),
                    seed=session_seed,
                )
            )
        return tuple(draws)

    def stressed(self, multipliers: Mapping[str, float]) -> "ScenarioSpace":
        """This space with named severity axes rescaled (miner primitive)."""
        updates = {}
        for axis, factor in multipliers.items():
            if axis not in SEVERITY_AXES:
                raise ConfigurationError(
                    f"unknown severity axis {axis!r}; known: {SEVERITY_AXES}"
                )
            if factor != 1.0:
                updates[axis] = getattr(self, axis).scaled(factor)
        return replace(self, **updates) if updates else self


# ---------------------------------------------------------------------------
# Running draws through the campaign machinery
# ---------------------------------------------------------------------------


def jobs_for_draws(
    draws: Sequence[ScenarioDraw],
    resolution: int = 24,
    method: str = "fast",
    pairs: str = "first",
) -> tuple[CampaignJob, ...]:
    """Expand sampled draws into concrete campaign jobs.

    ``pairs="first"`` tunes one neighbouring gate pair per draw (the cheap
    default for surfaces and mining); ``pairs="all"`` tunes every
    neighbour bond of each draw's device, with per-pair seeds spawned from
    the draw's session seed so pair counts never reshuffle randomness.
    """
    if pairs not in ("first", "all"):
        raise ConfigurationError(f"pairs must be 'first' or 'all', got {pairs!r}")
    jobs: list[CampaignJob] = []
    for draw in draws:
        device_pairs = draw.params.device.build().neighbour_pairs()
        selected = device_pairs[:1] if pairs == "first" else device_pairs
        seeds = spawn_seeds(draw.seed, len(selected)) if pairs == "all" else (draw.seed,)
        for (dot_a, dot_b, gate_x, gate_y), pair_seed in zip(selected, seeds):
            jobs.append(
                CampaignJob(
                    job_id=len(jobs),
                    device=draw.params.device,
                    gate_x=gate_x,
                    gate_y=gate_y,
                    dot_a=dot_a,
                    dot_b=dot_b,
                    resolution=resolution,
                    # The scenario already bakes in its sampled severity;
                    # the job's own noise axis stays at identity.
                    noise_scale=1.0,
                    method=method,
                    repeat=0,
                    seed=pair_seed,
                    scenario=draw.scenario.name,
                    fault=None,
                    environment=draw.scenario,
                )
            )
    return tuple(jobs)


def run_draws(
    draws: Sequence[ScenarioDraw],
    resolution: int = 24,
    method: str = "fast",
    pairs: str = "first",
    backend=None,
    criterion=None,
    checkpoint=None,
) -> CampaignResult:
    """Run sampled draws as a campaign; records come back in job-id order.

    Each job carries its draw's scenario (:func:`jobs_for_draws`), so the
    draws never enter the scenario registry and spawned pools run them
    too.
    """
    jobs = jobs_for_draws(draws, resolution=resolution, method=method, pairs=pairs)
    campaign = TuningCampaign(jobs, backend=backend, criterion=criterion)
    return campaign.run(checkpoint=checkpoint)
