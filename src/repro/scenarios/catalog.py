"""Named laboratory scenarios: device + noise + drift + timing in one place.

A :class:`LabScenario` bundles everything that distinguishes one simulated
lab from another — which device is bonded in, what corrupts its sensor
signal, how the device itself evolves with time, and how long a probe takes —
behind a single constructor, so workloads can say
``get_scenario("charge_jumpy").session_factory(resolution=100).make(seed=7)``
instead of assembling five objects by hand.  The catalogue registered here is
the library's standing answer to "which conditions has this been tried
under?": every entry is constructible by name, sweepable as a campaign axis
(:class:`~repro.campaign.grid.CampaignGrid`), and exercised by the test
suite.

The registry (:data:`SCENARIOS`, one :class:`~repro.registry.Registry`) is
open: :func:`register_scenario` adds project-specific entries, and the
built-ins below double as examples of the vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..exceptions import ConfigurationError
from ..faults import models_for
from ..instrument.resilience import ProbeRetryPolicy
from ..instrument.session import SessionFactory
from ..instrument.timing import TimingModel
from ..physics.dot_array import DotArrayDevice
from ..physics.drift import DeviceDrift
from ..physics.noise import (
    CompositeNoise,
    NoiseModel,
    PinkNoise,
    TelegraphNoise,
    WhiteNoise,
    standard_lab_noise,
)
from ..registry import Registry
from .devices import DeviceSpec


@dataclass(frozen=True)
class LabScenario:
    """One named, fully specified simulated-lab condition.

    Attributes
    ----------
    name:
        Registry key; short snake_case.
    story:
        One-line physical story of the condition — what a lab notebook would
        say about this cooldown.
    device:
        Declarative recipe for the device under test.
    noise:
        Additive measurement noise, or ``None`` for a noise-free sensor.
    drift:
        Time evolution of the device itself, or ``None`` for a frozen device.
    timing:
        Per-probe cost model; its probe cost also converts pixel-unit noise
        parameters to seconds for time-dependent sampling.
    time_dependent_noise:
        When true, noise is evaluated at per-probe simulated timestamps
        (:meth:`~repro.physics.noise.NoiseModel.at_times`); when false, it is
        rendered as one static per-pixel field, the way the paper's
        replayed benchmarks bake noise into the image.
    faults:
        Deterministic instrument misbehaviour baked into the scenario: a
        registered fault-condition name, a :class:`~repro.faults.FaultModel`,
        or an iterable of either (see :func:`repro.faults.models_for`).
        ``None`` (the default, and every built-in) keeps the scenario
        fault-free.
    probe_retry:
        How sessions opened on this scenario ride out injected probe
        faults; ``None`` fails on the first fault.
    """

    name: str
    story: str
    device: DeviceSpec = field(default_factory=DeviceSpec)
    noise: NoiseModel | None = None
    drift: DeviceDrift | None = None
    timing: TimingModel = field(default_factory=TimingModel.paper_default)
    time_dependent_noise: bool = False
    faults: object | None = None
    probe_retry: ProbeRetryPolicy | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a scenario needs a non-empty name")

    # ------------------------------------------------------------------
    @property
    def is_time_dependent(self) -> bool:
        """Whether sessions opened on this scenario evolve with the clock."""
        drifting = self.drift is not None and not self.drift.is_static
        return drifting or self.time_dependent_noise

    def build_device(self) -> DotArrayDevice:
        """Construct the scenario's device."""
        return self.device.build()

    def session_factory(
        self,
        device: DotArrayDevice | None = None,
        resolution: int | tuple[int, int] = 100,
    ) -> SessionFactory:
        """A :class:`~repro.instrument.session.SessionFactory` under this
        scenario's environment.

        ``device`` overrides the scenario's own device recipe — this is how a
        campaign applies one scenario's *conditions* across its whole device
        axis.
        """
        return SessionFactory(
            device=device if device is not None else self.build_device(),
            resolution=resolution,
            noise=self.noise,
            timing=self.timing,
            drift=self.drift,
            time_dependent_noise=self.time_dependent_noise,
            faults=self.faults,
            probe_retry=self.probe_retry,
        )

    def scaled(self, noise_scale: float) -> "LabScenario":
        """This scenario with its noise amplitude scaled.

        Scale 1 is the scenario as-is; scale 0 keeps drift and timing but
        silences the additive noise.  Scaling is delegated to
        :meth:`~repro.physics.noise.NoiseModel.scaled`, so custom noise
        models participate by overriding that method, and the scaled
        scenario's time-dependent samples are exactly ``noise_scale`` times
        the originals at every probe timestamp.  Registry-free, so it works
        on scenario objects shipped into worker processes.
        """
        if noise_scale < 0 or not np.isfinite(noise_scale):
            raise ConfigurationError("noise_scale must be finite and non-negative")
        if noise_scale == 1.0 or self.noise is None:
            return self
        scaled = _scale_noise(self.noise, noise_scale)
        if scaled is None:
            # Silenced entirely: drop the time-dependence flag with the
            # noise it described, so the scaled scenario does not pay the
            # per-probe-timestamp sampling path to evaluate a zero field
            # (device drift keeps its own time-dependence independently).
            return replace(self, noise=None, time_dependent_noise=False)
        return replace(self, noise=scaled)

    def describe(self) -> str:
        """One-line summary used in reports and metadata."""
        noise = self.noise.describe() if self.noise is not None else "none"
        drift = self.drift.describe() if self.drift is not None else "drift(static)"
        mode = "time-dependent" if self.time_dependent_noise else "static-field"
        text = (
            f"{self.name}: noise={noise} [{mode}], {drift}, "
            f"probe={self.timing.cost_per_probe_s:g} s"
        )
        if self.faults is not None:
            injected = (
                self.faults
                if isinstance(self.faults, str)
                else ", ".join(type(m).__name__ for m in models_for(self.faults))
            )
            text += f", faults={injected}"
        return text


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Every registered scenario, by name.
SCENARIOS: Registry[LabScenario] = Registry("scenario")


def register_scenario(scenario: LabScenario, overwrite: bool = False) -> LabScenario:
    """Add a scenario to the registry (returns it, so it chains)."""
    return SCENARIOS.register(scenario.name, scenario, overwrite)


get_scenario = SCENARIOS.get
unregister_scenario = SCENARIOS.unregister
scenario_names = SCENARIOS.names
all_scenarios = SCENARIOS.values


def scenario_catalogue() -> str:
    """Plain-text table of every registered scenario (name, story, physics)."""
    lines = ["Scenario catalogue", "=" * 18]
    width = max((len(name) for name in scenario_names()), default=0)
    for scenario in all_scenarios():
        lines.append(f"{scenario.name:<{width}}  {scenario.story}")
        lines.append(f"{'':<{width}}  {scenario.describe()}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Built-in catalogue
# ---------------------------------------------------------------------------

#: The reference double dot used across the catalogue; scenarios are about
#: the *environment*, so they share a device unless the story says otherwise.
_REFERENCE_DOT = DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22))

register_scenario(
    LabScenario(
        name="quiet_lab",
        story="Shielded dilution fridge on a good day: no measurable noise, no drift.",
        device=_REFERENCE_DOT,
    )
)

register_scenario(
    LabScenario(
        name="standard_lab",
        story="Typical cooldown: white + 1/f + slow drift baked into each scan.",
        device=_REFERENCE_DOT,
        noise=standard_lab_noise(),
    )
)

register_scenario(
    LabScenario(
        name="hot_amplifier",
        story="Cryo-amp running warm: strong white noise, fresh at every probe.",
        device=_REFERENCE_DOT,
        noise=WhiteNoise(sigma_na=0.04),
        time_dependent_noise=True,
    )
)

register_scenario(
    LabScenario(
        name="flicker_forest",
        story="Charge-noise-dominated device: heavy 1/f wandering in real time.",
        device=_REFERENCE_DOT,
        noise=CompositeNoise(
            [WhiteNoise(sigma_na=0.008), PinkNoise(sigma_na=0.03, exponent=1.0)]
        ),
        time_dependent_noise=True,
    )
)

register_scenario(
    LabScenario(
        name="telegraph_storm",
        story="A strongly coupled two-level fluctuator switches the sensor every few seconds.",
        device=_REFERENCE_DOT,
        noise=CompositeNoise(
            [
                WhiteNoise(sigma_na=0.008),
                TelegraphNoise(amplitude_na=0.06, mean_dwell_pixels=120.0),
            ]
        ),
        time_dependent_noise=True,
    )
)

register_scenario(
    LabScenario(
        name="drifting_sensor",
        story="Sensor operating point creeps off its flank over the hour.",
        device=_REFERENCE_DOT,
        noise=WhiteNoise(sigma_na=0.01),
        drift=DeviceDrift(operating_point_mv_per_hour=30.0),
        time_dependent_noise=True,
    )
)

register_scenario(
    LabScenario(
        name="charge_jumpy",
        story="Background charges rearrange tens of times per hour, each jump shifting every transition.",
        device=_REFERENCE_DOT,
        noise=WhiteNoise(sigma_na=0.01),
        drift=DeviceDrift(charge_jumps_per_hour=40.0, charge_jump_mv=0.5),
        time_dependent_noise=True,
    )
)

register_scenario(
    LabScenario(
        name="mains_hum",
        story="Ground loop picks up line interference that beats against the probe rate.",
        device=_REFERENCE_DOT,
        noise=WhiteNoise(sigma_na=0.008),
        drift=DeviceDrift(interference_mv=0.3, interference_period_s=0.34),
        time_dependent_noise=True,
    )
)

register_scenario(
    LabScenario(
        name="overnight_run",
        story="Unattended overnight campaign: slow probes, gentle drift, the occasional charge jump.",
        device=_REFERENCE_DOT,
        noise=CompositeNoise(
            [WhiteNoise(sigma_na=0.01), PinkNoise(sigma_na=0.012, exponent=1.0)]
        ),
        drift=DeviceDrift(
            operating_point_mv_per_hour=8.0,
            charge_jumps_per_hour=4.0,
            charge_jump_mv=0.4,
            lever_arm_fraction_per_hour=0.002,
        ),
        timing=TimingModel(dwell_time_s=0.100),
        time_dependent_noise=True,
    )
)

register_scenario(
    LabScenario(
        name="cryostat_warming",
        story="Fridge slowly warming: lever arms creep and the operating point rides along.",
        device=_REFERENCE_DOT,
        noise=PinkNoise(sigma_na=0.015, exponent=1.2),
        drift=DeviceDrift(
            operating_point_mv_per_hour=15.0,
            lever_arm_fraction_per_hour=0.06,
        ),
        time_dependent_noise=True,
    )
)


def scaled_scenario(name: str, noise_scale: float) -> LabScenario:
    """A registered scenario with its noise amplitude scaled.

    Convenience wrapper over :meth:`LabScenario.scaled`: scale 1 is the
    scenario as registered, scale 0 keeps the scenario's drift and timing
    but silences the additive noise.
    """
    return get_scenario(name).scaled(noise_scale)


def _scale_noise(model: NoiseModel, factor: float) -> NoiseModel | None:
    """Scale a noise model's amplitude parameters by ``factor``.

    Scale 0 silences the model entirely (returns ``None``); any other scale
    delegates to :meth:`~repro.physics.noise.NoiseModel.scaled`, so custom
    subclasses participate by overriding that hook.
    """
    if factor == 0.0:
        return None
    return model.scaled(factor)
