"""Experiment session: one tuning run against one device or dataset.

An :class:`ExperimentSession` bundles the pieces an extraction algorithm needs
— a measurement meter with its virtual clock, and (optionally) the ground
truth of the underlying synthetic device.  Sessions come from two places:

* :meth:`ExperimentSession.from_csd` replays a recorded diagram, exactly like
  the paper replays the qflow benchmarks;
* :meth:`SessionFactory.make` measures a simulated device on demand.  A
  :class:`SessionFactory` is the one description of a simulated lab (device,
  resolution, noise, timing, drift, faults); every procedure that measures a
  simulated device — an extraction, an array run, the auto-tuning
  workflow's coarse scan and fine window, a campaign job — opens its grid
  through ``make``, the only place a
  :class:`~repro.instrument.measurement.DeviceBackend` is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..faults import FaultyBackend, models_for, probe_fault_models
from ..physics.csd import ChargeStabilityDiagram, CSDSimulator, TransitionLineGeometry
from ..physics.dot_array import DotArrayDevice
from ..physics.drift import DeviceDrift
from ..physics.noise import NoiseModel
from .measurement import (
    ChargeSensorMeter,
    DatasetBackend,
    DeviceBackend,
    MeasurementBackend,
)
from .resilience import ProbeRetryPolicy
from .timing import TimingModel, VirtualClock


class ExperimentSession:
    """A measurement meter plus provenance and ground truth."""

    def __init__(
        self,
        meter: ChargeSensorMeter,
        geometry: TransitionLineGeometry | None = None,
        label: str = "session",
    ) -> None:
        self._meter = meter
        self._geometry = geometry
        self._label = label

    # ------------------------------------------------------------------
    @property
    def meter(self) -> ChargeSensorMeter:
        """The measurement meter the extraction algorithms call."""
        return self._meter

    @property
    def geometry(self) -> TransitionLineGeometry | None:
        """Ground-truth line geometry when the source is synthetic."""
        return self._geometry

    @property
    def label(self) -> str:
        """Human-readable session label."""
        return self._label

    @property
    def shape(self) -> tuple[int, int]:
        """Measurement grid shape."""
        return self._meter.shape

    def reset(self) -> None:
        """Clear probe history so another algorithm can run on the same data."""
        self._meter.reset()

    # ------------------------------------------------------------------
    @classmethod
    def from_csd(
        cls,
        csd: ChargeStabilityDiagram,
        timing: TimingModel | None = None,
        label: str | None = None,
    ) -> "ExperimentSession":
        """Replay a recorded or simulated charge-stability diagram."""
        clock = VirtualClock(timing or TimingModel.paper_default())
        meter = ChargeSensorMeter(DatasetBackend(csd), clock=clock)
        return cls(
            meter=meter,
            geometry=csd.geometry,
            label=label or csd.metadata.get("name", "csd-session"),
        )


@dataclass(frozen=True)
class SessionFactory:
    """The one description of a simulated measurement: a lab, minus the grid.

    A factory captures what stays fixed while a procedure opens its grids —
    the device, the resolution, the noise model, the timing, the drift, the
    time-dependence, the faults and how the meter rides them out — and
    :meth:`make` opens one session per gate pair, window and seed.  The
    array extractor opens one per neighbouring pair, a campaign one per job,
    the auto-tuning workflow its coarse scan (through a copy with the coarse
    resolution, ``dataclasses.replace(factory, resolution=24)``) and its
    fine window; :meth:`repro.scenarios.LabScenario.session_factory` builds
    one from a named scenario.

    Frozen and picklable, so a factory can be shipped to worker processes.
    """

    device: DotArrayDevice
    resolution: int | tuple[int, int] = 100
    noise: NoiseModel | None = None
    timing: TimingModel | None = None
    cache: bool = True
    max_probes: int | None = None
    drift: DeviceDrift | None = None
    time_dependent_noise: bool = False
    #: Fault injection: a registered condition name or fault model(s); probe
    #: scope applies inside every opened session, worker scope is carried
    #: along for the campaign layer to apply per job.
    faults: object | None = None
    #: How sessions ride out injected probe faults (None = fail on first).
    probe_retry: ProbeRetryPolicy | None = None

    def make(
        self,
        gate_x: int | str = "P1",
        gate_y: int | str = "P2",
        dot_a: int = 0,
        dot_b: int = 1,
        window: tuple[tuple[float, float], tuple[float, float]] | None = None,
        seed: int | np.random.SeedSequence | None = None,
        label: str | None = None,
    ) -> ExperimentSession:
        """Open a session for one gate pair of the captured device.

        ``window`` is ``((x_min, x_max), (y_min, y_max))`` in volts, sampled
        at the factory's resolution (an int for a square grid, or
        ``(n_rows, n_cols)``); ``None`` is the simulator's default window
        around the pair's first transitions.

        The backend serves its time-independent physics from the
        process-wide :mod:`repro.kernelcache` — bit-identical values, shared
        across sessions with the same device/window/resolution fingerprint.
        A session without drift caches its noise-free currents,
        time-dependent noise or not; under drift that moves only the sensor
        it caches the base sensor detuning; lever-arm drift bypasses the
        cache.  ``configure_kernel_cache(enabled=False)`` turns the cache
        off for every session in the process.

        ``drift`` and ``time_dependent_noise`` make the backend evolve with
        the session's simulated clock (see
        :class:`~repro.instrument.measurement.DeviceBackend`); the timing
        model's per-probe cost doubles as the pixel-to-seconds conversion for
        the time-dependent noise mechanisms.

        ``faults`` injects deterministic lab misbehaviour: a registered
        fault-condition name, a :class:`~repro.faults.FaultModel`, or an
        iterable of either (see :func:`repro.faults.models_for`).  Probe-scope
        models wrap the backend in a :class:`~repro.faults.FaultyBackend`
        sharing the session seed (reserved key branch — adding faults never
        reshuffles the device's own noise/drift streams); worker-scope models
        are ignored here, the campaign layer applies them.  ``probe_retry``
        sets how the meter rides out those faults.
        """
        device = self.device
        simulator = CSDSimulator(
            device, dot_a=dot_a, dot_b=dot_b, gate_x=gate_x, gate_y=gate_y
        )
        if window is None:
            window = simulator.default_window()
        if isinstance(self.resolution, int):
            n_rows = n_cols = int(self.resolution)
        else:
            n_rows, n_cols = int(self.resolution[0]), int(self.resolution[1])
        (x_min, x_max), (y_min, y_max) = window
        timing = self.timing or TimingModel.paper_default()
        backend: MeasurementBackend | FaultyBackend = DeviceBackend(
            device,
            x_voltages=np.linspace(x_min, x_max, n_cols),
            y_voltages=np.linspace(y_min, y_max, n_rows),
            gate_x=gate_x,
            gate_y=gate_y,
            noise=self.noise,
            seed=seed,
            drift=self.drift,
            time_dependent_noise=self.time_dependent_noise,
            probe_interval_s=timing.cost_per_probe_s,
        )
        if self.faults is not None:
            probe_models = probe_fault_models(models_for(self.faults))
            if probe_models:
                backend = FaultyBackend(backend, probe_models, seed=seed)
        meter = ChargeSensorMeter(
            backend,
            clock=VirtualClock(timing),
            cache=self.cache,
            max_probes=self.max_probes,
            retry=self.probe_retry,
        )
        return ExperimentSession(
            meter=meter,
            geometry=simulator.geometry(),
            label=label or f"{device.name}:{gate_x}-{gate_y}",
        )
