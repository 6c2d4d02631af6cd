"""Experiment session: one tuning run against one device or dataset.

An :class:`ExperimentSession` bundles the pieces an extraction algorithm needs
— a measurement meter, a virtual clock, and (optionally) the ground truth of
the underlying synthetic device — plus convenience constructors for the two
ways the evaluation drives the library:

* :meth:`ExperimentSession.from_csd` replays a recorded diagram, exactly like
  the paper replays the qflow benchmarks;
* :meth:`ExperimentSession.from_device` measures a simulated device on demand
  over a chosen voltage window and resolution.
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
from .voltage_source import VoltageSource


@dataclass(frozen=True)
class SessionSummary:
    """Aggregate statistics of a session after an extraction run."""

    n_probes: int
    n_requests: int
    n_pixels: int
    probe_fraction: float
    elapsed_s: float

    def as_dict(self) -> dict:
        """Plain-dict view (handy for report tables)."""
        return {
            "n_probes": self.n_probes,
            "n_requests": self.n_requests,
            "n_pixels": self.n_pixels,
            "probe_fraction": self.probe_fraction,
            "elapsed_s": self.elapsed_s,
        }


class ExperimentSession:
    """A measurement meter plus provenance and ground truth."""

    def __init__(
        self,
        meter: ChargeSensorMeter,
        geometry: TransitionLineGeometry | None = None,
        voltage_source: VoltageSource | None = None,
        label: str = "session",
    ) -> None:
        self._meter = meter
        self._geometry = geometry
        self._voltage_source = voltage_source
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
    def voltage_source(self) -> VoltageSource | None:
        """The simulated DAC rack, when one was configured."""
        return self._voltage_source

    @property
    def label(self) -> str:
        """Human-readable session label."""
        return self._label

    @property
    def shape(self) -> tuple[int, int]:
        """Measurement grid shape."""
        return self._meter.shape

    def summary(self) -> SessionSummary:
        """Probe-count and timing statistics accumulated so far."""
        meter = self._meter
        return SessionSummary(
            n_probes=meter.n_probes,
            n_requests=meter.n_requests,
            n_pixels=meter.backend.n_pixels,
            probe_fraction=meter.probe_fraction,
            elapsed_s=meter.elapsed_s,
        )

    def reset(self) -> None:
        """Clear probe history so another algorithm can run on the same data."""
        self._meter.reset()

    # ------------------------------------------------------------------
    @classmethod
    def from_csd(
        cls,
        csd: ChargeStabilityDiagram,
        timing: TimingModel | None = None,
        cache: bool = True,
        max_probes: int | None = None,
        label: str | None = None,
    ) -> "ExperimentSession":
        """Replay a recorded or simulated charge-stability diagram."""
        clock = VirtualClock(timing or TimingModel.paper_default())
        meter = ChargeSensorMeter(
            DatasetBackend(csd), clock=clock, cache=cache, max_probes=max_probes
        )
        source = VoltageSource.for_gates((csd.gate_x, csd.gate_y))
        return cls(
            meter=meter,
            geometry=csd.geometry,
            voltage_source=source,
            label=label or csd.metadata.get("name", "csd-session"),
        )

    @classmethod
    def from_device(
        cls,
        device: DotArrayDevice,
        resolution: int | tuple[int, int] = 100,
        window: tuple[tuple[float, float], tuple[float, float]] | None = None,
        gate_x: int | str = "P1",
        gate_y: int | str = "P2",
        dot_a: int = 0,
        dot_b: int = 1,
        noise: NoiseModel | None = None,
        seed: int | np.random.SeedSequence | None = None,
        timing: TimingModel | None = None,
        cache: bool = True,
        max_probes: int | None = None,
        drift: DeviceDrift | None = None,
        time_dependent_noise: bool = False,
        faults=None,
        probe_retry: ProbeRetryPolicy | None = None,
        kernel_cache: bool = True,
        label: str | None = None,
    ) -> "ExperimentSession":
        """Measure a simulated device on demand over a voltage grid.

        ``kernel_cache`` (default on) lets the backend serve its noise-free
        physics from the process-wide :mod:`repro.kernelcache` — bit-identical
        values, shared across sessions with the same device/window/resolution
        fingerprint; time-dependent sessions bypass it automatically.

        ``drift`` and ``time_dependent_noise`` make the backend evolve with
        the session's simulated clock (see
        :class:`~repro.instrument.measurement.DeviceBackend`); the timing
        model's per-probe cost doubles as the pixel-to-seconds conversion for
        the time-dependent noise mechanisms.

        ``faults`` injects deterministic lab misbehaviour: a registered
        fault-condition name, a :class:`~repro.faults.FaultModel`, or an
        iterable of either (see :func:`repro.faults.models_for`).  Probe-scope
        models wrap the backend in a
        :class:`~repro.faults.FaultyBackend` sharing the session seed
        (reserved key branch — adding faults never reshuffles the device's
        own noise/drift streams); worker-scope models are ignored here, the
        campaign layer applies them.  ``probe_retry`` sets how the meter
        rides out those faults.
        """
        simulator = CSDSimulator(
            device, dot_a=dot_a, dot_b=dot_b, gate_x=gate_x, gate_y=gate_y
        )
        if window is None:
            window = simulator.default_window()
        if isinstance(resolution, int):
            n_rows = n_cols = int(resolution)
        else:
            n_rows, n_cols = int(resolution[0]), int(resolution[1])
        (x_min, x_max), (y_min, y_max) = window
        xs = np.linspace(x_min, x_max, n_cols)
        ys = np.linspace(y_min, y_max, n_rows)
        timing = timing or TimingModel.paper_default()
        backend: MeasurementBackend | FaultyBackend = DeviceBackend(
            device,
            x_voltages=xs,
            y_voltages=ys,
            gate_x=gate_x,
            gate_y=gate_y,
            noise=noise,
            seed=seed,
            drift=drift,
            time_dependent_noise=time_dependent_noise,
            probe_interval_s=timing.cost_per_probe_s,
            kernel_cache=kernel_cache,
        )
        if faults is not None:
            probe_models = probe_fault_models(models_for(faults))
            if probe_models:
                backend = FaultyBackend(backend, probe_models, seed=seed)
        clock = VirtualClock(timing)
        meter = ChargeSensorMeter(
            backend,
            clock=clock,
            cache=cache,
            max_probes=max_probes,
            retry=probe_retry,
        )
        source = VoltageSource.for_gates(device.gate_names)
        return cls(
            meter=meter,
            geometry=simulator.geometry(),
            voltage_source=source,
            label=label or f"{device.name}-session",
        )


@dataclass(frozen=True)
class SessionFactory:
    """Reusable recipe for opening device sessions with shared settings.

    The array extractor opens one session per neighbouring gate pair and a
    tuning campaign opens one per job; both vary only the gate pair, the
    window, and the seed while the device, resolution, noise model, and
    timing stay fixed.  A factory captures that fixed part once, so every
    consumer builds sessions through the same code path (and the same
    defaults) instead of repeating the :meth:`ExperimentSession.from_device`
    argument list.

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
    #: Whether opened sessions may share noise-free kernels through the
    #: process-wide :mod:`repro.kernelcache` (bit-identical either way).
    kernel_cache: bool = True

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
        """Open a session for one gate pair of the captured device."""
        return ExperimentSession.from_device(
            self.device,
            resolution=self.resolution,
            window=window,
            gate_x=gate_x,
            gate_y=gate_y,
            dot_a=dot_a,
            dot_b=dot_b,
            noise=self.noise,
            seed=seed,
            timing=self.timing,
            cache=self.cache,
            max_probes=self.max_probes,
            drift=self.drift,
            time_dependent_noise=self.time_dependent_noise,
            faults=self.faults,
            probe_retry=self.probe_retry,
            kernel_cache=self.kernel_cache,
            label=label or f"{self.device.name}:{gate_x}-{gate_y}",
        )
