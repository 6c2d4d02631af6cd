"""Simulated charge-sensor measurement: the paper's ``getCurrent`` (Alg. 1).

The extraction algorithms never see the device physics directly; they call a
measurement object that

1. sets the two plunger-gate voltages,
2. waits the dwell time (charged to a :class:`~repro.instrument.timing.VirtualClock`),
3. returns the charge-sensor current.

Two backends supply the current value:

* :class:`DatasetBackend` replays a pre-recorded (or pre-simulated)
  :class:`~repro.physics.csd.ChargeStabilityDiagram`, exactly as the paper
  replays the qflow data — a probe returns the pixel nearest to the requested
  voltages.
* :class:`DeviceBackend` evaluates the physics model on demand over a
  configured voltage grid, optionally adding a reproducible noise field.

:class:`ChargeSensorMeter` wraps a backend with dwell-time accounting and a
per-pixel cache: re-requesting an already measured pixel costs nothing,
mirroring how an automation script keeps values it has already paid for.  The
meter keeps no per-request log: the cache and the keys of its probes, in
order, are its record of what it measured (the probe mask of Figure 7, the
measured image and the probed pixels).

The meter has one probe path, :meth:`ChargeSensorMeter.get_currents`, and
backends implement one method, ``currents``: whole arrays of flat pixel keys
(``row * n_cols + col``) are served through one vectorised physics
evaluation, so algorithms batch their hot loops without changing the paper's
accounting.  The anchor search's diagonal probe and each of its two mask
sweeps, every shrinking-triangle sweep step, and the baseline's full-grid
scan are one ``get_currents`` call each; :meth:`~ChargeSensorMeter.get_current`
is a one-pixel batch.  A batch behaves request by request like a sequential
loop of single probes — same values, probe counts, cache hits, clock
readings and probed pixels — with every pixel validated up front.

Each meter batch does its bookkeeping once.  The meter validates the rows
and columns at its boundary against the grid shape it read from the backend
at construction, builds their flat keys, and deduplicates them against its
cache.  It hands the keys of the physical probes to the backend, with
timestamps from its own clock; the backend checks them with one unsigned
``max`` (:meth:`MeasurementBackend.validate_keys`) and reads them as they
are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import CircuitBreakerOpenError, MeasurementError, ProbeTimeoutError
from ..kernelcache import (
    KernelCache,
    KernelCacheEntry,
    default_kernel_cache,
    first_requests,
    kernel_fingerprint,
)
from ..physics.csd import ChargeStabilityDiagram
from ..physics.dot_array import DotArrayDevice
from ..physics.drift import DeviceDrift, DeviceDriftState
from ..physics.noise import NoiseModel, NoNoise, TimeDependentNoise
from ..seeding import DRIFT_INDEX, TEMPORAL_NOISE_INDEX, reserved_seeds
from .resilience import ProbeRetryPolicy
from .timing import TimingModel, VirtualClock

_INT64 = np.dtype(np.int64)


def _validated_pixels(
    rows: np.ndarray | list, cols: np.ndarray | list, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-index arrays as 1-D ``int64``, checked against a grid ``shape``.

    Raises :class:`MeasurementError` for mismatched shapes, non-integer
    indices or the first off-grid pixel.  Matching 1-D ``int64`` arrays,
    what the extraction stages send, skip the conversion.
    """
    if not (
        type(rows) is np.ndarray
        and type(cols) is np.ndarray
        and rows.dtype is _INT64
        and cols.dtype is _INT64
        and rows.ndim == 1
        and rows.shape == cols.shape
    ):
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        if rows.shape != cols.shape:
            # A 0-d index counts as one pixel.
            row_shape, col_shape = rows.shape or (1,), cols.shape or (1,)
            if row_shape != col_shape:
                raise MeasurementError(
                    f"rows and cols must have matching shapes, got {row_shape} "
                    f"and {col_shape}"
                )
        if rows.ndim != 1:
            rows = rows.reshape(-1)
        if cols.ndim != 1:
            cols = cols.reshape(-1)
        if rows.size and (rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu"):
            raise MeasurementError("pixel indices must be integers")
        rows = rows.astype(np.int64, copy=False)
        cols = cols.astype(np.int64, copy=False)
    n_rows, n_cols = shape
    # Viewed unsigned, a negative index is huge: one max() per axis checks
    # both of its bounds.
    if rows.size and (
        np.maximum.reduce(rows.view(np.uint64)) >= n_rows
        or np.maximum.reduce(cols.view(np.uint64)) >= n_cols
    ):
        off_grid = (rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)
        i = int(np.argmax(off_grid))
        raise MeasurementError(
            f"pixel ({int(rows[i])}, {int(cols[i])}) outside the "
            f"{n_rows}x{n_cols} measurement grid"
        )
    return rows, cols


@dataclass(frozen=True)
class MeterSnapshot:
    """Point-in-time cost counters of a :class:`ChargeSensorMeter`.

    Taken with :meth:`ChargeSensorMeter.snapshot`; two snapshots subtract
    into the cost *delta* of whatever ran between them (:meth:`delta`).
    This is how the pipeline layer attributes probes, cache hits, and
    simulated seconds to individual stages without the stages having to
    do any bookkeeping themselves.
    """

    n_probes: int
    n_requests: int
    n_cache_hits: int
    elapsed_s: float

    def delta(self, later: "MeterSnapshot") -> "MeterSnapshot":
        """The cost accumulated between this snapshot and a ``later`` one."""
        return MeterSnapshot(
            n_probes=later.n_probes - self.n_probes,
            n_requests=later.n_requests - self.n_requests,
            n_cache_hits=later.n_cache_hits - self.n_cache_hits,
            elapsed_s=later.elapsed_s - self.elapsed_s,
        )


class MeasurementBackend:
    """Source of noise-inclusive sensor currents over a fixed voltage grid."""

    @property
    def x_voltages(self) -> np.ndarray:
        """Column voltages of the grid."""
        raise NotImplementedError

    @property
    def y_voltages(self) -> np.ndarray:
        """Row voltages of the grid."""
        raise NotImplementedError

    @property
    def is_time_dependent(self) -> bool:
        """Whether pixel values depend on the simulated probe timestamp.

        Static backends (the default) may be probed with or without
        timestamps; time-dependent ones require them.
        """
        return False

    def currents(
        self, keys: np.ndarray, times_s: np.ndarray | None = None
    ) -> np.ndarray:
        """Sensor currents (nA) for an array of flat pixel keys.

        The one method a backend implements.  A key is ``row * n_cols +
        col``.  ``times_s``, when given, carries the simulated timestamp at
        which each probe happens; static backends ignore it, time-dependent
        ones require it.  Implementations check the keys through
        :meth:`validate_keys` and the timestamps through
        :meth:`validate_times`.
        """
        raise NotImplementedError

    # Convenience shared by both backends -------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)`` of the measurement grid."""
        return self.y_voltages.size, self.x_voltages.size

    @property
    def n_pixels(self) -> int:
        """Total number of grid pixels."""
        return int(self.shape[0] * self.shape[1])

    def validate_keys(self, keys: np.ndarray | list) -> np.ndarray:
        """Flat pixel keys as 1-D ``int64``, each checked against the grid.

        Raises :class:`MeasurementError` for non-integer keys or the first
        off-grid key.  A 1-D ``int64`` array, what a meter sends, skips the
        conversion.
        """
        if not (type(keys) is np.ndarray and keys.dtype is _INT64 and keys.ndim == 1):
            keys = np.asarray(keys)
            if keys.size and keys.dtype.kind not in "iu":
                raise MeasurementError("pixel keys must be integers")
            keys = keys.astype(np.int64, copy=False).reshape(-1)
        n_rows, n_cols = self.shape
        n_pixels = n_rows * n_cols
        # Viewed unsigned, a negative key is huge: one max() checks both bounds.
        if keys.size and np.maximum.reduce(keys.view(np.uint64)) >= n_pixels:
            key = int(keys[(keys < 0) | (keys >= n_pixels)][0])
            raise MeasurementError(
                f"pixel key {key} outside the {n_rows}x{n_cols} measurement grid"
            )
        return keys

    def validate_times(
        self, times_s: np.ndarray | list | None, n: int
    ) -> np.ndarray | None:
        """Check per-probe timestamps against the request count.

        Returns a flat float array (or ``None`` when omitted); a
        time-dependent backend refuses probes without timestamps, because it
        cannot know *when* the evolving device is being measured.
        """
        if times_s is None:
            if self.is_time_dependent:
                raise MeasurementError(
                    "this backend is time-dependent (drift and/or "
                    "time-dependent noise); probes require per-probe "
                    "timestamps — measure through a ChargeSensorMeter, or "
                    "pass times_s explicitly"
                )
            return None
        times = np.asarray(times_s, dtype=float).reshape(-1)
        if times.size != n:
            raise MeasurementError(
                f"expected {n} probe timestamps, got {times.size}"
            )
        return times


class DatasetBackend(MeasurementBackend):
    """Replay a recorded/simulated charge-stability diagram."""

    def __init__(self, csd: ChargeStabilityDiagram) -> None:
        self._csd = csd

    @property
    def csd(self) -> ChargeStabilityDiagram:
        """The replayed diagram."""
        return self._csd

    @property
    def x_voltages(self) -> np.ndarray:
        return self._csd.x_voltages

    @property
    def y_voltages(self) -> np.ndarray:
        return self._csd.y_voltages

    def currents(
        self, keys: np.ndarray, times_s: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched replay: one ``take`` from the stored pixel grid."""
        keys = self.validate_keys(keys)
        self.validate_times(times_s, keys.size)
        return self._csd.data.take(keys).astype(float, copy=False)


class DeviceBackend(MeasurementBackend):
    """Evaluate the device physics on demand over a configured grid.

    Parameters beyond the grid/noise basics:

    drift:
        Optional :class:`~repro.physics.drift.DeviceDrift` describing how the
        device itself evolves with simulated time (sensor operating-point
        wander, charge jumps, periodic interference, lever-arm creep).
    time_dependent_noise:
        When true, the noise model is evaluated at each probe's simulated
        timestamp through :meth:`~repro.physics.noise.NoiseModel.at_times`
        instead of as one static per-pixel field — re-probing the same pixel
        later in the run then sees *different* noise, as on real hardware.
    probe_interval_s:
        Nominal simulated cost of one probe; converts pixel-unit noise
        parameters (telegraph dwell, 1/f band) into seconds.  Pass the
        session's ``TimingModel.cost_per_probe_s``.
    kernel_cache:
        Where to memoise the time-independent physics across backends with
        identical content fingerprints (see :mod:`repro.kernelcache`).
        ``True`` (default) uses the process-wide cache, ``False``/``None``
        disables caching for this backend, or pass a
        :class:`~repro.kernelcache.KernelCache` instance.  The backend
        caches the layer the probe time does not change, chosen at
        construction from its physics: the noise-free currents without
        device drift (static or time-dependent noise is added per probe),
        the base sensor detuning when the drift moves only the sensor (the
        drift offset and the line shape are applied per probe), and nothing
        when lever-arm drift moves the charge states.  Cached and uncached
        probes are bit-identical.
    """

    def __init__(
        self,
        device: DotArrayDevice,
        x_voltages: np.ndarray,
        y_voltages: np.ndarray,
        gate_x: int | str = "P1",
        gate_y: int | str = "P2",
        noise: NoiseModel | None = None,
        seed: int | np.random.SeedSequence | None = None,
        drift: DeviceDrift | None = None,
        time_dependent_noise: bool = False,
        probe_interval_s: float = 0.05,
        kernel_cache: "KernelCache | bool | None" = True,
    ) -> None:
        self._device = device
        self._xs = np.asarray(x_voltages, dtype=float)
        self._ys = np.asarray(y_voltages, dtype=float)
        if self._xs.ndim != 1 or self._ys.ndim != 1:
            raise MeasurementError("x_voltages and y_voltages must be 1-D arrays")
        if self._xs.size < 2 or self._ys.size < 2:
            raise MeasurementError("measurement grid must be at least 2x2")
        self._gate_x = device.gate_index(gate_x)
        self._gate_y = device.gate_index(gate_y)
        self._shape = (self._ys.size, self._xs.size)
        self._n_cols = self._xs.size
        self._noise = noise or NoNoise()
        self._seed = seed
        self._noise_field: np.ndarray | None = None
        if probe_interval_s < 0 or not np.isfinite(probe_interval_s):
            raise MeasurementError("probe_interval_s must be finite and non-negative")
        if time_dependent_noise and probe_interval_s == 0:
            # With a free probe every timestamp is identical, so "noise"
            # would silently collapse to one constant draw.
            raise MeasurementError(
                "time-dependent noise requires a positive probe_interval_s "
                "(a zero-cost probe never advances the clock)"
            )
        self._drift = drift
        self._drifting_device = drift is not None and not drift.is_static
        self._time_dependent_noise = bool(time_dependent_noise)
        self._probe_interval_s = float(probe_interval_s)
        self._temporal_noise: TimeDependentNoise | None = None
        self._drift_state: DeviceDriftState | None = None
        self._seed_children_cache: tuple[np.random.SeedSequence, ...] | None = None
        # ``None`` bypasses the kernel cache, ``True`` is the process-wide
        # cache (looked up per batch, so a pickled backend uses its own
        # process's cache).  The cached layer is what the probe time leaves
        # alone: the currents without drift, the base sensor detuning under
        # sensor-only drift, nothing when drift moves the charge states.
        if self._drifting_device and drift.moves_charge_states:
            kernel_cache = None
        self._kernel_cache = None if kernel_cache is False else kernel_cache
        self._kernel_layer = "detuning" if self._drifting_device else "currents"
        self._kernel_key: str | None = None
        self._kernel_hits = 0
        self._kernel_solves = 0

    @property
    def device(self) -> DotArrayDevice:
        """The simulated device."""
        return self._device

    @property
    def gate_x_name(self) -> str:
        """Name of the x-axis (column) gate."""
        return self._device.gate_names[self._gate_x]

    @property
    def gate_y_name(self) -> str:
        """Name of the y-axis (row) gate."""
        return self._device.gate_names[self._gate_y]

    @property
    def x_voltages(self) -> np.ndarray:
        return self._xs

    @property
    def y_voltages(self) -> np.ndarray:
        return self._ys

    @property
    def drift(self) -> DeviceDrift | None:
        """The device-evolution model, if any."""
        return self._drift

    @property
    def is_time_dependent(self) -> bool:
        """Whether probe values depend on the simulated timestamp."""
        return self._drifting_device or self._time_dependent_noise

    def _static_noise(self) -> np.ndarray:
        """The seeded static noise field, flat in row-major pixel-key order."""
        if self._noise_field is None:
            rng = np.random.default_rng(self._seed)
            self._noise_field = self._noise.sample_grid(self._shape, rng).reshape(-1)
        return self._noise_field

    def _seed_children(self) -> tuple[np.random.SeedSequence, ...]:
        # Independent reserved streams for the temporal noise sampler and
        # the drift state, so the two mechanisms never share randomness.
        if self._seed_children_cache is None:
            self._seed_children_cache = reserved_seeds(
                self._seed, (TEMPORAL_NOISE_INDEX, DRIFT_INDEX)
            )
        return self._seed_children_cache

    def _temporal(self) -> TimeDependentNoise:
        if self._temporal_noise is None:
            noise_seed, _ = self._seed_children()
            self._temporal_noise = self._noise.at_times(
                np.random.default_rng(noise_seed), self._probe_interval_s
            )
        return self._temporal_noise

    # ------------------------------------------------------------------
    # Kernel caching (time-independent layers only)
    # ------------------------------------------------------------------
    @property
    def kernel_cache_hits(self) -> int:
        """Pixels this backend served from a shared kernel cache."""
        return self._kernel_hits

    @property
    def kernel_cache_solves(self) -> int:
        """Pixels this backend solved fresh into a shared kernel cache."""
        return self._kernel_solves

    def _kernel_entry(self) -> "KernelCacheEntry | None":
        """The cache entry for this backend's layer, or ``None`` to bypass.

        Its key is the layer's name and the kernel fingerprint, so a
        currents entry and a detuning entry of one kernel never collide.
        """
        cache = self._kernel_cache
        if cache is None:
            return None
        if cache is True:
            cache = default_kernel_cache()
        if not cache.enabled:
            return None
        if self._kernel_key is None:
            fingerprint = kernel_fingerprint(
                self._device,
                self._xs,
                self._ys,
                self._gate_x,
                self._gate_y,
            )
            self._kernel_key = f"{self._kernel_layer}:{fingerprint}"
        return cache.entry(self._kernel_key, self._shape)

    def _points(self, keys: np.ndarray) -> np.ndarray:
        """Gate-voltage points of the given pixels, shape ``(n, n_gates)``.

        The unswept gates sit at 0 V.
        """
        rows, cols = np.divmod(keys, self._n_cols)
        points = np.zeros((keys.size, self._device.n_gates))
        points[:, self._gate_x] = self._xs[cols]
        points[:, self._gate_y] = self._ys[rows]
        return points

    def _pure_currents(self, keys: np.ndarray, times: np.ndarray | None) -> np.ndarray:
        """Noise-free currents at the probe times, through the cached layer.

        On a cache hit no gate-voltage point is built: points are built only
        for the pixels the cache has to solve.  A detuning entry holds each
        pixel's base sensor detuning; the drift offset at the probe's
        timestamp and the line shape are applied per probe, after the same
        sum :meth:`~repro.physics.sensor.ChargeSensor.currents` computes.
        Lever-arm drift is zero there, so its gate scale (exactly ``1.0``)
        is skipped.
        """
        entry = self._kernel_entry()
        if entry is None:
            points = self._points(keys)
            detuning_offset_mv: np.ndarray | float = 0.0
            if self._drifting_device and keys.size:
                state = self._drifting()
                scale = state.gate_scale(times)
                points[:, self._gate_x] *= scale
                points[:, self._gate_y] *= scale
                detuning_offset_mv = state.detuning_offset_mv(times)
            return self._device.sensor_currents(
                points, detuning_offset_mv=detuning_offset_mv
            )
        if not self._drifting_device:
            return self._fetch(entry, keys, self._device.sensor_currents)
        detunings = self._fetch(entry, keys, self._device.sensor_detunings)
        offsets = self._drifting().detuning_offset_mv(times)
        return self._device.sensor.current_from_detuning(detunings + offsets)

    def _fetch(self, entry: "KernelCacheEntry", keys: np.ndarray, solve) -> np.ndarray:
        """The entry's values for the pixels, ``solve``-ing its misses."""
        before = entry.n_pixel_solves
        values = entry.fetch(keys, lambda idx: solve(self._points(keys[idx])))
        solved = entry.n_pixel_solves - before
        self._kernel_solves += solved
        self._kernel_hits += keys.size - solved
        return values

    def _drifting(self) -> DeviceDriftState:
        assert self._drift is not None
        if self._drift_state is None:
            _, drift_seed = self._seed_children()
            self._drift_state = self._drift.at_times(
                np.random.default_rng(drift_seed)
            )
        return self._drift_state

    def currents(
        self, keys: np.ndarray, times_s: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched physics evaluation of an arbitrary set of pixels.

        Builds the gate-voltage points of the pixels the kernel cache does
        not hold yet (every pixel when the backend bypasses the cache),
        solves their ground states through the solver's vectorised lattice
        kernel, converts them to sensor currents in one evaluation, and adds
        the noise — either the pixel's share of the seeded static field, or
        (for time-dependent noise) the temporal sampler evaluated at each
        probe's timestamp.  Device drift enters as
        a per-probe sensor-detuning offset and swept-gate scale.  Every term
        is an elementwise function of (pixel, timestamp), so probes agree
        bit-for-bit regardless of batch splitting and of which layer the
        kernel cache holds.
        """
        keys = self.validate_keys(keys)
        times = self.validate_times(times_s, keys.size)
        values = self._pure_currents(keys, times)
        if self._time_dependent_noise:
            return values + self._temporal().sample_at(times)
        return values + self._static_noise()[keys]


class ChargeSensorMeter:
    """The paper's ``getCurrent`` with dwell-time accounting and a pixel cache.

    Re-requesting an already measured pixel returns the stored value without
    charging dwell time — this is how an automation script would behave, and
    it is what makes the probe counts comparable to the paper's "number of
    data points probed".  The meter owns this cache; backends stay stateless
    value sources.  A procedure that must pay for fresh values of pixels it
    has measured (the workflow's staleness check) opens a fresh meter on the
    same backend and clock.  :meth:`probe_mask` and :meth:`measured_image`
    read the cache, :meth:`probed_pixels` the keys of its probes in order,
    and a request counter gives the cache hits.

    Parameters
    ----------
    backend:
        Where pixel values come from.
    clock:
        Virtual clock charged for every physical probe; a fresh paper-default
        clock is created when omitted.
    retry:
        Optional :class:`~repro.instrument.resilience.ProbeRetryPolicy` for
        a fault-injecting backend (one exposing ``plan_batch``, i.e.
        :class:`~repro.faults.backend.FaultyBackend`): the attempts a
        disrupted probe gets, the backoff between them, the stall timeout
        and the circuit breaker.  ``None`` means
        :meth:`~repro.instrument.resilience.ProbeRetryPolicy.no_retry`, so
        the first fault fails the probe; with an ordinary backend the
        policy is inert.  Failed attempts, backoffs, and tolerated stalls
        all charge the virtual clock but never the probe count or the
        cache — only the attempt that returns a value is a probe.
    """

    def __init__(
        self,
        backend: MeasurementBackend,
        clock: VirtualClock | None = None,
        retry: ProbeRetryPolicy | None = None,
    ) -> None:
        self._backend = backend
        self._clock = clock or VirtualClock(TimingModel.paper_default())
        # The grid is fixed for the meter's lifetime: read it once.
        n_rows, n_cols = backend.shape
        self._shape = (int(n_rows), int(n_cols))
        self._xs = backend.x_voltages
        self._ys = backend.y_voltages
        # The pixel cache, flat in row-major key order (row * n_cols + col).
        self._n_cols = self._shape[1]
        self._measured = np.zeros(n_rows * n_cols, dtype=bool)
        self._values = np.zeros(n_rows * n_cols, dtype=float)
        self._n_probes = 0
        self._n_requests = 0
        # Keys of each batch's committed physical probes, in probe order; a
        # pixel is probed at most once, so no key repeats.
        self._probe_keys: list[np.ndarray] = []
        # Resilience state.  Only the measuring step of a batch differs for
        # a backend that can plan faults (``_measure_faulty`` plans, commits
        # and retries); caching and clock are shared with clean backends.
        self._retry = retry
        self._fault_capable = hasattr(backend, "plan_batch")
        self._n_probe_retries = 0
        self._n_fault_events = 0
        self._n_probes_exhausted = 0
        self._fault_delay_s = 0.0
        self._consecutive_failures = 0
        self._breaker_open = False

    # ------------------------------------------------------------------
    @property
    def backend(self) -> MeasurementBackend:
        """The measurement backend."""
        return self._backend

    @property
    def clock(self) -> VirtualClock:
        """The virtual clock."""
        return self._clock

    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape."""
        return self._shape

    @property
    def x_voltages(self) -> np.ndarray:
        """Column voltages."""
        return self._xs

    @property
    def y_voltages(self) -> np.ndarray:
        """Row voltages."""
        return self._ys

    @property
    def n_probes(self) -> int:
        """Number of physically measured (non-cached) pixels."""
        return self._n_probes

    @property
    def n_requests(self) -> int:
        """Number of measurement requests including cache hits."""
        return self._n_requests

    @property
    def probe_fraction(self) -> float:
        """Fraction of the grid that has been physically measured."""
        return self.n_probes / float(self._measured.size)

    @property
    def elapsed_s(self) -> float:
        """Simulated experiment time spent so far."""
        return self._clock.elapsed_s

    @property
    def n_cache_hits(self) -> int:
        """Number of requests answered from the cache rather than measured."""
        return self._n_requests - self._n_probes

    def snapshot(self) -> MeterSnapshot:
        """Freeze the meter's cost counters (probes, requests, hits, time).

        Diffing two snapshots (:meth:`MeterSnapshot.delta`) yields the exact
        cost of the code that ran between them — the primitive the pipeline
        layer uses to charge each stage for what it actually probed.
        """
        return MeterSnapshot(
            n_probes=self._n_probes,
            n_requests=self._n_requests,
            n_cache_hits=self._n_requests - self._n_probes,
            elapsed_s=self._clock.elapsed_s,
        )

    # ------------------------------------------------------------------
    # Fault/resilience telemetry
    # ------------------------------------------------------------------
    @property
    def retry(self) -> ProbeRetryPolicy | None:
        """The probe retry policy, if one was configured."""
        return self._retry

    @property
    def n_probe_retries(self) -> int:
        """Number of retried probe attempts (fault recoveries)."""
        return self._n_probe_retries

    @property
    def n_fault_events(self) -> int:
        """Number of failed probe attempts (errors and timeouts)."""
        return self._n_fault_events

    @property
    def n_probes_exhausted(self) -> int:
        """Number of probes that failed every allowed attempt."""
        return self._n_probes_exhausted

    @property
    def fault_delay_s(self) -> float:
        """Simulated seconds lost to faults: stalls, backoffs, dead attempts."""
        return self._fault_delay_s

    @property
    def breaker_open(self) -> bool:
        """Whether the circuit breaker has tripped (reset() re-arms it)."""
        return self._breaker_open

    # ------------------------------------------------------------------
    # Probing a fault-capable backend
    # ------------------------------------------------------------------
    def _measure_faulty(self, probe_keys: np.ndarray) -> tuple[np.ndarray, Exception | None]:
        """Measure a batch's physical probes against a fault-capable backend.

        Each pass plans every pending probe at the timestamps it *would* get
        (:meth:`VirtualClock.preview_probes`) in one backend call, handing
        the plan the policy's stall timeout, and commits the plan's values
        with bit-identical clock arithmetic (``charge_probes``).  A plan
        reads a stall the timeout tolerates (no timeout, or a stall within
        it), so it is committed from the same plan, with the value read at
        its scheduled timestamp, and waited out.  Any other disruption is a
        failed attempt of the first pending probe, charged where the plan
        found it: plans are pure, so re-planning it there could only find
        the same fault.  After the backoff, the next plan covers the retry
        and every probe behind it; the retry samples a *later* timestamp,
        and so fresh fault luck, as on real hardware.  Returns the committed
        probes' values and the fault that stopped the batch (a probe out of
        attempts, or the circuit breaker), if any.
        """
        policy = self._retry or ProbeRetryPolicy.no_retry()
        n_physical = probe_keys.size
        values = np.empty(n_physical, dtype=float)
        if self._breaker_open:
            # Refused without touching the backend or the clock.
            return values[:0], CircuitBreakerOpenError(
                "circuit breaker is open; reset() the meter to re-arm it"
            )
        done = 0
        attempt = 1
        backoff = policy.backoff_s
        while done < n_physical:
            if attempt > 1:
                self._n_probe_retries += 1
                self._clock.advance(backoff)
                self._fault_delay_s += backoff
                backoff *= policy.backoff_factor
            plan = self._backend.plan_batch(
                probe_keys[done:],
                self._clock.preview_probes(n_physical - done),
                policy.timeout_s,
            )
            disruption = plan.disruption
            committed = plan.values.size
            # The plan read the disrupted probe itself: a stall that lands.
            landed = disruption is not None and committed > disruption.index
            if committed:
                # Reads that land are successes: they reset the breaker count
                # and give the next pending probe a fresh set of attempts.
                self._consecutive_failures = 0
                attempt, backoff = 1, policy.backoff_s
                self._clock.charge_probes(committed)
                values[done : done + committed] = plan.values
                done += committed
                if landed:
                    self._clock.advance(disruption.stall_s)
                    self._fault_delay_s += disruption.stall_s
            if disruption is None or landed:
                continue
            # A failed attempt of the first pending probe: the dwell bought nothing.
            self._clock.charge_probe()
            self._n_fault_events += 1
            self._fault_delay_s += self._clock.timing.cost_per_probe_s
            error = disruption.error
            if error is None:
                self._clock.advance(policy.timeout_s)
                self._fault_delay_s += policy.timeout_s
                row, col = divmod(int(probe_keys[done]), self._n_cols)
                error = ProbeTimeoutError(
                    f"probe ({row}, {col}) stalled {disruption.stall_s:.3f}s, "
                    f"over the {policy.timeout_s:.3f}s timeout budget"
                )
            self._consecutive_failures += 1
            if (
                policy.breaker_failures
                and self._consecutive_failures >= policy.breaker_failures
            ):
                self._breaker_open = True
                return values[:done], CircuitBreakerOpenError(
                    f"circuit breaker open after {self._consecutive_failures} "
                    f"consecutive probe failures (last: {error})"
                )
            if attempt == policy.max_attempts:
                self._n_probes_exhausted += 1
                return values[:done], error
            attempt += 1
        return values, None

    # ------------------------------------------------------------------
    def get_current(self, row: int, col: int) -> float:
        """Measure the pixel at ``(row, col)`` — the paper's Algorithm 1."""
        return float(self.get_currents([row], [col])[0])

    def get_currents(self, rows: np.ndarray | list, cols: np.ndarray | list) -> np.ndarray:
        """Measure a whole batch of pixels — the vectorised Algorithm 1.

        Equivalent, request by request, to measuring the pixels one at a
        time — identical values, cache hits, probe counts, clock charges,
        and probed pixels — but the cache split, the physics evaluation and
        the clock are array operations, so large acquisitions cost one
        vectorised pass instead of per-pixel Python overhead.  Past the
        cache, the counters and the probed keys, the meter keeps nothing of
        a request: the caller may reuse its arrays and the returned values.

        The batch's physical probes are exactly the first requests of pixels
        the meter has not measured; later requests of a pixel, in this batch
        or an earlier one, are cache hits.  Each physical probe charges the
        clock before it is evaluated, so time-dependent backends measure at
        the elapsed time after its dwell.  A probe that exhausts its fault
        retries, or trips the circuit breaker, commits every request before
        it and re-raises; nothing else stops a batch early.  All pixels are
        validated up front, before anything is measured.

        Parameters
        ----------
        rows, cols:
            Integer pixel indices of matching shape.

        Returns
        -------
        numpy.ndarray
            Measured currents (nA), one per request, in request order.
        """
        rows, cols = _validated_pixels(rows, cols, self._shape)
        if rows.size == 0:
            return np.zeros(0)
        keys = rows * self._n_cols + cols
        # The first request of each never-measured pixel is a physical probe.
        probes = first_requests(keys, (~self._measured[keys]).nonzero()[0])
        probe_keys = keys[probes]
        failure = None
        if not probes.size:
            measured = np.zeros(0)
        elif self._fault_capable:
            measured, failure = self._measure_faulty(probe_keys)
            if failure is not None:
                # Requests before the first uncommitted probe are final.
                keys = keys[: probes[measured.size]]
                probes = probes[: measured.size]
                probe_keys = probe_keys[: measured.size]
        else:
            probe_times = self._clock.charge_probes(probes.size)
            measured = self._backend.currents(probe_keys, times_s=probe_times)
        self._values[probe_keys] = measured
        self._measured[probe_keys] = True
        self._n_probes += probes.size
        self._n_requests += keys.size
        if probes.size:
            # ``keys[probes]`` is a fresh array, never a view of the request.
            self._probe_keys.append(probe_keys)
        # When every committed request was a probe, the values are the
        # measurements themselves.
        values = measured if probes.size == keys.size else self._values[keys]
        if failure is not None:
            raise failure
        return values

    def acquire_full_grid(self) -> np.ndarray:
        """Measure every pixel (what the Hough baseline does) and return the image.

        Served through :meth:`get_currents` in row-major request order, so a
        full 100x100 acquisition is one batched physics evaluation instead of
        10,000 single-pixel probes.
        """
        rows, cols = self._shape
        row_indices = np.repeat(np.arange(rows), cols)
        col_indices = np.tile(np.arange(cols), rows)
        return self.get_currents(row_indices, col_indices).reshape(rows, cols)

    def measured_image(self, fill_value: float = np.nan) -> np.ndarray:
        """Image of measured pixel values with unmeasured pixels set to ``fill_value``."""
        image = np.full(self._measured.size, fill_value, dtype=float)
        image[self._measured] = self._values[self._measured]
        return image.reshape(self._shape)

    def probe_mask(self) -> np.ndarray:
        """Boolean image of the pixels the meter has physically measured."""
        return self._measured.reshape(self._shape).copy()

    def probed_pixels(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of every physically measured pixel, in first-probe order.

        Each pixel appears once: the meter probes a pixel at most once.
        """
        keys = np.concatenate([np.zeros(0, dtype=np.int64), *self._probe_keys])
        return np.divmod(keys, self._n_cols)

    def reset(self) -> None:
        """Clear the cache, request counter, clock, fault counters, and breaker."""
        self._measured.fill(False)
        self._n_probes = 0
        self._n_requests = 0
        self._probe_keys = []
        self._clock.reset()
        self._n_probe_retries = 0
        self._n_fault_events = 0
        self._n_probes_exhausted = 0
        self._fault_delay_s = 0.0
        self._consecutive_failures = 0
        self._breaker_open = False
