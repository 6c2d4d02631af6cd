"""Kernel cache: bit-identical reuse of time-independent CSD kernels.

The cache's contract has three legs: cached and uncached measurements are
exactly equal (the cache stores the same values the solver would recompute),
the fingerprint separates every input the pure values depend on, and a
backend caches only the layer the probe time does not change.  Without
device drift that is the noise-free currents, whatever the noise; under
drift that moves only the sensor it is the base sensor detuning, in an entry
of its own; lever-arm drift moves the charge states and bypasses the cache.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.kernelcache as kernelcache
from repro.campaign import CampaignGrid, DeviceSpec, TuningCampaign
from repro.campaign.worker import run_campaign_job
from repro.exceptions import ConfigurationError
from repro.instrument import (
    ChargeSensorMeter,
    DeviceBackend,
    SessionFactory,
    TimingModel,
    VirtualClock,
)
from repro.kernelcache import (
    KernelCache,
    KernelCacheEntry,
    KernelCacheStats,
    clear_kernel_cache,
    configure_kernel_cache,
    default_kernel_cache,
    kernel_fingerprint,
)
from repro.physics import DeviceDrift, DotArrayDevice, WhiteNoise
from repro.physics.charge_state import ChargeStateSolver
from repro.scenarios.catalog import SCENARIOS

RESOLUTION = 24
N_PIXELS = RESOLUTION * RESOLUTION

#: Drift terms that move only the sensor, each strong enough to move the
#: 24x24 scan's currents within its 28.8 simulated seconds.
SENSOR_DRIFTS = {
    "operating-point": DeviceDrift(operating_point_mv_per_hour=3600.0),
    "charge-jumps": DeviceDrift(charge_jumps_per_hour=3600.0, charge_jump_mv=0.5),
    "interference": DeviceDrift(interference_mv=0.3, interference_period_s=0.34),
}
#: Lever-arm drift, alone and with every sensor-only term.
LEVER_ARM_DRIFTS = {
    "lever-arm": DeviceDrift(lever_arm_fraction_per_hour=0.5),
    "lever-arm-and-sensor": DeviceDrift(
        operating_point_mv_per_hour=3600.0,
        lever_arm_fraction_per_hour=0.5,
        charge_jumps_per_hour=3600.0,
        interference_mv=0.3,
        interference_period_s=0.34,
    ),
}


def build_backend(cache, seed=7, noise=None, drift=None, time_dependent_noise=False,
                  device=None, span=0.05):
    device = device or DotArrayDevice.double_dot(cross_coupling=(0.25, 0.22))
    xs = np.linspace(0.0, span, RESOLUTION)
    ys = np.linspace(0.0, span, RESOLUTION)
    return DeviceBackend(
        device,
        xs,
        ys,
        noise=noise,
        seed=seed,
        drift=drift,
        time_dependent_noise=time_dependent_noise,
        probe_interval_s=0.05,
        kernel_cache=cache,
    )


class TestCacheHits:
    def test_second_backend_reuses_kernel(self):
        cache = KernelCache()
        first = ChargeSensorMeter(build_backend(cache))
        warm = first.acquire_full_grid()
        second = ChargeSensorMeter(build_backend(cache))
        reused = second.acquire_full_grid()

        np.testing.assert_array_equal(warm, reused)
        stats = cache.stats
        assert stats.entry_hits == 1
        assert stats.entry_misses == 1
        assert stats.pixel_solves == RESOLUTION * RESOLUTION
        assert stats.pixel_hits == RESOLUTION * RESOLUTION

    def test_cache_on_equals_cache_off(self):
        cache = KernelCache()
        ChargeSensorMeter(build_backend(cache)).acquire_full_grid()  # warm
        noise = WhiteNoise(0.05)
        cached = ChargeSensorMeter(
            build_backend(cache, noise=noise)
        ).acquire_full_grid()
        uncached = ChargeSensorMeter(
            build_backend(False, noise=noise)
        ).acquire_full_grid()
        np.testing.assert_array_equal(cached, uncached)

    def test_different_seed_reuses_kernel_but_changes_noise(self):
        cache = KernelCache()
        noise = WhiteNoise(0.05)
        a = ChargeSensorMeter(build_backend(cache, seed=1, noise=noise))
        b = ChargeSensorMeter(build_backend(cache, seed=2, noise=noise))
        image_a = a.acquire_full_grid()
        image_b = b.acquire_full_grid()

        assert not np.array_equal(image_a, image_b)
        assert cache.stats.pixel_solves == RESOLUTION * RESOLUTION
        assert cache.stats.pixel_hits == RESOLUTION * RESOLUTION

    def test_meter_exposes_backend_counters(self):
        cache = KernelCache()
        ChargeSensorMeter(build_backend(cache)).acquire_full_grid()  # warm
        meter = ChargeSensorMeter(build_backend(cache))
        meter.acquire_full_grid()
        assert meter.backend.kernel_cache_hits == RESOLUTION * RESOLUTION
        assert meter.backend.kernel_cache_solves == 0


def probe_one_by_one(backend, rows, cols):
    """Single-pixel probes, each a physical probe at its own time: a fresh
    meter per probe on one shared clock, as the workflow re-probes."""
    clock = VirtualClock(TimingModel.paper_default())
    return np.array(
        [ChargeSensorMeter(backend, clock=clock).get_current(r, c) for r, c in zip(rows, cols)]
    )


class TestCachedLayers:
    """Each backend caches the layer the probe time does not change."""

    def test_time_dependent_noise_shares_the_static_entry(self):
        cache = KernelCache()
        noise = WhiteNoise(0.05)
        temporal = ChargeSensorMeter(
            build_backend(cache, noise=noise, time_dependent_noise=True)
        ).acquire_full_grid()
        assert cache.stats == KernelCacheStats(1, 0, N_PIXELS, 0, 1, 0)
        static = ChargeSensorMeter(build_backend(cache, noise=noise)).acquire_full_grid()
        # The static backend reads every pixel from the entry the
        # time-dependent one filled, and the other way round.
        assert cache.stats == KernelCacheStats(1, N_PIXELS, N_PIXELS, 1, 1, 0)
        again = ChargeSensorMeter(
            build_backend(cache, noise=noise, time_dependent_noise=True)
        ).acquire_full_grid()
        assert cache.stats == KernelCacheStats(1, 2 * N_PIXELS, N_PIXELS, 2, 1, 0)

        uncached = ChargeSensorMeter(
            build_backend(False, noise=noise, time_dependent_noise=True)
        ).acquire_full_grid()
        np.testing.assert_array_equal(temporal, uncached)
        np.testing.assert_array_equal(again, uncached)
        np.testing.assert_array_equal(
            static, ChargeSensorMeter(build_backend(False, noise=noise)).acquire_full_grid()
        )
        assert not np.array_equal(temporal, static)

    @pytest.mark.parametrize("drift", SENSOR_DRIFTS.values(), ids=SENSOR_DRIFTS.keys())
    def test_sensor_drift_caches_detuning_in_its_own_entry(self, drift):
        cache = KernelCache()
        static = ChargeSensorMeter(build_backend(cache)).acquire_full_grid()
        cold = ChargeSensorMeter(build_backend(cache, drift=drift)).acquire_full_grid()
        # A second entry: the detuning layer never reads the currents entry.
        assert cache.stats == KernelCacheStats(2, 0, 2 * N_PIXELS, 0, 2, 0)
        uncached = ChargeSensorMeter(build_backend(False, drift=drift)).acquire_full_grid()
        np.testing.assert_array_equal(cold, uncached)
        assert not np.array_equal(cold, static)

        # Single-pixel probes at the same timestamps, repeats included,
        # served from the warm detuning entry.
        rng = np.random.default_rng(4)
        rows = rng.integers(0, RESOLUTION, 150).tolist()
        cols = rng.integers(0, RESOLUTION, 150).tolist()
        warm = build_backend(cache, drift=drift)
        probed = probe_one_by_one(warm, rows, cols)
        assert warm.kernel_cache_hits == 150 and warm.kernel_cache_solves == 0
        np.testing.assert_array_equal(
            probed, probe_one_by_one(build_backend(False, drift=drift), rows, cols)
        )

    def test_sensor_drift_terms_share_one_detuning_entry(self):
        cache = KernelCache()
        for drift in SENSOR_DRIFTS.values():
            ChargeSensorMeter(build_backend(cache, drift=drift)).acquire_full_grid()
        assert cache.stats == KernelCacheStats(1, 2 * N_PIXELS, N_PIXELS, 2, 1, 0)

    @pytest.mark.parametrize("drift", LEVER_ARM_DRIFTS.values(), ids=LEVER_ARM_DRIFTS.keys())
    def test_lever_arm_drift_bypasses_cache(self, drift):
        cache = KernelCache()
        noise = WhiteNoise(0.05)
        backend = build_backend(cache, drift=drift, noise=noise, time_dependent_noise=True)
        image = ChargeSensorMeter(backend).acquire_full_grid()
        assert cache.stats == KernelCacheStats(0, 0, 0, 0, 0, 0)
        assert backend.kernel_cache_hits == backend.kernel_cache_solves == 0
        uncached = build_backend(False, drift=drift, noise=noise, time_dependent_noise=True)
        np.testing.assert_array_equal(image, ChargeSensorMeter(uncached).acquire_full_grid())

    def test_static_and_sensor_drift_backends_share_one_cache(self):
        cache = KernelCache()
        drift = SENSOR_DRIFTS["operating-point"]
        device = DotArrayDevice.double_dot(cross_coupling=(0.25, 0.22))
        for _ in ("cold", "warm"):
            static = ChargeSensorMeter(
                build_backend(cache, device=device)
            ).acquire_full_grid()
            drifting = ChargeSensorMeter(
                build_backend(cache, device=device, drift=drift)
            ).acquire_full_grid()
        assert cache.stats == KernelCacheStats(2, 2 * N_PIXELS, 2 * N_PIXELS, 2, 2, 0)
        np.testing.assert_array_equal(
            static,
            ChargeSensorMeter(build_backend(False, device=device)).acquire_full_grid(),
        )
        np.testing.assert_array_equal(
            drifting,
            ChargeSensorMeter(
                build_backend(False, device=device, drift=drift)
            ).acquire_full_grid(),
        )


class TestCacheBypass:
    def test_disabled_backend_leaves_cache_untouched(self):
        cache = KernelCache()
        meter = ChargeSensorMeter(build_backend(False))
        meter.acquire_full_grid()
        assert cache.stats.as_dict() == KernelCacheStats(0, 0, 0, 0, 0, 0).as_dict()

    def test_disabled_cache_object_serves_nothing(self):
        cache = KernelCache(enabled=False)
        meter = ChargeSensorMeter(build_backend(cache))
        meter.acquire_full_grid()
        assert len(cache) == 0
        assert meter.backend.kernel_cache_hits == 0


class TestFingerprint:
    def _fingerprint(self, device=None, span=0.05, resolution=RESOLUTION,
                     gate_x=0, gate_y=1):
        device = device or DotArrayDevice.double_dot(cross_coupling=(0.25, 0.22))
        xs = np.linspace(0.0, span, resolution)
        ys = np.linspace(0.0, span, resolution)
        return kernel_fingerprint(device, xs, ys, gate_x, gate_y)

    def test_identical_inputs_identical_fingerprint(self):
        assert self._fingerprint() == self._fingerprint()

    def test_device_window_resolution_gates_all_discriminate(self):
        fingerprints = {
            "base": self._fingerprint(),
            "device": self._fingerprint(
                device=DotArrayDevice.double_dot(cross_coupling=(0.3, 0.22))
            ),
            "window": self._fingerprint(span=0.06),
            "resolution": self._fingerprint(resolution=RESOLUTION + 1),
            "gates": self._fingerprint(gate_x=1, gate_y=0),
        }
        assert len(set(fingerprints.values())) == len(fingerprints)

    def test_solver_bound_discriminates(self):
        loose = DotArrayDevice.double_dot(cross_coupling=(0.25, 0.22))
        tight = DotArrayDevice(
            capacitance=loose.capacitance,
            sensor=loose.sensor,
            gate_specs=loose.gate_specs,
            max_electrons_per_dot=2,
            name=loose.name,
        )
        assert self._fingerprint(device=loose) != self._fingerprint(device=tight)


class TestLRUAndStats:
    def test_lru_evicts_oldest_entry(self):
        cache = KernelCache(max_entries=2)
        for name in ("a", "b", "c"):
            cache.entry(name, (4, 4))
        assert len(cache) == 2
        stats = cache.stats
        assert stats.evictions == 1
        assert stats.entry_misses == 3

    def test_evicted_pixel_work_stays_counted(self):
        cache = KernelCache(max_entries=1)
        entry = cache.entry("a", (4, 4))
        entry.fetch(np.array([0, 1]), lambda idx: np.zeros(idx.size))
        cache.entry("b", (4, 4))
        assert cache.stats.pixel_solves == 2

    def test_entry_fetch_dedups_repeated_pixels(self):
        entry = KernelCacheEntry("fp", (4, 4))
        calls = []

        def solve(idx):
            calls.append(idx.size)
            return np.arange(idx.size, dtype=float)

        rows = np.array([1, 1, 1, 2])
        cols = np.array([3, 3, 3, 0])
        values = entry.fetch(rows * 4 + cols, solve)
        assert calls == [2]
        assert entry.n_solved == 2
        assert np.array_equal(values, [0.0, 0.0, 0.0, 1.0])
        assert entry.values[1, 3] == 0.0 and entry.values[2, 0] == 1.0
        assert entry.solved.sum() == 2 and entry.solved[1, 3] and entry.solved[2, 0]

    def test_stats_round_trip_strict_json(self):
        stats = KernelCacheStats(2, 100, 10, 5, 2, 1)
        payload = json.loads(json.dumps(stats.as_dict(), allow_nan=False))
        assert KernelCacheStats.from_dict(payload) == stats

    def test_max_entries_validation(self):
        with pytest.raises(ConfigurationError):
            KernelCache(max_entries=0)
        max_entries = default_kernel_cache().max_entries
        with pytest.raises(ConfigurationError):
            configure_kernel_cache(max_entries=0)
        assert default_kernel_cache().max_entries == max_entries


class TestGlobalCache:
    def test_configure_and_clear_global_cache(self):
        try:
            clear_kernel_cache()
            cache = configure_kernel_cache(enabled=True, max_entries=4)
            assert cache is default_kernel_cache()
            device = DotArrayDevice.double_dot(cross_coupling=(0.25, 0.22))
            session = SessionFactory(device, resolution=RESOLUTION).make(seed=3)
            session.meter.acquire_full_grid()
            assert default_kernel_cache().stats.pixel_solves == RESOLUTION**2
            clear_kernel_cache()
            assert default_kernel_cache().stats.entry_misses == 0
        finally:
            clear_kernel_cache()
            configure_kernel_cache(enabled=True, max_entries=32)

    def test_session_cache_on_off_identical(self):
        try:
            clear_kernel_cache()
            device = DotArrayDevice.double_dot(cross_coupling=(0.25, 0.22))

            def acquire():
                session = SessionFactory(
                    device, resolution=RESOLUTION, noise=WhiteNoise(0.05)
                ).make(seed=11)
                return session.meter.acquire_full_grid()

            warm = acquire()      # populates the global cache
            cached = acquire()    # served from it
            configure_kernel_cache(enabled=False)
            uncached = acquire()  # bypasses it
            np.testing.assert_array_equal(warm, cached)
            np.testing.assert_array_equal(cached, uncached)
            stats = default_kernel_cache().stats
            assert (stats.pixel_solves, stats.pixel_hits) == (N_PIXELS, N_PIXELS)
        finally:
            configure_kernel_cache(enabled=True)
            clear_kernel_cache()

    def test_repeat_heavy_campaign_solves_each_kernel_once(self, monkeypatch):
        # 20 baseline jobs on a 6-dot chain at 40x40: 5 gate pairs x 2 noise
        # scales x 2 repeats, so each pair's kernel is read by 4 jobs.
        grid = CampaignGrid(
            devices=(DeviceSpec.of("linear_array", n_dots=6),),
            resolutions=(40,),
            noise_scales=(0.0, 1.0),
            methods=("baseline",),
            n_repeats=2,
            seed=2024,
        )
        solved = [0]
        sensor_currents = DotArrayDevice.sensor_currents

        def counted(self, points, *args, **kwargs):
            solved[0] += len(points)
            return sensor_currents(self, points, *args, **kwargs)

        monkeypatch.setattr(DotArrayDevice, "sensor_currents", counted)

        def run(enabled):
            clear_kernel_cache()
            configure_kernel_cache(enabled=enabled)
            solved[0] = 0
            result = TuningCampaign(grid, backend="serial").run()
            return result.normalized().records, solved[0]

        try:
            uncached, uncached_solves = run(enabled=False)
            cached, cached_solves = run(enabled=True)
            stats = default_kernel_cache().stats
        finally:
            clear_kernel_cache()
            configure_kernel_cache(enabled=True)
        assert cached == uncached
        assert uncached_solves == 20 * 40 * 40
        assert cached_solves == 5 * 40 * 40
        assert stats == KernelCacheStats(
            n_entries=5,
            pixel_hits=24_000,
            pixel_solves=8_000,
            entry_hits=15,
            entry_misses=5,
            evictions=0,
        )

    def test_every_scenario_and_fault_condition_cache_on_off_identical(self):
        # Every registered scenario x {no faults, transient-reads, flaky-lab},
        # fast and baseline, on one 32x32 double dot.
        grid = CampaignGrid(
            devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
            resolutions=(32,),
            scenarios=SCENARIOS.names(),
            faults=(None, "transient-reads", "flaky-lab"),
            methods=("fast", "baseline"),
            seed=3,
        )

        def run(enabled):
            clear_kernel_cache()
            configure_kernel_cache(enabled=enabled)
            return TuningCampaign(grid, backend="serial").run().normalized().records

        try:
            uncached = run(enabled=False)
            cached = run(enabled=True)
            stats = default_kernel_cache().stats
        finally:
            clear_kernel_cache()
            configure_kernel_cache(enabled=True)
        assert len(cached) == len(SCENARIOS.names()) * 3 * 2
        assert cached == uncached
        # One currents entry and one detuning entry served every scenario
        # except those with lever-arm drift.
        assert stats.n_entries == 2


class TestRecordedDriftChaosSlice:
    """Solved points of a recorded ``grid-drift-chaos`` slice.

    The slice is the 20 fast jobs of perfbench's seed-1 ``grid-drift-chaos``
    grid on its first gate pair: the double dot P1-P2 at 63x63, in
    ``drifting_sensor`` and ``telegraph_storm``, without faults and with
    ``transient-reads``, 5 repeats each, run in order on a cold kernel
    cache.  Points are counted where the solver does the work, as rows
    through ``ChargeStateSolver.occupations_at``.
    """

    JOBS = CampaignGrid(
        devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
        resolutions=(63,),
        scenarios=("drifting_sensor", "telegraph_storm"),
        faults=(None, "transient-reads"),
        methods=("fast",),
        n_repeats=5,
        seed=1,
    ).expand()

    def test_solved_points_per_job(self, monkeypatch):
        solved: list[int] = []
        occupations_at = ChargeStateSolver.occupations_at

        def counted(self, points):
            solved[-1] += len(points)
            return occupations_at(self, points)

        monkeypatch.setattr(ChargeStateSolver, "occupations_at", counted)
        monkeypatch.setattr(kernelcache, "_default_cache", KernelCache())
        probes = []
        for job in self.JOBS:
            solved.append(0)
            probes.append(run_campaign_job(job).n_probes)
        # drifting_sensor: 10 jobs, then telegraph_storm: 10 jobs.
        assert probes == [
            577, 590, 599, 606, 599, 573, 607, 569, 608, 174,
            608, 579, 614, 576, 586, 566, 583, 328, 566, 584,
        ]
        # Solving every probe afresh cost 11,092 points.  Now the first job
        # of each layer (the detuning entry, then the currents entry) solves
        # its probes, and later jobs solve only pixels no earlier job probed.
        assert solved == [
            577, 35, 26, 16, 116, 1, 1, 0, 1, 0,
            608, 133, 2, 4, 3, 0, 0, 203, 0, 3,
        ]
        assert kernelcache.default_kernel_cache().stats.n_entries == 2
