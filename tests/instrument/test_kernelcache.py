"""Kernel cache: bit-identical reuse of noise-free CSD kernels.

The cache's contract has three legs: cached and uncached measurements are
exactly equal (the cache stores the same values the solver would recompute),
the fingerprint separates every input the pure values depend on, and
anything time-dependent (drift, time-dependent noise) bypasses the cache
completely so stale kernels can never leak into evolving sessions.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaign import CampaignGrid, DeviceSpec, TuningCampaign
from repro.exceptions import ConfigurationError
from repro.instrument import ChargeSensorMeter, DeviceBackend, ExperimentSession
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

RESOLUTION = 24


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
        assert meter.kernel_cache_hits == RESOLUTION * RESOLUTION
        assert meter.kernel_cache_solves == 0


class TestCacheBypass:
    def test_disabled_backend_leaves_cache_untouched(self):
        cache = KernelCache()
        meter = ChargeSensorMeter(build_backend(False))
        meter.acquire_full_grid()
        assert cache.stats.as_dict() == KernelCacheStats(0, 0, 0, 0, 0, 0).as_dict()

    def test_drift_bypasses_cache(self):
        cache = KernelCache()
        drift = DeviceDrift(operating_point_mv_per_hour=8.0)
        meter = ChargeSensorMeter(build_backend(cache, drift=drift))
        meter.acquire_full_grid()
        assert cache.stats == KernelCacheStats(0, 0, 0, 0, 0, 0)

    def test_time_dependent_noise_bypasses_cache(self):
        cache = KernelCache()
        meter = ChargeSensorMeter(
            build_backend(cache, noise=WhiteNoise(0.05), time_dependent_noise=True)
        )
        meter.acquire_full_grid()
        assert cache.stats == KernelCacheStats(0, 0, 0, 0, 0, 0)

    def test_disabled_cache_object_serves_nothing(self):
        cache = KernelCache(enabled=False)
        meter = ChargeSensorMeter(build_backend(cache))
        meter.acquire_full_grid()
        assert len(cache) == 0
        assert meter.kernel_cache_hits == 0


class TestFingerprint:
    def _fingerprint(self, device=None, span=0.05, resolution=RESOLUTION,
                     gate_x=0, gate_y=1, fixed=None):
        device = device or DotArrayDevice.double_dot(cross_coupling=(0.25, 0.22))
        xs = np.linspace(0.0, span, resolution)
        ys = np.linspace(0.0, span, resolution)
        fixed_voltages = np.zeros(device.n_gates) if fixed is None else fixed
        return kernel_fingerprint(device, xs, ys, gate_x, gate_y, fixed_voltages)

    def test_identical_inputs_identical_fingerprint(self):
        assert self._fingerprint() == self._fingerprint()

    def test_device_window_resolution_fixed_all_discriminate(self):
        fingerprints = {
            "base": self._fingerprint(),
            "device": self._fingerprint(
                device=DotArrayDevice.double_dot(cross_coupling=(0.3, 0.22))
            ),
            "window": self._fingerprint(span=0.06),
            "resolution": self._fingerprint(resolution=RESOLUTION + 1),
            "gates": self._fingerprint(gate_x=1, gate_y=0),
            "fixed": self._fingerprint(
                fixed=np.full(2, 0.01)
            ),
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
            session = ExperimentSession.from_device(
                device, resolution=RESOLUTION, seed=3
            )
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

            def acquire(kernel_cache):
                session = ExperimentSession.from_device(
                    device,
                    resolution=RESOLUTION,
                    seed=11,
                    noise=WhiteNoise(0.05),
                    kernel_cache=kernel_cache,
                )
                return session.meter.acquire_full_grid()

            warm = acquire(True)      # populates the global cache
            cached = acquire(True)    # served from it
            uncached = acquire(False)
            np.testing.assert_array_equal(warm, cached)
            np.testing.assert_array_equal(cached, uncached)
        finally:
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
