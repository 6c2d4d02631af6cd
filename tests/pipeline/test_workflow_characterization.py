"""Characterization of the auto-tuning workflow: exact outcomes, pinned.

One plain run (the first device of ``tests/core/test_window_search.py``)
and one drift-aware run (the drifting-sensor fixture of
``tests/scenarios/test_retune.py``), pinned with ``==``: the found window,
corner and spacing, the coarse image, the extracted alphas, the probe
counts, the simulated seconds and every stage's telemetry row except its
wall time.  Any change to which grid a stage measures, with which seed, in
which order or on which clock moves one of these numbers.
"""

from __future__ import annotations

import pytest

from repro.instrument import SessionFactory
from repro.physics import DeviceDrift, DotArrayDevice, WhiteNoise, standard_lab_noise
from repro.pipeline import AutoTuningWorkflow
from repro.scenarios import get_scenario


def _window(search):
    return (
        search.window,
        search.corner_voltage,
        search.estimated_spacing,
        search.n_probes,
        search.elapsed_s,
        float(search.coarse_image.sum()),
    )


def _extraction(result):
    stats = result.probe_stats
    return (
        result.success,
        result.alpha_12,
        result.alpha_21,
        stats.n_probes,
        stats.n_requests,
        stats.n_pixels,
        stats.elapsed_s,
        result.failure_reason,
    )


def _telemetry(rows):
    """Every telemetry field except the host's wall time."""
    return [
        (
            row.stage,
            row.outcome,
            row.n_probes,
            row.n_requests,
            row.cache_hits,
            row.sim_elapsed_s,
            row.detail,
        )
        for row in rows
    ]


@pytest.fixture(scope="module")
def autotune_outcome():
    device = DotArrayDevice.double_dot(
        cross_coupling=(0.35, 0.30), voltage_range=(0.0, 0.06)
    )
    factory = SessionFactory(device, resolution=100, noise=standard_lab_noise())
    return AutoTuningWorkflow(factory, seed=6).run()


@pytest.fixture(scope="module")
def retune_outcome():
    factory = SessionFactory(
        get_scenario("drifting_sensor").build_device(),
        resolution=48,
        noise=WhiteNoise(sigma_na=0.01),
        drift=DeviceDrift(operating_point_mv_per_hour=30.0),
        time_dependent_noise=True,
    )
    return AutoTuningWorkflow(factory, seed=11).run_with_retuning(
        idle_time_s=1800.0, n_cycles=2, staleness_threshold_na=0.08
    )


class TestRunOutcome:
    def test_window_search(self, autotune_outcome):
        assert _window(autotune_outcome.window_search) == (
            ((0.0022434782608695657, 0.023843478260869563), (0.0, 0.021599999999999998)),
            (0.013043478260869565, 0.002608695652173913),
            (0.018, 0.018),
            576,
            28.800000000000274,
            295.8665422403889,
        )

    def test_extraction(self, autotune_outcome):
        assert _extraction(autotune_outcome.extraction) == (
            True, 0.5444015444015442, 0.4325753569539927, 897, 3262, 10000,
            44.84999999999959, "",
        )

    def test_stage_telemetry(self, autotune_outcome):
        assert _telemetry(autotune_outcome.stage_telemetry) == [
            ("window-search", "ok", 576, 576, 0, 28.800000000000274, ""),
            ("open-session", "ok", 0, 0, 0, 0.0, ""),
            ("anchors", "ok", 545, 2590, 2045, 27.250000000000252, ""),
            ("sweeps", "ok", 352, 672, 320, 17.599999999999337, ""),
            ("filter", "ok", 0, 0, 0, 0.0, ""),
            ("fit", "ok", 0, 0, 0, 0.0, ""),
            ("validate", "ok", 0, 0, 0, 0.0, ""),
        ]

    def test_metadata(self, autotune_outcome):
        assert autotune_outcome.metadata == {
            "device": "double-dot", "gate_x": "P1", "gate_y": "P2", "resolution": 100,
        }


class TestRetuningOutcome:
    def test_window_search(self, retune_outcome):
        assert _window(retune_outcome.initial.window_search) == (
            ((0.0, 0.36), (0.0, 0.36)),
            (0.0, 0.043478260869565216),
            (0.3, 0.3),
            576,
            28.800000000000274,
            264.15560723756283,
        )

    def test_extractions(self, retune_outcome):
        assert _extraction(retune_outcome.initial.extraction) == (
            True, 0.5217391304347833, 0.25454545454545385, 141, 502, 2304,
            7.049999999999827, "",
        )
        assert [_extraction(cycle.extraction) for cycle in retune_outcome.cycles] == [
            (False, None, None, 48, 94, 2304, 2.399999999997817,
             "need at least 4 transition points to fit, got 3"),
            (True, 0.6250000000000003, 0.9534412955465587, 318, 1222, 2304,
             15.900000000057844, ""),
        ]

    def test_staleness_checks(self, retune_outcome):
        assert [
            (c.check.checked_at_s, c.check.max_deviation_na, c.check.n_check_pixels, c.check.stale)
            for c in retune_outcome.cycles
        ] == [
            (1836.6499999999994, 0.7036656319724126, 16, True),
            (3639.8500000000004, 0.6968116563150322, 16, True),
        ]

    def test_totals(self, retune_outcome):
        assert (
            retune_outcome.total_probes,
            retune_outcome.final_elapsed_s,
            retune_outcome.n_retunes,
        ) == (1115, 3655.750000000058, 2)
        assert retune_outcome.metadata == {
            "device": "double-dot", "idle_time_s": 1800.0, "staleness_threshold_na": 0.08,
        }
        assert retune_outcome.initial.metadata == {
            "device": "double-dot", "gate_x": "P1", "gate_y": "P2", "resolution": 48,
        }

    def test_stage_telemetry(self, retune_outcome):
        assert _telemetry(retune_outcome.stage_telemetry) == [
            ("window-search", "ok", 576, 576, 0, 28.800000000000274, ""),
            ("anchors", "ok", 107, 400, 293, 5.349999999999923, ""),
            ("sweeps", "ok", 34, 102, 68, 1.6999999999999034, ""),
            ("filter", "ok", 0, 0, 0, 0.0, ""),
            ("fit", "ok", 0, 0, 0, 0.0, ""),
            ("validate", "ok", 0, 0, 0, 0.0, ""),
            ("staleness-check", "ok", 16, 16, 0, 0.7999999999992724, "stale"),
            ("anchors", "ok", 41, 70, 29, 2.0499999999981355, ""),
            ("sweeps", "ok", 7, 24, 17, 0.3499999999996817, ""),
            ("filter", "ok", 0, 0, 0, 0.0, ""),
            ("fit", "failed", 0, 0, 0, 0.0, "need at least 4 transition points to fit, got 3"),
            ("staleness-check", "ok", 16, 16, 0, 0.8000000000029104, "stale"),
            ("anchors", "ok", 233, 1030, 797, 11.650000000042382, ""),
            ("sweeps", "ok", 85, 192, 107, 4.250000000015461, ""),
            ("filter", "ok", 0, 0, 0, 0.0, ""),
            ("fit", "ok", 0, 0, 0, 0.0, ""),
            ("validate", "ok", 0, 0, 0, 0.0, ""),
        ]
