"""Integration tests: whole-pipeline behaviour across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ArrayVirtualGateExtractor,
    CSDSimulator,
    DotArrayDevice,
    ExperimentSession,
    FastVirtualGateExtractor,
    HoughBaselineExtractor,
    SessionFactory,
    standard_lab_noise,
)
from repro.analysis import SuccessCriterion, accuracy_metrics


class TestFastVsBaselineOnSameDevice:
    @pytest.fixture(scope="class")
    def device_and_csd(self):
        device = DotArrayDevice.double_dot(cross_coupling=(0.28, 0.24))
        csd = CSDSimulator(device).simulate(100, noise=standard_lab_noise(), seed=77)
        return device, csd

    def test_both_methods_agree_with_truth_and_each_other(self, device_and_csd):
        device, csd = device_and_csd
        fast = FastVirtualGateExtractor().extract(ExperimentSession.from_csd(csd))
        baseline = HoughBaselineExtractor().extract(ExperimentSession.from_csd(csd))
        truth = device.ground_truth_alphas(0, 1, "P1", "P2")
        assert fast.success and baseline.success
        assert fast.matrix.alpha_12 == pytest.approx(truth[0], abs=0.08)
        assert baseline.matrix.alpha_12 == pytest.approx(truth[0], abs=0.08)
        assert fast.matrix.alpha_12 == pytest.approx(baseline.matrix.alpha_12, abs=0.1)
        assert fast.matrix.alpha_21 == pytest.approx(baseline.matrix.alpha_21, abs=0.1)

    def test_fast_method_is_cheaper_in_probes_and_time(self, device_and_csd):
        _, csd = device_and_csd
        fast = FastVirtualGateExtractor().extract(ExperimentSession.from_csd(csd))
        baseline = HoughBaselineExtractor().extract(ExperimentSession.from_csd(csd))
        assert fast.probe_stats.n_probes < 0.25 * baseline.probe_stats.n_probes
        assert baseline.probe_stats.elapsed_s / fast.probe_stats.elapsed_s > 4.0

    def test_probed_points_concentrate_near_transition_lines(self, device_and_csd):
        device, csd = device_and_csd
        session = ExperimentSession.from_csd(csd)
        FastVirtualGateExtractor().extract(session)
        geometry = csd.geometry
        mask = session.meter.probe_mask()
        rows, cols = np.nonzero(mask)
        # Distance (in volts, vertically) of each probed pixel from the
        # nearest of the two ground-truth lines.
        vx = csd.x_voltages[cols]
        vy = csd.y_voltages[rows]
        d_steep = np.abs(
            vy - (geometry.crossing_y + geometry.slope_steep * (vx - geometry.crossing_x))
        )
        d_shallow = np.abs(
            vy - (geometry.crossing_y + geometry.slope_shallow * (vx - geometry.crossing_x))
        )
        nearest = np.minimum(d_steep, d_shallow)
        span = csd.y_voltages[-1] - csd.y_voltages[0]
        # At least half of the probed points lie within 15% of the scan of a
        # line (the anchor search probes a full row and column, which accounts
        # for most of the remainder); a uniform scan would put only ~25% there.
        assert np.mean(nearest < 0.15 * span) > 0.5


class TestVirtualizedScan:
    def test_virtual_gates_give_orthogonal_control(self):
        """Scanning along one virtual gate should change only its own dot."""
        device = DotArrayDevice.double_dot(cross_coupling=(0.3, 0.26))
        csd = CSDSimulator(device).simulate(80, seed=5)
        session = ExperimentSession.from_csd(csd)
        result = FastVirtualGateExtractor().extract(session)
        assert result.success
        matrix = result.matrix
        geometry = csd.geometry
        # Start just inside the (0,0) region near the crossing and move along
        # the virtual x axis: dot 1 should load well before dot 2 moves.
        start_physical = np.array(
            [geometry.crossing_x - 0.004, geometry.crossing_y - 0.004]
        )
        start_virtual = matrix.to_virtual(start_physical)
        loaded_dot1 = False
        for step in np.linspace(0.0, 0.008, 41):
            virtual = start_virtual + np.array([step, 0.0])
            physical = matrix.to_physical(virtual)
            state = device.charge_state(physical)
            assert state.occupations[1] == 0, "virtual P1 sweep must not load dot 2"
            if state.occupations[0] == 1:
                loaded_dot1 = True
        assert loaded_dot1

    def test_physical_scan_violates_orthogonality(self):
        """Control: the same sweep along the *physical* gate crosses both lines."""
        device = DotArrayDevice.double_dot(cross_coupling=(0.45, 0.45))
        csd = CSDSimulator(device).simulate(40, seed=5)
        geometry = csd.geometry
        start = np.array([geometry.crossing_x - 0.002, geometry.crossing_y - 0.002])
        dot2_loaded = False
        for step in np.linspace(0.0, 0.02, 81):
            state = device.charge_state(start + np.array([step, 0.0]))
            if state.occupations[1] > 0:
                dot2_loaded = True
        # With such strong cross-coupling a purely physical P1 sweep drags
        # dot 2's potential along and eventually loads it.
        assert dot2_loaded


class TestQuadrupleDotWorkflow:
    def test_full_array_extraction(self):
        device = DotArrayDevice.quadruple_dot()
        factory = SessionFactory(device, resolution=63)
        outcome = ArrayVirtualGateExtractor(factory, seed=3).extract()
        assert outcome.n_pairs == 3
        assert outcome.all_pairs_succeeded
        assert outcome.max_alpha_error() < 0.1
        matrix = outcome.virtualization.matrix
        assert matrix.shape == (4, 4)
        # Every neighbouring coupling was measured.
        for k in range(3):
            assert matrix[k, k + 1] > 0
            assert matrix[k + 1, k] > 0


class TestCriterionIntegration:
    def test_criterion_and_metrics_consistent(self, noisy_csd, noisy_session):
        result = FastVirtualGateExtractor().extract(noisy_session)
        criterion = SuccessCriterion()
        metrics = accuracy_metrics(result, noisy_csd.geometry)
        assert criterion.evaluate(result, noisy_csd.geometry) == (
            result.success
            and metrics.alpha_12_error
            <= max(
                criterion.max_alpha_abs_error,
                criterion.max_alpha_rel_error * noisy_csd.geometry.alpha_12,
            )
            and metrics.alpha_21_error
            <= max(
                criterion.max_alpha_abs_error,
                criterion.max_alpha_rel_error * noisy_csd.geometry.alpha_21,
            )
        )
