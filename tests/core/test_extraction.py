"""End-to-end tests of the fast virtual gate extraction pipeline."""

from __future__ import annotations

import pytest

from repro.core import ExtractionConfig, FitConfig
from repro.exceptions import ExtractionError
from repro.instrument import ExperimentSession
from repro.physics import CSDSimulator, DotArrayDevice, WhiteNoise
from repro.pipeline import FastVirtualGateExtractor


class TestOnCleanData:
    def test_recovers_ground_truth_alphas(self, clean_csd, clean_session):
        result = FastVirtualGateExtractor().extract(clean_session)
        assert result.success
        geometry = clean_csd.geometry
        assert result.matrix.alpha_12 == pytest.approx(geometry.alpha_12, abs=0.06)
        assert result.matrix.alpha_21 == pytest.approx(geometry.alpha_21, abs=0.06)

    def test_probe_fraction_far_below_full_scan(self, clean_session):
        result = FastVirtualGateExtractor().extract(clean_session)
        assert result.probe_stats.probe_fraction < 0.25
        assert result.probe_stats.n_probes == clean_session.meter.n_probes

    def test_simulated_runtime_matches_probe_count(self, clean_session):
        result = FastVirtualGateExtractor().extract(clean_session)
        assert result.probe_stats.elapsed_s == pytest.approx(
            0.05 * result.probe_stats.n_probes
        )

    def test_result_contains_intermediate_artifacts(self, clean_session):
        result = FastVirtualGateExtractor().extract(clean_session)
        assert result.anchors is not None
        assert result.points is not None
        assert result.points.n_filtered >= 4
        assert result.fit is not None
        assert result.method == "fast-extraction"
        summary = result.summary()
        assert summary["success"] is True
        assert summary["n_probes"] > 0

    def test_gate_names_propagate_from_csd(self, clean_session):
        result = FastVirtualGateExtractor().extract(clean_session)
        assert result.matrix.gate_x == "P1"
        assert result.matrix.gate_y == "P2"

    def test_extraction_orthogonalizes_true_lines(self, clean_csd, clean_session):
        result = FastVirtualGateExtractor().extract(clean_session)
        geometry = clean_csd.geometry
        residual = result.matrix.orthogonality_error(
            geometry.slope_steep, geometry.slope_shallow
        )
        assert residual < 3.0  # degrees

    def test_accepts_bare_meter(self, clean_session):
        result = FastVirtualGateExtractor().extract(clean_session.meter)
        assert result.success

    def test_rejects_wrong_target_type(self):
        with pytest.raises(ExtractionError):
            FastVirtualGateExtractor().extract("not a session")

    def test_nameless_backend_rejected_instead_of_mislabeled(self, clean_csd):
        # Regression: a backend exposing neither a CSD nor gate-name
        # attributes used to fall back silently to ("P1", "P2"), mislabeling
        # every result extracted through it.  It must fail loudly instead.
        from repro.instrument.measurement import ChargeSensorMeter, MeasurementBackend

        class NamelessBackend(MeasurementBackend):
            @property
            def x_voltages(self):
                return clean_csd.x_voltages

            @property
            def y_voltages(self):
                return clean_csd.y_voltages

            def currents(self, rows, cols, times_s=None):
                rows, cols = self.validate_pixels(rows, cols)
                return clean_csd.data[rows, cols].astype(float)

        meter = ChargeSensorMeter(NamelessBackend())
        with pytest.raises(ExtractionError, match="gate names"):
            FastVirtualGateExtractor().extract(meter)

    def test_partially_named_backend_also_rejected(self, clean_csd):
        # One gate name without the other is just as unlabelable.
        from repro.core import gate_names_for
        from repro.instrument.measurement import ChargeSensorMeter, MeasurementBackend

        class HalfNamedBackend(MeasurementBackend):
            gate_x_name = "P1"

            @property
            def x_voltages(self):
                return clean_csd.x_voltages

            @property
            def y_voltages(self):
                return clean_csd.y_voltages

            def currents(self, rows, cols, times_s=None):
                rows, cols = self.validate_pixels(rows, cols)
                return clean_csd.data[rows, cols].astype(float)

        with pytest.raises(ExtractionError, match="gate names"):
            gate_names_for(ChargeSensorMeter(HalfNamedBackend()))


class TestOnNoisyData:
    def test_succeeds_with_lab_noise(self, noisy_csd, noisy_session):
        result = FastVirtualGateExtractor().extract(noisy_session)
        assert result.success
        geometry = noisy_csd.geometry
        assert result.matrix.alpha_12 == pytest.approx(geometry.alpha_12, abs=0.08)
        assert result.matrix.alpha_21 == pytest.approx(geometry.alpha_21, abs=0.08)

    def test_100px_probe_fraction_near_ten_percent(self, noisy_csd_100):
        session = ExperimentSession.from_csd(noisy_csd_100)
        result = FastVirtualGateExtractor().extract(session)
        assert result.success
        assert 0.05 < result.probe_stats.probe_fraction < 0.18

    def test_fails_gracefully_on_extreme_noise(self, double_dot_device):
        simulator = CSDSimulator(double_dot_device)
        csd = simulator.simulate(63, noise=WhiteNoise(sigma_na=2.0), seed=13)
        session = ExperimentSession.from_csd(csd)
        result = FastVirtualGateExtractor().extract(session)
        # Either the pipeline reports failure, or (rarely) it returns a matrix;
        # it must never raise and must always report its probe cost.
        assert result.probe_stats.n_probes > 0
        if not result.success:
            assert result.failure_reason != ""


class TestConfiguration:
    def test_strict_fit_config_can_reject(self, clean_session):
        config = ExtractionConfig.paper_defaults().replace(
            fit=FitConfig(max_alpha=1e-6)
        )
        result = FastVirtualGateExtractor(config).extract(clean_session)
        assert not result.success
        assert "alpha" in result.failure_reason

    def test_validation_failure_keeps_rejected_matrix(self, clean_session):
        # Regression: the validation-failure path must keep the rejected
        # matrix (and slopes) visible so a failed run can be diagnosed.
        config = ExtractionConfig.paper_defaults().replace(
            fit=FitConfig(max_alpha=1e-6)
        )
        result = FastVirtualGateExtractor(config).extract(clean_session)
        assert not result.success
        assert result.matrix is not None
        assert result.slopes is not None
        assert result.alpha_12 is not None and result.alpha_12 > 1e-6
        assert result.failure_reason != ""

    def test_different_devices_give_different_alphas(self):
        weak = DotArrayDevice.double_dot(cross_coupling=(0.12, 0.10))
        strong = DotArrayDevice.double_dot(cross_coupling=(0.38, 0.34))
        results = []
        for device in (weak, strong):
            csd = CSDSimulator(device).simulate(63, seed=1)
            session = ExperimentSession.from_csd(csd)
            results.append(FastVirtualGateExtractor().extract(session))
        assert results[0].success and results[1].success
        assert results[1].matrix.alpha_12 > results[0].matrix.alpha_12
        assert results[1].matrix.alpha_21 > results[0].matrix.alpha_21

    def test_device_backend_session(self, double_dot_device):
        session = ExperimentSession.from_device(double_dot_device, resolution=63, seed=2)
        result = FastVirtualGateExtractor().extract(session)
        assert result.success
        truth = double_dot_device.ground_truth_alphas(0, 1, "P1", "P2")
        assert result.matrix.alpha_12 == pytest.approx(truth[0], abs=0.08)
