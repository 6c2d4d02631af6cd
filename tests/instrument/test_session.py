"""Tests for the experiment session wrapper."""

from __future__ import annotations

import pytest

from repro.instrument import ExperimentSession, SessionFactory, TimingModel
from repro.physics import DotArrayDevice, WhiteNoise


class TestFromCsd:
    def test_carries_geometry_and_label(self, clean_csd):
        session = ExperimentSession.from_csd(clean_csd, label="my-run")
        assert session.label == "my-run"
        assert session.geometry is not None
        assert session.geometry.alpha_12 > 0
        assert session.shape == clean_csd.shape

    def test_meter_tracks_probes(self, clean_session):
        meter = clean_session.meter
        meter.get_current(0, 0)
        meter.get_current(0, 1)
        assert meter.n_probes == 2
        assert meter.backend.n_pixels == clean_session.shape[0] * clean_session.shape[1]
        assert meter.probe_fraction == pytest.approx(2 / meter.backend.n_pixels)
        assert meter.elapsed_s == pytest.approx(0.1)

    def test_reset(self, clean_session):
        clean_session.meter.get_current(0, 0)
        clean_session.reset()
        assert clean_session.meter.n_probes == 0

    def test_custom_timing(self, clean_csd):
        session = ExperimentSession.from_csd(clean_csd, timing=TimingModel(dwell_time_s=0.1))
        session.meter.get_current(0, 0)
        assert session.meter.elapsed_s == pytest.approx(0.1)


class TestMake:
    def test_measures_device_on_demand(self, double_dot_device):
        session = SessionFactory(
            double_dot_device, resolution=24, noise=WhiteNoise(0.0)
        ).make(seed=0)
        assert session.shape == (24, 24)
        value = session.meter.get_current(12, 12)
        assert value > 0
        assert session.meter.n_probes == 1

    def test_geometry_matches_device(self, double_dot_device):
        session = SessionFactory(double_dot_device, resolution=24).make()
        alpha_12, alpha_21 = double_dot_device.ground_truth_alphas(0, 1, "P1", "P2")
        assert session.geometry is not None
        assert session.geometry.alpha_12 == pytest.approx(alpha_12)
        assert session.geometry.alpha_21 == pytest.approx(alpha_21)

    def test_rectangular_resolution(self, double_dot_device):
        session = SessionFactory(double_dot_device, resolution=(20, 30)).make()
        assert session.shape == (20, 30)

    def test_quadruple_dot_pair_selection(self):
        device = DotArrayDevice.quadruple_dot()
        session = SessionFactory(device, resolution=20).make(
            gate_x="P2", gate_y="P3", dot_a=1, dot_b=2
        )
        assert session.shape == (20, 20)
        assert session.geometry is not None
        assert session.geometry.alpha_12 > 0


class TestSessionFactory:
    def test_makes_sessions_with_shared_settings(self, double_dot_device):
        factory = SessionFactory(
            device=double_dot_device, resolution=24, noise=WhiteNoise(0.01)
        )
        session = factory.make(seed=3)
        assert session.shape == (24, 24)
        assert session.geometry is not None
        assert session.label == f"{double_dot_device.name}:P1-P2"

    def test_gate_pair_varies_per_session(self):
        device = DotArrayDevice.quadruple_dot()
        factory = SessionFactory(device=device, resolution=20)
        first = factory.make(gate_x="P1", gate_y="P2", dot_a=0, dot_b=1, seed=1)
        second = factory.make(gate_x="P2", gate_y="P3", dot_a=1, dot_b=2, seed=2)
        assert first.label.endswith("P1-P2")
        assert second.label.endswith("P2-P3")
        truth = device.ground_truth_alphas(1, 2, "P2", "P3")
        assert second.geometry.alpha_12 == pytest.approx(truth[0])

    def test_accepts_seed_sequence(self, double_dot_device):
        import numpy as np

        factory = SessionFactory(
            device=double_dot_device, resolution=24, noise=WhiteNoise(0.05)
        )
        seed = np.random.SeedSequence(4)
        a = factory.make(seed=np.random.SeedSequence(4))
        b = factory.make(seed=seed)
        assert a.meter.get_current(3, 3) == b.meter.get_current(3, 3)

    def test_factory_is_picklable(self, double_dot_device):
        import pickle

        factory = SessionFactory(device=double_dot_device, resolution=24)
        restored = pickle.loads(pickle.dumps(factory))
        assert restored.resolution == 24
        assert restored.make(seed=0).shape == (24, 24)
