"""Tests for physical constants and unit helpers."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.physics import constants


class TestConstants:
    def test_elementary_charge_af_v_scale(self):
        # 1 aF * 1 V = 1e-18 C, so e expressed in aF*V is ~0.16.
        assert constants.ELEMENTARY_CHARGE_AF_V == pytest.approx(0.1602176634, rel=1e-9)

    def test_e_squared_over_af_is_mev_scale(self):
        # e^2 / 1 aF ~ 160 meV, the right order for small quantum dots.
        assert 100.0 < constants.E_SQUARED_OVER_AF_IN_MEV < 200.0


class TestThermalEnergy:
    def test_room_temperature(self):
        assert constants.thermal_energy_mev(300.0) == pytest.approx(25.85, rel=0.01)

    def test_dilution_fridge(self):
        assert constants.thermal_energy_mev(0.1) == pytest.approx(0.0086, rel=0.01)

    def test_zero_temperature(self):
        assert constants.thermal_energy_mev(0.0) == 0.0

    def test_negative_temperature_rejected(self):
        with pytest.raises(ConfigurationError):
            constants.thermal_energy_mev(-1.0)


class TestChargingEnergy:
    def test_typical_dot(self):
        # A 50 aF dot has a charging energy of ~3.2 meV.
        assert constants.charging_energy_mev(50.0) == pytest.approx(3.2, rel=0.02)

    def test_inverse_relationship(self):
        assert constants.charging_energy_mev(25.0) == pytest.approx(
            2.0 * constants.charging_energy_mev(50.0)
        )

    @pytest.mark.parametrize("capacitance", [0.0, -1.0])
    def test_nonpositive_capacitance_rejected(self, capacitance):
        with pytest.raises(ConfigurationError):
            constants.charging_energy_mev(capacitance)


class TestLeverArm:
    def test_unity_lever_arm(self):
        assert constants.lever_arm_to_mev_per_volt(1.0) == 1000.0

    def test_typical_lever_arm(self):
        assert constants.lever_arm_to_mev_per_volt(0.1) == pytest.approx(100.0)


class TestGaussian:
    def test_peak_value(self):
        assert constants.gaussian(0.0, 0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi)
        )

    def test_symmetry(self):
        assert constants.gaussian(1.0, 0.0, 2.0) == pytest.approx(
            constants.gaussian(-1.0, 0.0, 2.0)
        )

    def test_invalid_sigma(self):
        with pytest.raises(ConfigurationError):
            constants.gaussian(0.0, 0.0, 0.0)
