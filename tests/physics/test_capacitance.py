"""Tests for the constant-interaction capacitance model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import CapacitanceModelError
from repro.physics import CapacitanceModel, constants


def make_symmetric_double_dot(cross: float = 0.25) -> CapacitanceModel:
    return CapacitanceModel.double_dot(
        charging_energy_mev=(3.0, 3.0),
        mutual_fraction=0.0,
        plunger_lever_arms=(0.1, 0.1),
        cross_lever_fractions=(cross, cross),
    )


class TestConstruction:
    def test_double_dot_shapes(self):
        model = CapacitanceModel.double_dot()
        assert model.n_dots == 2
        assert model.n_gates == 2
        assert model.gate_names == ("P1", "P2")

    def test_linear_array_shapes(self):
        model = CapacitanceModel.linear_array(n_dots=4)
        assert model.n_dots == 4
        assert model.n_gates == 4
        assert model.gate_names == ("P1", "P2", "P3", "P4")

    def test_rejects_asymmetric_maxwell_matrix(self):
        with pytest.raises(CapacitanceModelError):
            CapacitanceModel(
                dot_dot=np.array([[50.0, -5.0], [-6.0, 50.0]]),
                dot_gate=np.array([[5.0, 1.0], [1.0, 5.0]]),
            )

    def test_rejects_positive_off_diagonal(self):
        with pytest.raises(CapacitanceModelError):
            CapacitanceModel(
                dot_dot=np.array([[50.0, 5.0], [5.0, 50.0]]),
                dot_gate=np.array([[5.0, 1.0], [1.0, 5.0]]),
            )

    def test_rejects_negative_dot_gate(self):
        with pytest.raises(CapacitanceModelError):
            CapacitanceModel(
                dot_dot=np.array([[50.0, -5.0], [-5.0, 50.0]]),
                dot_gate=np.array([[5.0, -1.0], [1.0, 5.0]]),
            )

    def test_rejects_wrong_gate_name_count(self):
        with pytest.raises(CapacitanceModelError):
            CapacitanceModel(
                dot_dot=np.array([[50.0, -5.0], [-5.0, 50.0]]),
                dot_gate=np.array([[5.0, 1.0], [1.0, 5.0]]),
                gate_names=("P1",),
            )

    def test_rejects_non_square_maxwell(self):
        with pytest.raises(CapacitanceModelError):
            CapacitanceModel(
                dot_dot=np.ones((2, 3)),
                dot_gate=np.ones((2, 2)),
            )

    def test_gate_index_by_name_and_int(self):
        model = CapacitanceModel.double_dot()
        assert model.gate_index("P2") == 1
        assert model.gate_index(0) == 0
        with pytest.raises(CapacitanceModelError):
            model.gate_index("P9")
        with pytest.raises(CapacitanceModelError):
            model.gate_index(5)


class TestEnergies:
    def test_charging_energy_matches_request(self):
        model = CapacitanceModel.double_dot(
            charging_energy_mev=(3.0, 4.0), mutual_fraction=0.0
        )
        energies = model.charging_energies_mev()
        assert energies[0] == pytest.approx(3.0, rel=1e-6)
        assert energies[1] == pytest.approx(4.0, rel=1e-6)

    def test_energy_minimum_at_zero_occupation_for_zero_voltage(self):
        model = make_symmetric_double_dot()
        zero = model.electrostatic_energy([0, 0], [0.0, 0.0])
        one = model.electrostatic_energy([1, 0], [0.0, 0.0])
        assert zero < one

    def test_energy_shape_validation(self):
        model = make_symmetric_double_dot()
        with pytest.raises(CapacitanceModelError):
            model.electrostatic_energy([0, 0, 0], [0.0, 0.0])
        with pytest.raises(CapacitanceModelError):
            model.electrostatic_energy([0, 0], [0.0])

    def test_chemical_potential_decreases_with_gate_voltage(self):
        model = make_symmetric_double_dot()
        mu_low = model.chemical_potential(0, [0, 0], [0.0, 0.0])
        mu_high = model.chemical_potential(0, [0, 0], [0.05, 0.0])
        assert mu_high < mu_low

    def test_chemical_potential_invalid_dot(self):
        model = make_symmetric_double_dot()
        with pytest.raises(CapacitanceModelError):
            model.chemical_potential(5, [0, 0], [0.0, 0.0])


class TestInverseOnce:
    def test_inverse_is_one_read_only_array(self):
        model = CapacitanceModel.linear_array(n_dots=4)
        inverse = model.inverse_dot_dot
        assert inverse is model.inverse_dot_dot
        assert not inverse.flags.writeable
        with pytest.raises(ValueError):
            inverse[0, 0] = 0.0
        assert np.array_equal(inverse, np.linalg.inv(model.dot_dot))
        assert np.array_equal(
            model.lever_arm_matrix, np.linalg.inv(model.dot_dot) @ model.dot_gate
        )

    def test_callers_array_cannot_stale_it(self):
        dot_dot = np.array([[50.0, -5.0], [-5.0, 50.0]])
        model = CapacitanceModel(dot_dot=dot_dot, dot_gate=np.array([[5.0, 1.0], [1.0, 5.0]]))
        dot_dot[0, 0] = 80.0
        assert model.dot_dot[0, 0] == 50.0
        assert not model.dot_dot.flags.writeable and not model.dot_gate.flags.writeable
        assert np.array_equal(model.inverse_dot_dot, np.linalg.inv(model.dot_dot))


class TestLeverArmsAndSlopes:
    def test_lever_arm_matrix_dominant_diagonal(self):
        model = CapacitanceModel.double_dot()
        lever = model.lever_arm_matrix
        assert lever[0, 0] > lever[0, 1] > 0
        assert lever[1, 1] > lever[1, 0] > 0

    def test_transition_slopes_signs_and_ordering(self):
        model = CapacitanceModel.double_dot()
        steep, shallow = model.transition_slopes(0, 1, "P1", "P2")
        assert steep < -1.0
        assert -1.0 < shallow < 0.0
        assert abs(steep) > abs(shallow)

    def test_alphas_match_slopes(self):
        model = CapacitanceModel.double_dot()
        steep, shallow = model.transition_slopes(0, 1, "P1", "P2")
        alpha_12, alpha_21 = model.virtualization_alphas(0, 1, "P1", "P2")
        assert alpha_12 == pytest.approx(-1.0 / steep)
        assert alpha_21 == pytest.approx(-shallow)

    def test_symmetric_device_has_equal_alphas(self):
        model = make_symmetric_double_dot(cross=0.3)
        alpha_12, alpha_21 = model.virtualization_alphas(0, 1, "P1", "P2")
        assert alpha_12 == pytest.approx(alpha_21, rel=1e-9)

    def test_zero_cross_coupling_gives_zero_alphas_without_mutual(self):
        model = make_symmetric_double_dot(cross=0.0)
        with pytest.raises(CapacitanceModelError):
            # Zero cross lever arms make the slope degenerate; the model
            # explicitly refuses rather than dividing by zero.
            model.transition_slopes(0, 1, "P1", "P2")

    def test_larger_cross_coupling_increases_alpha(self):
        weak = make_symmetric_double_dot(cross=0.1).virtualization_alphas(0, 1, 0, 1)
        strong = make_symmetric_double_dot(cross=0.4).virtualization_alphas(0, 1, 0, 1)
        assert strong[0] > weak[0]
        assert strong[1] > weak[1]

    def test_mutual_capacitance_increases_effective_cross_talk(self):
        without = CapacitanceModel.double_dot(mutual_fraction=0.0).virtualization_alphas(
            0, 1, 0, 1
        )
        with_mutual = CapacitanceModel.double_dot(mutual_fraction=0.2).virtualization_alphas(
            0, 1, 0, 1
        )
        assert with_mutual[0] > without[0]


class TestLinearArray:
    def test_nearest_neighbour_coupling_decays_with_distance(self):
        model = CapacitanceModel.linear_array(n_dots=4)
        cdg = model.dot_gate
        assert cdg[0, 0] > cdg[0, 1] > cdg[0, 2] > cdg[0, 3] >= 0.0

    @pytest.mark.parametrize("n_dots", range(1, 9))
    def test_matches_the_chain_formula(self, n_dots):
        # The chain written out on its own (tridiagonal mutual capacitance,
        # plunger cross-coupling by chain distance), the oracle for
        # linear_array building through grid_lattice: bit-identical, for
        # the default parameters and for non-default ones.
        for kwargs in (
            {},
            {
                "charging_energy_mev": 2.5,
                "mutual_fraction": 0.2,
                "plunger_lever_arm": 0.13,
                "nearest_cross_fraction": 0.3,
                "next_nearest_cross_fraction": 0.07,
                "gate_prefix": "G",
            },
        ):
            params = {
                "charging_energy_mev": 3.0,
                "mutual_fraction": 0.12,
                "plunger_lever_arm": 0.10,
                "nearest_cross_fraction": 0.25,
                "next_nearest_cross_fraction": 0.05,
                "gate_prefix": "P",
                **kwargs,
            }
            c_total = constants.E_SQUARED_OVER_AF_IN_MEV / params["charging_energy_mev"]
            cg = params["plunger_lever_arm"] * c_total
            cdd = np.zeros((n_dots, n_dots))
            cdg = np.zeros((n_dots, n_dots))
            for i in range(n_dots):
                cdd[i, i] = c_total
                if i + 1 < n_dots:
                    cdd[i, i + 1] = cdd[i + 1, i] = -params["mutual_fraction"] * c_total
                for j in range(n_dots):
                    fraction = {
                        0: 1.0,
                        1: params["nearest_cross_fraction"],
                        2: params["next_nearest_cross_fraction"],
                    }.get(abs(i - j))
                    if fraction is not None:
                        cdg[i, j] = fraction * cg
            model = CapacitanceModel.linear_array(n_dots, **kwargs)
            assert np.array_equal(model.dot_dot, cdd)
            assert np.array_equal(model.dot_gate, cdg)
            assert model.gate_names == tuple(
                f"{params['gate_prefix']}{i + 1}" for i in range(n_dots)
            )

    def test_invalid_parameters(self):
        with pytest.raises(CapacitanceModelError, match="n_dots must be at least 1"):
            CapacitanceModel.linear_array(n_dots=0)
        with pytest.raises(CapacitanceModelError):
            CapacitanceModel.grid_lattice(rows=0, cols=3)
        with pytest.raises(CapacitanceModelError):
            CapacitanceModel.grid_lattice(rows=2, cols=3, charging_energy_mev=0.0)


class TestGridLattice:
    def test_shapes_and_names(self):
        model = CapacitanceModel.grid_lattice(rows=2, cols=3)
        assert model.n_dots == 6
        assert model.n_gates == 6
        assert model.gate_names == ("P1", "P2", "P3", "P4", "P5", "P6")

    def test_mutual_capacitance_only_on_lattice_bonds(self):
        model = CapacitanceModel.grid_lattice(rows=2, cols=3)
        cdd = model.dot_dot
        sites = [(i // 3, i % 3) for i in range(6)]
        for i, (ri, ci) in enumerate(sites):
            for j, (rj, cj) in enumerate(sites):
                if i == j:
                    continue
                distance = abs(ri - rj) + abs(ci - cj)
                if distance == 1:
                    assert cdd[i, j] < 0.0
                else:
                    assert cdd[i, j] == 0.0

    def test_cross_coupling_decays_with_manhattan_distance(self):
        model = CapacitanceModel.grid_lattice(rows=2, cols=3)
        cdg = model.dot_gate
        # dot 0 sits at (0, 0): gate 1 is distance 1, gate 4 distance 2,
        # gate 5 distance 3 (beyond the modelled range).
        assert cdg[0, 0] > cdg[0, 1] > cdg[0, 4] > cdg[0, 5] == 0.0

    def test_single_row_matches_linear_array(self):
        grid = CapacitanceModel.grid_lattice(rows=1, cols=4)
        chain = CapacitanceModel.linear_array(n_dots=4)
        np.testing.assert_allclose(grid.dot_dot, chain.dot_dot)
        np.testing.assert_allclose(grid.dot_gate, chain.dot_gate)

    def test_charging_energy_matches_request(self):
        model = CapacitanceModel.grid_lattice(
            rows=2, cols=2, charging_energy_mev=4.0, mutual_fraction=0.0
        )
        energies = model.charging_energies_mev()
        np.testing.assert_allclose(energies, 4.0, rtol=1e-6)
        with pytest.raises(CapacitanceModelError):
            CapacitanceModel.linear_array(n_dots=2, charging_energy_mev=-1.0)
        with pytest.raises(CapacitanceModelError):
            CapacitanceModel.double_dot(mutual_fraction=0.7)
        with pytest.raises(CapacitanceModelError):
            CapacitanceModel.double_dot(plunger_lever_arms=(1.5, 0.1))
