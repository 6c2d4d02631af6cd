"""Tests for the ground-state charge configuration solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ChargeStateError
from repro.physics import CapacitanceModel, ChargeStateSolver, format_charge_state
from repro.physics.charge_state import ChargeState


@pytest.fixture(scope="module")
def model() -> CapacitanceModel:
    return CapacitanceModel.double_dot(cross_lever_fractions=(0.25, 0.22))


@pytest.fixture(scope="module")
def solver(model) -> ChargeStateSolver:
    return ChargeStateSolver(model, max_electrons_per_dot=3)


class TestFormatting:
    def test_format_charge_state(self):
        assert format_charge_state((0, 1)) == "(0, 1)"
        assert format_charge_state(np.array([2, 0, 1])) == "(2, 0, 1)"

    def test_charge_state_properties(self):
        state = ChargeState(occupations=(1, 2), energy_mev=0.5)
        assert state.total_electrons == 3
        assert state.label == "(1, 2)"


class TestGroundState:
    def test_empty_at_zero_voltage(self, solver):
        state = solver.ground_state([0.0, 0.0])
        assert state.occupations == (0, 0)

    def test_high_voltage_fills_dots(self, solver):
        state = solver.ground_state([0.2, 0.2])
        assert state.occupations[0] >= 1
        assert state.occupations[1] >= 1

    def test_single_gate_loads_its_own_dot_first(self, solver):
        state = solver.ground_state([0.04, 0.0])
        assert state.occupations[0] >= state.occupations[1]

    def test_energy_is_minimal_over_lattice(self, solver, model):
        vg = np.array([0.025, 0.02])
        state = solver.ground_state(vg)
        for n1 in range(3):
            for n2 in range(3):
                assert state.energy_mev <= model.electrostatic_energy([n1, n2], vg) + 1e-9

    def test_invalid_max_electrons(self, model):
        with pytest.raises(ChargeStateError):
            ChargeStateSolver(model, max_electrons_per_dot=0)


class TestOccupationMap:
    def test_map_shape_and_dtype(self, solver):
        xs = np.linspace(0.0, 0.05, 12)
        ys = np.linspace(0.0, 0.05, 10)
        occupations = solver.occupation_map("P1", "P2", xs, ys)
        assert occupations.shape == (10, 12, 2)
        assert occupations.dtype.kind == "i"

    def test_map_matches_pointwise_ground_state(self, solver, rng):
        xs = np.linspace(0.0, 0.05, 15)
        ys = np.linspace(0.0, 0.05, 15)
        occupations = solver.occupation_map("P1", "P2", xs, ys)
        for _ in range(20):
            row = int(rng.integers(0, 15))
            col = int(rng.integers(0, 15))
            exact = solver.ground_state([xs[col], ys[row]])
            assert tuple(occupations[row, col]) == exact.occupations

    def test_occupations_monotone_along_axes(self, solver):
        xs = np.linspace(0.0, 0.06, 30)
        ys = np.linspace(0.0, 0.06, 30)
        occupations = solver.occupation_map("P1", "P2", xs, ys)
        # Increasing the x gate never removes electrons from dot 0.
        diffs_x = np.diff(occupations[:, :, 0], axis=1)
        assert np.all(diffs_x >= 0)
        # Increasing the y gate never removes electrons from dot 1.
        diffs_y = np.diff(occupations[:, :, 1], axis=0)
        assert np.all(diffs_y >= 0)

    def test_same_gate_rejected(self, solver):
        xs = np.linspace(0.0, 0.05, 5)
        with pytest.raises(ChargeStateError):
            solver.occupation_map("P1", "P1", xs, xs)

    def test_fixed_voltages_shift_transitions(self, solver):
        xs = np.linspace(0.0, 0.05, 20)
        ys = np.linspace(0.0, 0.05, 20)
        base = solver.occupation_map("P1", "P2", xs, ys)
        shifted = solver.occupation_map("P1", "P2", xs, ys, fixed_voltages=[0.0, 0.0])
        assert np.array_equal(base, shifted)

    def test_fixed_voltage_wrong_shape(self, solver):
        xs = np.linspace(0.0, 0.05, 5)
        with pytest.raises(ChargeStateError):
            solver.occupation_map("P1", "P2", xs, xs, fixed_voltages=[0.0])
