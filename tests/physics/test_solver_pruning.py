"""Bound-certified solver pruning: exactly equal to full enumeration.

The pruned batch path in :class:`~repro.physics.ChargeStateSolver` is a pure
overhead cut — every occupation and every energy must match brute-force
lattice enumeration bit for bit, on any device and any point batch.  These
tests pin that equivalence across the device families the campaigns use
(long chains, 2-D lattices) plus randomised capacitance models and sweep
windows, and sanity-check the work counters that the benchmarks report.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physics import CapacitanceModel, ChargeStateSolver, CSDSimulator, DotArrayDevice


def solver_pair(model, max_electrons_per_dot=3):
    """(full, pruned) solvers over the same model."""
    full = ChargeStateSolver(
        model, max_electrons_per_dot=max_electrons_per_dot, prune=False
    )
    pruned = ChargeStateSolver(
        model, max_electrons_per_dot=max_electrons_per_dot, prune=True
    )
    return full, pruned


def window_points(device, resolution):
    """Flattened gate-voltage batch rasterising the default CSD window."""
    window = CSDSimulator(device).default_window()
    (x_min, x_max), (y_min, y_max) = window
    xs = np.linspace(x_min, x_max, resolution)
    ys = np.linspace(y_min, y_max, resolution)
    ix = device.gate_index("P1")
    iy = device.gate_index("P2")
    points = np.zeros((resolution * resolution, device.n_gates))
    grid_x, grid_y = np.meshgrid(xs, ys)
    points[:, ix] = grid_x.ravel()
    points[:, iy] = grid_y.ravel()
    return points


class TestPrunedEqualsFull:
    @pytest.mark.parametrize("n_dots", [6, 7, 8])
    def test_chain_window_occupations_identical(self, n_dots):
        device = DotArrayDevice.linear_array(n_dots)
        points = window_points(device, resolution=8)
        full, pruned = solver_pair(device.capacitance)
        np.testing.assert_array_equal(
            pruned.occupations_at(points), full.occupations_at(points)
        )

    def test_grid_lattice_occupations_identical(self):
        device = DotArrayDevice.grid_array(rows=2, cols=3)
        points = window_points(device, resolution=10)
        full, pruned = solver_pair(device.capacitance)
        np.testing.assert_array_equal(
            pruned.occupations_at(points), full.occupations_at(points)
        )

    def test_chain_states_and_energies_identical(self):
        device = DotArrayDevice.linear_array(6)
        points = window_points(device, resolution=6)
        full, pruned = solver_pair(device.capacitance)
        full_states = full.ground_states_batch(points)
        pruned_states = pruned.ground_states_batch(points)
        assert len(full_states) == len(pruned_states)
        for a, b in zip(full_states, pruned_states):
            assert a.occupations == b.occupations
            assert a.energy_mev == b.energy_mev

    def test_batch_matches_scalar_solves(self):
        device = DotArrayDevice.linear_array(6)
        points = window_points(device, resolution=5)
        _, pruned = solver_pair(device.capacitance)
        batch = pruned.occupations_at(points)
        for point, occupation in zip(points, batch):
            assert tuple(occupation) == pruned.ground_state(point).occupations

    @given(
        charging=st.floats(min_value=1.5, max_value=6.0),
        mutual=st.floats(min_value=0.0, max_value=0.3),
        nearest=st.floats(min_value=0.05, max_value=0.4),
        span=st.floats(min_value=0.01, max_value=0.25),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_chain_and_sweep_identical(
        self, charging, mutual, nearest, span, seed
    ):
        model = CapacitanceModel.linear_array(
            5,
            charging_energy_mev=charging,
            mutual_fraction=mutual,
            nearest_cross_fraction=nearest,
        )
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.0, span, size=(40, model.n_gates))
        full, pruned = solver_pair(model)
        assert pruned.prune_enabled
        np.testing.assert_array_equal(
            pruned.occupations_at(points), full.occupations_at(points)
        )


class TestSolverStats:
    def test_auto_threshold_small_lattice_disabled(self):
        double = DotArrayDevice.double_dot()
        assert not double.solver.prune_enabled
        chain = DotArrayDevice.linear_array(6)
        assert chain.solver.prune_enabled

    def test_pruned_path_scores_fewer_states(self):
        # Needs more than one pruning block (256 points): the first block
        # has no carried-over winners and always falls back to full scoring.
        device = DotArrayDevice.linear_array(6)
        points = window_points(device, resolution=24)
        full, pruned = solver_pair(device.capacitance)
        full.occupations_at(points)
        pruned.occupations_at(points)
        assert full.stats.n_points == pruned.stats.n_points == len(points)
        pruned_total = pruned.stats.n_state_scores + pruned.stats.n_bound_scores
        assert pruned_total < full.stats.n_state_scores
        assert pruned.stats.n_pruned_points + pruned.stats.n_full_points == len(points)
        assert pruned.stats.n_pruned_points > 0

    def test_six_dot_raster_work_counters_are_pinned(self):
        # The 6-dot chain's default window rasterised at 100x100 over its
        # 4,096-state lattice, pinned exactly: the full solver scores every
        # state at every point; the pruned one (bound evaluations included)
        # does 28.9x less work and still returns a bit-identical map.
        device = DotArrayDevice.linear_array(6)
        (x_min, x_max), (y_min, y_max) = CSDSimulator(device).default_window()
        xs = np.linspace(x_min, x_max, 100)
        ys = np.linspace(y_min, y_max, 100)
        full, pruned = solver_pair(device.capacitance)
        assert full.n_lattice_states == pruned.n_lattice_states == 4096
        full_map = full.occupation_map("P1", "P2", xs, ys)
        pruned_map = pruned.occupation_map("P1", "P2", xs, ys)
        assert full.stats.n_state_scores + full.stats.n_bound_scores == 40_960_000
        assert pruned.stats.n_state_scores + pruned.stats.n_bound_scores == 1_415_424
        assert full_map.dtype == pruned_map.dtype
        np.testing.assert_array_equal(pruned_map, full_map)

    def test_reset_stats_zeroes_counters(self):
        device = DotArrayDevice.linear_array(6)
        solver = device.solver
        solver.occupations_at(window_points(device, resolution=4))
        assert solver.stats.n_points > 0
        solver.reset_stats()
        stats = solver.stats
        assert stats.n_points == 0
        assert stats.n_state_scores == 0
        assert stats.n_bound_scores == 0

    def test_stats_round_trips_as_dict(self):
        device = DotArrayDevice.linear_array(6)
        solver = device.solver
        solver.occupations_at(window_points(device, resolution=4))
        stats = solver.stats
        assert type(stats).from_dict(stats.as_dict()) == stats
