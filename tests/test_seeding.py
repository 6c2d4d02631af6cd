"""Tests for spawned-seed derivation across child runs.

The old scheme derived child seeds arithmetically (``seed + pair_index`` in
the array extractor, ``seed + 1`` in the auto-tuning workflow), which makes
neighbouring root seeds reuse each other's noise streams wholesale.  These
tests pin the :func:`repro.seeding.spawn_seeds` scheme: children are
independent of each other, of other roots' children, and deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.instrument.measurement import DeviceBackend
from repro.physics import DotArrayDevice, standard_lab_noise
from repro.pipeline import ArrayVirtualGateExtractor
from repro.seeding import as_seed_sequence, spawn_seeds


class TestSpawnSeeds:
    def test_none_root_stays_unseeded(self):
        assert spawn_seeds(None, 3) == (None, None, None)

    def test_children_are_seed_sequences(self):
        children = spawn_seeds(7, 4)
        assert len(children) == 4
        assert all(isinstance(c, np.random.SeedSequence) for c in children)

    def test_deterministic_for_integer_roots(self):
        first = spawn_seeds(7, 3)
        second = spawn_seeds(7, 3)
        for a, b in zip(first, second):
            assert a.entropy == b.entropy and a.spawn_key == b.spawn_key
            assert np.random.default_rng(a).random() == np.random.default_rng(b).random()

    def test_children_produce_distinct_streams(self):
        streams = [
            np.random.default_rng(c).random(8).tolist() for c in spawn_seeds(7, 4)
        ]
        assert len({tuple(s) for s in streams}) == 4

    def test_neighbouring_roots_do_not_share_children(self):
        # The failure mode of seed + i derivation: root 7's child 1 equalled
        # root 8's child 0.  Spawned children never collide across roots.
        children_7 = [np.random.default_rng(c).random(8).tolist() for c in spawn_seeds(7, 3)]
        children_8 = [np.random.default_rng(c).random(8).tolist() for c in spawn_seeds(8, 3)]
        assert not ({tuple(s) for s in children_7} & {tuple(s) for s in children_8})

    def test_accepts_seed_sequence_root(self):
        root = np.random.SeedSequence(5)
        children = spawn_seeds(root, 2)
        assert all(isinstance(c, np.random.SeedSequence) for c in children)

    def test_seed_sequence_root_is_not_consumed(self):
        # Repeated calls with the same SeedSequence must return the same
        # children (the caller's spawn counter is neither read nor advanced);
        # this is what keeps serial and "process:N" runs bit-identical
        # when the user seeds with a SeedSequence instead of an int.
        root = np.random.SeedSequence(21)
        first = spawn_seeds(root, 2)
        second = spawn_seeds(root, 2)
        for a, b in zip(first, second):
            assert a.spawn_key == b.spawn_key
            assert np.random.default_rng(a).random() == np.random.default_rng(b).random()
        assert root.n_children_spawned == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            spawn_seeds(1, -1)

    def test_as_seed_sequence_passthrough(self):
        root = np.random.SeedSequence(9)
        assert as_seed_sequence(root) is root
        assert as_seed_sequence(9).entropy == 9


def _noise_field(seed, shape=(24, 24)) -> np.ndarray:
    device = DotArrayDevice.double_dot(cross_coupling=(0.25, 0.22))
    backend = DeviceBackend(
        device,
        x_voltages=np.linspace(0.0, 0.05, shape[1]),
        y_voltages=np.linspace(0.0, 0.05, shape[0]),
        noise=standard_lab_noise(),
        seed=seed,
    )
    backend.currents([0], [0])  # force noise-field generation
    return backend._noise_field


class TestChildStreamIndependence:
    def test_array_pairs_use_independent_noise(self):
        # Two neighbouring pairs of the same run see unrelated noise fields.
        seed_a, seed_b = spawn_seeds(21, 2)
        field_a = _noise_field(seed_a)
        field_b = _noise_field(seed_b)
        assert not np.array_equal(field_a, field_b)

    def test_neighbouring_runs_use_independent_noise(self):
        # Pair 1 of run seed=21 must not reuse pair 0 of run seed=22 (the
        # old seed + pair_index overlap).
        field_21_1 = _noise_field(spawn_seeds(21, 2)[1])
        field_22_0 = _noise_field(spawn_seeds(22, 1)[0])
        assert not np.array_equal(field_21_1, field_22_0)

    def test_array_extraction_reproducible(self):
        device = DotArrayDevice.linear_array(n_dots=3)
        first = ArrayVirtualGateExtractor(
            resolution=63, seed=21, noise=standard_lab_noise()
        ).extract(device)
        second = ArrayVirtualGateExtractor(
            resolution=63, seed=21, noise=standard_lab_noise()
        ).extract(device)
        assert np.array_equal(
            first.virtualization.matrix, second.virtualization.matrix
        )
        assert first.total_probes == second.total_probes
