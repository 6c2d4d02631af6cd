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
from repro.faults import (
    FaultyBackend,
    ProbeHangFault,
    TransientReadFault,
    WorkerCrashFault,
    inject_worker_faults,
)
from repro.instrument import SessionFactory
from repro.instrument.measurement import DeviceBackend
from repro.physics import DotArrayDevice, standard_lab_noise
from repro.pipeline import ArrayVirtualGateExtractor
from repro.seeding import (
    DRIFT_INDEX,
    FAULT_INDEX,
    TEMPORAL_NOISE_INDEX,
    WORKER_CRASH_INDEX,
    as_seed_sequence,
    reserved_seeds,
    spawn_seeds,
)


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
        factory = SessionFactory(
            DotArrayDevice.linear_array(n_dots=3),
            resolution=63,
            noise=standard_lab_noise(),
        )
        first = ArrayVirtualGateExtractor(factory, seed=21).extract()
        second = ArrayVirtualGateExtractor(factory, seed=21).extract()
        assert np.array_equal(
            first.virtualization.matrix, second.virtualization.matrix
        )
        assert first.total_probes == second.total_probes


def _by_hand(seed, index) -> np.random.SeedSequence:
    """A reserved child derived inline, as each consumer once did: the oracle."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=root.spawn_key + (2**31, index)
    )


def _key(child: np.random.SeedSequence) -> np.uint64:
    return child.generate_state(1, dtype=np.uint64)[0]


def _small_backend(seed) -> DeviceBackend:
    return DeviceBackend(
        DotArrayDevice.double_dot(),
        x_voltages=np.linspace(0.0, 0.05, 4),
        y_voltages=np.linspace(0.0, 0.05, 4),
        seed=seed,
    )


class TestReservedSeeds:
    """Every stream one seed drives keeps the branch it has always read."""

    SEEDS = (7, spawn_seeds(11, 2)[1])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_device_backend_noise_and_drift(self, seed):
        noise, drift = _small_backend(seed)._seed_children()
        assert _key(noise) == _key(_by_hand(seed, 0))
        assert _key(drift) == _key(_by_hand(seed, 1))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fault_keys(self, seed):
        models = (TransientReadFault(rate=0.1), ProbeHangFault(rate=0.1))
        faulty = FaultyBackend(_small_backend(seed), models, seed=seed)
        assert faulty._keys() == (_key(_by_hand(seed, 2)), _key(_by_hand(seed, 3)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_worker_crash_draw(self, seed):
        keys = []

        class RecordingCrash(WorkerCrashFault):
            def crashes(self, token, key):
                keys.append(key)
                return False

        inject_worker_faults(5, (RecordingCrash(rate=0.5),), seed)
        assert keys == [_key(_by_hand(seed, 2**31 - 1))]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reserved_streams_clear_of_each_other_and_of_spawned_children(self, seed):
        # No two consumers of one seed share randomness: each reserved
        # stream differs from the others, from the seed's own stream and
        # from every child spawn_seeds hands out.
        indices = (
            TEMPORAL_NOISE_INDEX,
            DRIFT_INDEX,
            FAULT_INDEX,
            FAULT_INDEX + 1,
            WORKER_CRASH_INDEX,
        )
        streams = [
            *reserved_seeds(seed, indices),
            as_seed_sequence(seed),
            *spawn_seeds(seed, 8),
        ]
        states = {tuple(s.generate_state(4).tolist()) for s in streams}
        assert len(states) == len(streams)

    def test_caller_seed_sequence_is_not_advanced(self):
        # Two consumers handed the same SeedSequence must read the same
        # reserved streams, so deriving them must not spawn from it.
        root = spawn_seeds(11, 2)[1]
        first = reserved_seeds(root, (DRIFT_INDEX, FAULT_INDEX))
        second = reserved_seeds(root, (DRIFT_INDEX, FAULT_INDEX))
        assert root.n_children_spawned == 0
        assert [_key(c) for c in first] == [_key(c) for c in second]

    def test_unseeded_stays_unseeded(self):
        first = reserved_seeds(None, (0, 1))
        second = reserved_seeds(None, (0, 1))
        # One fresh root per call, shared by its children.
        assert first[0].entropy == first[1].entropy
        assert first[0].entropy != second[0].entropy
