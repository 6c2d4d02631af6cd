"""Tests for the chunk-size policies shared by the pool and the cluster."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.execution import (
    DEFAULT_CHUNK_CAP,
    AdaptiveChunkPolicy,
    ProcessPoolBackend,
    static_chunk_size,
)


class TestStaticChunkSize:
    def test_matches_the_pool_default(self):
        backend = ProcessPoolBackend(max_workers=2)
        for n_jobs in (0, 1, 10, 100, 1000):
            assert static_chunk_size(n_jobs, 2) == backend.effective_chunk_size(
                n_jobs
            )

    def test_cap_applies_to_big_grids(self):
        assert static_chunk_size(1000, 2) == DEFAULT_CHUNK_CAP
        assert static_chunk_size(10, 2) == 1


class TestAdaptiveChunkPolicy:
    def test_starts_at_the_initial_chunk(self):
        assert AdaptiveChunkPolicy().chunk_size() == 1
        assert AdaptiveChunkPolicy(initial_chunk=8).chunk_size() == 8

    def test_fast_jobs_grow_the_chunk(self):
        policy = AdaptiveChunkPolicy(target_lease_s=0.25)
        policy.observe(n_jobs=4, elapsed_s=0.02)  # 5 ms/job -> 50 per lease
        assert policy.chunk_size() == 50

    def test_slow_jobs_shrink_back_to_one(self):
        policy = AdaptiveChunkPolicy(target_lease_s=0.25)
        policy.observe(n_jobs=1, elapsed_s=0.001)
        assert policy.chunk_size() > 1
        for _ in range(12):
            policy.observe(n_jobs=1, elapsed_s=2.0)
        assert policy.chunk_size() == 1

    def test_clamps_apply(self):
        policy = AdaptiveChunkPolicy(target_lease_s=0.25, max_chunk=16)
        policy.observe(n_jobs=100, elapsed_s=0.0001)
        assert policy.chunk_size() == 16
        floor = AdaptiveChunkPolicy(target_lease_s=0.25, min_chunk=3, initial_chunk=3)
        floor.observe(n_jobs=1, elapsed_s=100.0)
        assert floor.chunk_size() == 3

    def test_ewma_smooths_rather_than_tracks(self):
        policy = AdaptiveChunkPolicy(smoothing=0.5)
        policy.observe(n_jobs=1, elapsed_s=0.1)
        policy.observe(n_jobs=1, elapsed_s=0.3)
        assert policy.per_job_s == pytest.approx(0.2)

    def test_degenerate_observations_ignored(self):
        policy = AdaptiveChunkPolicy()
        policy.observe(n_jobs=0, elapsed_s=1.0)
        policy.observe(n_jobs=4, elapsed_s=0.0)
        policy.observe(n_jobs=4, elapsed_s=-1.0)
        assert policy.per_job_s is None
        assert policy.chunk_size() == 1

    def test_fresh_copies_configuration_not_state(self):
        policy = AdaptiveChunkPolicy(target_lease_s=0.5, max_chunk=32)
        policy.observe(n_jobs=1, elapsed_s=0.001)
        copy = policy.fresh()
        assert copy.per_job_s is None
        assert copy.target_lease_s == 0.5
        assert repr(copy) == repr(AdaptiveChunkPolicy(target_lease_s=0.5, max_chunk=32))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_lease_s": 0.0},
            {"min_chunk": 0},
            {"max_chunk": 0},
            {"initial_chunk": 100},
            {"smoothing": 0.0},
            {"smoothing": 1.5},
        ],
        ids=lambda kw: ",".join(kw),
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveChunkPolicy(**kwargs)

    def test_content_repr_and_pickle(self):
        import pickle

        policy = AdaptiveChunkPolicy(target_lease_s=0.5)
        assert "0x" not in repr(policy)
        assert repr(pickle.loads(pickle.dumps(policy))) == repr(policy)

