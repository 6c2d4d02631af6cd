"""Tests for the coordinator's lease sizing: the constants and the moving average."""

from __future__ import annotations

import pytest

from repro.cluster.coordinator import (
    LEASE_MAX_JOBS,
    LEASE_SMOOTHING,
    LEASE_TARGET_S,
    lease_size,
    observe_lease,
)


class TestLeaseSize:
    def test_starts_at_one_job(self):
        assert lease_size(None) == 1

    def test_fast_jobs_grow_the_lease(self):
        per_job_s = observe_lease(None, n_jobs=4, elapsed_s=0.02)  # 5 ms/job
        assert lease_size(per_job_s) == int(LEASE_TARGET_S / 0.005) == 50

    def test_slow_jobs_shrink_back_to_one(self):
        per_job_s = observe_lease(None, n_jobs=1, elapsed_s=0.001)
        assert lease_size(per_job_s) > 1
        for _ in range(12):
            per_job_s = observe_lease(per_job_s, n_jobs=1, elapsed_s=2.0)
        assert lease_size(per_job_s) == 1

    def test_clamps_apply(self):
        assert lease_size(1e-9) == LEASE_MAX_JOBS
        assert lease_size(100.0) == 1


class TestObserveLease:
    def test_moving_average_smooths_rather_than_tracks(self):
        per_job_s = observe_lease(None, n_jobs=1, elapsed_s=0.1)
        per_job_s = observe_lease(per_job_s, n_jobs=1, elapsed_s=0.3)
        # LEASE_SMOOTHING = 0.5: halfway from the old average to the new job.
        assert LEASE_SMOOTHING == 0.5
        assert per_job_s == pytest.approx(0.2)

    def test_first_observation_is_taken_whole(self):
        assert observe_lease(None, n_jobs=4, elapsed_s=1.0) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        ("n_jobs", "elapsed_s"), [(0, 1.0), (4, 0.0), (4, -1.0)]
    )
    def test_non_positive_observations_are_ignored(self, n_jobs, elapsed_s):
        assert observe_lease(None, n_jobs, elapsed_s) is None
        assert observe_lease(0.5, n_jobs, elapsed_s) == 0.5
        assert lease_size(observe_lease(None, n_jobs, elapsed_s)) == 1
