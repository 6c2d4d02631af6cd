"""Campaign-level cluster tests: bit-identity to serial, chaos included.

The chaos matrix the cluster backend must survive without perturbing a
single record:

* worker subprocesses hard-killed (SIGKILL) mid-campaign,
* workers whose heartbeat goes silent mid-lease,
* deterministic in-worker crash injection (the ``worker-crashes`` fault
  axis, which ``os._exit``\\ s real cluster workers),
* the coordinator process dying mid-campaign and the campaign resuming
  from its checkpoint journal.

Every scenario asserts ``normalized()`` equality against an untouched
serial run — records, summaries, and retry counters, bit for bit.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.campaign import CampaignGrid, CampaignResult, DeviceSpec, TuningCampaign
from repro.cluster import ClusterBackend
from repro.core import ExtractionConfig
from repro.exceptions import ConfigurationError
from repro.faults import TransientReadFault, register_fault
from repro.faults.registry import FAULTS
from repro.pipeline import (
    AnchorStage,
    FilterStage,
    FitStage,
    SweepStage,
    TuningPipeline,
    ValidateStage,
    register_pipeline,
)
from repro.pipeline.registry import PIPELINES
from repro.scenarios import get_scenario, register_scenario, unregister_scenario


def _grid(**overrides) -> CampaignGrid:
    kwargs = dict(
        devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
        resolutions=(40,),
        noise_scales=(0.0, 1.0),
        n_repeats=2,
        seed=9,
    )
    kwargs.update(overrides)
    return CampaignGrid(**kwargs)


@pytest.fixture(scope="module")
def grid() -> CampaignGrid:
    return _grid()


@pytest.fixture(scope="module")
def serial_result(grid) -> CampaignResult:
    return TuningCampaign(grid).run()


@pytest.fixture(scope="module")
def faulty_grid() -> CampaignGrid:
    return _grid(
        noise_scales=(0.0,),
        faults=(None, "flaky-lab", "worker-crashes"),
        n_repeats=2,
        seed=11,
    )


@pytest.fixture(scope="module")
def serial_faulty_result(faulty_grid) -> CampaignResult:
    return TuningCampaign(faulty_grid).run()


class TestSerialIdentity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_records_match_serial_at_any_worker_count(
        self, grid, serial_result, n_workers
    ):
        result = TuningCampaign(grid, backend=f"cluster:local:{n_workers}").run()
        assert result.normalized() == serial_result.normalized()
        assert result.normalized().summary() == serial_result.normalized().summary()
        assert result.metadata["backend"] == "cluster"
        assert result.metadata["backend_spec"] == f"cluster:local:{n_workers}"

    def test_worker_count_lands_in_the_result(self, grid):
        result = TuningCampaign(grid, backend="cluster:local:2").run()
        assert result.n_workers == 2


class TestParentOnlyEntries:
    def test_entries_registered_in_the_parent_reach_spawned_workers(self):
        # cluster:local workers are spawn-started interpreters whose
        # registries hold only the built-ins, so these three entries reach
        # them only on the jobs TuningCampaign.run resolved in the parent.
        scenario = "_test_spawn_lab"
        method = "_test-spawn-fast"
        condition = "_test-spawn-reads"
        register_scenario(
            dataclasses.replace(get_scenario("drifting_sensor"), name=scenario)
        )
        register_pipeline(
            method,
            lambda: TuningPipeline(
                method,
                [AnchorStage(), SweepStage(), FilterStage(), FitStage(), ValidateStage()],
                default_config=ExtractionConfig.paper_defaults,
            ),
        )
        register_fault(condition, TransientReadFault(rate=0.05))
        try:
            grid = CampaignGrid(
                resolutions=(32,),
                scenarios=(scenario,),
                faults=(None, condition),
                methods=(method,),
                n_repeats=2,
                seed=3,
            )
            serial = TuningCampaign(grid).run()
            spawned = TuningCampaign(grid, backend="cluster:local:2").run()
            assert spawned.normalized() == serial.normalized()
            assert [r.failure_category for r in spawned.records] == ["ok"] * 4
        finally:
            unregister_scenario(scenario)
            PIPELINES.unregister(method)
            FAULTS.unregister(condition)


class TestInjectedWorkerCrashes:
    def test_fault_axis_chaos_matches_serial(
        self, faulty_grid, serial_faulty_result
    ):
        # The worker-crashes condition os._exit()s real cluster workers:
        # the coordinator sees dead sockets, re-leases the suspects, and
        # convicts — records must still condense bit-identically, retry
        # counters included.
        backend = ClusterBackend(n_workers=2)
        result = TuningCampaign(faulty_grid, backend=backend).run()
        assert result.normalized() == serial_faulty_result.normalized()
        assert [r.n_probe_retries for r in result.records] == [
            r.n_probe_retries for r in serial_faulty_result.records
        ]
        crashed = [
            r for r in result.records if r.failure_category == "worker_error"
        ]
        assert crashed, "the fault grid is expected to kill workers"
        # Each convicted job costs two worker deaths (lease, then solo).
        assert backend.last_stats.n_worker_deaths >= 2 * len(crashed)
        assert backend.last_stats.n_crash_markers == len(crashed)


class _KillOneWorker:
    """Progress hook that SIGKILLs a live worker after ``after`` records."""

    def __init__(self, backend: ClusterBackend, after: int) -> None:
        self.backend = backend
        self.after = after
        self.killed_pid: int | None = None

    def __call__(self, done, total, record) -> None:
        if done == self.after and self.killed_pid is None:
            cluster = self.backend._active_cluster
            if cluster is not None:
                try:
                    self.killed_pid = cluster.kill_one()
                except ConfigurationError:
                    pass  # every worker already dead/respawning; still chaos


class TestSigkillChaos:
    def test_sigkill_mid_campaign_does_not_perturb_records(
        self, grid, serial_result
    ):
        backend = ClusterBackend(n_workers=2)
        killer = _KillOneWorker(backend, after=1)
        result = TuningCampaign(grid, backend=backend, progress=killer).run()
        assert killer.killed_pid is not None
        assert result.normalized() == serial_result.normalized()
        assert result.normalized().summary() == serial_result.normalized().summary()


class _InterruptAfter:
    """Progress hook that kills the driver after ``n`` completed jobs."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __call__(self, done, total, record) -> None:
        if done >= self.n:
            raise KeyboardInterrupt(f"simulated coordinator death after {done}")


class TestCoordinatorDeathAndResume:
    def test_resume_from_journal_matches_an_uninterrupted_serial_run(
        self, grid, serial_result, tmp_path
    ):
        journal_path = tmp_path / "cluster.jsonl"
        # The coordinator lives in the driver process: killing the driver
        # mid-campaign kills the coordinator and every lease with it.
        with pytest.raises(KeyboardInterrupt):
            TuningCampaign(
                grid, backend="cluster:local:2", progress=_InterruptAfter(2)
            ).run(checkpoint=journal_path)
        resumed = TuningCampaign(grid, backend="cluster:local:2").resume(
            journal_path
        )
        assert resumed.normalized() == serial_result.normalized()
        assert (
            resumed.normalized().format_report()
            == serial_result.normalized().format_report()
        )

    def test_interrupted_cluster_journal_resumes_on_serial(
        self, grid, serial_result, tmp_path
    ):
        # Backends are execution policy, not content: a journal written
        # under the cluster resumes under any backend.
        journal_path = tmp_path / "crossover.jsonl"
        with pytest.raises(KeyboardInterrupt):
            TuningCampaign(
                grid, backend="cluster:local:2", progress=_InterruptAfter(1)
            ).run(checkpoint=journal_path)
        resumed = TuningCampaign(grid).resume(journal_path)
        assert resumed.normalized() == serial_result.normalized()

    def test_threaded_consumers_do_not_deadlock_teardown(self, grid):
        # A paranoia check for generator cleanup: abandoning the stream
        # from another thread must still tear the cluster down.
        backend = ClusterBackend(n_workers=1)
        stream = backend.submit(grid.expand()[:2], _job_ids)
        holder = {}

        def pull_one():
            holder["first"] = next(stream)
            stream.close()

        thread = threading.Thread(target=pull_one)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert holder["first"][0] in {job.job_id for job in grid.expand()[:2]}
        assert backend._active_cluster is None


def _job_ids(job) -> int:
    return job.job_id
