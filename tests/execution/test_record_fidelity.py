"""Records come back from the process pool value-, type- and layout-exact.

The pool hands records back one way: pickled through its result pipe.
Every shape in :data:`record_samples.RECORDS` must arrive identical to the
object the runner returned, paired with its own job id, and that holds on
the rescue path too, which re-runs a broken pool's jobs in fresh pools.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from record_samples import RECORDS, OpaqueRecord, identical
from repro.execution import ProcessPoolBackend, WorkerCrash


@dataclass(frozen=True)
class RecordJob:
    """Picklable job returning the sample record of its kind."""

    job_id: int
    kind: str
    lethal: bool = False


def sample_runner(job: RecordJob):
    if job.lethal:
        os._exit(1)  # hard death: breaks the pool, yields no record
    return RECORDS[job.kind]


# Two workers ship ``n_jobs // 8`` jobs per chunk (at most 4): the job
# counts below choose multi-job chunks.
class TestPoolRecordFidelity:
    @pytest.mark.parametrize("kind", RECORDS)
    def test_record_comes_back_identical(self, kind):
        jobs = tuple(RecordJob(job_id=i, kind=kind) for i in range(16))  # 2 per chunk
        backend = ProcessPoolBackend(max_workers=2)
        records = dict(backend.submit(jobs, sample_runner))
        assert sorted(records) == list(range(16))
        for record in records.values():
            assert identical(record, RECORDS[kind])

    def test_every_kind_keeps_its_job_id(self):
        assert len(RECORDS) >= 16  # multi-job chunks
        jobs = tuple(RecordJob(job_id=i, kind=kind) for i, kind in enumerate(RECORDS))
        backend = ProcessPoolBackend(max_workers=2)
        records = dict(backend.submit(jobs, sample_runner))
        assert sorted(records) == [job.job_id for job in jobs]
        for job in jobs:
            assert identical(records[job.job_id], RECORDS[job.kind]), job.kind

    def test_rescued_records_are_identical(self):
        jobs = tuple(
            RecordJob(job_id=i, kind=kind, lethal=(i == 3))
            for i, kind in enumerate(list(RECORDS)[-8:] * 2)  # 2 per chunk
        )
        backend = ProcessPoolBackend(max_workers=2)
        records = dict(backend.submit(jobs, sample_runner))
        assert sorted(records) == [job.job_id for job in jobs]
        assert records[3] == WorkerCrash(job_id=3)
        for job in jobs:
            if not job.lethal:
                assert identical(records[job.job_id], RECORDS[job.kind]), job.kind


class TestIdenticalOracle:
    """The comparison above must tell each lossy variant from the original."""

    @pytest.mark.parametrize(
        ("original", "lossy"),
        [
            pytest.param(True, 1, id="bool-as-int"),
            pytest.param(-0.0, 0.0, id="zero-sign"),
            pytest.param(np.float32(1.5), 1.5, id="numpy-scalar-as-float"),
            pytest.param(
                np.arange(3, dtype=np.int32),
                np.arange(3, dtype=np.int64),
                id="array-dtype",
            ),
            pytest.param(np.zeros((2, 3)), np.zeros((3, 2)), id="array-shape"),
            pytest.param(np.eye(3), np.asfortranarray(np.eye(3)), id="array-order"),
            pytest.param({"a": 1, "b": 2}, {"b": 2, "a": 1}, id="dict-key-order"),
            pytest.param((1, 2), [1, 2], id="tuple-as-list"),
            pytest.param(
                OpaqueRecord("x", float("nan")),
                OpaqueRecord("x", float("inf")),
                id="dataclass-field",
            ),
        ],
    )
    def test_lossy_variant_is_told_apart(self, original, lossy):
        assert not identical(original, lossy)

    def test_nan_is_identical_to_itself(self):
        assert identical(float("nan"), float("nan"))
        assert identical(np.array([np.nan, 1.0]), np.array([np.nan, 1.0]))
