"""Tests for campaign result serialisation: JSON round-trips and journals."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.campaign import (
    CampaignGrid,
    CampaignJobRecord,
    CampaignResult,
    DeviceSpec,
    TuningCampaign,
)
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def result() -> CampaignResult:
    grid = CampaignGrid(
        devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
        resolutions=(63,),
        noise_scales=(0.0, 1.0),
        n_repeats=1,
        seed=5,
    )
    return TuningCampaign(grid).run()


class TestRecordRoundTrip:
    def test_as_dict_covers_every_field(self, result):
        record = result.records[0]
        payload = record.as_dict()
        assert set(payload) == {
            f.name for f in dataclasses.fields(CampaignJobRecord)
        }

    def test_round_trip_is_exact(self, result):
        for record in result.records:
            rebuilt = CampaignJobRecord.from_dict(
                json.loads(json.dumps(record.as_dict()))
            )
            assert rebuilt == record

    def test_round_trip_preserves_non_finite_floats(self, result):
        record = dataclasses.replace(
            result.records[0], max_alpha_error=float("inf"), alpha_12=None
        )
        rebuilt = CampaignJobRecord.from_dict(
            json.loads(json.dumps(record.as_dict()))
        )
        assert math.isinf(rebuilt.max_alpha_error)
        assert rebuilt.alpha_12 is None

    def test_round_trip_equality_with_nan_fields(self, result):
        # A record with undefined ground truth carries NaN; IEEE nan != nan
        # must not break the round-trip and resume-equality contracts.
        record = dataclasses.replace(result.records[0], max_alpha_error=float("nan"))
        rebuilt = CampaignJobRecord.from_dict(
            json.loads(json.dumps(record.as_dict()))
        )
        assert rebuilt == record
        nan_result = dataclasses.replace(result, records=(record,))
        assert CampaignResult.from_dict(nan_result.as_dict()) == nan_result
        assert record != dataclasses.replace(record, n_probes=record.n_probes + 1)

    def test_records_stay_hashable_with_nan_consistent_hash(self, result):
        record = dataclasses.replace(result.records[0], max_alpha_error=float("nan"))
        twin = dataclasses.replace(record)
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1  # set dedup still works
        assert len(set(result.records)) == len(result.records)

    def test_from_dict_ignores_unknown_keys(self, result):
        payload = result.records[0].as_dict() | {"future_field": 42}
        assert CampaignJobRecord.from_dict(payload) == result.records[0]


class TestStageTelemetryRoundTrip:
    """PR 4's resume/round-trip matrix, extended to per-stage telemetry."""

    def test_records_carry_stage_telemetry(self, result):
        for record in result.records:
            assert record.stage_telemetry, record.job_id
            assert [t.stage for t in record.stage_telemetry] == [
                "anchors",
                "sweeps",
                "filter",
                "fit",
                "validate",
            ]
            assert (
                sum(t.n_probes for t in record.stage_telemetry) == record.n_probes
            )

    def test_as_dict_encodes_telemetry_json_native(self, result):
        payload = result.records[0].as_dict()
        assert isinstance(payload["stage_telemetry"], list)
        json.dumps(payload["stage_telemetry"])  # no custom encoders needed
        assert payload["stage_telemetry"][0]["stage"] == "anchors"

    def test_telemetry_survives_record_round_trip_bit_identically(self, result):
        for record in result.records:
            rebuilt = CampaignJobRecord.from_dict(
                json.loads(json.dumps(record.as_dict()))
            )
            # Whole-record equality covers it, but assert the telemetry
            # tuples explicitly: every float (including wall_s) must
            # round-trip through JSON exactly.
            assert rebuilt.stage_telemetry == record.stage_telemetry

    def test_pre_telemetry_journal_lines_still_load(self, result):
        # A journal written before the pipeline refactor has no
        # stage_telemetry key; records must rebuild with empty telemetry.
        payload = result.records[0].as_dict()
        del payload["stage_telemetry"]
        rebuilt = CampaignJobRecord.from_dict(payload)
        assert rebuilt.stage_telemetry == ()

    def test_telemetry_survives_journal_checkpoint_resume(self, result, tmp_path):
        grid = CampaignGrid(
            devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
            resolutions=(63,),
            noise_scales=(0.0, 1.0),
            n_repeats=1,
            seed=5,
        )
        journal_path = tmp_path / "telemetry.jsonl"
        first = TuningCampaign(grid).run(checkpoint=journal_path)
        # Journaled records adopt verbatim on resume: telemetry included,
        # bit-identical down to the wall clock the journal recorded.
        resumed = TuningCampaign(grid).run(checkpoint=journal_path)
        for old, new in zip(first.records, resumed.records):
            assert new.stage_telemetry == old.stage_telemetry
        assert resumed.normalized() == first.normalized()
        # The journal drill-down view keeps telemetry too.
        partial = CampaignResult.from_journal(journal_path)
        for old, new in zip(first.records, partial.records):
            assert new.stage_telemetry == old.stage_telemetry

    def test_normalized_pins_stage_wall_clock(self, result):
        normal = result.normalized()
        for record in normal.records:
            assert all(t.wall_s == 0.0 for t in record.stage_telemetry)
        # Everything except the wall clock is untouched.
        for raw, pinned in zip(result.records, normal.records):
            assert [t.stage for t in raw.stage_telemetry] == [
                t.stage for t in pinned.stage_telemetry
            ]
            assert [t.n_probes for t in raw.stage_telemetry] == [
                t.n_probes for t in pinned.stage_telemetry
            ]

    def test_stage_breakdown_appears_in_report(self, result):
        report = result.format_report()
        assert "Per-stage probe accounting" in report
        assert "anchors" in report
        breakdown = result.stage_breakdown()
        assert breakdown[("fast", "anchors")]["n_runs"] == result.n_jobs
        total = sum(
            entry["n_probes"] for entry in breakdown.values()
        )
        assert total == result.total_probes


class TestResultRoundTrip:
    def test_save_load_is_exact(self, result, tmp_path):
        path = result.save(tmp_path / "result.json")
        assert CampaignResult.load(path) == result

    def test_as_dict_is_json_native(self, result):
        json.dumps(result.as_dict())  # must not need custom encoders

    def test_normalized_pins_wall_clock_and_execution_policy(self, result):
        normal = result.normalized()
        assert normal.wall_time_s == 0.0
        assert all(r.wall_elapsed_s == 0.0 for r in normal.records)
        assert normal.n_workers == 0
        assert "backend" not in normal.metadata
        assert [r.job_id for r in normal.records] == [
            r.job_id for r in result.records
        ]
        assert normal.summary()["total_probes"] == result.summary()["total_probes"]

    def test_normalized_equates_runs_across_backends(self, result):
        # The documented contract: whole-result equality through
        # normalized(), even when backend and worker count differ.
        grid = CampaignGrid(
            devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
            resolutions=(63,),
            noise_scales=(0.0, 1.0),
            n_repeats=1,
            seed=5,
        )
        process = TuningCampaign(grid, backend="process:2").run()
        process3 = TuningCampaign(grid, backend="process:3").run()
        serial = TuningCampaign(grid).run()
        assert serial.normalized() == process.normalized() == process3.normalized()

    def test_save_emits_strict_json_even_with_failures(self, result, tmp_path):
        # Failure records carry infinite max_alpha_error; the persisted
        # format must still be strict JSON (no bare Infinity/NaN tokens
        # that jq / JSON.parse reject).
        crashed = dataclasses.replace(
            result.records[0], max_alpha_error=float("inf")
        )
        failed_result = dataclasses.replace(
            result, records=(crashed,) + result.records[1:]
        )
        path = failed_result.save(tmp_path / "failed.json")

        def reject_constant(name):
            raise AssertionError(f"non-standard JSON token {name!r} in output")

        json.loads(path.read_text(), parse_constant=reject_constant)
        loaded = CampaignResult.load(path)
        assert math.isinf(loaded.records[0].max_alpha_error)
        assert loaded == failed_result


class TestJournalTyping:
    def test_resume_refuses_a_wrong_typed_journal_record(self, tmp_path):
        """A journaled record whose field has the wrong JSON type is corruption.

        Regression: a middle record with ``n_probes`` rewritten as a string
        used to be adopted on resume, and only ``total_probes`` failed
        later, adding ``int`` to ``str``.
        """
        grid = CampaignGrid(
            devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
            resolutions=(63,),
            noise_scales=(0.0, 0.5, 1.0),
            n_repeats=1,
            seed=5,
        )
        journal_path = tmp_path / "run.jsonl"
        TuningCampaign(grid).run(checkpoint=journal_path)
        lines = journal_path.read_text().splitlines(keepends=True)
        record_lines = [i for i, line in enumerate(lines) if '"record"' in line]
        assert len(record_lines) == 3
        middle = record_lines[1]
        entry = json.loads(lines[middle])
        entry["record"]["n_probes"] = str(entry["record"]["n_probes"])
        lines[middle] = json.dumps(entry) + "\n"
        journal_path.write_text("".join(lines))
        with pytest.raises(ConfigurationError, match="corrupt mid-file"):
            TuningCampaign(grid).run(checkpoint=journal_path)


class TestJournalView:
    def test_partial_journal_renders_partial_report(self, result, tmp_path):
        # Journal only a prefix of the records, as a killed run would.
        from repro.execution import CheckpointJournal

        journal = CheckpointJournal(
            tmp_path / "run.jsonl", serialize=CampaignJobRecord.as_dict
        )
        for record in result.records[:1]:
            journal.append(record.job_id, record)
        partial = CampaignResult.from_journal(
            tmp_path / "run.jsonl", n_expected=result.n_jobs
        )
        assert partial.is_partial
        assert partial.n_jobs == 1
        assert partial.n_expected == result.n_jobs
        assert partial.records[0] == result.records[0]
        report = partial.format_report()
        assert f"completed:             1/{result.n_jobs} (partial)" in report

    def test_complete_result_is_not_partial(self, result):
        assert not result.is_partial
        assert "(partial)" not in result.format_report()

    def test_empty_journal_view(self, tmp_path):
        partial = CampaignResult.from_journal(tmp_path / "none.jsonl")
        assert partial.n_jobs == 0
        assert not partial.is_partial
