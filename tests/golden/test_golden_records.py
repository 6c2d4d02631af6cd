"""Golden regression fixtures: the exact strict JSON of every record class.

Every record class in the library — the campaign, cluster, scenario-space,
lint and counter records, plus one message per cluster wire kind — has one
sample in :data:`record_samples.SAMPLES`, found by the record-class walk
(:func:`record_samples.record_classes`).  Each sample is held to the
strict-JSON contract (:func:`record_samples.contract_failures`: a sample
per class, strict JSON, every dataclass field emitted, an equal decode) and
pinned here as the exact text of ``json.dumps(sample.as_dict(),
allow_nan=False)``, field order included, in ``record_encodings.json``.
Three more :class:`CampaignJobRecord` cases cover the encoding's other hard
cases:

* ``infinite-error`` — the tagged ``inf`` a failure record carries in
  ``max_alpha_error``;
* ``no-alphas`` — both extracted alphas ``None``;
* ``legacy-journal`` — a record dict written before the fault axis (no
  ``fault``/``n_probe_retries`` keys), decoded and encoded again.

Journals, saved results, golden fixtures and cluster frames are all
written through these encodings, so a change here is a file-format change.

Regenerate deliberately (after a change that is *supposed* to alter the
encoding) with::

    PYTHONPATH=src python tests/golden/test_golden_records.py --regenerate
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.campaign.results import CampaignJobRecord

if __name__ == "__main__":
    # Run as a script, the tests directory is not on the path; under
    # pytest the suite's conftest puts it there.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from record_samples import (  # noqa: E402
    SAMPLES,
    contract_failures,
    qualified_name,
    record_classes,
)

FIXTURE_PATH = Path(__file__).with_name("record_encodings.json")

JOB_RECORD = qualified_name(CampaignJobRecord)


def _legacy_record() -> CampaignJobRecord:
    payload = SAMPLES[CampaignJobRecord].as_dict()
    del payload["fault"], payload["n_probe_retries"]
    return CampaignJobRecord.from_dict(json.loads(json.dumps(payload, allow_nan=False)))


VARIANTS = {
    f"{JOB_RECORD}:infinite-error": lambda: dataclasses.replace(
        SAMPLES[CampaignJobRecord], max_alpha_error=float("inf")
    ),
    f"{JOB_RECORD}:no-alphas": lambda: dataclasses.replace(
        SAMPLES[CampaignJobRecord], alpha_12=None, alpha_21=None
    ),
    f"{JOB_RECORD}:legacy-journal": _legacy_record,
}


def build_cases() -> dict[str, object]:
    """Fixture key -> record: every record class's sample, plus the variants."""
    cases = {qualified_name(cls): sample for cls, sample in SAMPLES.items()}
    cases.update((name, make()) for name, make in VARIANTS.items())
    return cases


def encode(record) -> str:
    return json.dumps(record.as_dict(), allow_nan=False)


def load_fixtures() -> dict[str, str]:
    with FIXTURE_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def cases() -> dict[str, object]:
    return build_cases()


def test_every_record_class_keeps_its_strict_json_contract():
    # One sample per class the walk finds, strict JSON, every dataclass
    # field emitted, an equal decode.
    assert contract_failures(record_classes(), SAMPLES) == []


def test_every_record_encodes_byte_identically(cases):
    # Exact text on purpose: field order and float repr are the format.
    assert {name: encode(record) for name, record in cases.items()} == load_fixtures()


def test_pinned_json_decodes_to_an_equal_record(cases):
    for name, text in load_fixtures().items():
        restored = type(cases[name]).from_dict(json.loads(text))
        assert restored == cases[name], name
        assert encode(restored) == text, name


def test_variants_exercise_the_hard_cases():
    fixtures = load_fixtures()
    infinite = json.loads(fixtures[f"{JOB_RECORD}:infinite-error"])
    assert infinite["max_alpha_error"] == {"__nonfinite__": "inf"}
    no_alphas = json.loads(fixtures[f"{JOB_RECORD}:no-alphas"])
    assert no_alphas["alpha_12"] is None and no_alphas["alpha_21"] is None
    legacy = json.loads(fixtures[f"{JOB_RECORD}:legacy-journal"])
    assert legacy["fault"] is None and legacy["n_probe_retries"] == 0


@dataclasses.dataclass(frozen=True)
class _GoodRecord:
    """A well-behaved record: the strict-JSON round-trip closes."""

    value: float
    label: str

    def as_dict(self):
        return {"value": self.value, "label": self.label}

    @classmethod
    def from_dict(cls, data):
        return cls(value=data["value"], label=data["label"])


@dataclasses.dataclass(frozen=True)
class _DriftingRecord:
    """A record whose ``as_dict`` drops a field (serialisation drift)."""

    value: float
    label: str

    def as_dict(self):
        return {"value": self.value}  # label falls out of checkpoints

    @classmethod
    def from_dict(cls, data):
        return cls(value=data["value"], label="")


class TestContractFailures:
    """The contract check itself, on records seeded to break it."""

    def test_record_without_sample_is_flagged(self):
        (failure,) = contract_failures([_GoodRecord], {})
        assert "_GoodRecord" in failure and "has no sample" in failure

    def test_sample_closes_the_contract(self):
        assert contract_failures([_GoodRecord], {_GoodRecord: _GoodRecord(0.5, "ok")}) == []

    def test_dropped_field_is_flagged(self):
        failures = contract_failures(
            [_DriftingRecord], {_DriftingRecord: _DriftingRecord(0.5, "label-that-drifts")}
        )
        assert len(failures) == 2
        assert "as_dict() omits field(s) label" in failures[0]
        assert "is not an equal object" in failures[1]

    def test_non_strict_json_is_flagged(self):
        (failure,) = contract_failures(
            [_GoodRecord], {_GoodRecord: _GoodRecord(float("nan"), "raw-nan")}
        )
        assert "is not strict JSON" in failure


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite the fixture JSON"
    )
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do; pass --regenerate")
    fixtures = {name: encode(record) for name, record in build_cases().items()}
    FIXTURE_PATH.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(fixtures)} record encodings to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
