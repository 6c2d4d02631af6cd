"""Golden regression fixtures: the exact strict JSON of every record class.

Every record class the contract audit round-trips — the campaign, cluster,
scenario-space, lint and counter records, plus one message per cluster wire
kind — is pinned here by its registered sample
(:func:`repro.lint.register_contract_sample`), as the exact text of
``json.dumps(sample.as_dict(), allow_nan=False)``, field order included,
in ``record_encodings.json``.  Three more :class:`CampaignJobRecord` cases
cover the encoding's other hard cases:

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
from pathlib import Path

import pytest

from repro.campaign.results import CampaignJobRecord
from repro.lint.contracts import (
    _SAMPLE_FACTORIES,
    _iter_record_classes,
    _register_builtin_samples,
)

FIXTURE_PATH = Path(__file__).with_name("record_encodings.json")

JOB_RECORD = f"{CampaignJobRecord.__module__}.{CampaignJobRecord.__qualname__}"


def _sample(name: str):
    _register_builtin_samples()
    return _SAMPLE_FACTORIES[name]()


def _legacy_record() -> CampaignJobRecord:
    payload = _sample(JOB_RECORD).as_dict()
    del payload["fault"], payload["n_probe_retries"]
    return CampaignJobRecord.from_dict(json.loads(json.dumps(payload, allow_nan=False)))


VARIANTS = {
    f"{JOB_RECORD}:infinite-error": lambda: dataclasses.replace(
        _sample(JOB_RECORD), max_alpha_error=float("inf")
    ),
    f"{JOB_RECORD}:no-alphas": lambda: dataclasses.replace(
        _sample(JOB_RECORD), alpha_12=None, alpha_21=None
    ),
    f"{JOB_RECORD}:legacy-journal": _legacy_record,
}


def build_cases() -> dict[str, object]:
    """Fixture key -> record: every audited class's sample, plus the variants."""
    names = sorted(
        f"{cls.__module__}.{cls.__qualname__}" for cls in _iter_record_classes()
    )
    cases = {name: _sample(name) for name in names}
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
