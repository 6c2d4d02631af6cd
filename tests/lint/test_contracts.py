"""The import-time contract audit: clean library, seeded regressions."""

from dataclasses import dataclass

import repro.lint.contracts as contracts
from repro.lint.contracts import (
    audit_record_contracts,
    audit_registry_contracts,
    register_contract_sample,
    run_contract_audit,
)
from repro.pipeline.registry import METHOD_ALIASES
from repro.scenarios import catalog


class _AddressReprScenario:
    """A registry object with CPython's default (address-bearing) repr."""

    name = "lint-test-bad-repr"


@dataclass(frozen=True)
class _GoodRecord:
    """A well-behaved record: strict JSON round-trip closes."""

    value: float
    label: str

    def as_dict(self):
        return {"value": self.value, "label": self.label}

    @classmethod
    def from_dict(cls, data):
        return cls(value=data["value"], label=data["label"])


@dataclass(frozen=True)
class _DriftingRecord:
    """A record whose from_dict silently drops a field (serialisation drift)."""

    value: float
    label: str

    def as_dict(self):
        return {"value": self.value}  # label falls out of checkpoints

    @classmethod
    def from_dict(cls, data):
        return cls(value=data["value"], label="")


def _inject_record(cls, name):
    """Make ``cls`` discoverable by the record walk, as ``repro.lint.contracts.<name>``."""
    cls.__module__ = "repro.lint.contracts"
    cls.__qualname__ = name
    setattr(contracts, name, cls)


def _eject_record(cls, name):
    delattr(contracts, name)
    contracts._SAMPLE_FACTORIES.pop(f"repro.lint.contracts.{name}", None)


class TestLibraryIsClean:
    def test_registry_audit_passes_on_the_real_registries(self):
        assert audit_registry_contracts() == []

    def test_record_audit_passes_on_the_real_records(self):
        assert audit_record_contracts() == []

    def test_full_audit_is_clean(self):
        assert run_contract_audit() == []


class TestSeededRegressions:
    def test_address_repr_scenario_is_flagged(self):
        catalog.SCENARIOS.register("lint-test-bad-repr", _AddressReprScenario())
        try:
            violations = audit_registry_contracts()
        finally:
            catalog.SCENARIOS.unregister("lint-test-bad-repr")
        flagged = [v for v in violations if "lint-test-bad-repr" in v.path]
        assert any(v.rule == "contract-repr" for v in flagged)
        assert any("memory address" in v.message for v in flagged)

    def test_unpicklable_scenario_is_flagged(self):
        class LocalScenario:  # not importable by module.qualname
            name = "lint-test-unpicklable"

            def __repr__(self):
                return "LocalScenario()"

        catalog.SCENARIOS.register("lint-test-unpicklable", LocalScenario())
        try:
            violations = audit_registry_contracts()
        finally:
            catalog.SCENARIOS.unregister("lint-test-unpicklable")
        flagged = [v for v in violations if "lint-test-unpicklable" in v.path]
        assert [v.rule for v in flagged] == ["contract-pickle"]

    def test_dangling_pipeline_alias_is_flagged(self):
        METHOD_ALIASES["lint-test-alias"] = "no-such-pipeline"
        try:
            violations = audit_registry_contracts()
        finally:
            del METHOD_ALIASES["lint-test-alias"]
        flagged = [v for v in violations if v.rule == "contract-registry"]
        assert any("no-such-pipeline" in v.message for v in flagged)

    def test_record_without_sample_is_flagged(self):
        _inject_record(_GoodRecord, "LintTestOrphanRecord")
        try:
            violations = audit_record_contracts()
        finally:
            _eject_record(_GoodRecord, "LintTestOrphanRecord")
        flagged = [v for v in violations if "LintTestOrphanRecord" in v.path]
        assert [v.rule for v in flagged] == ["contract-roundtrip"]
        assert "no contract sample" in flagged[0].message

    def test_registered_sample_closes_the_audit(self):
        _inject_record(_GoodRecord, "LintTestGoodRecord")
        register_contract_sample(_GoodRecord, lambda: _GoodRecord(0.5, "ok"))
        try:
            violations = audit_record_contracts()
        finally:
            _eject_record(_GoodRecord, "LintTestGoodRecord")
        assert [v for v in violations if "LintTestGoodRecord" in v.path] == []

    def test_serialisation_drift_is_flagged(self):
        _inject_record(_DriftingRecord, "LintTestDriftRecord")
        register_contract_sample(
            _DriftingRecord, lambda: _DriftingRecord(0.5, "label-that-drifts")
        )
        try:
            violations = audit_record_contracts()
        finally:
            _eject_record(_DriftingRecord, "LintTestDriftRecord")
        flagged = [v for v in violations if "LintTestDriftRecord" in v.path]
        assert {v.rule for v in flagged} == {"contract-roundtrip"}
        messages = " ".join(v.message for v in flagged)
        assert "does not reconstruct an equal object" in messages
        assert "omits field(s) label" in messages


class TestFaultRegistryAudit:
    """The fault registry is walked like the other three."""

    def test_empty_fault_condition_is_flagged(self):
        from repro.faults import registry as fault_registry

        fault_registry.FAULTS.register("lint-test-empty-fault", ())
        try:
            violations = audit_registry_contracts()
        finally:
            fault_registry.FAULTS.unregister("lint-test-empty-fault")
        flagged = [v for v in violations if "lint-test-empty-fault" in v.path]
        assert [v.rule for v in flagged] == ["contract-registry"]
        assert "no models" in flagged[0].message

    def test_address_repr_fault_model_is_flagged(self):
        from repro.faults import registry as fault_registry

        class _AddressReprFault:
            scope = "probe"

        fault_registry.FAULTS.register("lint-test-bad-fault", (_AddressReprFault(),))
        try:
            violations = audit_registry_contracts()
        finally:
            fault_registry.FAULTS.unregister("lint-test-bad-fault")
        flagged = [v for v in violations if "lint-test-bad-fault" in v.path]
        assert any(v.rule == "contract-repr" for v in flagged)
        # Defined locally, so the pickle contract trips too.
        assert any(v.rule == "contract-pickle" for v in flagged)
