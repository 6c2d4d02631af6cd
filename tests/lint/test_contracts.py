"""The import-time registry audit: clean library, seeded regressions.

The record classes' strict-JSON contract is tested with their samples, in
``tests/golden/test_golden_records.py``.
"""

from repro.lint.contracts import audit_registry_contracts
from repro.pipeline.registry import METHOD_ALIASES
from repro.scenarios import catalog


class _AddressReprScenario:
    """A registry object with CPython's default (address-bearing) repr."""

    name = "lint-test-bad-repr"


class TestLibraryIsClean:
    def test_registry_audit_passes_on_the_real_registries(self):
        assert audit_registry_contracts() == []


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
