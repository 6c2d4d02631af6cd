"""Import-time contract audit over the library's registries.

Where the AST rules read *source*, this half audits *live objects*: every
scenario, pipeline, execution backend, and fault model reachable from its
registry is checked against the contracts the campaign/checkpoint
machinery relies on:

``contract-pickle``
    The object round-trips ``pickle.dumps`` / ``loads`` and its class is
    importable by ``module.qualname`` — both required for spawn-start
    worker processes, which rebuild shipped objects from their pickles in
    a fresh interpreter.
``contract-repr``
    ``repr(obj)`` contains no ``0x…`` memory address.  This generalises
    the checkpoint-fingerprint guard
    (:func:`repro.campaign.engine.campaign_fingerprint`): an address-bearing
    repr changes across processes, so fingerprints built from it can never
    match on resume.
``contract-registry``
    Registry name hygiene: a backend's ``name`` matches its registry key,
    a pipeline alias may not shadow a registered pipeline name, and a fault
    condition names at least one model.

The library's strict-JSON record classes are held to their round-trip
contract by the test suite, over one sample per class
(``tests/record_samples.py``), not here.
"""

from __future__ import annotations

import importlib
import pickle

from ..reprs import ADDRESS_REPR
from .violations import Violation

__all__ = ["audit_registry_contracts"]


def _violation(rule: str, where: str, message: str) -> Violation:
    return Violation(path=where, line=0, rule=rule, message=message)


def _check_pickle(obj: object, where: str, out: list[Violation]) -> None:
    """Spawn-semantics picklability: round-trip plus class importability."""
    cls = type(obj)
    try:
        module = importlib.import_module(cls.__module__)
        resolved = module
        for part in cls.__qualname__.split("."):
            resolved = getattr(resolved, part)
        if resolved is not cls:
            raise AttributeError(
                f"{cls.__module__}.{cls.__qualname__} resolves to a different object"
            )
    except Exception as exc:
        out.append(
            _violation(
                "contract-pickle",
                where,
                f"{cls.__qualname__} is not importable as "
                f"{cls.__module__}.{cls.__qualname__} ({exc}); a spawn-start "
                "worker cannot rebuild it from a pickle",
            )
        )
        return
    try:
        restored = pickle.loads(pickle.dumps(obj))
    except Exception as exc:
        out.append(
            _violation(
                "contract-pickle",
                where,
                f"does not survive pickle round-trip ({type(exc).__name__}: "
                f"{exc}); it cannot ship to spawn-start workers",
            )
        )
        return
    if repr(restored) != repr(obj) and not ADDRESS_REPR.search(repr(obj)):
        out.append(
            _violation(
                "contract-pickle",
                where,
                "pickle round-trip changes the object's content repr — "
                "state is being lost or regenerated in __reduce__/__getstate__",
            )
        )


def _check_repr(obj: object, where: str, out: list[Violation]) -> None:
    text = repr(obj)
    if ADDRESS_REPR.search(text):
        out.append(
            _violation(
                "contract-repr",
                where,
                f"repr embeds a memory address ({text[:80]}...); checkpoint "
                "fingerprints built from it cannot survive a process restart "
                "— give the class a content-based __repr__ (or make it a "
                "dataclass)",
            )
        )


def audit_registry_contracts() -> list[Violation]:
    """Audit every object reachable from the four registries."""
    # Imported here, not at module top: the audit inspects the campaign
    # layers, but the lint package must stay importable on its own.
    from ..execution.base import backend_from_spec, backend_names
    from ..faults import all_faults
    from ..pipeline.registry import METHOD_ALIASES, get_pipeline, pipeline_names
    from ..scenarios.catalog import all_scenarios

    violations: list[Violation] = []
    for scenario in all_scenarios():
        where = f"scenario:{scenario.name}"
        _check_pickle(scenario, where, violations)
        _check_repr(scenario, where, violations)
    for name, models in all_faults().items():
        for model in models:
            where = f"fault:{name}:{type(model).__name__}"
            _check_pickle(model, where, violations)
            _check_repr(model, where, violations)
        if not models:
            violations.append(
                _violation(
                    "contract-registry",
                    f"fault:{name}",
                    "fault condition registered with no models; selecting it "
                    "would silently inject nothing",
                )
            )
    for name in pipeline_names():
        where = f"pipeline:{name}"
        pipeline = get_pipeline(name)
        _check_pickle(pipeline, where, violations)
        _check_repr(pipeline, where, violations)
        for stage in pipeline.stages:
            _check_repr(stage, f"{where}:{stage.name}", violations)
    for alias, target in METHOD_ALIASES.items():
        if alias in pipeline_names():
            violations.append(
                _violation(
                    "contract-registry",
                    f"pipeline:{alias}",
                    f"alias {alias!r} -> {target!r} shadows a registered "
                    "pipeline of the same name; lookups become ambiguous",
                )
            )
        if target not in pipeline_names():
            violations.append(
                _violation(
                    "contract-registry",
                    f"pipeline:{alias}",
                    f"alias {alias!r} points at unregistered pipeline {target!r}",
                )
            )
    for name in backend_names():
        where = f"backend:{name}"
        backend = backend_from_spec(name)
        if backend.name != name:
            violations.append(
                _violation(
                    "contract-registry",
                    where,
                    f"backend registered as {name!r} reports name="
                    f"{backend.name!r}; result metadata would misattribute "
                    "the execution policy",
                )
            )
        _check_pickle(backend, where, violations)
        _check_repr(backend, where, violations)
    return violations
