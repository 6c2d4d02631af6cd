"""Registry-wide picklability smoke test under spawn start semantics.

The in-process pickle round-trip in the registry audit approximates what a
``ProcessPoolBackend`` worker does under spawn semantics; this test does
the real thing: every scenario, pipeline, backend, and record sample
(:data:`record_samples.SAMPLES`) is shipped to a fresh spawn-started
interpreter, rebuilt purely from its pickle, and its repr is compared
against the parent's.
"""

import multiprocessing
import pickle

from record_samples import SAMPLES
from repro.execution.base import backend_from_spec, backend_names
from repro.pipeline.registry import get_pipeline, pipeline_names
from repro.reprs import ADDRESS_REPR
from repro.scenarios.catalog import all_scenarios


def _spawn_probe(payload: bytes) -> str:
    """Worker body: unpickle in a fresh interpreter, return the repr."""
    return repr(pickle.loads(payload))


def spawn_roundtrip(objects: list) -> list[str]:
    """Ship every object to one spawn-start worker; return the child reprs.

    A fresh interpreter (no fork-inherited module state) rebuilds each
    object purely from its pickle, exactly like a ``ProcessPoolBackend``
    worker under spawn start semantics.
    """
    payloads = [pickle.dumps(obj) for obj in objects]
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=1) as pool:
        return pool.map(_spawn_probe, payloads)


def registry_objects():
    objects = list(all_scenarios())
    objects += [get_pipeline(name) for name in pipeline_names()]
    objects += [backend_from_spec(name) for name in backend_names()]
    objects += list(SAMPLES.values())
    return objects


def test_every_registry_object_rebuilds_in_a_spawn_worker():
    objects = registry_objects()
    assert len(objects) >= 10  # scenarios + pipelines + backends + samples
    child_reprs = spawn_roundtrip(objects)
    for obj, child_repr in zip(objects, child_reprs):
        # The child rebuilt the object from nothing but its pickle; a
        # content-equal repr means no state was lost, and an address-free
        # repr means fingerprints built from it survive the process hop.
        assert child_repr == repr(obj)
        assert not ADDRESS_REPR.search(child_repr)
