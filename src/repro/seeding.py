"""Deterministic seed derivation for independent child runs.

Several layers of the library launch *multiple* seeded simulations from one
user-supplied seed: the array extractor runs ``n - 1`` pairwise sessions, the
auto-tuning workflow runs a coarse window search followed by a fine
extraction, and a tuning campaign fans out a whole grid of jobs.  Deriving
the child seeds arithmetically (``seed + i``) makes neighbouring runs share
overlapping noise streams — run ``seed=7`` and run ``seed=8`` would reuse
each other's noise fields wholesale.  The numpy-recommended fix is
:meth:`numpy.random.SeedSequence.spawn`, which hashes the parent entropy with
the child index so every child stream is statistically independent of every
other child *and* of the children of any other root seed.

All seed-accepting entry points in this library take
``int | numpy.random.SeedSequence | None`` and pass the value straight to
:func:`numpy.random.default_rng`, so spawned children flow through the
existing plumbing unchanged.

Streams that one run's seed drives side by side (a backend's temporal
noise and drift, its fault wrapper's keys, a job's crash draw) come from
:func:`reserved_seeds`, each at its own index of the table below.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .exceptions import ConfigurationError

#: Spawn-key branch of the reserved streams: ``(RESERVED_BRANCH, index)``
#: extends a seed's own spawn key, clear of anything ``spawn()`` hands out.
RESERVED_BRANCH = 2**31

# The reserved indices: one per stream a run's seed drives, so no two
# consumers of one seed share randomness.
TEMPORAL_NOISE_INDEX = 0  # DeviceBackend's time-dependent noise sampler
DRIFT_INDEX = 1  # DeviceBackend's drift state
FAULT_INDEX = 2  # FaultyBackend's fault model i reads FAULT_INDEX + i
WORKER_CRASH_INDEX = 2**31 - 1  # inject_worker_faults' per-job crash draw


def as_seed_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    """Wrap an integer seed into a :class:`~numpy.random.SeedSequence`."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def spawn_seeds(
    seed: int | np.random.SeedSequence | None, n_children: int
) -> tuple[np.random.SeedSequence | None, ...]:
    """Derive ``n_children`` independent child seeds from one root seed.

    ``None`` stays ``None`` for every child: an unseeded run draws fresh OS
    entropy per child anyway, so there is nothing to derive.  The function is
    deterministic for *every* root type: integer roots are re-wrapped on each
    call, and :class:`~numpy.random.SeedSequence` roots are rebuilt from
    their ``(entropy, spawn_key)`` identity so the caller's spawn counter is
    neither consulted nor advanced — ``spawn_seeds(root, 3)`` always returns
    the same three children, which is what lets sequential and parallel runs
    of the same campaign stay bit-identical.
    """
    if n_children < 0:
        raise ConfigurationError("n_children must be non-negative")
    if seed is None:
        return (None,) * n_children
    root = as_seed_sequence(seed)
    root = np.random.SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key)
    return tuple(root.spawn(n_children))


def reserved_seeds(
    seed: int | np.random.SeedSequence | None, indices: Iterable[int]
) -> tuple[np.random.SeedSequence, ...]:
    """The reserved-branch children of ``seed``, one per index.

    Each child extends the root's spawn key by ``(RESERVED_BRANCH, index)``
    directly rather than through :meth:`~numpy.random.SeedSequence.spawn`,
    which would advance a caller-supplied SeedSequence's child counter and
    make two consumers seeded with the same object diverge.  ``None`` draws
    fresh OS entropy once, shared by the children: an unseeded run stays
    unseeded.
    """
    root = (
        seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    )
    return tuple(
        np.random.SeedSequence(
            entropy=root.entropy, spawn_key=root.spawn_key + (RESERVED_BRANCH, index)
        )
        for index in indices
    )
