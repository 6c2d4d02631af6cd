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
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigurationError


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
