"""Cross-job memoisation of time-independent CSD kernels.

Campaign repeats, ablation variants, and array-extraction gate-pair sweeps
rasterise the *same* noise-free physics over and over: the pure sensor-current
grid depends only on the device electrostatics, the sensor configuration, the
solver bound, and the voltage window — not on the seed, the noise model, the
timing model, or which pipeline is asking.  This module caches exactly that
pure layer, keyed by a content fingerprint of everything the values depend on.

What is — and is not — cached
-----------------------------

A backend caches every layer that the probe time does not change, and
nothing that it does.  :class:`~repro.instrument.measurement.DeviceBackend`
picks its layer once, at construction, from its physics:

* without device drift it caches the noise-free sensor currents, whether
  its noise is a static field or drawn per probe time; the noise is added
  per probe on top of the cached value;
* when its drift moves only the sensor (an operating-point ramp, charge
  jumps, interference) it caches the base sensor detuning, the operating
  point plus the charge term plus the gate cross-talk; the drift offset at
  each probe's timestamp and the Coulomb-peak line shape are applied per
  probe;
* lever-arm drift moves the charge states themselves, so such a backend
  bypasses the cache.

The seeded noise field, time-dependent noise draws and drift trajectories
are never cached.  An entry's key is its layer's name and the kernel
fingerprint, so a currents entry and a detuning entry never share one.
Cached values are produced by the same batch-size-independent kernels a
cache miss runs, and the per-probe steps are the same float operations in
the same order as an uncached probe, so cache on/off is bit-identical by
construction.

Entries fill lazily, pixel by pixel, so probe-efficient algorithms that only
touch a fraction of the grid never pay for a full rasterisation.

The default process-wide cache (:func:`default_kernel_cache`) is what
``DeviceBackend`` uses unless told otherwise; campaign workers each hold one
per process, so repeats landing on the same worker stop re-solving identical
physics.  :func:`configure_kernel_cache` tunes or disables it globally.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError
from .strictjson import record

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "KernelCache",
    "KernelCacheEntry",
    "KernelCacheStats",
    "clear_kernel_cache",
    "configure_kernel_cache",
    "default_kernel_cache",
    "first_requests",
    "kernel_fingerprint",
]

#: Default bound on cached kernels; one 100x100 entry is ~90 KB, so the
#: default cache tops out at a few MB even with full-grid workloads.
DEFAULT_MAX_ENTRIES = 32


def first_requests(keys: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The first of ``positions`` to request each distinct key, ascending.

    ``positions`` are ascending indices into the flat pixel ``keys`` of one
    request batch; a key requested at several of them keeps only its
    earliest.  A stable argsort groups equal keys with their positions in
    request order, so the first of each group is its earliest request;
    fewer than two positions cannot repeat a key at all.
    """
    if positions.size < 2:
        return positions
    requested = keys[positions]
    order = requested.argsort(kind="stable")
    ranked = requested[order]
    first = np.empty(ranked.size, dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    chosen = positions[order[first]]
    chosen.sort()
    return chosen


def _array_bytes(values: np.ndarray | list) -> bytes:
    arr = np.ascontiguousarray(np.asarray(values, dtype=float))
    return repr(arr.shape).encode() + arr.tobytes()


def kernel_fingerprint(
    device,
    x_voltages: np.ndarray,
    y_voltages: np.ndarray,
    gate_x: int,
    gate_y: int,
) -> str:
    """Content fingerprint of one noise-free CSD rasterisation.

    Covers everything the pure pixel values depend on — capacitance matrices,
    gate names and specs, sensor configuration, the solver's occupation bound,
    the swept-gate indices and both voltage axes (the unswept gates sit at
    0 V).  Deliberately excludes seeds, noise models, timing, drift,
    and solver pruning flags: none of them change the noise-free values
    (pruning is bit-identical by proof, the rest enter downstream of the
    kernel), so jobs differing only in those share one entry.  Both cached
    layers use this fingerprint; a backend's entry key prefixes it with the
    layer's name.
    """
    model = device.capacitance
    h = hashlib.sha256()
    parts = [
        b"kernel-v1",
        _array_bytes(model.dot_dot),
        _array_bytes(model.dot_gate),
        ",".join(model.gate_names).encode(),
        repr(tuple(device.gate_specs)).encode(),
        repr(device.sensor.config).encode(),
        str(int(device.solver.max_electrons_per_dot)).encode(),
        str(int(gate_x)).encode(),
        str(int(gate_y)).encode(),
        _array_bytes(x_voltages),
        _array_bytes(y_voltages),
    ]
    for part in parts:
        h.update(part)
        h.update(b"\x1f")
    return h.hexdigest()


@record
@dataclass(frozen=True)
class KernelCacheStats:
    """Counters of a :class:`KernelCache` (strict-JSON round-trippable).

    ``pixel_hits`` / ``pixel_solves`` count individual pixel values served
    from memory vs solved fresh; ``entry_hits`` / ``entry_misses`` count
    whole-kernel lookups; ``evictions`` counts LRU drops.
    """

    n_entries: int
    pixel_hits: int
    pixel_solves: int
    entry_hits: int
    entry_misses: int
    evictions: int


class KernelCacheEntry:
    """Lazily filled grid of one cached layer for one kernel fingerprint.

    The grid is stored flat, row-major, and looked up by pixel key
    ``row * n_cols + col``; :attr:`values` and :attr:`solved` are its 2-D
    views.  ``fingerprint`` is the entry's key, which names the layer.
    """

    def __init__(self, fingerprint: str, shape: tuple[int, int]) -> None:
        self.fingerprint = fingerprint
        self.shape = (int(shape[0]), int(shape[1]))
        self._values = np.zeros(self.shape[0] * self.shape[1], dtype=float)
        self._solved = np.zeros(self._values.size, dtype=bool)
        self.n_pixel_hits = 0
        self.n_pixel_solves = 0

    def __repr__(self) -> str:
        return (
            f"KernelCacheEntry(fingerprint={self.fingerprint[:12]!r}, "
            f"shape={self.shape}, solved={self.n_solved})"
        )

    @property
    def values(self) -> np.ndarray:
        """Pure values of the solved pixels (2-D view; 0 where unsolved).

        Noise-free currents (nA) in a currents entry, base sensor detunings
        (mV) in a detuning entry.
        """
        return self._values.reshape(self.shape)

    @property
    def solved(self) -> np.ndarray:
        """Which pixels have been solved (2-D view)."""
        return self._solved.reshape(self.shape)

    @property
    def n_solved(self) -> int:
        """Number of pixels whose pure value has been computed."""
        return int(np.count_nonzero(self._solved))

    def fetch(self, keys: np.ndarray, solve) -> np.ndarray:
        """Values for the requested pixel keys, solving the missing ones once.

        ``keys`` are flat row-major pixel indices (``row * n_cols + col``).
        ``solve(indices)`` must return the pure values of the pixels at
        ``keys[indices]``; it is called with the first in-request-order
        occurrence of each not-yet-solved pixel.  Because the physics kernel
        is batch-size independent, values are identical whether pixels are
        solved here, in a different grouping, or without any cache at all.
        Only a batch with two or more unsolved pixels can repeat one, so
        only such a batch is deduplicated.
        """
        idx = (~self._solved[keys]).nonzero()[0]
        if idx.size > 1:
            idx = first_requests(keys, idx)
        if idx.size:
            solved_keys = keys[idx]
            self._values[solved_keys] = np.asarray(solve(idx), dtype=float)
            self._solved[solved_keys] = True
            self.n_pixel_solves += int(idx.size)
        self.n_pixel_hits += int(keys.size - idx.size)
        return self._values[keys]


class KernelCache:
    """LRU cache of :class:`KernelCacheEntry` objects, keyed by fingerprint."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES, enabled: bool = True):
        if max_entries < 1:
            raise ConfigurationError("max_entries must be at least 1")
        self.max_entries = int(max_entries)
        self.enabled = bool(enabled)
        self._entries: OrderedDict[str, KernelCacheEntry] = OrderedDict()
        self._entry_hits = 0
        self._entry_misses = 0
        self._evictions = 0
        self._retired_pixel_hits = 0
        self._retired_pixel_solves = 0

    def __repr__(self) -> str:
        return (
            f"KernelCache(enabled={self.enabled}, "
            f"max_entries={self.max_entries}, n_entries={len(self._entries)})"
        )

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, fingerprint: str, shape: tuple[int, int]) -> KernelCacheEntry | None:
        """The (possibly fresh) entry for a fingerprint; ``None`` if disabled."""
        if not self.enabled:
            return None
        found = self._entries.get(fingerprint)
        if found is not None:
            self._entries.move_to_end(fingerprint)
            self._entry_hits += 1
            return found
        self._entry_misses += 1
        fresh = KernelCacheEntry(fingerprint, shape)
        self._entries[fingerprint] = fresh
        self._shrink()
        return fresh

    def _shrink(self) -> None:
        while len(self._entries) > self.max_entries:
            _, evicted = self._entries.popitem(last=False)
            self._retired_pixel_hits += evicted.n_pixel_hits
            self._retired_pixel_solves += evicted.n_pixel_solves
            self._evictions += 1

    @property
    def stats(self) -> KernelCacheStats:
        """Cumulative counters, including work done by evicted entries."""
        return KernelCacheStats(
            n_entries=len(self._entries),
            pixel_hits=self._retired_pixel_hits
            + sum(e.n_pixel_hits for e in self._entries.values()),
            pixel_solves=self._retired_pixel_solves
            + sum(e.n_pixel_solves for e in self._entries.values()),
            entry_hits=self._entry_hits,
            entry_misses=self._entry_misses,
            evictions=self._evictions,
        )

    def clear(self) -> None:
        """Drop every entry and zero all counters."""
        self._entries.clear()
        self._entry_hits = 0
        self._entry_misses = 0
        self._evictions = 0
        self._retired_pixel_hits = 0
        self._retired_pixel_solves = 0


_default_cache = KernelCache()


def default_kernel_cache() -> KernelCache:
    """The process-wide cache ``DeviceBackend`` uses by default."""
    return _default_cache


def configure_kernel_cache(
    *, enabled: bool | None = None, max_entries: int | None = None
) -> KernelCache:
    """Tune the process-wide cache in place; returns it for inspection.

    ``enabled=False`` turns kernel caching off globally (existing entries are
    kept but not served until re-enabled); ``max_entries`` resizes the LRU
    bound, evicting oldest entries immediately if already over it.
    """
    cache = _default_cache
    if enabled is not None:
        cache.enabled = bool(enabled)
    if max_entries is not None:
        if max_entries < 1:
            raise ConfigurationError("max_entries must be at least 1")
        cache.max_entries = int(max_entries)
        cache._shrink()
    return cache


def clear_kernel_cache() -> None:
    """Drop every entry of the process-wide cache and zero its counters."""
    _default_cache.clear()
