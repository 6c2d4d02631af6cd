"""Ground-state charge configuration search for the capacitance model.

A quantum dot array at zero bias relaxes to the integer occupation vector that
minimises the constant-interaction electrostatic energy.  This module finds
that ground state by enumeration over a bounded occupation lattice, batched
over voltage points and pruned with a certificate when sweeping dense grids.

The public surface is the :class:`ChargeStateSolver`, plus a couple of small
helpers for naming charge states the way the paper does, e.g. ``(0, 1)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..exceptions import ChargeStateError
from ..strictjson import record
from .capacitance import CapacitanceModel


def format_charge_state(occupations: np.ndarray | tuple | list) -> str:
    """Format an occupation vector the way the paper labels CSD regions.

    >>> format_charge_state((0, 1))
    '(0, 1)'
    """
    values = [int(v) for v in np.asarray(occupations).ravel()]
    return "(" + ", ".join(str(v) for v in values) + ")"


@dataclass(frozen=True)
class ChargeState:
    """An integer occupation vector together with its electrostatic energy."""

    occupations: tuple[int, ...]
    energy_mev: float

    @property
    def total_electrons(self) -> int:
        """Total number of electrons across all dots."""
        return int(sum(self.occupations))

    @property
    def label(self) -> str:
        """Human-readable label such as ``(1, 0)``."""
        return format_charge_state(self.occupations)


@record
@dataclass(frozen=True)
class SolverStats:
    """Work counters for one :class:`ChargeStateSolver` instance.

    ``n_state_scores`` counts (point, lattice-state) score evaluations — the
    quantity the pruned path exists to cut.  ``n_bound_scores`` counts the
    per-state (not per-point) lower-bound evaluations the pruned path spends
    instead, so the true cost trade is visible in benchmarks.
    """

    n_points: int
    n_state_scores: int
    n_bound_scores: int
    n_pruned_points: int
    n_full_points: int

    @property
    def scores_per_point(self) -> float:
        """Mean lattice evaluations per solved point (``nan`` if unused)."""
        if self.n_points == 0:
            return float("nan")
        return self.n_state_scores / self.n_points


class ChargeStateSolver:
    """Find ground-state occupations of a :class:`CapacitanceModel`.

    Parameters
    ----------
    model:
        The electrostatic model of the device.
    max_electrons_per_dot:
        Upper bound of the occupation search lattice.  The CSD windows used in
        the paper only cover the first one or two charge transitions, so a
        small bound (default 3) is both sufficient and fast.
    prune:
        ``True`` forces the bound-certified pruned batch path, ``False``
        forces full-lattice scoring, ``None`` (default) enables pruning
        automatically once the lattice is large enough to pay for the
        bookkeeping (``>= 512`` states, i.e. 5-dot arrays and up).  Either
        way results are bit-identical — pruning only skips states it has
        *proved* cannot win.
    """

    #: Points per chunk when scoring large batches, bounding the size of the
    #: ``(points, lattice)`` score matrix held in memory at once.
    _CHUNK = 32768

    #: Hard cap on score-matrix elements per chunk.  The 8-dot lattices from
    #: PR 8 have 65,536 states; an uncapped ``_CHUNK x lattice`` matrix would
    #: be 17 GB.  Scores are batch-size independent (einsum kernel), so
    #: shrinking the chunk never changes a result.
    _SCORE_BUDGET = 1 << 22

    #: Lattice size at which the pruned path starts paying for itself.
    _PRUNE_MIN_LATTICE = 512

    #: Points per pruning block: bounds are computed over the block's induced
    #: charge box, so smaller blocks give tighter bounds but more bookkeeping.
    _PRUNE_BLOCK = 256

    def __init__(
        self,
        model: CapacitanceModel,
        max_electrons_per_dot: int = 3,
        prune: bool | None = None,
    ) -> None:
        if max_electrons_per_dot < 1:
            raise ChargeStateError("max_electrons_per_dot must be at least 1")
        self._model = model
        self._max_n = int(max_electrons_per_dot)
        self._prune = prune
        self._lattice = self._build_lattice()
        self._lattice_int = self._lattice.astype(int)
        self._inverse_dot_dot = model.inverse_dot_dot
        # lattice @ Cdd^-1 and the occupation self-energy term, precomputed
        # once so every ground-state query reduces to one matmul + argmin.
        self._lattice_proj = self._lattice @ self._inverse_dot_dot
        self._self_term = 0.5 * np.einsum(
            "ki,ki->k", self._lattice_proj, self._lattice
        )
        # Mixed-radix weights mapping an occupation vector to its row index in
        # the itertools.product lattice (last dot varies fastest).
        self._lattice_radix = (self._max_n + 1) ** np.arange(
            self._model.n_dots - 1, -1, -1
        )
        # Single-electron moves (incl. "stay put") used to grow the candidate
        # neighbourhood around the previous block's winners.
        eye = np.eye(self._model.n_dots, dtype=int)
        self._neighbour_moves = np.concatenate(
            [np.zeros((1, self._model.n_dots), dtype=int), eye, -eye]
        )
        self._scratch: np.ndarray | None = None
        self.reset_stats()

    def __getstate__(self) -> dict:
        # The score scratch is a pure cache and can be tens of MB; drop it so
        # pickled solvers (spawn round-trips, campaign workers) stay small.
        state = dict(self.__dict__)
        state["_scratch"] = None
        return state

    @property
    def model(self) -> CapacitanceModel:
        """The underlying capacitance model."""
        return self._model

    @property
    def max_electrons_per_dot(self) -> int:
        """Largest occupation considered per dot."""
        return self._max_n

    @property
    def n_lattice_states(self) -> int:
        """Number of occupation states in the bounded search lattice."""
        return self._lattice.shape[0]

    @property
    def prune_enabled(self) -> bool:
        """Whether batch queries use the bound-certified pruned path."""
        if self._prune is None:
            return self.n_lattice_states >= self._PRUNE_MIN_LATTICE
        return bool(self._prune)

    @property
    def stats(self) -> SolverStats:
        """Cumulative work counters since construction / :meth:`reset_stats`."""
        return SolverStats(
            n_points=self._n_points,
            n_state_scores=self._n_state_scores,
            n_bound_scores=self._n_bound_scores,
            n_pruned_points=self._n_pruned_points,
            n_full_points=self._n_full_points,
        )

    def reset_stats(self) -> None:
        """Zero the work counters (see :class:`SolverStats`)."""
        self._n_points = 0
        self._n_state_scores = 0
        self._n_bound_scores = 0
        self._n_pruned_points = 0
        self._n_full_points = 0

    def _build_lattice(self) -> np.ndarray:
        per_dot = range(self._max_n + 1)
        combos = list(itertools.product(per_dot, repeat=self._model.n_dots))
        return np.array(combos, dtype=float)

    # ------------------------------------------------------------------
    # The shared scoring kernel
    # ------------------------------------------------------------------
    # Every ground-state query — scalar, batched, or whole-grid — runs through
    # the same three steps so results cannot diverge between code paths:
    #   1. project gate voltages to induced charges  q(Vg) = Cdg Vg / e,
    #   2. score every lattice occupation            s_k = E_self(k) - n_k.Cdd^-1.q,
    #   3. argmin over the lattice.
    # The per-point term 0.5 q.Cdd^-1.q is occupation-independent and dropped
    # from the scores; it is restored when an absolute energy is requested.

    def _induced_charges(self, points: np.ndarray) -> np.ndarray:
        """Induced dot charges (units of ``e``) for ``(n, n_gates)`` voltages.

        Evaluated with ``einsum`` rather than BLAS ``@``: einsum's summation
        per output element does not depend on the batch size, which keeps
        one-point and many-point evaluations bit-identical.
        """
        return np.einsum("ng,dg->nd", points, self._model.dot_gate) / _e_af_v()

    def _lattice_scores(self, induced: np.ndarray) -> np.ndarray:
        """Occupation ranking scores, shape ``(n_points, n_lattice)``."""
        return self._self_term[None, :] - np.einsum(
            "nd,kd->nk", induced, self._lattice_proj
        )

    def _scores_into(self, induced: np.ndarray) -> np.ndarray:
        """Full-lattice scores written into a reusable scratch buffer.

        Identical values to :meth:`_lattice_scores` (same einsum kernel, same
        elementwise subtraction) but without allocating a fresh
        ``(chunk, n_lattice)`` matrix per chunk — on fine grids that
        allocation dominated allocator churn.
        """
        n = induced.shape[0]
        k = self._lattice.shape[0]
        if self._scratch is None or self._scratch.shape[0] < n:
            self._scratch = np.empty((n, k), dtype=float)
        out = self._scratch[:n]
        np.einsum("nd,kd->nk", induced, self._lattice_proj, out=out)
        np.subtract(self._self_term[None, :], out, out=out)
        return out

    def _effective_chunk(self) -> int:
        """Points per batch chunk, capped so scores fit the score budget."""
        return max(1, min(self._CHUNK, self._SCORE_BUDGET // self._lattice.shape[0]))

    # ------------------------------------------------------------------
    # Bound-certified pruning
    # ------------------------------------------------------------------
    # Dense sweeps visit voltage points whose ground states barely move, so
    # most of the lattice can never win anywhere in a small block of points.
    # Rather than trusting a local descent (box-local optimality of the
    # constant-interaction energy over the *integer* lattice is not a theorem
    # we can lean on for bit-identity), the pruned path keeps a certificate:
    #
    #   1. candidates = previous block's winners + their single-electron
    #      neighbours; scoring them gives each point an upper bound u(x) on
    #      its ground-state score,
    #   2. every lattice state k gets a lower bound over the block's induced
    #      charge box [lo, hi]:  lb_k = c_k - sum_d max(p_kd lo_d, p_kd hi_d),
    #   3. states with lb_k > max_x u(x) + margin are *provably* beaten at
    #      every point in the block and are skipped; the survivors are scored
    #      exactly, through the same einsum kernel as the full path.
    #
    # The margin covers floating-point rounding of the bound arithmetic, so
    # every state that could tie the winner survives and ``argmin`` (which
    # breaks ties by lowest lattice index, survivors kept in ascending order)
    # returns exactly the full-enumeration answer.  Whenever the certificate
    # fails to shrink the work — or produces nothing (non-finite voltages) —
    # the block falls back to full enumeration.

    def _candidate_indices(self, seeds: np.ndarray) -> np.ndarray:
        """Lattice row indices of ``seeds`` plus their +-1 per-dot moves."""
        occ = self._lattice_int[seeds]
        grown = occ[:, None, :] + self._neighbour_moves[None, :, :]
        np.clip(grown, 0, self._max_n, out=grown)
        flat = grown.reshape(-1, self._model.n_dots)
        return np.unique(flat @ self._lattice_radix)

    def _bound_margin(self, absmax_induced: np.ndarray) -> float:
        """FP-safety slack for the lower-bound vs upper-bound comparison.

        A generous multiple of the worst-case rounding error of the score
        dot products; tiny against physical score gaps, so it costs almost
        no pruning power while guaranteeing no true winner is discarded.
        """
        scale = float(np.abs(self._self_term).max()) + float(
            (np.abs(self._lattice_proj) @ absmax_induced).max()
        )
        return 64.0 * np.finfo(float).eps * max(scale, 1.0)

    def _solve_block_pruned(
        self, induced: np.ndarray, seeds: np.ndarray
    ) -> np.ndarray | None:
        """Exact per-point argmin over the lattice, or ``None`` to go full."""
        n = induced.shape[0]
        n_lattice = self._lattice.shape[0]
        cands = self._candidate_indices(seeds)
        cand_scores = self._self_term[cands][None, :] - np.einsum(
            "nd,kd->nk", induced, self._lattice_proj[cands]
        )
        upper = cand_scores.min(axis=1)
        lo = induced.min(axis=0)
        hi = induced.max(axis=0)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            return None
        # Lower bound of each state's score anywhere in the block's box.
        contrib = np.maximum(self._lattice_proj * lo, self._lattice_proj * hi)
        lower = self._self_term - contrib.sum(axis=1)
        margin = self._bound_margin(np.maximum(np.abs(lo), np.abs(hi)))
        survivors = np.flatnonzero(lower <= upper.max() + margin)
        self._n_bound_scores += n_lattice
        if survivors.size == 0 or (survivors.size + cands.size) * 2 >= n_lattice:
            return None
        scores = self._self_term[survivors][None, :] - np.einsum(
            "nd,kd->nk", induced, self._lattice_proj[survivors]
        )
        self._n_state_scores += n * (cands.size + survivors.size)
        self._n_pruned_points += n
        return survivors[np.argmin(scores, axis=1)]

    def _solve_chunk(
        self, induced: np.ndarray, carry: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Ground-state lattice indices for one chunk of induced charges.

        Returns the per-point argmin plus the carry (distinct winners of the
        last block) that seeds the next chunk's candidate neighbourhood.
        """
        n = induced.shape[0]
        self._n_points += n
        if not self.prune_enabled:
            best = np.argmin(self._scores_into(induced), axis=1)
            self._n_state_scores += n * self._lattice.shape[0]
            self._n_full_points += n
            return best, None
        best = np.empty(n, dtype=np.intp)
        for start in range(0, n, self._PRUNE_BLOCK):
            block = induced[start : start + self._PRUNE_BLOCK]
            solved = None
            if carry is not None:
                solved = self._solve_block_pruned(block, carry)
            if solved is None:
                solved = np.argmin(self._scores_into(block), axis=1)
                self._n_state_scores += block.shape[0] * self._lattice.shape[0]
                self._n_full_points += block.shape[0]
            best[start : start + block.shape[0]] = solved
            carry = np.unique(solved)
        return best, carry

    def _iter_solved(self, pts: np.ndarray):
        """Yield ``(induced, best)`` per chunk through the shared kernel."""
        chunk_size = self._effective_chunk()
        carry: np.ndarray | None = None
        for start in range(0, pts.shape[0], chunk_size):
            induced = self._induced_charges(pts[start : start + chunk_size])
            best, carry = self._solve_chunk(induced, carry)
            yield induced, best

    def _state_energies(self, best: np.ndarray, induced: np.ndarray) -> np.ndarray:
        """Absolute electrostatic energy (meV) of chosen lattice states.

        Two single-contraction einsums rather than one three-operand einsum:
        the latter dispatches to a batch-size-dependent dot path, and the
        batch kernel must match scalar evaluation bit-for-bit.
        """
        q = self._lattice[best] - induced
        projected = np.einsum("ni,ij->nj", q, self._inverse_dot_dot)
        energies = 0.5 * np.einsum("nj,nj->n", projected, q)
        return energies * _e2_over_af_mev()

    def _as_point_batch(self, points: np.ndarray | list) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self._model.n_gates:
            raise ChargeStateError(
                f"expected voltage points of shape (n, {self._model.n_gates}), "
                f"got {pts.shape}"
            )
        return pts

    # ------------------------------------------------------------------
    # Exact enumeration
    # ------------------------------------------------------------------
    def ground_state(self, gate_voltages: np.ndarray | list) -> ChargeState:
        """Exact ground state by enumerating the bounded occupation lattice."""
        vg = np.asarray(gate_voltages, dtype=float)
        induced = self._induced_charges(vg[None, :])
        best = np.argmin(self._lattice_scores(induced), axis=1)
        self._n_points += 1
        self._n_state_scores += self._lattice.shape[0]
        self._n_full_points += 1
        occupations = tuple(int(v) for v in self._lattice_int[best[0]])
        energy = float(self._state_energies(best, induced)[0])
        return ChargeState(occupations=occupations, energy_mev=energy)

    def occupations_at(self, points: np.ndarray | list) -> np.ndarray:
        """Ground-state occupations for an arbitrary batch of voltage points.

        The vectorised core of the batch probe path: one matmul against the
        occupation lattice scores all points at once instead of re-solving the
        ground state per pixel.

        Parameters
        ----------
        points:
            Gate-voltage points, shape ``(n_points, n_gates)``.

        Returns
        -------
        numpy.ndarray
            Integer occupations, shape ``(n_points, n_dots)``; identical to
            calling :meth:`ground_state` per point.
        """
        pts = self._as_point_batch(points)
        out = np.empty((pts.shape[0], self._model.n_dots), dtype=int)
        pos = 0
        for _, best in self._iter_solved(pts):
            out[pos : pos + best.shape[0]] = self._lattice_int[best]
            pos += best.shape[0]
        return out

    def ground_states_batch(self, points: np.ndarray | list) -> list[ChargeState]:
        """Batched :meth:`ground_state`: one :class:`ChargeState` per point.

        Equivalent to ``[self.ground_state(p) for p in points]`` — same
        occupations and energies — but scores all points through the shared
        vectorised kernel.
        """
        pts = self._as_point_batch(points)
        states: list[ChargeState] = []
        for induced, best in self._iter_solved(pts):
            energies = self._state_energies(best, induced)
            for index, energy in zip(best, energies):
                states.append(
                    ChargeState(
                        occupations=tuple(int(v) for v in self._lattice_int[index]),
                        energy_mev=float(energy),
                    )
                )
        return states

    # ------------------------------------------------------------------
    # Grid evaluation
    # ------------------------------------------------------------------
    def occupation_map(
        self,
        gate_x: int | str,
        gate_y: int | str,
        x_voltages: np.ndarray,
        y_voltages: np.ndarray,
    ) -> np.ndarray:
        """Ground-state occupations over a 2-D voltage grid.

        Parameters
        ----------
        gate_x, gate_y:
            The two swept gates (index or name). ``gate_x`` varies along the
            column axis of the returned array, ``gate_y`` along the row axis.
            Every other gate sits at 0 V.
        x_voltages, y_voltages:
            1-D arrays of voltages for the swept gates.

        Returns
        -------
        numpy.ndarray
            Integer array of shape ``(len(y_voltages), len(x_voltages), n_dots)``.
        """
        model = self._model
        ix = model.gate_index(gate_x)
        iy = model.gate_index(gate_y)
        if ix == iy:
            raise ChargeStateError("gate_x and gate_y must be different gates")
        xs = np.asarray(x_voltages, dtype=float)
        ys = np.asarray(y_voltages, dtype=float)
        # Expand the grid to explicit voltage points and score them through
        # the shared batch kernel, so grid rasterisation, batched probes, and
        # scalar ground-state queries all run exactly one physics kernel.
        points = np.zeros((ys.size * xs.size, model.n_gates))
        points[:, ix] = np.tile(xs, ys.size)
        points[:, iy] = np.repeat(ys, xs.size)
        occupations = self.occupations_at(points)
        return occupations.reshape(ys.size, xs.size, model.n_dots)


def _e_af_v() -> float:
    from . import constants

    return constants.ELEMENTARY_CHARGE_AF_V


def _e2_over_af_mev() -> float:
    from . import constants

    return constants.E_SQUARED_OVER_AF_IN_MEV
