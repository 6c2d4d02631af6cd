"""Constant-interaction capacitance model for gate-defined quantum dot arrays.

The model follows the standard electrostatic description of coupled quantum
dots (van der Wiel et al., Rev. Mod. Phys. 2002; Hanson et al., Rev. Mod.
Phys. 2007, which is reference [6] of the paper):

* ``Cdd`` — the ``n_dots x n_dots`` Maxwell capacitance matrix of the dots.
  Diagonal entries are the total capacitance of each dot (positive);
  off-diagonal entries are minus the mutual capacitance between dots
  (non-positive).
* ``Cdg`` — the ``n_dots x n_gates`` dot-gate capacitance matrix (non-negative
  entries).  Entry ``(i, j)`` is the capacitance between dot ``i`` and gate
  ``j``; the diagonal-ish entries (each dot to its own plunger) dominate while
  the off-diagonal entries encode the cross-capacitance that virtual gates
  must compensate.

From these two matrices the model provides:

* the electrostatic energy of an integer occupation vector at given gate
  voltages (used by :mod:`repro.physics.charge_state` to find ground states),
* the lever-arm matrix ``A = Cdd^-1 Cdg`` whose rows give how strongly each
  gate shifts each dot potential,
* analytic transition-line slopes and ground-truth virtualization coefficients
  for any pair of gates, which the evaluation uses as the reference the
  extraction algorithms are judged against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import CapacitanceModelError
from . import constants


def _as_matrix(values: np.ndarray | list, name: str) -> np.ndarray:
    # A read-only copy: the caller's array cannot change the frozen model.
    matrix = np.array(values, dtype=float)
    matrix.flags.writeable = False
    if matrix.ndim != 2:
        raise CapacitanceModelError(f"{name} must be a 2-D array, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise CapacitanceModelError(f"{name} contains non-finite entries")
    return matrix


@dataclass(frozen=True)
class CapacitanceModel:
    """Electrostatic model of an ``n_dots``-dot, ``n_gates``-gate device.

    Parameters
    ----------
    dot_dot:
        Maxwell capacitance matrix ``Cdd`` in attofarads, shape
        ``(n_dots, n_dots)``.
    dot_gate:
        Dot-gate capacitance matrix ``Cdg`` in attofarads, shape
        ``(n_dots, n_gates)``.
    gate_names:
        Optional gate labels; defaults to ``["G0", "G1", ...]``.
    """

    dot_dot: np.ndarray
    dot_gate: np.ndarray
    gate_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        cdd = _as_matrix(self.dot_dot, "dot_dot")
        cdg = _as_matrix(self.dot_gate, "dot_gate")
        if cdd.shape[0] != cdd.shape[1]:
            raise CapacitanceModelError(
                f"dot_dot must be square, got shape {cdd.shape}"
            )
        if cdg.shape[0] != cdd.shape[0]:
            raise CapacitanceModelError(
                "dot_gate must have one row per dot: "
                f"dot_dot has {cdd.shape[0]} dots but dot_gate has {cdg.shape[0]} rows"
            )
        if not np.allclose(cdd, cdd.T, atol=1e-9):
            raise CapacitanceModelError("dot_dot (Maxwell matrix) must be symmetric")
        if np.any(np.diag(cdd) <= 0):
            raise CapacitanceModelError("dot_dot diagonal (total capacitances) must be positive")
        off_diag = cdd - np.diag(np.diag(cdd))
        if np.any(off_diag > 1e-12):
            raise CapacitanceModelError(
                "dot_dot off-diagonal entries (negative mutual capacitances) must be <= 0"
            )
        if np.any(cdg < -1e-12):
            raise CapacitanceModelError("dot_gate entries must be non-negative")
        # Maxwell matrices of physical capacitor networks are diagonally
        # dominant and therefore positive definite.
        try:
            np.linalg.cholesky(cdd)
        except np.linalg.LinAlgError as exc:
            raise CapacitanceModelError(
                "dot_dot must be positive definite (it is the Maxwell matrix of a "
                "physical capacitor network)"
            ) from exc
        object.__setattr__(self, "dot_dot", cdd)
        object.__setattr__(self, "dot_gate", cdg)
        # Frozen model: one inverse, read-only because every caller shares it.
        inverse = np.linalg.inv(cdd)
        inverse.flags.writeable = False
        object.__setattr__(self, "_inverse_dot_dot", inverse)
        names = tuple(self.gate_names) if self.gate_names else tuple(
            f"G{i}" for i in range(cdg.shape[1])
        )
        if len(names) != cdg.shape[1]:
            raise CapacitanceModelError(
                f"expected {cdg.shape[1]} gate names, got {len(names)}"
            )
        object.__setattr__(self, "gate_names", names)

    # ------------------------------------------------------------------
    # Basic shape / derived matrices
    # ------------------------------------------------------------------
    @property
    def n_dots(self) -> int:
        """Number of dots in the model."""
        return self.dot_dot.shape[0]

    @property
    def n_gates(self) -> int:
        """Number of gates in the model."""
        return self.dot_gate.shape[1]

    @property
    def inverse_dot_dot(self) -> np.ndarray:
        """Inverse of the Maxwell matrix, ``Cdd^-1`` (1/aF); one shared read-only array."""
        return self._inverse_dot_dot

    @property
    def lever_arm_matrix(self) -> np.ndarray:
        """Dimensionless lever-arm matrix ``A = Cdd^-1 Cdg``.

        ``A[i, j]`` is the fraction of gate ``j``'s voltage that appears as an
        electrostatic potential shift on dot ``i``.  Rows of ``A`` define the
        orientation of the charge-transition lines in gate-voltage space.
        """
        return self.inverse_dot_dot @ self.dot_gate

    def gate_index(self, gate: int | str) -> int:
        """Resolve a gate given either its integer index or its name."""
        if isinstance(gate, str):
            try:
                return self.gate_names.index(gate)
            except ValueError as exc:
                raise CapacitanceModelError(
                    f"unknown gate name {gate!r}; known gates: {self.gate_names}"
                ) from exc
        index = int(gate)
        if not 0 <= index < self.n_gates:
            raise CapacitanceModelError(
                f"gate index {index} out of range for {self.n_gates} gates"
            )
        return index

    # ------------------------------------------------------------------
    # Energies
    # ------------------------------------------------------------------
    def charging_energies_mev(self) -> np.ndarray:
        """Per-dot charging energies ``e^2 (Cdd^-1)_ii`` in meV."""
        return np.diag(self.inverse_dot_dot) * constants.E_SQUARED_OVER_AF_IN_MEV

    def electrostatic_energy(
        self, occupations: np.ndarray | list, gate_voltages: np.ndarray | list
    ) -> float:
        """Total electrostatic energy (meV) of an occupation at gate voltages.

        The constant-interaction energy is

            U(n, Vg) = (1/2) (e n - Cdg Vg)^T Cdd^-1 (e n - Cdg Vg)

        expressed here in meV with charge in units of ``e`` and capacitance in
        aF.  Only energy *differences* between occupations matter for charge
        stability, so the gauge-dependent constant is kept as-is.

        Parameters
        ----------
        occupations:
            Integer electron numbers per dot, shape ``(n_dots,)``.
        gate_voltages:
            Gate voltages in volts, shape ``(n_gates,)``.
        """
        n = np.asarray(occupations, dtype=float)
        vg = np.asarray(gate_voltages, dtype=float)
        if n.shape != (self.n_dots,):
            raise CapacitanceModelError(
                f"occupations must have shape ({self.n_dots},), got {n.shape}"
            )
        if vg.shape != (self.n_gates,):
            raise CapacitanceModelError(
                f"gate_voltages must have shape ({self.n_gates},), got {vg.shape}"
            )
        # Charge imbalance on each dot in units of e:  n - (Cdg Vg) / e
        induced = (self.dot_gate @ vg) / constants.ELEMENTARY_CHARGE_AF_V
        q = n - induced
        energy_e2_per_af = 0.5 * q @ self.inverse_dot_dot @ q
        return float(energy_e2_per_af * constants.E_SQUARED_OVER_AF_IN_MEV)

    def chemical_potential(
        self,
        dot: int,
        occupations: np.ndarray | list,
        gate_voltages: np.ndarray | list,
    ) -> float:
        """Chemical potential (meV) for adding one electron to ``dot``.

        Defined as ``mu_i(n) = U(n + e_i) - U(n)``; the ``(n) -> (n + e_i)``
        transition line is the locus ``mu_i = 0`` (at zero bias and zero
        temperature).
        """
        n = np.asarray(occupations, dtype=float)
        if not 0 <= dot < self.n_dots:
            raise CapacitanceModelError(f"dot index {dot} out of range")
        n_plus = n.copy()
        n_plus[dot] += 1
        return self.electrostatic_energy(n_plus, gate_voltages) - self.electrostatic_energy(
            n, gate_voltages
        )

    # ------------------------------------------------------------------
    # Transition-line geometry / ground-truth virtual gates
    # ------------------------------------------------------------------
    def pair_lever_arms(self, dot_a: int, dot_b: int, gate_x: int | str, gate_y: int | str) -> np.ndarray:
        """2x2 lever-arm block for two dots and two swept gates.

        Returns ``A_pair`` with ``A_pair[0] = (dA/dVx, dA/dVy)`` for ``dot_a``
        and ``A_pair[1]`` likewise for ``dot_b``, where ``Vx`` is the gate on
        the CSD x-axis and ``Vy`` the gate on the y-axis.
        """
        gx = self.gate_index(gate_x)
        gy = self.gate_index(gate_y)
        lever = self.lever_arm_matrix
        return np.array(
            [
                [lever[dot_a, gx], lever[dot_a, gy]],
                [lever[dot_b, gx], lever[dot_b, gy]],
            ]
        )

    def transition_slopes(
        self, dot_a: int, dot_b: int, gate_x: int | str, gate_y: int | str
    ) -> tuple[float, float]:
        """Analytic slopes ``(m_steep, m_shallow)`` of the two addition lines.

        The slopes are ``dVy/dVx`` of the ``dot_a`` addition line (steep,
        crossed when the x-axis gate is increased) and of the ``dot_b``
        addition line (shallow), following the convention of DESIGN.md §2.
        Both are negative for physical (non-negative) cross capacitances.
        """
        pair = self.pair_lever_arms(dot_a, dot_b, gate_x, gate_y)
        if pair[0, 1] <= 0 or pair[1, 1] <= 0 or pair[0, 0] <= 0 or pair[1, 0] <= 0:
            raise CapacitanceModelError(
                "transition slopes require strictly positive lever arms between the "
                "swept gates and both dots; add a small cross capacitance instead of zero"
            )
        m_steep = -pair[0, 0] / pair[0, 1]
        m_shallow = -pair[1, 0] / pair[1, 1]
        return float(m_steep), float(m_shallow)

    def virtualization_alphas(
        self, dot_a: int, dot_b: int, gate_x: int | str, gate_y: int | str
    ) -> tuple[float, float]:
        """Ground-truth ``(alpha_12, alpha_21)`` for the swept gate pair.

        ``alpha_12`` compensates the effect of the y-axis gate on ``dot_a``
        (whose plunger is the x-axis gate) and ``alpha_21`` the effect of the
        x-axis gate on ``dot_b``:

            V'_x = V_x + alpha_12 V_y,    alpha_12 = A[dot_a, gy] / A[dot_a, gx]
            V'_y = alpha_21 V_x + V_y,    alpha_21 = A[dot_b, gx] / A[dot_b, gy]
        """
        pair = self.pair_lever_arms(dot_a, dot_b, gate_x, gate_y)
        if pair[0, 0] <= 0 or pair[1, 1] <= 0:
            raise CapacitanceModelError(
                "each dot must couple to its own plunger gate with positive lever arm"
            )
        alpha_12 = pair[0, 1] / pair[0, 0]
        alpha_21 = pair[1, 0] / pair[1, 1]
        return float(alpha_12), float(alpha_21)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def double_dot(
        cls,
        charging_energy_mev: tuple[float, float] = (3.0, 3.0),
        mutual_fraction: float = 0.15,
        plunger_lever_arms: tuple[float, float] = (0.10, 0.10),
        cross_lever_fractions: tuple[float, float] = (0.25, 0.25),
        gate_names: tuple[str, str] = ("P1", "P2"),
    ) -> "CapacitanceModel":
        """Build a two-dot, two-plunger model from experiment-style numbers.

        Parameters
        ----------
        charging_energy_mev:
            Charging energy of each dot, meV.  Sets the total capacitances.
        mutual_fraction:
            Mutual dot-dot capacitance as a fraction of the smaller total
            capacitance (0 <= fraction < 0.5 keeps the matrix well conditioned).
        plunger_lever_arms:
            Approximate lever arm of each dot's own plunger gate.
        cross_lever_fractions:
            Cross-coupling strengths: fraction of dot *i*'s plunger capacitance
            that the *other* plunger also presents to dot *i*.  These fractions
            are what virtual gates compensate; typical devices sit in 0.1-0.5.
        gate_names:
            Names of the two plunger gates.
        """
        ec1, ec2 = charging_energy_mev
        if ec1 <= 0 or ec2 <= 0:
            raise CapacitanceModelError("charging energies must be positive")
        if not 0 <= mutual_fraction < 0.5:
            raise CapacitanceModelError("mutual_fraction must be in [0, 0.5)")
        c1 = constants.E_SQUARED_OVER_AF_IN_MEV / ec1
        c2 = constants.E_SQUARED_OVER_AF_IN_MEV / ec2
        cm = mutual_fraction * min(c1, c2)
        cdd = np.array([[c1, -cm], [-cm, c2]])
        a1, a2 = plunger_lever_arms
        x12, x21 = cross_lever_fractions
        if not (0 < a1 < 1 and 0 < a2 < 1):
            raise CapacitanceModelError("plunger lever arms must lie in (0, 1)")
        if not (0 <= x12 < 1 and 0 <= x21 < 1):
            raise CapacitanceModelError("cross lever fractions must lie in [0, 1)")
        cg11 = a1 * c1
        cg22 = a2 * c2
        cdg = np.array([[cg11, x12 * cg11], [x21 * cg22, cg22]])
        return cls(dot_dot=cdd, dot_gate=cdg, gate_names=gate_names)

    @classmethod
    def linear_array(
        cls,
        n_dots: int,
        charging_energy_mev: float = 3.0,
        mutual_fraction: float = 0.12,
        plunger_lever_arm: float = 0.10,
        nearest_cross_fraction: float = 0.25,
        next_nearest_cross_fraction: float = 0.05,
        gate_prefix: str = "P",
    ) -> "CapacitanceModel":
        """Build an ``n_dots`` linear array with one plunger gate per dot.

        The ``rows == 1`` case of :meth:`grid_lattice`: cross capacitances
        decay with distance along the chain, each plunger coupling to its
        own dot, to nearest-neighbour dots with ``nearest_cross_fraction``
        of the plunger capacitance, and to next-nearest neighbours with
        ``next_nearest_cross_fraction``.  This mirrors the quadruple-dot
        layout of the paper's Figure 1.
        """
        if n_dots < 1:
            raise CapacitanceModelError("n_dots must be at least 1")
        return cls.grid_lattice(
            1,
            n_dots,
            charging_energy_mev=charging_energy_mev,
            mutual_fraction=mutual_fraction,
            plunger_lever_arm=plunger_lever_arm,
            nearest_cross_fraction=nearest_cross_fraction,
            next_nearest_cross_fraction=next_nearest_cross_fraction,
            gate_prefix=gate_prefix,
        )

    @classmethod
    def grid_lattice(
        cls,
        rows: int,
        cols: int,
        charging_energy_mev: float = 3.0,
        mutual_fraction: float = 0.12,
        plunger_lever_arm: float = 0.10,
        nearest_cross_fraction: float = 0.25,
        next_nearest_cross_fraction: float = 0.05,
        gate_prefix: str = "P",
    ) -> "CapacitanceModel":
        """Build a ``rows x cols`` 2-D lattice with one plunger gate per dot.

        Dots are indexed row-major (dot ``r * cols + c`` sits at lattice site
        ``(r, c)``); mutual capacitance couples 4-connected neighbours, and
        each plunger couples to its own dot, to dots at Manhattan distance 1
        with ``nearest_cross_fraction`` of the plunger capacitance and to
        dots at distance 2 with ``next_nearest_cross_fraction``.  A linear
        array (:meth:`linear_array`) is the ``rows == 1`` case.
        """
        if rows < 1 or cols < 1:
            raise CapacitanceModelError("grid_lattice needs rows >= 1 and cols >= 1")
        if charging_energy_mev <= 0:
            raise CapacitanceModelError("charging energy must be positive")
        n_dots = rows * cols
        c_total = constants.E_SQUARED_OVER_AF_IN_MEV / charging_energy_mev
        cm = mutual_fraction * c_total
        sites = [(i // cols, i % cols) for i in range(n_dots)]
        cdd = np.zeros((n_dots, n_dots))
        cg = plunger_lever_arm * c_total
        cdg = np.zeros((n_dots, n_dots))
        for i, (ri, ci) in enumerate(sites):
            cdd[i, i] = c_total
            cdg[i, i] = cg
            for j, (rj, cj) in enumerate(sites):
                distance = abs(ri - rj) + abs(ci - cj)
                if distance == 1:
                    cdd[i, j] = -cm
                    cdg[i, j] = nearest_cross_fraction * cg
                elif distance == 2:
                    cdg[i, j] = next_nearest_cross_fraction * cg
        names = tuple(f"{gate_prefix}{i + 1}" for i in range(n_dots))
        return cls(dot_dot=cdd, dot_gate=cdg, gate_names=names)
