"""One-dimensional electrostatic potential profile along the dot channel.

The paper's Figure 1(b) sketches the conduction-band potential along the
device channel: barrier gates raise the potential, plunger gates lower it, and
a well under each plunger deep enough to hold a bound state forms a dot.  This
module provides a light-weight version of that picture.  It is not used by the
extraction algorithm itself, but it is a useful substrate for

* checking that a set of plunger/barrier voltages actually forms the intended
  number of dots (a precondition for virtual-gate tuning),
* the example scripts that reproduce the Figure 1(b) style potential plot.

The model superimposes a Gaussian response for every gate: barrier gates add a
positive bump, plunger gates a negative well, each scaled by the gate voltage
and a lever arm.  Dots are identified as local minima separated by barriers
higher than a confinement threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DeviceModelError


@dataclass(frozen=True)
class GateElectrode:
    """A single electrode above the channel.

    Attributes
    ----------
    name:
        Electrode label, e.g. ``"P2"`` or ``"B3"``.
    position_nm:
        Centre of the electrode along the channel, in nanometres.
    width_nm:
        Width (Gaussian sigma) of the electrode's electrostatic footprint.
    polarity:
        +1 for plunger-style gates (positive voltage deepens the well under
        the gate), -1 for barrier-style gates (positive voltage raises the
        barrier).  The sign convention matches accumulation-mode Si/SiGe
        devices where all gate voltages are positive.
    lever_arm_mev_per_v:
        How strongly the gate moves the local potential, in meV per volt.
    """

    name: str
    position_nm: float
    width_nm: float = 40.0
    polarity: int = 1
    lever_arm_mev_per_v: float = 100.0

    def __post_init__(self) -> None:
        if self.width_nm <= 0:
            raise DeviceModelError(f"gate {self.name!r}: width_nm must be positive")
        if self.polarity not in (-1, 1):
            raise DeviceModelError(f"gate {self.name!r}: polarity must be +1 or -1")
        if self.lever_arm_mev_per_v <= 0:
            raise DeviceModelError(
                f"gate {self.name!r}: lever_arm_mev_per_v must be positive"
            )


@dataclass(frozen=True)
class PotentialWell:
    """A detected dot: location of the potential minimum and its depth."""

    position_nm: float
    depth_mev: float
    left_barrier_mev: float
    right_barrier_mev: float

    @property
    def confinement_mev(self) -> float:
        """Smaller of the two barrier heights seen from the well bottom."""
        return min(self.left_barrier_mev, self.right_barrier_mev)


class ChannelPotential:
    """Potential profile of a linear gate stack along the channel."""

    def __init__(
        self,
        gates: tuple[GateElectrode, ...],
        channel_length_nm: float | None = None,
        resolution_nm: float = 1.0,
        base_potential_mev: float = 0.0,
    ) -> None:
        if not gates:
            raise DeviceModelError("ChannelPotential requires at least one gate")
        if resolution_nm <= 0:
            raise DeviceModelError("resolution_nm must be positive")
        self._gates = tuple(gates)
        positions = [g.position_nm for g in gates]
        margin = 3.0 * max(g.width_nm for g in gates)
        length = channel_length_nm or (max(positions) + margin)
        start = min(0.0, min(positions) - margin)
        self._axis_nm = np.arange(start, length + resolution_nm, resolution_nm)
        self._base = float(base_potential_mev)

    @property
    def gates(self) -> tuple[GateElectrode, ...]:
        """The gate stack."""
        return self._gates

    def gate_by_name(self, name: str) -> GateElectrode:
        """Look up a gate by name."""
        for gate in self._gates:
            if gate.name == name:
                return gate
        raise DeviceModelError(f"unknown gate {name!r}")

    # ------------------------------------------------------------------
    def profile(self, voltages: dict[str, float]) -> np.ndarray:
        """Potential (meV) along the channel for the given gate voltages.

        Gates missing from ``voltages`` are held at 0 V.  Lower values mean a
        more attractive potential for electrons (wells).
        """
        potential = np.full_like(self._axis_nm, self._base, dtype=float)
        for gate in self._gates:
            voltage = float(voltages.get(gate.name, 0.0))
            if voltage == 0.0:
                continue
            response = np.exp(
                -0.5 * ((self._axis_nm - gate.position_nm) / gate.width_nm) ** 2
            )
            # Plunger (+1): positive voltage lowers the potential (deepens well).
            potential -= gate.polarity * gate.lever_arm_mev_per_v * voltage * response
        return potential

    def find_wells(
        self,
        voltages: dict[str, float],
        min_confinement_mev: float = 0.5,
        fermi_level_mev: float = 0.0,
    ) -> list[PotentialWell]:
        """Locate confined wells (dots) in the potential profile.

        A sample is a well candidate if it is a strict local minimum lying
        *below* the Fermi level (``fermi_level_mev``, default: the ungated
        channel potential) — raising barriers alone does not accumulate
        electrons.  A candidate is kept if the barriers on both sides rise at
        least ``min_confinement_mev`` above the well bottom.
        """
        profile = self.profile(voltages)
        wells: list[PotentialWell] = []
        n = profile.size
        for i in range(1, n - 1):
            if not (profile[i] < profile[i - 1] and profile[i] <= profile[i + 1]):
                continue
            if profile[i] >= fermi_level_mev - 1e-9:
                continue
            left_max = float(np.max(profile[: i + 1]))
            right_max = float(np.max(profile[i:]))
            well = PotentialWell(
                position_nm=float(self._axis_nm[i]),
                depth_mev=float(profile[i]),
                left_barrier_mev=left_max - float(profile[i]),
                right_barrier_mev=right_max - float(profile[i]),
            )
            if well.confinement_mev >= min_confinement_mev:
                wells.append(well)
        return wells

    def count_dots(self, voltages: dict[str, float], min_confinement_mev: float = 0.5) -> int:
        """Number of confined dots formed at the given voltages."""
        return len(self.find_wells(voltages, min_confinement_mev=min_confinement_mev))

    # ------------------------------------------------------------------
    @classmethod
    def standard_stack(
        cls, n_plungers: int = 4, pitch_nm: float = 80.0
    ) -> "ChannelPotential":
        """Alternating barrier/plunger stack: B1 P1 B2 P2 ... Pn B(n+1).

        Mirrors the device of the paper's Figure 1(a): ``n_plungers`` plunger
        gates interleaved with ``n_plungers + 1`` barrier gates.
        """
        if n_plungers < 1:
            raise DeviceModelError("n_plungers must be at least 1")
        gates: list[GateElectrode] = []
        position = 0.0
        for i in range(n_plungers):
            gates.append(
                GateElectrode(
                    name=f"B{i + 1}",
                    position_nm=position,
                    width_nm=0.35 * pitch_nm,
                    polarity=-1,
                    lever_arm_mev_per_v=60.0,
                )
            )
            position += pitch_nm / 2.0
            gates.append(
                GateElectrode(
                    name=f"P{i + 1}",
                    position_nm=position,
                    width_nm=0.4 * pitch_nm,
                    polarity=1,
                    lever_arm_mev_per_v=100.0,
                )
            )
            position += pitch_nm / 2.0
        gates.append(
            GateElectrode(
                name=f"B{n_plungers + 1}",
                position_nm=position,
                width_nm=0.35 * pitch_nm,
                polarity=-1,
                lever_arm_mev_per_v=60.0,
            )
        )
        return cls(gates=tuple(gates))
