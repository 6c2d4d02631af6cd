"""Physical constants and unit helpers used by the device models.

The capacitance model works internally in a reduced unit system:

* voltages in volts (V),
* capacitances in attofarads (aF), the natural scale of gate-defined quantum
  dots (total dot capacitances are tens to hundreds of aF),
* charge in units of the elementary charge ``e``,
* energies in milli-electron-volts (meV).

Keeping the numbers near unity avoids conditioning problems when inverting
Maxwell capacitance matrices and makes parameter files human readable.
"""

from __future__ import annotations

import math

from ..exceptions import ConfigurationError

#: Elementary charge in coulombs.
ELEMENTARY_CHARGE_C: float = 1.602176634e-19

#: Elementary charge in units of aF * V (1 aF * 1 V = 1e-18 C).
#: Dividing by this converts a charge expressed in aF*V into electrons.
ELEMENTARY_CHARGE_AF_V: float = ELEMENTARY_CHARGE_C * 1e18  # ~0.1602 aF*V

#: Boltzmann constant in meV / K.
BOLTZMANN_MEV_PER_K: float = 0.08617333262

#: Conversion from (e^2 / aF) to meV:  e / (1 aF) = 0.1602 V = 160.2 meV per e.
E_SQUARED_OVER_AF_IN_MEV: float = ELEMENTARY_CHARGE_AF_V * 1e3

#: Typical electron temperature of a dilution-refrigerator experiment (K).
DEFAULT_ELECTRON_TEMPERATURE_K: float = 0.1


def thermal_energy_mev(temperature_k: float) -> float:
    """Return ``k_B * T`` in meV for a temperature in kelvin.

    Parameters
    ----------
    temperature_k:
        Electron temperature in kelvin. Must be non-negative.
    """
    if temperature_k < 0:
        raise ConfigurationError(f"temperature must be non-negative, got {temperature_k}")
    return BOLTZMANN_MEV_PER_K * temperature_k


def charging_energy_mev(total_capacitance_af: float) -> float:
    """Return the charging energy ``e^2 / C`` in meV for a capacitance in aF.

    Parameters
    ----------
    total_capacitance_af:
        Total (self) capacitance of a dot in attofarads. Must be positive.
    """
    if total_capacitance_af <= 0:
        raise ConfigurationError(
            f"total capacitance must be positive, got {total_capacitance_af}"
        )
    return E_SQUARED_OVER_AF_IN_MEV / total_capacitance_af


def lever_arm_to_mev_per_volt(lever_arm: float) -> float:
    """Convert a dimensionless lever arm into meV of dot-potential per volt.

    A lever arm of 1 means the dot potential follows the gate voltage exactly,
    i.e. 1 V on the gate moves the dot chemical potential by 1 eV = 1000 meV.
    """
    return lever_arm * 1000.0


def gaussian(x: float, mu: float, sigma: float) -> float:
    """Normalised Gaussian density, used for peak shapes and window weights."""
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    z = (x - mu) / sigma
    return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
