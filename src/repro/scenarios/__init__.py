"""Time-dependent lab scenarios: named bundles of device, noise, and drift.

The physics layer can corrupt a measurement (:mod:`repro.physics.noise`) and
evolve the device underneath it (:mod:`repro.physics.drift`); the instrument
layer timestamps every probe (:class:`~repro.instrument.timing.VirtualClock`).
This subpackage ties the three together into *scenarios* — reproducible
simulated labs with a name and a physical story:

* :class:`~repro.scenarios.devices.DeviceSpec` — declarative device recipes
  (shared with the campaign grid);
* :class:`~repro.scenarios.catalog.LabScenario` — device + noise + drift +
  timing behind one constructor, measured through its
  ``session_factory``;
* the registry (:func:`~repro.scenarios.catalog.get_scenario`,
  :func:`~repro.scenarios.catalog.register_scenario`,
  :func:`~repro.scenarios.catalog.scenario_names`) with ~10 built-in
  conditions from ``quiet_lab`` to ``overnight_run``.

Typical use::

    from repro.scenarios import get_scenario

    factory = get_scenario("drifting_sensor").session_factory(resolution=100)
    session = factory.make(seed=7)
    result = FastVirtualGateExtractor().extract(session)
"""

from ..physics.drift import DeviceDrift, DeviceDriftState
from .catalog import (
    LabScenario,
    all_scenarios,
    get_scenario,
    register_scenario,
    scaled_scenario,
    scenario_catalogue,
    scenario_names,
    unregister_scenario,
)
from .devices import DEVICE_FACTORIES, DeviceSpec

__all__ = [
    "DeviceDrift",
    "DeviceDriftState",
    "LabScenario",
    "all_scenarios",
    "get_scenario",
    "register_scenario",
    "scaled_scenario",
    "scenario_catalogue",
    "scenario_names",
    "unregister_scenario",
    "DEVICE_FACTORIES",
    "DeviceSpec",
]
