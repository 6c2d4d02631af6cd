"""Declarative device recipes shared by scenarios and campaigns.

A :class:`DeviceSpec` names a :class:`~repro.physics.dot_array.DotArrayDevice`
factory plus its keyword arguments, so a simulated device can be described by
plain values — hashable, picklable, and cheap to ship into worker processes —
and only *built* where it is needed.  Both the scenario catalogue
(:mod:`repro.scenarios.catalog`) and the campaign grid
(:mod:`repro.campaign.grid`) declare their devices this way.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError
from ..physics.dot_array import DotArrayDevice

#: The device factories a spec may name: each is a classmethod of
#: :class:`~repro.physics.dot_array.DotArrayDevice` that builds a device from
#: keyword arguments.  Naming the factory keeps specs declarative and
#: trivially picklable.
DEVICE_FACTORIES: tuple[str, ...] = (
    "double_dot",
    "linear_array",
    "quadruple_dot",
    "grid_array",
)


@dataclass(frozen=True)
class DeviceSpec:
    """Declarative recipe for building one simulated device.

    ``kwargs`` is stored as a sorted tuple of ``(name, value)`` pairs so the
    spec stays hashable and picklable; use :meth:`DeviceSpec.of` to build one
    from ordinary keyword arguments.
    """

    factory: str = "double_dot"
    kwargs: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.factory not in DEVICE_FACTORIES:
            raise ConfigurationError(
                f"unknown device factory {self.factory!r}; "
                f"known: {sorted(DEVICE_FACTORIES)}"
            )

    @classmethod
    def of(cls, factory: str = "double_dot", **kwargs) -> "DeviceSpec":
        """Build a spec from keyword arguments."""
        return cls(factory=factory, kwargs=tuple(sorted(kwargs.items())))

    def build(self) -> DotArrayDevice:
        """Construct the device."""
        builder = getattr(DotArrayDevice, self.factory)
        return builder(**dict(self.kwargs))

    @property
    def label(self) -> str:
        """Short human-readable identifier."""
        parts = [f"{k}={v}" for k, v in self.kwargs]
        return self.factory if not parts else f"{self.factory}({', '.join(parts)})"
