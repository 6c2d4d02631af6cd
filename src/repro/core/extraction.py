"""What every extraction procedure shares: the fast method's name, and the
meter and gate names behind a measurement target.

The procedures themselves (the fast extractor, the Canny+Hough baseline,
the auto-tuning workflow) are compositions of this package's steps and
live in :mod:`repro.pipeline`, which imports these helpers.
"""

from __future__ import annotations

from ..exceptions import ExtractionError
from ..instrument.measurement import ChargeSensorMeter
from ..instrument.session import ExperimentSession

#: Name used in result records and report tables.
METHOD_NAME = "fast-extraction"


def resolve_meter(target: ExperimentSession | ChargeSensorMeter) -> ChargeSensorMeter:
    """The measurement meter behind a session (or the meter itself)."""
    if isinstance(target, ExperimentSession):
        return target.meter
    if isinstance(target, ChargeSensorMeter):
        return target
    raise ExtractionError(
        f"expected an ExperimentSession or ChargeSensorMeter, got {type(target).__name__}"
    )


def gate_names_for(
    target: ExperimentSession | ChargeSensorMeter,
) -> tuple[str, str]:
    """The ``(gate_x, gate_y)`` names of the measurement target's axes.

    Raises :class:`ExtractionError` when the backend exposes neither a CSD
    nor gate-name attributes: silently defaulting to ``("P1", "P2")`` (the
    historical behaviour) mislabeled results from custom backends, which
    is strictly worse than failing loudly.
    """
    meter = resolve_meter(target)
    backend = meter.backend
    csd = getattr(backend, "csd", None)
    if csd is not None:
        return csd.gate_x, csd.gate_y
    gate_x = getattr(backend, "gate_x_name", None)
    gate_y = getattr(backend, "gate_y_name", None)
    if gate_x is not None and gate_y is not None:
        return str(gate_x), str(gate_y)
    raise ExtractionError(
        f"measurement backend {type(backend).__name__} exposes neither a "
        "`csd` nor `gate_x_name`/`gate_y_name` attributes, so the extracted "
        "matrix cannot be labeled with its gate names; add those attributes "
        "to the backend (or wrap it in a DatasetBackend/DeviceBackend)"
    )
