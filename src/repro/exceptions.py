"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated Python errors.
The hierarchy mirrors the package layout: physics/device construction errors,
instrument (measurement) errors, dataset errors, and extraction errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A configuration object contains invalid or inconsistent values."""


class DeviceModelError(ReproError):
    """A device physics model could not be constructed or is unphysical."""


class CapacitanceModelError(DeviceModelError):
    """A capacitance matrix is singular, asymmetric, or has wrong signs."""


class ChargeStateError(DeviceModelError):
    """A charge-state computation received an invalid occupation vector."""


class SensorModelError(DeviceModelError):
    """A charge-sensor model is misconfigured."""


class MeasurementError(ReproError):
    """A simulated measurement could not be performed."""


class ProbeBudgetExceededError(MeasurementError):
    """The experiment session exceeded its configured probe budget."""


class InstrumentFault(MeasurementError):
    """A probe failed for instrument reasons (as opposed to a bad request).

    This is the typed surface of the :mod:`repro.faults` injection layer and
    of the resilience machinery that tolerates it: exhausted retries, probe
    timeouts, and a tripped circuit breaker all raise a subclass, so callers
    can distinguish "the lab is misbehaving" from "the request was invalid"
    (a plain :class:`MeasurementError`) or "the budget ran out"
    (:class:`ProbeBudgetExceededError`).
    """


class TransientReadError(InstrumentFault):
    """A probe read failed transiently; an immediate retry may succeed."""


class ProbeTimeoutError(InstrumentFault):
    """A probe stalled longer than the retry policy's timeout budget."""


class CircuitBreakerOpenError(InstrumentFault):
    """Too many consecutive probe failures; the meter stopped trying."""


class WorkerCrashError(ReproError):
    """An execution worker died (or was deterministically made to die).

    Raised in-process by the serial backend when a crash fault fires, and
    synthesised by the campaign loop from the
    :class:`~repro.execution.base.WorkerCrash` marker a backend yields when
    a worker hard-exits; either way the job becomes a ``worker_error``
    record instead of aborting the campaign.
    """


class ClusterProtocolError(ReproError):
    """The cluster wire protocol was violated or a peer misbehaved.

    Raised by :mod:`repro.cluster` when a frame is malformed, a message
    arrives out of protocol order (e.g. work before registration), or no
    worker registers within the coordinator's timeout.  Worker *death* is
    not a protocol error — it is condensed into
    :class:`~repro.execution.base.WorkerCrash` markers and handled by
    re-leasing, exactly like a broken process pool.
    """


class DatasetError(ReproError):
    """A benchmark dataset could not be generated, loaded, or validated."""


class ExtractionError(ReproError):
    """Virtual gate extraction failed in a way that cannot be recovered."""


class AnchorSearchError(ExtractionError):
    """The anchor-point preprocessing step could not locate anchor points."""


class SweepError(ExtractionError):
    """A row- or column-major sweep could not locate any transition points."""


class FitError(ExtractionError):
    """The piece-wise linear fit of the transition lines was refused.

    The fit is solved exactly, so it never fails to converge; it refuses
    points of the wrong shape, too few or non-finite points, anchors out of
    their arrangement, and a point set that leaves the intersection
    undetermined (every point on an anchor's abscissa).
    """


class BaselineError(ExtractionError):
    """The Canny/Hough baseline pipeline failed to produce transition lines."""
