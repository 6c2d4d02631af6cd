"""Instrument simulation: sessions, dwell-time accounting, and the meter's pixel cache.

This subpackage reproduces the *cost model* of the real experiment: every
probed voltage point takes a dwell time (50 ms in the paper), so runtime is
dominated by how many points an algorithm asks for, not by computation.
"""

from .measurement import (
    ChargeSensorMeter,
    DatasetBackend,
    DeviceBackend,
    MeasurementBackend,
    MeterSnapshot,
)
from .resilience import ProbeRetryPolicy
from .session import ExperimentSession, SessionFactory
from .timing import TimingModel, VirtualClock

__all__ = [
    "ChargeSensorMeter",
    "DatasetBackend",
    "DeviceBackend",
    "MeasurementBackend",
    "MeterSnapshot",
    "ProbeRetryPolicy",
    "ExperimentSession",
    "SessionFactory",
    "TimingModel",
    "VirtualClock",
]
