"""No-trigger corpus: same-package, downward and stdlib imports from ``core/``."""

import json

import numpy as np

from repro.instrument.measurement import ChargeSensorMeter
from repro.physics import DotArrayDevice

from ..exceptions import ExtractionError
from .anchors import AnchorFinder


def late_import():
    from repro.core.config import ExtractionConfig

    from ..scenarios import get_scenario

    return ExtractionConfig, get_scenario
