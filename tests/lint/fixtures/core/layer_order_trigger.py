"""Trigger corpus: three imports that point up the order from ``core/``.

``core`` sits below ``pipeline``, ``analysis`` and ``campaign`` in
``LAYERS``.  The pragma on the relative import waives nothing: the
``layer-order`` rule takes none.
"""

from repro.campaign import TuningCampaign

from ..pipeline import get_pipeline  # repro: allow[layer-order] -- tries to waive it


def late_import():
    from repro.analysis.reporting import format_table

    return TuningCampaign, get_pipeline, format_table
