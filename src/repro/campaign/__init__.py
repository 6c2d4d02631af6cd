"""Batch-tuning campaigns: declarative job grids fanned out over workers.

The paper's evaluation tunes one plunger-gate pair at a time; a production
bring-up tunes *fleets* — many devices, many gate pairs, many resolutions and
noise conditions, often comparing methods side by side.  This subpackage is
the managed layer for that workload:

* :class:`~repro.campaign.grid.CampaignGrid` declares the job grid
  (device × gate pair × resolution × noise × method × repeat) and expands it
  into :class:`~repro.campaign.grid.CampaignJob` specs with independent
  spawned seeds;
* :func:`~repro.campaign.worker.run_campaign_job` executes one job in
  isolation and condenses the outcome into a picklable record with a failure
  taxonomy;
* :class:`~repro.campaign.engine.TuningCampaign` dispatches the jobs
  through the :mod:`repro.execution` backend its one ``backend=`` spec
  names (``None`` for serial, ``"process:N"``, ``"cluster:local:N"`` —
  results are bit-identical on every backend),
  journals records to an optional JSONL checkpoint it can
  :meth:`~repro.campaign.engine.TuningCampaign.resume` from, and
  aggregates everything into a
  :class:`~repro.campaign.results.CampaignResult` that renders through the
  :mod:`repro.analysis.reporting` tables and round-trips through JSON
  (:meth:`~repro.campaign.results.CampaignResult.save` /
  :meth:`~repro.campaign.results.CampaignResult.load`).

Typical use::

    from repro.campaign import CampaignGrid, DeviceSpec, TuningCampaign

    grid = CampaignGrid(
        devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
        resolutions=(63, 100),
        noise_scales=(0.0, 1.0),
        n_repeats=5,
        seed=7,
    )
    campaign = TuningCampaign(grid, backend="process:4")
    result = campaign.run(checkpoint="campaign.jsonl")  # resumable
    print(result.format_report())
"""

from .engine import TuningCampaign, campaign_fingerprint
from .grid import KNOWN_METHODS, CampaignGrid, CampaignJob, DeviceSpec
from .results import CampaignJobRecord, CampaignResult
from .worker import (
    DEFAULT_FAULT_RETRY,
    classify_failure,
    run_campaign_job,
    worker_error_record,
)

__all__ = [
    "TuningCampaign",
    "CampaignGrid",
    "CampaignJob",
    "DEFAULT_FAULT_RETRY",
    "DeviceSpec",
    "KNOWN_METHODS",
    "CampaignJobRecord",
    "CampaignResult",
    "campaign_fingerprint",
    "classify_failure",
    "run_campaign_job",
    "worker_error_record",
]
