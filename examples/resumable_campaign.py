"""Interrupt-and-resume: a campaign that survives being killed mid-run.

A fleet-scale tuning campaign can run for hours; losing every finished job
to one crash (or one impatient ctrl-C) is not acceptable at production
scale.  This example runs the same grid three ways:

1. an uninterrupted reference run;
2. a checkpointed run that is deliberately killed partway through, leaving
   a JSONL journal holding a strict prefix of the records — which we then
   inspect as a *partial* result, exactly the way an operator would look at
   a dead run's journal;
3. a resume: ``run(checkpoint=...)`` again on that journal, which skips
   the already-completed job ids, runs only the remainder, and merges into
   a result **bit-identical** to the uninterrupted reference (compare
   through ``normalized()``, which pins the wall-clock fields — everything
   else is deterministic).

Run with::

    python examples/resumable_campaign.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import CampaignGrid, CampaignResult, DeviceSpec, TuningCampaign


class KillSwitch:
    """A progress hook that simulates the process dying after ``n`` jobs."""

    def __init__(self, after: int) -> None:
        self.after = after

    def __call__(self, done: int, total: int, record) -> None:
        print(f"  [{done}/{total}] job #{record.job_id}: {record.failure_category}")
        if done >= self.after:
            raise KeyboardInterrupt(f"simulated crash after {done} jobs")


def main() -> None:
    grid = CampaignGrid(
        devices=(
            DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),
            DeviceSpec.of("linear_array", n_dots=3),
        ),
        resolutions=(63,),
        noise_scales=(0.0, 1.0),
        n_repeats=2,
        seed=99,
    )
    journal = Path(tempfile.mkdtemp()) / "campaign.jsonl"
    print(f"grid: {grid.n_jobs} jobs, journal: {journal}")

    # 1. The uninterrupted reference.
    reference = TuningCampaign(grid).run()

    # 2. A checkpointed run that dies partway through.
    print("\nrunning with a checkpoint, crashing after 5 jobs ...")
    try:
        TuningCampaign(grid, progress=KillSwitch(after=5)).run(checkpoint=journal)
    except KeyboardInterrupt as exc:
        print(f"  crashed: {exc}")

    # The journal survives the crash; inspect the partial result.
    partial = CampaignResult.from_journal(journal, n_expected=grid.n_jobs)
    print(
        f"\njournal holds {partial.n_jobs}/{partial.n_expected} records "
        f"(partial={partial.is_partial})"
    )

    # 3. Resume by running on the same journal: journaled job ids are
    #    skipped, the rest runs, and the merged result equals the
    #    uninterrupted one bit-for-bit.
    print("\nresuming from the journal ...")
    resumed = TuningCampaign(
        grid,
        progress=lambda done, total, rec: print(f"  [{done}/{total}] job #{rec.job_id}"),
    ).run(checkpoint=journal)

    identical = resumed.normalized() == reference.normalized()
    print(f"\nresumed result bit-identical to uninterrupted run: {identical}")
    print()
    print(resumed.format_report(max_rows=8))


if __name__ == "__main__":
    main()
