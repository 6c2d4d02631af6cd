"""Distributed campaign: the same grid, serial and on a local cluster.

The cluster backend is execution policy, not content: a campaign run on
``backend="cluster:local:N"`` leases jobs over the real TCP wire protocol
to N spawn-start worker subprocesses — adaptive lease sizing, work
stealing, cache-affine placement, heartbeat-based death detection — and
still produces records **bit-identical** to the serial reference.  This
example demonstrates exactly that:

1. a serial reference run;
2. the same grid on a 2-worker local cluster, compared through
   ``normalized()`` (which pins wall clocks and strips execution policy,
   the only fields that legitimately differ);
3. the scheduling counters (`ClusterStats`) the coordinator accumulated
   while doing it.

For a real fleet, swap the spec for ``backend="cluster:HOST:PORT"`` and
start one worker per core on each machine::

    python -m repro.cluster worker --connect HOST:PORT

Run with::

    python examples/cluster_campaign.py
"""

from __future__ import annotations

from repro import CampaignGrid, DeviceSpec, TuningCampaign


def build_grid() -> CampaignGrid:
    return CampaignGrid(
        devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
        resolutions=(63,),
        noise_scales=(0.0, 1.0),
        methods=("fast",),
        n_repeats=2,
        seed=7,
    )


def main() -> None:
    grid = build_grid()
    print(f"grid: {grid.n_jobs} jobs\n")

    # 1. The serial reference every backend is measured against.
    serial = TuningCampaign(grid).run()
    print(f"serial:  {serial.n_succeeded}/{serial.n_jobs} succeeded "
          f"in {serial.wall_time_s:.2f}s")

    # 2. The same grid over the cluster wire.  The campaign keeps the
    #    backend its spec built, for reading the scheduling counters after.
    campaign = TuningCampaign(grid, backend="cluster:local:2")
    cluster = campaign.run()
    print(f"cluster: {cluster.n_succeeded}/{cluster.n_jobs} succeeded "
          f"in {cluster.wall_time_s:.2f}s "
          f"(spec {cluster.metadata['backend_spec']!r})\n")

    # Bit-identity: normalized() pins wall clocks and strips execution
    # policy; everything left — every record, every field — must be equal.
    assert cluster.normalized() == serial.normalized()
    print("cluster records are bit-identical to the serial reference\n")

    # 3. What the coordinator did to get there.
    stats = campaign.backend.last_stats
    print("coordinator counters:")
    for key, value in stats.as_dict().items():
        print(f"  {key:>20}: {value}")


if __name__ == "__main__":
    main()
