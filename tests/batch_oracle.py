"""Scalar-stacking oracle for the batched fleet engine.

The fleet path builds its batch state straight from one build's
partition specs (:meth:`BatchLifetimeDevice.from_build`).  The path it
replaced -- one scalar ``DeviceBuild`` per device, stacked with
``from_devices``, run, and copied back into the scalar devices with
``scatter_to`` -- lives on here as the oracle the equivalence tests
compare against.  Test modules import it by name: pytest puts this
directory on ``sys.path`` because it holds the root ``conftest.py``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.sim.batch import (
    BatchLifetimeDevice,
    BatchPartition,
    SummaryBatch,
    run_lifetime_batch,
)
from repro.sim.lifetime import Partition
from repro.workloads.mobile import MobileWorkload, WorkloadConfig


def batch_partition_from_partitions(partitions: Sequence[Partition]) -> BatchPartition:
    """Stack scalar partitions (specs must match except ``waf``)."""
    if not partitions:
        raise ValueError("at least one partition required")
    base = partitions[0].spec
    canonical = replace(base, waf=0.0)
    for p in partitions[1:]:
        if replace(p.spec, waf=0.0) != canonical:
            raise ValueError(
                "batched partitions must share their spec (only waf may vary)"
            )
    batch = BatchPartition(
        base,
        len(partitions),
        waf=np.array([p.spec.waf for p in partitions], dtype=float),
    )
    states = [p.export_group_state() for p in partitions]
    stacked = {
        name: np.stack([s[name] for s in states]) for name in states[0]
    }
    batch.import_state(
        dict(
            stacked,
            cold_cursor=np.array([p._cold_cursor for p in partitions]),
            refresh_writes_gb=np.array([p.refresh_writes_gb for p in partitions]),
            retired_count=np.array([p.retired_count for p in partitions]),
            resuscitated_count=np.array(
                [p.resuscitated_count for p in partitions]
            ),
            waf=np.array([p.spec.waf for p in partitions], dtype=float),
        )
    )
    return batch


def batch_device_from_devices(devices: Sequence) -> BatchLifetimeDevice:
    """Stack scalar :class:`LifetimeDevice` instances."""
    names = list(devices[0].partitions)
    for device in devices[1:]:
        if list(device.partitions) != names:
            raise ValueError("all devices must share partition names/order")
    batch = BatchLifetimeDevice(
        {
            name: batch_partition_from_partitions(
                [device.partitions[name] for device in devices]
            )
            for name in names
        }
    )
    batch.now_years = devices[0].now_years
    return batch


def run_builds_batch(builds, summaries, config=None, fault_plans=None):
    """N scalar builds -> stack -> run -> scatter the end state back.

    Returns ``(batch_device, results)``; every build's scalar device
    ends holding its final state, as after a scalar run.
    """
    device = batch_device_from_devices([b.device for b in builds])
    results = run_lifetime_batch(
        builds[0], device, summaries, config=config, fault_plans=fault_plans
    )
    for name, partition in device.partitions.items():
        partition.scatter_to([b.device.partitions[name] for b in builds])
    for build in builds:
        build.device.now_years = device.now_years
    return device, results


def summary_batch_from_volume_arrays(per_device) -> SummaryBatch:
    """Stack per-device :meth:`MobileWorkload.daily_volume_arrays` outputs."""
    return SummaryBatch(
        day=np.asarray(per_device[0]["day"], dtype=np.int64),
        **{
            name: np.stack([np.asarray(v[name], dtype=float) for v in per_device])
            for name in ("new_media_gb", "new_other_gb", "overwrite_gb", "delete_gb")
        },
    )


def population_oracle(params: dict):
    """A population chunk the per-device way: one build and one
    ``daily_volume_arrays`` call per device, per-build fault plans.
    Returns ``(batch_device, results, builds)``."""
    from repro.runner.points import _fault_plan
    from repro.sim.baselines import ALL_BUILDERS

    days = params["days"]
    builder = ALL_BUILDERS[params.get("build", "tlc_baseline")]
    seeds = list(params["workload_seeds"])
    volumes = [
        MobileWorkload(WorkloadConfig(mix=mix, days=days, seed=ws)).daily_volume_arrays()
        for mix, ws in zip(params["mixes"], seeds)
    ]
    builds = [builder(params["capacity_gb"]) for _ in volumes]
    plans = None
    if params.get("faults"):
        plans = [
            _fault_plan(build, params["faults"], days, ws)
            for build, ws in zip(builds, seeds)
        ]
    device, results = run_builds_batch(
        builds, summary_batch_from_volume_arrays(volumes), fault_plans=plans
    )
    return device, results, builds
