"""Scalar-vs-batched fleet engine equivalence.

The batched engine's contract (see ``repro.sim.batch``): integer
observables (sample days, retire/resuscitate counters, fault counters)
match the per-device scalar engine exactly; float observables match to
tight relative tolerance (bit-identical while every group is alive, and
only pairwise-summation tree order once groups retire).  These tests pin
that contract for deterministic configurations, under fault plans, and
property-based over random workload mixes and fleet sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs import merge_snapshots, observed, strip_timings
from repro.sim import (
    BatchLifetimeDevice,
    SummaryBatch,
    build_sos,
    build_tlc_baseline,
    run_lifetime,
    run_lifetime_batch,
)
from repro.workloads.mobile import MobileWorkload, WorkloadConfig

from batch_oracle import run_builds_batch

MIX_NAMES = ("light", "typical", "heavy", "adversarial")

FAULT_CONFIG = FaultConfig(
    block_infant_mortality=0.05,
    transient_read_rate=0.02,
    power_loss_rate=0.01,
    cloud_outage_rate=0.01,
)

#: float observables on a DaySample (ints are compared exactly)
SAMPLE_FLOATS = (
    "capacity_gb",
    "sys_wear_fraction",
    "spare_wear_fraction",
    "spare_quality",
    "sys_uncorrectable",
)


def _workloads(mixes, days, seed_base=1000):
    return [
        MobileWorkload(
            WorkloadConfig(mix=mix, days=days, seed=seed_base + i)
        ).daily_summaries()
        for i, mix in enumerate(mixes)
    ]


def _plans(builder, n, days, seed_base=7000):
    targets = (
        {"main": 20} if builder is build_tlc_baseline else {"sys": 20, "spare": 20}
    )
    return [
        FaultPlan.generate(FAULT_CONFIG, seed_base + i, days, targets)
        for i in range(n)
    ]


def _run_both(builder, mixes, days, with_faults=False):
    workloads = _workloads(mixes, days)
    plans = _plans(builder, len(mixes), days) if with_faults else None
    scalar_builds = [builder() for _ in mixes]
    scalar = [
        run_lifetime(b, w, fault_plan=(plans[i] if plans else None))
        for i, (b, w) in enumerate(zip(scalar_builds, workloads))
    ]
    batch_builds = [builder() for _ in mixes]
    _, batched = run_builds_batch(
        batch_builds, SummaryBatch.from_summaries(workloads), fault_plans=plans
    )
    return scalar, batched, scalar_builds, batch_builds


def _assert_equivalent(scalar, batched, scalar_builds, batch_builds, rel=1e-9):
    for i, (s, b) in enumerate(zip(scalar, batched)):
        assert len(s.samples) == len(b.samples)
        for ss, bs in zip(s.samples, b.samples):
            assert (ss.day, ss.retired_groups, ss.resuscitated_groups) == (
                bs.day, bs.retired_groups, bs.resuscitated_groups,
            ), f"device {i} day {ss.day}"
            assert ss.years == bs.years
            for field in SAMPLE_FLOATS:
                a, c = getattr(ss, field), getattr(bs, field)
                assert a == pytest.approx(c, rel=rel, abs=1e-12), (i, field)
        if s.faults is not None or b.faults is not None:
            assert s.faults.as_dict() == b.faults.as_dict(), f"device {i}"
    # the engines hand their end state back to the device objects; the
    # fleets must agree there too, not just in the sampled series
    for i, (sb, bb) in enumerate(zip(scalar_builds, batch_builds)):
        assert sb.device.now_years == bb.device.now_years
        for name, sp in sb.device.partitions.items():
            bp = bb.device.partitions[name]
            s_state = sp.export_group_state()
            b_state = bp.export_group_state()
            for key in s_state:
                np.testing.assert_allclose(
                    s_state[key], b_state[key], rtol=rel, atol=1e-12,
                    err_msg=f"device {i} partition {name} field {key}",
                )
            assert sp.retired_count == bp.retired_count
            assert sp.resuscitated_count == bp.resuscitated_count


def test_batch_matches_scalar_tlc_bit_identical():
    """Fault-free TLC fleets stay *bit-identical*, not just close."""
    scalar, batched, sb, bb = _run_both(
        build_tlc_baseline, ["light", "typical", "heavy", "adversarial"], 180
    )
    _assert_equivalent(scalar, batched, sb, bb, rel=0.0)


def test_batch_matches_scalar_sos():
    scalar, batched, sb, bb = _run_both(
        build_sos, ["typical", "heavy", "adversarial", "light", "heavy"], 200
    )
    _assert_equivalent(scalar, batched, sb, bb)


@pytest.mark.parametrize("builder", [build_tlc_baseline, build_sos])
def test_batch_matches_scalar_under_fault_plan(builder):
    scalar, batched, sb, bb = _run_both(
        builder, ["typical", "heavy", "light"], 180, with_faults=True
    )
    _assert_equivalent(scalar, batched, sb, bb)


def test_single_device_batch_degenerates_to_scalar():
    scalar, batched, sb, bb = _run_both(build_sos, ["heavy"], 120)
    _assert_equivalent(scalar, batched, sb, bb)


@given(
    mixes=st.lists(st.sampled_from(MIX_NAMES), min_size=1, max_size=5),
    days=st.integers(min_value=30, max_value=150),
    use_sos=st.booleans(),
    with_faults=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_batch_equivalence_property(mixes, days, use_sos, with_faults):
    """Any mix of workloads, fleet size, build, and fault plan agrees."""
    builder = build_sos if use_sos else build_tlc_baseline
    scalar, batched, sb, bb = _run_both(builder, mixes, days, with_faults)
    _assert_equivalent(scalar, batched, sb, bb)


def test_batch_obs_counters_match_scalar_runs():
    """One batched run reports the same deterministic metrics rollup as
    the equivalent per-device scalar runs (span *call* counts included;
    wall times are stripped, histogram totals float-compared)."""
    mixes = ["typical", "heavy", "light"]
    days = 90
    workloads = _workloads(mixes, days)
    with observed(trace=True) as scalar_obs:
        for i, w in enumerate(workloads):
            run_lifetime(build_tlc_baseline(), w)
    with observed(trace=True) as batch_obs:
        build = build_tlc_baseline()
        run_lifetime_batch(
            build,
            BatchLifetimeDevice.from_build(build, len(mixes)),
            SummaryBatch.from_summaries(workloads),
        )
    scalar_snap = strip_timings(merge_snapshots(scalar_obs.registry.snapshot()))
    batch_snap = strip_timings(merge_snapshots(batch_obs.registry.snapshot()))
    assert scalar_snap["counters"] == batch_snap["counters"]
    assert scalar_snap["spans"] == batch_snap["spans"]
    assert scalar_snap["histograms"].keys() == batch_snap["histograms"].keys()
    for name, hist in scalar_snap["histograms"].items():
        other = batch_snap["histograms"][name]
        assert hist["bounds"] == other["bounds"]
        assert hist["counts"] == other["counts"]
        assert hist["count"] == other["count"]
        assert hist["total"] == pytest.approx(other["total"], rel=1e-12)
    # the batched trace carries the same events, tagged with device ids
    assert len(batch_obs.events) == len(scalar_obs.events)


def test_batch_rejects_mismatched_inputs():
    w = _workloads(["typical", "light"], 30)
    tlc = build_tlc_baseline()
    with pytest.raises(ValueError, match="partitions"):
        run_lifetime_batch(
            tlc, BatchLifetimeDevice.from_build(build_sos(), 2),
            SummaryBatch.from_summaries(w),
        )
    with pytest.raises(ValueError, match="volumes"):
        run_lifetime_batch(
            tlc, BatchLifetimeDevice.from_build(tlc, 3),
            SummaryBatch.from_summaries(w),
        )
    with pytest.raises(ValueError, match="fault plans"):
        run_lifetime_batch(
            tlc, BatchLifetimeDevice.from_build(tlc, 2),
            SummaryBatch.from_summaries(w), fault_plans=[None],
        )
    with pytest.raises(ValueError):
        BatchLifetimeDevice.from_build(tlc, 0)
