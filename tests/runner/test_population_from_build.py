"""The spec-built population path matches the per-device oracle.

Population chunks build their batch state once, from one build's
partition specs, and generate their volumes in one stacked pass.  The
path it replaced -- N scalar builds, per-device volume arrays, stacked
with ``from_devices``, run, scattered back -- is the oracle
(``tests/batch_oracle.py``).  End states and every sampled day must be
bit-identical, faults and per-device WAF included.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.runner.points import (
    _population_batch_run,
    population_batch_observables,
    sensitivity_batch_point,
)
from repro.sim.baselines import build_sos
from repro.sim.batch import BatchLifetimeDevice, SummaryBatch, run_lifetime_batch
from repro.workloads.mobile import WorkloadConfig, stacked_write_volumes

from batch_oracle import population_oracle, run_builds_batch

FAULTS = {
    "block_infant_mortality": 0.05,
    "transient_read_rate": 0.02,
    "power_loss_rate": 0.01,
    "cloud_outage_rate": 0.01,
}


def _params(build, days, faults=None):
    params = {
        "mixes": ["typical", "heavy", "light", "adversarial", "typical", "heavy"],
        "workload_seeds": [1000, 1001, 1002, 1003, 1004, 1005],
        "capacity_gb": 64.0,
        "days": days,
        "build": build,
    }
    if faults:
        params["faults"] = faults
    return params


def _assert_states_equal(expected: dict, actual: dict):
    assert expected["now_years"] == actual["now_years"]
    assert expected["partitions"].keys() == actual["partitions"].keys()
    for name, fields in expected["partitions"].items():
        other = actual["partitions"][name]
        assert fields.keys() == other.keys()
        for field, array in fields.items():
            assert array.dtype == other[field].dtype, (name, field)
            assert array.tobytes() == other[field].tobytes(), (name, field)


def _assert_results_equal(expected, actual):
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        assert (want.build_name, want.capacity_gb, want.intensity_kg_per_gb) == (
            got.build_name, got.capacity_gb, got.intensity_kg_per_gb,
        )
        assert want.samples == got.samples  # DaySample is a dataclass: exact ==
        if want.faults is None:
            assert got.faults is None
        else:
            assert want.faults.as_dict() == got.faults.as_dict()


@pytest.mark.parametrize(
    "build, days, faults",
    [
        ("tlc_baseline", 200, None),
        ("sos", 400, None),
        ("sos", 300, FAULTS),
        ("tlc_baseline", 150, FAULTS),
    ],
    ids=["tlc", "sos", "sos-faults", "tlc-faults"],
)
def test_population_chunk_matches_oracle(build, days, faults):
    params = _params(build, days, faults)
    device, results = _population_batch_run(params)
    oracle_device, oracle_results, builds = population_oracle(params)
    _assert_states_equal(oracle_device.export_state(), device.export_state())
    _assert_results_equal(oracle_results, results)
    # the scattered scalar devices hold the same per-device slices
    state = device.export_state()["partitions"]
    for d, scalar in enumerate(builds):
        for name, partition in scalar.device.partitions.items():
            for field, array in partition.export_group_state().items():
                assert np.array_equal(array, state[name][field][d]), (d, name, field)
    # the observable columns come from the same results
    obs = population_batch_observables(params, 0)
    assert obs["wear"].tolist() == [r.final.sys_wear_fraction for r in oracle_results]


def test_sensitivity_row_matches_oracle():
    """A6 row: per-device WAF through ``from_build(waf=...)`` equals N
    waf-replaced scalar builds, and the returned rows are unchanged."""
    from repro.flash.cell import CellTechnology
    from repro.flash.reliability import ENDURANCE_TABLE

    wafs = [1.5, 2.5, 4.0, 6.0]
    params = {"plc_pec": 600, "wafs": wafs, "capacity_gb": 64.0,
              "mix": "heavy", "days": 500, "workload_seed": 21}
    rows = sensitivity_batch_point(params, 0)

    workload = WorkloadConfig(mix="heavy", days=500, seed=21)
    summaries = SummaryBatch(**stacked_write_volumes([workload] * len(wafs)))
    original = ENDURANCE_TABLE[CellTechnology.PLC]
    ENDURANCE_TABLE[CellTechnology.PLC] = dataclasses.replace(original, rated_pec=600)
    try:
        builds = []
        for waf in wafs:
            build = build_sos(64.0)
            for part in build.device.partitions.values():
                part.spec = dataclasses.replace(part.spec, waf=waf)
            builds.append(build)
        oracle_device, oracle_results = run_builds_batch(builds, summaries)
        build = build_sos(64.0)
        device = BatchLifetimeDevice.from_build(build, len(wafs), waf=np.array(wafs))
        results = run_lifetime_batch(build, device, summaries)
    finally:
        ENDURANCE_TABLE[CellTechnology.PLC] = original
    _assert_states_equal(oracle_device.export_state(), device.export_state())
    _assert_results_equal(oracle_results, results)
    assert [row["sys_wear"] for row in rows] == [
        r.final.sys_wear_fraction for r in oracle_results
    ]
    assert [row["quality"] for row in rows] == [
        r.final.spare_quality for r in oracle_results
    ]
    assert [row["capacity_fraction"] for row in rows] == [
        r.final.capacity_gb / 64.0 for r in oracle_results
    ]
