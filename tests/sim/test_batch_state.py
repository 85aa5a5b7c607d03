"""Whole-shard state export/import on the batched fleet engine.

The fleet layer checkpoints shards as stacked arrays; these tests pin
that the roundtrip is lossless (continuing from imported state is
bit-identical to never exporting), that the tightened integer lanes
(int32 refreshes, int8 mode indexes) survive, and that malformed state
is rejected instead of silently reshaped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.baselines import build_sos, build_tlc_baseline
from repro.sim.batch import BatchLifetimeDevice

N = 4


def _batch(builder=build_tlc_baseline, n=N):
    return BatchLifetimeDevice.from_build(builder(32.0), n)


def _step_days(batch, days, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(days):
        writes = {
            name: (rng.random(batch.n_devices) * 3.0,
                   rng.random(batch.n_devices) * 1.5)
            for name in batch.partitions
        }
        batch.step_day(writes, np.ones(batch.n_devices, dtype=bool))


@pytest.mark.parametrize("builder", [build_tlc_baseline, build_sos],
                         ids=["tlc", "sos"])
def test_roundtrip_is_lossless(builder):
    batch = _batch(builder)
    _step_days(batch, 45)
    state = batch.export_state()

    fresh = _batch(builder)
    fresh.import_state(state)
    for name, partition in batch.partitions.items():
        for field, array in partition.export_state().items():
            assert np.array_equal(
                fresh.partitions[name].export_state()[field], array
            ), (name, field)
    assert fresh.now_years == batch.now_years

    # continuing from imported state is bit-identical to never exporting
    _step_days(batch, 30, seed=1)
    _step_days(fresh, 30, seed=1)
    assert np.array_equal(batch.capacity_gb(), fresh.capacity_gb())
    for name, partition in batch.partitions.items():
        other = fresh.partitions[name]
        assert np.array_equal(partition.wear_used_fraction(),
                              other.wear_used_fraction())
        assert np.array_equal(partition.mean_quality(batch.now_years),
                              other.mean_quality(fresh.now_years))


def test_export_does_not_alias_live_state():
    batch = _batch()
    _step_days(batch, 5)
    state = batch.export_state()
    before = {
        name: {k: v.copy() for k, v in part.items()}
        for name, part in state["partitions"].items()
    }
    _step_days(batch, 5, seed=2)
    for name, part in batch.export_state()["partitions"].items():
        assert not np.array_equal(part["pec"], before[name]["pec"])
    for name, part in state["partitions"].items():
        assert np.array_equal(part["pec"], before[name]["pec"])


def test_integer_lanes_stay_tight():
    batch = _batch()
    _step_days(batch, 20)
    for partition in batch.partitions.values():
        assert partition._refreshes.dtype == np.int32
        assert partition._mode_idx.dtype == np.int8
    state = batch.export_state()
    fresh = _batch()
    fresh.import_state(state)
    for partition in fresh.partitions.values():
        assert partition._refreshes.dtype == np.int32
        assert partition._mode_idx.dtype == np.int8


def test_import_rejects_wrong_shapes():
    batch = _batch()
    state = batch.export_state()
    name = next(iter(state["partitions"]))
    bad = dict(state["partitions"][name])
    bad["pec"] = bad["pec"][:-1]
    with pytest.raises(ValueError, match="shape"):
        batch.partitions[name].import_state(bad)


def test_import_rejects_unknown_mode_bits():
    batch = _batch()
    state = batch.export_state()
    name = next(iter(state["partitions"]))
    bad = dict(state["partitions"][name])
    bad["mode_bits"] = np.zeros_like(bad["mode_bits"])  # 0 bits: no mode
    with pytest.raises(ValueError, match="resuscitation ladder"):
        batch.partitions[name].import_state(bad)


def test_device_import_rejects_mismatched_partitions():
    batch = _batch()
    state = batch.export_state()
    state["partitions"] = {"nope": next(iter(state["partitions"].values()))}
    with pytest.raises(ValueError, match="partitions"):
        batch.import_state(state)
