"""The stacked write-volume generator reproduces per-device generation.

The fleet path generates a whole chunk's daily volumes in one stacked
pass; each row must equal what that device's own
``MobileWorkload.daily_volume_arrays`` produces, bit for bit, for
mixed and single-mix chunks alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.apps import USER_MIXES
from repro.workloads.mobile import (
    MobileWorkload,
    WorkloadConfig,
    stacked_write_volumes,
)

FIELDS = ("new_media_gb", "new_other_gb", "overwrite_gb", "delete_gb")
MIXES = sorted(USER_MIXES)


def _assert_rows_match(configs):
    stacked = stacked_write_volumes(configs)
    assert np.array_equal(stacked["day"], np.arange(configs[0].days))
    for i, config in enumerate(configs):
        own = MobileWorkload(config).daily_volume_arrays()
        for field in FIELDS:
            assert stacked[field].shape == (len(configs), config.days)
            assert stacked[field][i].tobytes() == own[field].tobytes(), (i, field)


@given(
    mixes=st.lists(st.sampled_from(MIXES), min_size=1, max_size=6),
    seeds=st.lists(st.integers(0, 2**63 - 1), min_size=6, max_size=6),
    days=st.integers(1, 1100),
)
@settings(max_examples=25, deadline=None)
def test_mixed_chunks_bit_identical(mixes, seeds, days):
    _assert_rows_match(
        [WorkloadConfig(mix=m, days=days, seed=s) for m, s in zip(mixes, seeds)]
    )


@given(
    mix=st.sampled_from(MIXES),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    days=st.integers(1, 1100),
)
@settings(max_examples=15, deadline=None)
def test_single_mix_chunks_bit_identical(mix, seeds, days):
    _assert_rows_match([WorkloadConfig(mix=mix, days=days, seed=s) for s in seeds])


def test_per_device_jitter_and_delete_fraction():
    configs = [
        WorkloadConfig(mix="typical", days=40, seed=1, daily_jitter_sigma=0.1),
        WorkloadConfig(mix="typical", days=40, seed=1, delete_fraction=0.9),
        WorkloadConfig(mix="heavy", days=40, seed=2),
    ]
    _assert_rows_match(configs)


def test_rejects_bad_chunks():
    with pytest.raises(ValueError):
        stacked_write_volumes([])
    with pytest.raises(ValueError, match="day count"):
        stacked_write_volumes([WorkloadConfig(days=5), WorkloadConfig(days=6)])
    with pytest.raises(ValueError, match="mix"):
        stacked_write_volumes([WorkloadConfig(mix="nope", days=5)])
