"""Distinct-value ECC tails are bit-identical to per-lane evaluation.

``residual_ber_many`` and ``page_failure_prob_many`` evaluate scipy's
binomial tails once per distinct RBER and gather the results back.
The per-lane bodies they replaced are kept here as the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from repro.ecc.model import CodewordSpec, page_failure_prob_many, residual_ber_many
from repro.ecc.policy import POLICIES, ProtectionLevel

SPECS = [policy.spec for policy in POLICIES.values()]
STRONG = POLICIES[ProtectionLevel.STRONG].spec


def residual_oracle(spec: CodewordSpec, rber) -> np.ndarray:
    rber = np.asarray(rber, dtype=float)
    if spec.t == 0:
        return rber.astype(float, copy=True)
    flat = rber.ravel()
    p_fail = np.where(flat > 0.0, stats.binom.sf(spec.t, spec.n, flat), 0.0)
    mean_errors = spec.n * flat
    j = np.arange(spec.t + 1, dtype=float)
    below = (j[:, None] * stats.binom.pmf(j[:, None], spec.n, flat[None, :])).sum(axis=0)
    out = np.where(p_fail > 0.0, np.maximum(0.0, mean_errors - below) / spec.n, 0.0)
    return out.reshape(rber.shape)


def page_failure_oracle(spec: CodewordSpec, rber, codewords_per_page: int) -> np.ndarray:
    rber = np.asarray(rber, dtype=float)
    p_cw = np.where(rber > 0.0, stats.binom.sf(spec.t, spec.n, rber), 0.0)
    saturated = p_cw >= 1.0
    safe = np.where(saturated, 0.0, p_cw)
    out = -np.expm1(codewords_per_page * np.log1p(-safe))
    return np.where(saturated, 1.0, out)


def _assert_same(spec, rber):
    rber = np.asarray(rber, dtype=float)
    got = residual_ber_many(spec, rber)
    want = residual_oracle(spec, rber)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for codewords in (1, 4):
        got = page_failure_prob_many(spec, rber, codewords)
        want = page_failure_oracle(spec, rber, codewords)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"t{s.t}")
@pytest.mark.parametrize(
    "rber",
    [
        np.full((50, 20), 2.5e-3),  # all lanes equal: one distinct value
        np.full((1, 1), 2.5e-3),
        np.array([2.5e-3]),
        np.array(7e-4),  # 0-d
        np.zeros((4, 20)),
        np.array([0.0, 0.0, 3e-3]),
        np.array([-0.0, 0.0, 1e-3, 1e-3]),
        np.empty(0),
        np.empty((0, 20)),
        np.empty((5, 0)),
        np.array([1.0, 0.5, 1e-12]),
    ],
    ids=lambda a: f"shape{np.shape(a)}",
)
def test_edge_arrays(spec, rber):
    _assert_same(spec, rber)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"t{s.t}")
def test_device_group_lanes(spec):
    """The fleet shape: per-device RBERs shared by wear-leveled groups,
    a few lanes off the shared value, some empty groups."""
    rng = np.random.default_rng(3)
    per_device = rng.uniform(1e-5, 6e-3, size=(40, 1))
    lanes = np.repeat(per_device, 20, axis=1)
    lanes[rng.integers(0, 40, 30), rng.integers(0, 20, 30)] = rng.uniform(0, 1e-2, 30)
    lanes[:5, :3] = 0.0
    _assert_same(spec, lanes)


@given(
    rber=arrays(
        np.float64,
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        elements=st.sampled_from([0.0, 1e-6, 3e-4, 2.5e-3, 4e-3, 1e-2, 0.3]),
    ),
    t_index=st.integers(0, len(SPECS) - 1),
)
@settings(max_examples=60, deadline=None)
def test_property_repeated_values(rber, t_index):
    _assert_same(SPECS[t_index], rber)


def test_range_check_kept():
    with pytest.raises(ValueError):
        page_failure_prob_many(STRONG, np.array([0.1, 1.5]), 1)
    with pytest.raises(ValueError):
        page_failure_prob_many(STRONG, np.array([-1e-3]), 1)
