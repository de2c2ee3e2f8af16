"""Recommendation formulas: concrete values, monotonicity, and the bound chain."""
import math

import pytest

from ringlab.adversary import run_campaign
from ringlab.errors import DomainError, InvalidBeta, NoFeasibleK
from ringlab.graph import Partition
from ringlab.recommend import (
    core_mismatch_bound,
    minimal_decoys_numeric,
    recommend,
    recommended_decoys,
    recommended_decoys_black_marble,
)
from ringlab.samplers import RandomSource, Regular, SamplerConfig


def test_recommended_decoys_reference_values():
    assert recommended_decoys(2**64) == 55
    assert recommended_decoys(1) == 2
    # direct evaluation for the 2^64 case
    log_term = math.log(2 * 2**64)
    assert math.ceil(log_term + math.sqrt(2 * log_term)) == 55


def test_recommended_decoys_security_level():
    k = recommended_decoys(2**64)
    assert 2 / (k + 1) == 2 / 56
    assert 2 / (k + 1) <= 1 / 28


def test_recommended_decoys_monotone():
    values = [recommended_decoys(n) for n in (1, 10, 10**3, 10**6, 2**32, 2**64, 2**96)]
    assert values == sorted(values)


def test_recommended_decoys_rejects_zero_users():
    with pytest.raises(DomainError):
        recommended_decoys(0)


# -- numeric scan --------------------------------------------------------------------


def test_minimal_decoys_numeric_below_closed_form():
    for exp in (10, 20, 40, 64):
        n = 2**exp
        k_num = minimal_decoys_numeric(1, n)
        assert k_num <= recommended_decoys(n)
        # returned k satisfies the inequality, k-1 does not
        assert core_mismatch_bound(1, n, k_num) <= 1 / (k_num + 1)
        assert core_mismatch_bound(1, n, k_num - 1) > 1 / k_num


def test_minimal_decoys_numeric_infeasible_chunk_of_four():
    # all three candidate decoy counts fail the inequality:
    #   k=1: 0.947 > 1/2,  k=2: 0.661 > 1/3,  k=3: 0.328 > 1/4
    assert core_mismatch_bound(1, 4, 1) > 1 / 2
    assert core_mismatch_bound(1, 4, 2) > 1 / 3
    assert core_mismatch_bound(1, 4, 3) > 1 / 4
    with pytest.raises(NoFeasibleK):
        minimal_decoys_numeric(1, 4)


def test_minimal_decoys_numeric_validation():
    with pytest.raises(DomainError):
        minimal_decoys_numeric(1, 1)
    with pytest.raises(DomainError):
        minimal_decoys_numeric(0, 8)


# -- black marble adjustment ------------------------------------------------------------


def test_black_marble_zero_beta_reduces_exactly():
    for n in (10, 2**20, 2**64):
        assert recommended_decoys_black_marble(n, 0.0) == recommended_decoys(n)


def test_black_marble_half_beta_reference():
    # ln(2 * 0.5 * 2^64) = ln(2^64): the doubling and the halving cancel
    log_term = math.log(2**64)
    expected = math.ceil((log_term + math.sqrt(2 * log_term)) / 0.5)
    assert recommended_decoys_black_marble(2**64, 0.5) == expected


def test_black_marble_monotone_in_beta():
    values = [
        recommended_decoys_black_marble(2**64, beta)
        for beta in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_black_marble_domain_errors():
    with pytest.raises(InvalidBeta):
        recommended_decoys_black_marble(2**64, 1.0)
    with pytest.raises(DomainError):
        recommended_decoys_black_marble(2, 0.75)  # 2*(1-b)*2 = 1


# -- mismatch bound -----------------------------------------------------------------------


def test_core_mismatch_bound_vanishes_for_large_k():
    n = 1000
    assert core_mismatch_bound(1, n, math.log(n) + 40) < 1e-15


def test_core_mismatch_bound_closed_form_point():
    # chunk_size = e makes the inner exponent exactly 1 - k
    val = core_mismatch_bound(1, math.e, 0)
    assert val == pytest.approx(1 - math.exp(-2 * math.e), rel=1e-12)


def test_core_mismatch_bound_clamped():
    assert core_mismatch_bound(50, 1000, 0) == 1.0
    assert core_mismatch_bound(1, 8, 100) >= 0.0


def test_core_mismatch_bound_dominates_monte_carlo():
    # end to end: measured Pr[G != core(G)] for a regular sampler stays
    # below the analytic bound (the 95% Wilson interval reaches it)
    n_chunks, chunk_size, k = 4, 64, 6
    cfg = SamplerConfig(
        Partition.equal_chunks(n_chunks * chunk_size, chunk_size), Regular(k)
    )
    result = run_campaign(
        cfg, n_chunks * chunk_size, "trivial", 8000, RandomSource(33)
    )
    bound = core_mismatch_bound(n_chunks, chunk_size, k)
    assert result.core_mismatch.ci_low <= bound


# -- theorem chain ---------------------------------------------------------------------


def test_recommended_k_satisfies_bound_chain_on_equal_chunks():
    # at the recommended k, the per-partition mismatch bound stays below
    # the 1/(k+1) budget whenever |U| = n_chunks * chunk_size
    for n_chunks, chunk_size in [(1, 10**6), (10, 10**5), (1000, 1000), (2**32, 2**32)]:
        n_users = n_chunks * chunk_size
        k = recommended_decoys(n_users)
        assert core_mismatch_bound(n_chunks, chunk_size, k) <= 1 / (k + 1)


def test_recommended_k_satisfies_lambert_route_condition():
    # intermediate sufficient condition k >= ln(2 * chunk_size * n_chunks * (k+1))
    for n_chunks, chunk_size in [(1, 2**20), (16, 2**16), (2**10, 2**10), (1, 2)]:
        k = recommended_decoys(n_chunks * chunk_size)
        assert k >= math.log(2 * chunk_size * n_chunks * (k + 1))


def test_recommend_bundle():
    r = recommend(2**64)
    assert r.k_closed_form == 55 and r.k_numeric is None
    assert r.target_security == 2 / 56
    r2 = recommend(2**40, n_chunks=16, chunk_size=2**16)
    assert r2.k_numeric is not None
    assert r2.k_numeric <= r2.k_closed_form
    with pytest.raises(NoFeasibleK):
        recommend(16, n_chunks=4, chunk_size=4)