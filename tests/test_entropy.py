"""Exact anonymity entropy against closed forms, a ring enumeration and the analytic bounds."""
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ringlab.cli import main
from ringlab.entropy import (
    DistributionDeviation,
    SignerDistribution,
    anonymity_bound_binomial,
    anonymity_bound_regular,
    anonymity_exact,
)
from ringlab.errors import HypothesisViolated, InvalidParams
from ringlab.graph import Partition
from ringlab.samplers import Binomial, Regular, SamplerConfig
from ringlab.stats import format_number


def _uniform_cfg(size, kind):
    return SamplerConfig(Partition.single(size), kind), SignerDistribution.uniform(size)


# -- exact values ---------------------------------------------------------------------


def test_regular_uniform_single_chunk_closed_form():
    for n, k in [(5, 1), (8, 3), (10, 4), (12, 2)]:
        cfg, dist = _uniform_cfg(n, Regular(k))
        assert anonymity_exact(cfg, dist) == pytest.approx(math.log(k + 1), abs=1e-10)


def test_binomial_p1_uniform_is_log_n():
    for n in (3, 6, 10):
        cfg, dist = _uniform_cfg(n, Binomial(1.0))
        assert anonymity_exact(cfg, dist) == pytest.approx(math.log(n), abs=1e-10)


def test_binomial_p0_reveals_signer():
    cfg, dist = _uniform_cfg(7, Binomial(0.0))
    assert anonymity_exact(cfg, dist) == pytest.approx(0.0, abs=1e-12)


def test_binomial_uniform_closed_form():
    # uniform weights collapse the ring sum to (1 - (1-p)^n) / (p n)
    for n, p in [(8, 0.5), (10, 0.3), (12, 0.8)]:
        cfg, dist = _uniform_cfg(n, Binomial(p))
        expected = -math.log((1 - (1 - p) ** n) / (p * n))
        assert anonymity_exact(cfg, dist) == pytest.approx(expected, abs=1e-10)


def test_exact_multi_chunk_equals_single_chunk_under_uniformity():
    # the ring already reveals its chunk, so with uniform weights the
    # anonymity is the within-chunk value: ln(k+1), independent of how
    # many identical chunks there are
    part = Partition([[0, 1, 2, 3], [4, 5, 6, 7]])
    cfg = SamplerConfig(part, Regular(1))
    dist = SignerDistribution.uniform(8)
    single = SamplerConfig(Partition.single(4), Regular(1))
    expected = anonymity_exact(single, SignerDistribution.uniform(4))
    assert anonymity_exact(cfg, dist) == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(math.log(2), abs=1e-10)


def test_exact_invariant_under_chunk_relabelling():
    part = Partition.single(6)
    weights = [0.3, 0.05, 0.25, 0.1, 0.2, 0.1]
    permuted = [0.05, 0.3, 0.1, 0.25, 0.1, 0.2]
    cfg = SamplerConfig(part, Regular(2))
    a = anonymity_exact(cfg, SignerDistribution(weights))
    b = anonymity_exact(cfg, SignerDistribution(permuted))
    assert a == pytest.approx(b, abs=1e-12)


def test_exact_above_the_old_enumeration_caps(capsys):
    # ring enumeration once stopped at chunks of 20 (regular) and 16 (binomial)
    for n, k in [(21, 2), (64, 5)]:
        cfg, dist = _uniform_cfg(n, Regular(k))
        assert anonymity_exact(cfg, dist) == pytest.approx(math.log(k + 1), abs=1e-12)
    for n, p in [(17, 0.5), (4096, 0.01)]:
        cfg, dist = _uniform_cfg(n, Binomial(p))
        expected = -math.log((1 - (1 - p) ** n) / (p * n))
        assert anonymity_exact(cfg, dist) == pytest.approx(expected, rel=1e-10)
    assert main(["entropy", "--chunk-size", "64", "--k", "5", "--exact"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == f"alpha_exact_nats {format_number(math.log(6))}"


def _enumerated_alpha(partition, weights, kind):
    """-ln sum_r max_s Pr[r | s] p(s), summed in exact fractions over every ring of every chunk.

    The oracle follows the definition: a ring of a chunk of c users is any
    subset holding its signer; the regular sampler emits each (k+1)-subset
    with probability 1/C(c-1, k) given any member, the binomial one each
    subset of size s with probability p^(s-1) (1-p)^(c-s).
    """
    total = Fraction(0)
    starts = partition._chunk_start.tolist()
    for a, b in zip(starts, starts[1:]):
        chunk, c = partition._chunk_flat[a:b].tolist(), b - a
        for size in range(1, c + 1):
            if isinstance(kind, Regular):
                if size != kind.k + 1:
                    continue
                pr = Fraction(1, math.comb(c - 1, kind.k))
            else:
                p = Fraction(kind.p)
                pr = p ** (size - 1) * (1 - p) ** (c - size)
            for ring in combinations(chunk, size):
                total += pr * max(Fraction(weights[u]) for u in ring)
    return -math.log(total)


def _oracle_instances():
    """Partitions of up to 10 users, one chunk or several, each with random weights.

    Weights are small random integers, normalised, so ties and zeros occur.
    """
    gen = random.Random(21)
    partitions = [Partition.single(size) for size in range(1, 11)]
    for n in (4, 7, 10, 10):
        users = list(range(n))
        gen.shuffle(users)
        cuts = sorted(gen.sample(range(1, n), gen.randint(1, 3)))
        partitions.append(Partition(users[a:b] for a, b in zip([0, *cuts], [*cuts, n])))
    for partition in partitions:
        raw = [gen.randint(0, 5) for _ in range(partition.n_users)]
        raw[gen.randrange(len(raw))] += 1
        yield partition, SignerDistribution([w / sum(raw) for w in raw])


@pytest.mark.parametrize("family", ["regular", "binomial"])
def test_exact_equals_the_ring_enumeration_oracle(family):
    p_random = random.Random(5).random()
    for partition, dist in _oracle_instances():
        if family == "regular":
            kinds = [Regular(k) for k in range(min(partition.chunk_sizes()))]
        else:
            kinds = [Binomial(p) for p in (0.0, 0.3, 0.5, 1.0, p_random)]
        for kind in kinds:
            alpha = anonymity_exact(SamplerConfig(partition, kind), dist)
            expected = _enumerated_alpha(partition, dist.weights, kind)
            assert alpha == pytest.approx(expected, rel=1e-13, abs=1e-15), (partition, kind)


# -- distributions ---------------------------------------------------------------------


def test_signer_distribution_validation():
    with pytest.raises(InvalidParams):
        SignerDistribution([0.5, 0.6])
    with pytest.raises(InvalidParams):
        SignerDistribution([-0.1, 1.1])
    # a NaN weight, wherever it stands, and a negative weight behind a NaN
    for weights in ([float("nan"), 1.0], [1.0, float("nan")], [float("nan"), -1.0, 2.0]):
        with pytest.raises(InvalidParams):
            SignerDistribution(weights)
    SignerDistribution([0.25, 0.75])


def test_signer_distribution_weights_are_one_read_only_array():
    values = [0.125, 0.5, 0.25, 0.125]
    built = [
        SignerDistribution(values),
        SignerDistribution(tuple(values)),
        SignerDistribution(w for w in values),
        SignerDistribution(np.array(values, dtype=np.float32)),
    ]
    source = np.array(values)
    built.append(SignerDistribution(source))
    source[0] = 0.5  # the distribution keeps its own copy
    for dist in built:
        assert dist.weights.dtype == np.float64
        assert dist.weights.tolist() == values
        assert dist.n_users == 4
        with pytest.raises(ValueError):
            dist.weights[0] = 0.0
    assert SignerDistribution.uniform(4).weights.flags.writeable is False


def test_deviation_equals_a_per_chunk_reference():
    # at least 100 chunks of unequal sizes, in shuffled order, with random weights
    gen = random.Random(11)
    n = 1000
    users = list(range(n))
    gen.shuffle(users)
    cuts = sorted(gen.sample(range(1, n), 149))
    chunks = [users[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    part = Partition(chunks)
    raw = [gen.random() ** 3 for _ in range(n)]
    dist = SignerDistribution([w / math.fsum(raw) for w in raw])
    dev = DistributionDeviation.from_distribution(part, dist)
    ordered = sorted(chunks, key=min)
    weights = dist.weights.tolist()
    means, devs, total = [], [], 0.0
    for chunk in ordered:
        ws = [weights[u] for u in chunk]
        mu = math.fsum(ws) / len(ws)
        eps = max(max(ws) - mu, mu - min(ws))
        means.append(mu)
        devs.append(eps)
        total += len(ws) * eps
    assert len(dev.chunk_means) == 150
    assert dev.chunk_means == tuple(means)
    assert dev.chunk_deviations == tuple(devs)
    assert dev.total == total and type(dev.total) is float
    assert all(type(x) is float for x in dev.chunk_means + dev.chunk_deviations)


def test_deviation_computation():
    chunks = [[0, 1], [2, 3]]
    part = Partition(chunks)
    dist = SignerDistribution([0.1, 0.3, 0.25, 0.35])
    dev = DistributionDeviation.from_distribution(part, dist)
    assert dev.chunk_means == (0.2, 0.3)
    assert dev.chunk_deviations == (pytest.approx(0.1), pytest.approx(0.05))
    assert dev.total == pytest.approx(2 * 0.1 + 2 * 0.05)
    for mu, eps, chunk in zip(dev.chunk_means, dev.chunk_deviations, chunks):
        assert eps >= max(abs(dist.weights[u] - mu) for u in chunk) - 1e-15


def test_deviation_uniform_is_zero():
    dev = DistributionDeviation.exact_uniform(Partition.equal_chunks(12, 4))
    assert dev.total == 0.0


# -- bounds ------------------------------------------------------------------------------


def test_regular_bound_values():
    dev = DistributionDeviation.exact_uniform(Partition.single(10))
    assert anonymity_bound_regular(4, dev) == pytest.approx(math.log(4))
    assert anonymity_bound_regular(1, dev) == 0.0
    with pytest.raises(InvalidParams):
        anonymity_bound_regular(0, dev)


def test_regular_bound_below_exact_on_uniform():
    for n, k in [(6, 1), (9, 3), (14, 5)]:
        cfg, dist = _uniform_cfg(n, Regular(k))
        dev = DistributionDeviation.from_distribution(cfg.partition, dist)
        assert anonymity_bound_regular(k, dev) < anonymity_exact(cfg, dist)


def test_binomial_bound_holds_against_exact():
    n, p = 12, 0.5
    cfg, dist = _uniform_cfg(n, Binomial(p))
    dev = DistributionDeviation.from_distribution(cfg.partition, dist)
    alpha = anonymity_exact(cfg, dist)
    for k in range(1, math.ceil(p * n)):
        assert p * n > k
        assert anonymity_bound_binomial(k, dev, cfg) < alpha


def test_binomial_bound_hypothesis_check():
    cfg, dist = _uniform_cfg(8, Binomial(0.25))
    dev = DistributionDeviation.from_distribution(cfg.partition, dist)
    with pytest.raises(HypothesisViolated):
        anonymity_bound_binomial(2, dev, cfg)  # p|C| = 2 is not > 2
    # without the config the caller owns the hypothesis
    assert anonymity_bound_binomial(2, dev) == pytest.approx(math.log(2))


def test_bound_decreases_with_deviation():
    part = Partition.single(4)
    skewed = DistributionDeviation.from_distribution(
        part, SignerDistribution([0.7, 0.1, 0.1, 0.1])
    )
    uniform = DistributionDeviation.exact_uniform(part)
    assert anonymity_bound_regular(3, skewed) < anonymity_bound_regular(3, uniform)
    # doubling the aggregate deviation shifts the bound by the exact ratio
    double = DistributionDeviation(
        skewed.chunk_means, skewed.chunk_deviations, 2 * skewed.total
    )
    delta = anonymity_bound_regular(3, skewed) - anonymity_bound_regular(3, double)
    assert delta == pytest.approx(
        math.log((2 * skewed.total + 1) / (skewed.total + 1)), abs=1e-12
    )


def test_exact_beats_bound_on_skewed_distributions():
    # the analytic bound must stay below the exact value wherever its
    # hypotheses hold, including away from uniformity
    part = Partition.single(8)
    weights = [0.2, 0.2, 0.15, 0.15, 0.1, 0.1, 0.05, 0.05]
    dist = SignerDistribution(weights)
    dev = DistributionDeviation.from_distribution(part, dist)
    cfg = SamplerConfig(part, Regular(3))
    assert anonymity_bound_regular(3, dev) < anonymity_exact(cfg, dist)
    bcfg = SamplerConfig(part, Binomial(0.75))
    for k in (1, 2, 3, 4, 5):
        assert anonymity_bound_binomial(k, dev, bcfg) < anonymity_exact(bcfg, dist)