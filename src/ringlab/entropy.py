"""Min-entropy anonymity of partitioning samplers.

The anonymity of a sampler against a signer distribution is the
conditional min-entropy of the signer given the published ring,

    alpha = -ln sum_r max_s ( Pr[ring = r | signer = s] * p(s) ),

reported in nats.  The ring reveals its chunk, so the sum runs chunk by
chunk.  A ring's largest weight is that of its highest-ranked member, so
grouping a chunk's rings by that member collapses the sum: with the
chunk's c weights sorted ascending as w_(0) <= ... <= w_(c-1), the chunk
contributes

    regular (k decoys):   sum_i w_(i) * C(i, k) / C(c-1, k),
    binomial (p):         sum_i w_(i) * (1-p)^(c-1-i),

where the coefficient of w_(i) sums Pr[r | s], the same for every member
s of r, over the rings r whose top member is the i-th.  alpha is
therefore exact at any chunk size, in O(c log c).  For either
sampler an analytic lower bound ln k - ln(eps_P + 1) is available, where
eps_P aggregates how far the signer distribution deviates from
chunk-wise uniformity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import HypothesisViolated, InvalidParams
from .graph import Partition
from .samplers import Binomial, Regular, SamplerConfig

__all__ = [
    "SignerDistribution",
    "DistributionDeviation",
    "anonymity_exact",
    "anonymity_bound_regular",
    "anonymity_bound_binomial",
]

_WEIGHT_SUM_TOL = 1e-12


class SignerDistribution:
    """Per-user signing probabilities (single-signer model), as a read-only float64 array."""

    __slots__ = ("weights",)

    def __init__(self, weights: Iterable[float]):
        vector = isinstance(weights, np.ndarray) and weights.ndim == 1
        ws = weights.astype(np.float64) if vector else np.fromiter(weights, dtype=np.float64)
        if (ws < 0.0).any():
            raise InvalidParams("negative signer weight")
        total = math.fsum(ws.tolist())
        if not abs(total - 1.0) <= _WEIGHT_SUM_TOL:  # a NaN weight makes the sum NaN
            raise InvalidParams(f"weights sum to {total!r}, expected 1")
        ws.flags.writeable = False
        self.weights = ws

    @classmethod
    def uniform(cls, n_users: int) -> "SignerDistribution":
        if n_users < 1:
            raise InvalidParams("need at least one user")
        return cls(np.full(n_users, 1.0 / n_users))

    @property
    def n_users(self) -> int:
        return self.weights.shape[0]

    def __repr__(self) -> str:
        return f"SignerDistribution(n_users={self.n_users})"


@dataclass(frozen=True)
class DistributionDeviation:
    """Chunk-wise deviation of a signer distribution from uniformity.

    ``chunk_means`` holds the mean weight per chunk, ``chunk_deviations``
    the largest absolute deviation from that mean, and ``total`` the
    aggregate sum over chunks of |C| * deviation(C) that enters the
    entropy bounds.
    """

    chunk_means: tuple[float, ...]
    chunk_deviations: tuple[float, ...]
    total: float

    @classmethod
    def from_distribution(
        cls, partition: Partition, dist: SignerDistribution
    ) -> "DistributionDeviation":
        if dist.n_users != partition.n_users:
            raise InvalidParams(
               f"distribution covers {dist.n_users} users, partition {partition.n_users}"
            )
        weights, starts = dist.weights[partition._chunk_flat], partition._chunk_start
        flat, ends = weights.tolist(), starts.tolist()
        means = [math.fsum(flat[a:b]) / (b - a) for a, b in zip(ends, ends[1:])]  # exact sums
        mu, firsts = np.array(means), starts[:-1]
        hi, lo = np.maximum.reduceat(weights, firsts), np.minimum.reduceat(weights, firsts)
        eps = np.maximum(hi - mu, mu - lo)  # rounding is monotone, negation exact: max |w - mu|
        total = np.cumsum(np.diff(starts) * eps)[-1]  # left to right, as a running += adds
        return cls(tuple(means), tuple(eps.tolist()), float(total))

    @classmethod
    def exact_uniform(cls, partition: Partition) -> "DistributionDeviation":
        return cls.from_distribution(partition, SignerDistribution.uniform(partition.n_users))


def _rank_coefficients(size: int, kind: Regular | Binomial) -> np.ndarray:
    """Coefficient of the i-th smallest weight of a chunk of ``size`` users.

    It sums Pr[r | s] over the rings r whose highest-ranked member is the
    i-th: C(i, k)/C(size-1, k) for the regular sampler, built down from 1
    at i = size-1 by the factors (j-k)/j so that no big integer arises,
    and (1-p)^(size-1-i) for the binomial one.
    """
    if isinstance(kind, Binomial):
        return (1.0 - kind.p) ** np.arange(size - 1, -1, -1)
    k = kind.k
    j = np.arange(size - 1, k, -1)
    coefficients = np.zeros(size)
    coefficients[k:] = np.cumprod(np.concatenate(([1.0], (j - k) / j)))[::-1]
    return coefficients


def anonymity_exact(config: SamplerConfig, dist: SignerDistribution) -> float:
    """Exact conditional min-entropy of the signer given its ring, in nats.

    Each chunk's weights are sorted once and weighted by
    :func:`_rank_coefficients`; the terms of every chunk are summed by
    ``math.fsum``.  A sum of exactly 1 gives +0.0, not -0.0.
    """
    if dist.n_users != config.n_users:
        raise InvalidParams(
            f"distribution covers {dist.n_users} users, config {config.n_users}"
        )
    part = config.partition
    weights, starts = dist.weights[part._chunk_flat], part._chunk_start.tolist()
    terms = [
        np.sort(weights[a:b]) * _rank_coefficients(b - a, config.kind)
        for a, b in zip(starts, starts[1:])
    ]
    return 0.0 - math.log(math.fsum(np.concatenate(terms).tolist()))


def anonymity_bound_regular(k: int, deviation: DistributionDeviation) -> float:
    """Lower bound ln k - ln(eps_P + 1) for the fixed-decoy sampler."""
    if k < 1:
        raise InvalidParams(f"need k >= 1, got {k}")
    return math.log(k) - math.log1p(deviation.total)


def anonymity_bound_binomial(
    k: int,
    deviation: DistributionDeviation,
    config: SamplerConfig | None = None,
) -> float:
    """Lower bound ln k - ln(eps_P + 1) for the independent-decoy sampler.

    Valid under the hypothesis p * |C| > k for every chunk, which is
    checked when the sampler configuration is supplied.
    """
    if k < 1:
        raise InvalidParams(f"need k >= 1, got {k}")
    if config is not None:
        if not isinstance(config.kind, Binomial):
            raise InvalidParams("config must use the binomial sampler")
        p, sizes = config.kind.p, np.diff(config.partition._chunk_start)
        short = sizes[p * sizes <= k].tolist()
        if short:
            raise HypothesisViolated(f"p*|C| = {p * short[0]} <= k = {k} for a chunk of {short[0]}")
    return math.log(k) - math.log1p(deviation.total)
