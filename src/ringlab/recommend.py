"""Ring-size recommendations against graph-based deanonymisation.

The closed-form sufficient condition k >= ln(2|U|) + sqrt(2 ln(2|U|))
guarantees (under the two digraph conjectures) that no graph-analysing
adversary beats twice the trivial success rate 1/(k+1).  A numeric scan
against the underlying inequality is provided alongside so the slack of
the closed form is visible, plus the heuristic adjustment for a fraction
of adversary-controlled users.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidBeta, NoFeasibleK
from .stats import graham_pike_limit

__all__ = [
    "Recommendation",
    "recommended_decoys",
    "minimal_decoys_numeric",
    "recommended_decoys_black_marble",
    "core_mismatch_bound",
    "recommend",
]


def recommended_decoys(n_users: int) -> int:
    """Smallest integer k satisfying the closed-form sufficient condition."""
    return recommended_decoys_black_marble(n_users, 0.0)


def core_mismatch_bound(n_chunks: int, chunk_size: float, k: float) -> float:
    """Conjectured bound n_chunks * (1 - exp(-2 exp(ln chunk_size - k))), clamped to [0, 1]."""
    if n_chunks < 1 or chunk_size <= 0:
        raise DomainError("need n_chunks >= 1 and chunk_size > 0")
    if k < 0:
        raise DomainError(f"need k >= 0, got {k}")
    per_chunk = graham_pike_limit(k - math.log(chunk_size))
    try:
        value = n_chunks * per_chunk
    except OverflowError:  # n_chunks beyond float range: the product in log space
        value = math.exp(min(math.log(n_chunks) + math.log(per_chunk), 0.0)) if per_chunk else 0.0
    return min(max(value, 0.0), 1.0)


def minimal_decoys_numeric(n_chunks: int, chunk_size: int) -> int:
    """Smallest k < chunk_size with core_mismatch_bound(...) <= 1/(k+1).

    The left side falls doubly exponentially in k while the right side
    falls only as 1/k, so an ascending scan terminates at the first hit;
    if even k = chunk_size - 1 fails, no feasible decoy count exists for
    these chunks and :class:`NoFeasibleK` is raised.
    """
    if chunk_size < 2:
        raise DomainError(f"need chunk_size >= 2, got {chunk_size}")
    if n_chunks < 1:
        raise DomainError(f"need n_chunks >= 1, got {n_chunks}")
    for k in range(1, chunk_size):
        if core_mismatch_bound(n_chunks, chunk_size, k) <= 1.0 / (k + 1):
            return k
    raise NoFeasibleK(
        f"no k < {chunk_size} satisfies the bound for {n_chunks} chunks"
    )


def recommended_decoys_black_marble(n_users: int, beta: float) -> int:
    """Heuristic decoy count when a beta fraction of each chunk is corrupted.

    Scales the closed form to the effective user count (1-beta)|U| and
    stretches it by 1/(1-beta); reduces exactly to the passive formula at
    beta = 0.
    """
    if not 0.0 <= beta < 1.0:
        raise InvalidBeta(f"beta={beta} outside [0, 1)")
    if n_users < 1:
        raise DomainError(f"need at least one user, got {n_users}")
    log_term = math.log(2 * n_users) + math.log1p(-beta)
    if log_term <= 0.0:
        raise DomainError(
            f"effective user count 2*(1-beta)*|U| <= 1 for beta={beta}, users={n_users}"
        )
    return math.ceil((log_term + math.sqrt(2.0 * log_term)) / (1.0 - beta))


@dataclass(frozen=True)
class Recommendation:
    """Recommended decoy counts with the inputs echoed.

    ``target_security`` is 2/(k+1) at the closed-form k: the guaranteed
    ceiling on any graph-analysing adversary's success probability.
    ``k_numeric`` is present only when chunk geometry was supplied and a
    feasible k exists; it never exceeds ``k_closed_form``.
    """

    n_users: int
    beta: float
    n_chunks: int | None
    chunk_size: int | None
    k_closed_form: int
    k_numeric: int | None
    target_security: float


def recommend(
    n_users: int,
    beta: float = 0.0,
    n_chunks: int | None = None,
    chunk_size: int | None = None,
) -> Recommendation:
    """Bundle the closed-form k (beta-adjusted if beta > 0) with the numeric scan."""
    k_closed = recommended_decoys_black_marble(n_users, beta)
    k_numeric = None
    if n_chunks is not None and chunk_size is not None:
        k_numeric = minimal_decoys_numeric(n_chunks, chunk_size)
    return Recommendation(
        n_users=n_users,
        beta=beta,
        n_chunks=n_chunks,
        chunk_size=chunk_size,
        k_closed_form=k_closed,
        k_numeric=k_numeric,
        target_security=2.0 / (k_closed + 1),
    )
