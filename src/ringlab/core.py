"""Core of a transaction graph: the union of all its maximum matchings.

Edges outside the core belong to no maximum matching, so they are
impossible signer assignments and can be discarded by an analyst.  The
core is computed in near-linear time from a single maximum matching M
and one strong-components pass (Dulmage & Mendelsohn 1958; Tassa 2012).
The nodes of the digraph are the users themselves: each edge whose user
is not its ring's M-signer gives the edge user -> signer.  An edge
survives exactly when it is in M, when its user and its ring's signer
lie in one strong component, or when its user is reachable from a user
that signs nothing.  When such users exist, a virtual node n that every
user reaches and that reaches each of them folds the last case into the
second: its component is exactly the nodes reachable from them.  Every
core result is read from one flat flag per edge, so the core, the
report and the campaign's core adversary share :func:`_core_flags`.  An
exponential matching-enumeration oracle is kept alongside for
verification only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLarge
from .graph import (
    Matching,
    TransactionGraph,
    _covering_matching,
    _member_lists,
    _occurring_users,
    _strong_components,
)

__all__ = [
    "CoreReport",
    "core",
    "is_core_equal",
    "core_report",
    "core_bruteforce_oracle",
    "enumerate_maximum_matchings",
    "BRUTE_FORCE_USER_CAP",
]

# Default ceiling for the exhaustive enumeration paths.
BRUTE_FORCE_USER_CAP = 10


def core(graph: TransactionGraph) -> TransactionGraph:
    """Subgraph of edges that occur in at least one maximum matching.

    Computed from the flags of one covering matching; when no edge is
    removed the graph itself is returned, so ``core is graph`` tells
    whether the core removed nothing.  Raises :class:`NotATransactionGraph`
    (or its subclass :class:`EmptyRing`) when no matching covers every
    ring.
    """
    flags = _covering_core_flags(graph)[2]
    return graph if flags.all() else graph._subgraph(flags)


def _core_flags(n_users: int, users: np.ndarray, signers: np.ndarray) -> np.ndarray:
    """Whether each edge survives in the core: the one core computation.

    Edge i puts user ``users[i]`` in a ring whose signer under one
    maximum matching is ``signers[i]``; every ring has its signer's edge.
    Edge i survives iff ``users[i]`` and ``signers[i]`` share a strong
    component of the digraph with the edges ``users[i] -> signers[i]``,
    plus, when some user signs nothing, the virtual node ``n_users``
    after every user and before each user that signs nothing.  Any cycle
    through the virtual node lies in its component, so the other
    components are those of the decoy-to-signer digraph, and
    :func:`_strong_components` labels them.  The work is sized by
    ``n_users``: callers with a header wider than the edges cut it down
    first (:func:`_covering_core_flags`).
    """
    decoys = users != signers
    tails, heads = users[decoys], signers[decoys]
    unsigned = np.flatnonzero(np.bincount(signers, minlength=n_users) == 0)
    if unsigned.size:
        tails = np.concatenate((tails, np.arange(n_users), np.full(unsigned.size, n_users)))
        heads = np.concatenate((heads, np.full(n_users, n_users), unsigned))
    comp = _strong_components(n_users + 1, tails, heads)
    return comp[users] == comp[signers]


def _covering_core_flags(graph: TransactionGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """User, ring and core flag of every edge, from a covering matching computed here.

    The matching and the flags run on the users that occur
    (:func:`_occurring_users`), whose edges are ``graph``'s in the same
    order, so the flags are ``graph``'s.
    """
    cut = _occurring_users(graph)[0]
    signers = _covering_matching(cut)
    rings = graph._ring_ids()
    return graph._users, rings, _core_flags(cut.n_users, cut._users, signers[rings])


def is_core_equal(graph: TransactionGraph) -> bool:
    """True when no edge of the graph can be ruled out, i.e. core(G) == G."""
    return bool(_covering_core_flags(graph)[2].all())


@dataclass(frozen=True)
class CoreReport:
    """Attack-oriented summary of a core computation.

    ``deanonymised_rings`` lists rings whose core degree is 1 together
    with their only possible signer.  The core's own edge set is
    ``core(graph).edges``.
    """

    removed_edges: frozenset[tuple[int, int]]
    deanonymised_rings: tuple[tuple[int, int], ...]
    per_ring_core_degree: tuple[int, ...]


def _core_degrees(
    graph: TransactionGraph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """User, ring and core flag of every edge, and the core degree of every ring.

    The one array step behind :func:`core_report` and ``ringlab core``.  A
    ring is deanonymised when its core degree is 1; as the edges run ring
    by ring, the users of the core edges of those rings are their sole
    users in ring order.
    """
    users, rings, flags = _covering_core_flags(graph)
    return users, rings, flags, np.bincount(rings[flags], minlength=graph.n_rings)


def core_report(graph: TransactionGraph) -> CoreReport:
    """Removed edges, core degrees and deanonymised rings of ``graph``.

    Every field is read from the arrays of :func:`_core_degrees`; no core
    graph is built.  Raises as :func:`core` does.
    """
    users, rings, flags, degrees = _core_degrees(graph)
    removed = ~flags
    sole = flags & (degrees == 1)[rings]
    return CoreReport(
        removed_edges=frozenset(zip(users[removed].tolist(), rings[removed].tolist())),
        deanonymised_rings=tuple(zip(rings[sole].tolist(), users[sole].tolist())),
        per_ring_core_degree=tuple(degrees.tolist()),
    )


def enumerate_maximum_matchings(
    graph: TransactionGraph, *, max_users: int = BRUTE_FORCE_USER_CAP
) -> list[Matching]:
    """All maximum matchings, by exhaustive backtracking over rings.

    Exponential; guarded by ``max_users``.  The graph must admit a
    matching covering every ring (else :class:`NotATransactionGraph`), so
    each maximum matching assigns every ring exactly one user and the
    enumeration can proceed ring by ring.  The backtracking runs on the
    users that occur, so its memory does not grow with the header.
    """
    if graph.n_users > max_users:
        raise InstanceTooLarge(
            f"{graph.n_users} users exceeds the brute-force cap of {max_users}"
        )
    _covering_matching(graph)
    graph, users = _occurring_users(graph)
    members = _member_lists(graph)
    m = graph.n_rings
    results: list[Matching] = []
    used = [False] * graph.n_users
    chosen: list[int] = []

    def backtrack(ring: int) -> None:
        if ring == m:
            results.append(Matching((users[u], r) for r, u in enumerate(chosen)))
            return
        for u in members[ring]:
            if not used[u]:
                used[u] = True
                chosen.append(u)
                backtrack(ring + 1)
                chosen.pop()
                used[u] = False

    backtrack(0)
    return results


def core_bruteforce_oracle(
    graph: TransactionGraph, *, max_users: int = BRUTE_FORCE_USER_CAP
) -> TransactionGraph:
    """Reference core: the literal union of all enumerated maximum matchings."""
    edges: set[tuple[int, int]] = set()
    for matching in enumerate_maximum_matchings(graph, max_users=max_users):
        edges.update(matching.pairs)
    return TransactionGraph(graph.n_users, graph.n_rings, edges)
