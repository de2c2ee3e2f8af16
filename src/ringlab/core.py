"""Core of a transaction graph: the union of all its maximum matchings.

Edges outside the core belong to no maximum matching, so they are
impossible signer assignments and can be discarded by an analyst.  The
core is computed in near-linear time from a single maximum matching M
and one strong-components pass (Dulmage & Mendelsohn 1958; Tassa 2012).
With ring j's M-signer relabelled to node j, the induced digraph has an
edge i -> j for every user i in ring j, i != j.  An edge (u_i, r_j) survives
exactly when it is in M, when i and j lie in one strong component, or
when i is reachable from an unmatched user.  A virtual node that every
node reaches and that reaches the unmatched users folds the last case
into the second: its component is exactly the nodes reachable from the
unmatched users.  An exponential matching-enumeration oracle is kept
alongside for verification only.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InstanceTooLarge
from .graph import (
    Matching,
    TransactionGraph,
    _covering_matching,
    _induced_successors,
    _occurring_users,
    _tarjan,
    _user_relabel,
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

    Computed from the member flags of one covering matching; when no edge
    is removed the graph itself is returned.  Raises
    :class:`NotATransactionGraph` (or its subclass :class:`EmptyRing`) when
    no matching covers every ring.
    """
    return _core_from_flags(graph, _covering_core_flags(graph))


def _covering_core_flags(graph: TransactionGraph) -> list[list[bool]]:
    """Core member flags of ``graph``, from a covering matching computed here.

    The pass allocates per user, so it runs on the users that occur; the
    flags are per member position, so they are those of ``graph``.
    """
    graph, _ = _occurring_users(graph)
    return _core_member_flags(graph, _covering_matching(graph))


def _core_member_flags(
    graph: TransactionGraph, matching: Matching
) -> list[list[bool]]:
    """Per ring, which members' edges survive in the core.

    This is the one core computation; every core result is read from its
    flags.  ``matching`` must cover every ring with edges of ``graph``;
    callers check that once, this does not check it again.

    Virtual node n, added when some user is unmatched, follows every node
    and precedes the unmatched user nodes ``m..n-1``.  Its strong component
    is therefore n plus the nodes reachable from the unmatched users, and
    any cycle it adds passes through n, so the other components are those
    of the induced digraph.  A member survives exactly when its node shares
    ring r's component; ring r's signer is node r itself.
    """
    n, m = graph.n_users, graph.n_rings
    relabel = _user_relabel(graph, matching)
    succ = _induced_successors(graph, relabel)
    if n > m:
        for ts in succ:
            ts.append(n)
        succ.append(range(m, n))
    comp_of = _tarjan(succ)
    return [
        [comp_of[relabel[u]] == comp_of[r] for u in ms]
        for r, ms in enumerate(graph._members)
    ]


def _core_from_flags(graph: TransactionGraph, flags: list[list[bool]]) -> TransactionGraph:
    """The core as a graph: the flagged members of each ring of ``graph``.

    Returns ``graph`` itself when every flag is set, so ``core is graph``
    tells whether the core removed nothing.  The flags keep every edge of
    the matching they were computed from, so the core needs no certificate
    check of its own.
    """
    if all(map(all, flags)):
        return graph
    members = [
        [u for u, keep in zip(ms, row) if keep]
        for ms, row in zip(graph._members, flags)
    ]
    return TransactionGraph._from_members(graph.n_users, members)


def is_core_equal(graph: TransactionGraph) -> bool:
    """True when no edge of the graph can be ruled out, i.e. core(G) == G."""
    return all(map(all, _covering_core_flags(graph)))


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


def core_report(graph: TransactionGraph) -> CoreReport:
    """Removed edges, core degrees and deanonymised rings of ``graph``.

    Every field is read from one set of core member flags; no core graph
    is built, and only the rings that lose a member are visited edge by
    edge.  Raises as :func:`core` does.
    """
    flags = _covering_core_flags(graph)
    members = graph._members
    degrees = tuple(map(sum, flags))
    removed = frozenset(
        (u, r)
        for r, degree in enumerate(degrees)
        if degree < len(members[r])
        for u, keep in zip(members[r], flags[r])
        if not keep
    )
    deanon = tuple(
        (r, members[r][flags[r].index(True)])
        for r, degree in enumerate(degrees)
        if degree == 1
    )
    return CoreReport(
        removed_edges=removed,
        deanonymised_rings=deanon,
        per_ring_core_degree=degrees,
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
    m = graph.n_rings
    results: list[Matching] = []
    used = [False] * graph.n_users
    chosen: list[int] = []

    def backtrack(ring: int) -> None:
        if ring == m:
            results.append(Matching((users[u], r) for r, u in enumerate(chosen)))
            return
        for u in graph.ring_members(ring):
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
