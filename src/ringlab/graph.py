"""Bipartite transaction graphs, matchings, digraphs, and partitions.

A transaction graph records which users are members of which rings.  Its
defining property is that some signer assignment covers every ring, i.e.
a maximum matching of size ``n_rings`` exists.  The constructor only
enforces structural well-formedness (index ranges, no duplicate edges,
``n_rings <= n_users``).  The full property is established by
:func:`validate`, which computes a covering matching, or by
:func:`_require_covering`, the one check of a signer assignment the
caller supplies: one distinct user per ring, each a member of its ring.
The graph sampler makes that check on a whole block of graphs at once,
their disjoint union being one graph, so the matching computation never
runs on the Monte Carlo hot path.  The one producer of
structurally valid but *unvalidated* graphs is the corrupted-user
reduction in :mod:`ringlab.adversary`, which may leave rings empty.

A transaction graph is two read-only CSR arrays, which every producer
writes and every consumer reads directly; only the pure-Python
Hopcroft-Karp, which matches small graphs and finishes what the numpy
matching rounds leave, takes per-ring lists (:func:`_member_lists`).  A
matching is an array of each ring's user until a caller asks for a
:class:`Matching`.  All types are immutable after construction; every
operation returns new values.
Indices are 0-based throughout, including file formats.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    EmptyRing,
    IndexOutOfRange,
    MatchingNotMaximum,
    NotATransactionGraph,
    RingCrossesChunks,
)

__all__ = [
    "TransactionGraph",
    "Matching",
    "Digraph",
    "Partition",
    "GraphChunk",
    "validate",
    "maximum_matching",
    "upper_graph",
    "induced_digraph",
    "is_strongly_connected",
    "partition_graph",
]


class Matching:
    """An injective assignment of users to rings, stored as (user, ring) pairs.

    Pairs are kept sorted by ring index.  Whether the pairs are edges of a
    particular graph is checked by the operations that take both.
    """

    __slots__ = ("pairs", "_user_for_ring")

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        canon = tuple(sorted(((int(u), int(r)) for u, r in pairs), key=lambda p: p[1]))
        users = [u for u, _ in canon]
        rings = [r for _, r in canon]
        if len(set(users)) != len(users):
            raise ValueError("matching reuses a user")
        if len(set(rings)) != len(rings):
            raise ValueError("matching reuses a ring")
        self.pairs = canon
        self._user_for_ring = {r: u for u, r in canon}

    @property
    def size(self) -> int:
        return len(self.pairs)

    def user_for_ring(self, ring: int) -> int | None:
        return self._user_for_ring.get(ring)

    @property
    def users(self) -> frozenset[int]:
        return frozenset(u for u, _ in self.pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, r = pair
        return self._user_for_ring.get(r) == u

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Matching({list(self.pairs)!r})"


class TransactionGraph:
    """Bipartite graph of ``n_users`` users and ``n_rings`` rings.

    Adjacency is held in CSR form: ``_users`` lists the members of every
    ring, ring by ring and ascending within each ring, and ring r is
    ``_users[_starts[r]:_starts[r + 1]]``.  Both arrays are int64 and
    read-only; the accessors build Python values from them on each call.
    """

    __slots__ = ("n_users", "n_rings", "_users", "_starts")

    def __init__(self, n_users: int, n_rings: int, edges: Iterable[tuple[int, int]]):
        n_users = int(n_users)
        n_rings = int(n_rings)
        if n_users < 0 or n_rings < 0:
            raise IndexOutOfRange("negative vertex count")
        if n_rings > n_users:
            raise NotATransactionGraph(
                f"{n_rings} rings cannot all have distinct signers among {n_users} users"
            )
        self.n_users = n_users
        self.n_rings = n_rings
        self._users, self._starts = _ring_members(n_users, n_rings, *_edge_columns(edges))
        self._users.flags.writeable = self._starts.flags.writeable = False

    @classmethod
    def _from_csr(cls, n_users: int, users: np.ndarray, starts: np.ndarray) -> "TransactionGraph":
        """Trusted fast path: int64 CSR arrays, held as read-only views of the caller's."""
        g = cls.__new__(cls)
        g.n_users, g.n_rings = n_users, starts.shape[0] - 1
        g._users, g._starts = users.view(), starts.view()
        g._users.flags.writeable = g._starts.flags.writeable = False
        return g

    def _ring_ids(self) -> np.ndarray:
        """The ring of every edge, aligned with ``_users``."""
        return np.repeat(np.arange(self.n_rings), np.diff(self._starts))

    def _subgraph(self, keep: np.ndarray) -> "TransactionGraph":
        """The edges where ``keep`` holds, on the same users and rings."""
        kept = _offsets(keep)[self._starts]
        return TransactionGraph._from_csr(self.n_users, self._users[keep], kept)

    # -- accessors ---------------------------------------------------------

    def ring_members(self, ring: int) -> tuple[int, ...]:
        ring = range(self.n_rings)[ring]  # negative and out-of-range indices as for a tuple
        return tuple(self._users[self._starts[ring]:self._starts[ring + 1]].tolist())

    def has_edge(self, user: int, ring: int) -> bool:
        return user in self.ring_members(ring)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self._users.tolist(), self._ring_ids().tolist()))

    @property
    def edge_count(self) -> int:
        return self._users.shape[0]

    def ring_sizes(self) -> tuple[int, ...]:
        return tuple(np.diff(self._starts).tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionGraph):
            return NotImplemented
        same_rings = self.n_users == other.n_users and np.array_equal(self._starts, other._starts)
        return same_rings and np.array_equal(self._users, other._users)

    def __hash__(self) -> int:
        return hash((self.n_users, self._starts.tobytes(), self._users.tobytes()))

    def __repr__(self) -> str:
        return (
            f"TransactionGraph(n_users={self.n_users}, n_rings={self.n_rings}, "
            f"edges={self.edge_count})"
        )


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR starts of rows holding ``counts[i]`` entries each: 0, then the running sums."""
    starts = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


def _member_lists(graph: TransactionGraph) -> list[list[int]]:
    """Each ring's members as a Python list, for the pure-Python matching loops."""
    users = graph._users.tolist()
    ends = graph._starts.tolist()
    return [users[a:b] for a, b in zip(ends[:-1], ends[1:])]


_INT64_MAX = 2**63 - 1
_INTP_MAX = np.iinfo(np.intp).max


def _edge_columns(edges: Iterable[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """User and ring columns of an edge iterable or an (m, 2) array.

    A Python int beyond int64 makes both columns object arrays, so that it
    is reported as out of range instead of raising ``OverflowError``.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        pairs = np.asarray(edges, dtype=np.int64)
    except OverflowError:
        pairs = np.asarray(edges, dtype=object)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (user, ring) pairs")
    return pairs[:, 0], pairs[:, 1]


def _edge_error(index: int, exc: Exception) -> Exception:
    """``exc`` tagged with the input position of the edge it names."""
    exc.edge_index = index
    return exc


def _ring_members(
    n_users: int, n_rings: int, users: np.ndarray, rings: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(users, starts)`` of the edges ``(users[i], rings[i])``, members ascending.

    Raises for the first bad edge in input order; within one edge a bad
    user index precedes a bad ring index, which precedes a repeat of an
    earlier edge.  The error carries that edge's input position as
    ``edge_index``.  One stable sort by (ring, user) finds the repeats and
    orders the members.
    """
    bad = np.flatnonzero((users < 0) | (users >= n_users) | (rings < 0) | (rings >= n_rings))
    stop = int(bad[0]) if bad.size else len(users)
    ok_users = users[:stop].astype(np.int64)
    ok_rings = rings[:stop].astype(np.int64)
    if n_rings * n_users <= _INT64_MAX:
        order = np.argsort(ok_rings * n_users + ok_users, kind="stable")
    else:  # ring * n_users + user would overflow int64
        order = np.lexsort((ok_users, ok_rings))
    sorted_users = ok_users[order]
    sorted_rings = ok_rings[order]
    repeats = order[1:][
        (sorted_users[1:] == sorted_users[:-1]) & (sorted_rings[1:] == sorted_rings[:-1])
    ]
    if repeats.size:
        i = int(repeats.min())
        raise _edge_error(i, ValueError(f"duplicate edge ({ok_users[i]}, {ok_rings[i]})"))
    if bad.size:
        u, r = int(users[stop]), int(rings[stop])
        if not 0 <= u < n_users:
            raise _edge_error(stop, IndexOutOfRange(f"user index {u} outside [0, {n_users})"))
        raise _edge_error(stop, IndexOutOfRange(f"ring index {r} outside [0, {n_rings})"))
    return sorted_users, _offsets(np.bincount(ok_rings, minlength=n_rings))


class Digraph:
    """Directed graph on ``n_nodes`` nodes without self-loops or parallel edges.

    Edges are held only as flat source/target arrays in sampling order, the
    form :func:`_strong_components` reads, so the samplers never pay for sorting.
    :meth:`edges` sorts them on request.
    """

    __slots__ = ("n_nodes", "_src", "_dst")

    def __init__(self, n_nodes: int, edges: Iterable[tuple[int, int]] = ()):
        n_nodes = int(n_nodes)
        if n_nodes < 0:
            raise ValueError("negative node count")
        seen: set[tuple[int, int]] = set()
        src: list[int] = []
        dst: list[int] = []
        for a, b in edges:
            a = int(a)
            b = int(b)
            if not (0 <= a < n_nodes and 0 <= b < n_nodes):
                raise IndexOutOfRange(f"edge ({a}, {b}) outside [0, {n_nodes})")
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            if (a, b) in seen:
                raise ValueError(f"parallel edge ({a}, {b})")
            seen.add((a, b))
            src.append(a)
            dst.append(b)
        self.n_nodes = n_nodes
        self._src = np.asarray(src, dtype=np.int64)
        self._dst = np.asarray(dst, dtype=np.int64)

    @classmethod
    def _from_arrays(cls, n_nodes: int, src: np.ndarray, dst: np.ndarray) -> "Digraph":
        """Trusted fast path: caller guarantees validity (samplers do by construction)."""
        d = cls.__new__(cls)
        d.n_nodes = n_nodes
        d._src = src
        d._dst = dst
        return d

    @property
    def n_edges(self) -> int:
        return int(self._src.shape[0])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (source, target) pairs in ascending order."""
        order = np.lexsort((self._dst, self._src))
        return list(zip(self._src[order].tolist(), self._dst[order].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n_nodes == other.n_nodes and self.edges() == other.edges()

    def __hash__(self) -> int:
        return hash((self.n_nodes, tuple(self.edges())))

    def __repr__(self) -> str:
        return f"Digraph(n_nodes={self.n_nodes}, edges={self.n_edges})"


class Partition:
    """Disjoint cover of the user set ``[0, n_users)`` by non-empty chunks.

    The chunk layout, as read-only arrays only: ``_chunk_flat`` holds the
    users ascending within each chunk, chunks by first user, chunk c at
    ``_chunk_start[c]:_chunk_start[c + 1]``; ``_chunk_of`` and
    ``_pos_in_chunk`` give each user's chunk and its position there.
    """

    __slots__ = ("n_users", "_chunk_of", "_pos_in_chunk", "_chunk_flat", "_chunk_start")

    def __init__(self, chunks: Iterable[Iterable[int]]):
        canon = [sorted(int(u) for u in c) for c in chunks]
        if any(len(c) == 0 for c in canon):
            raise ValueError("empty chunk")
        canon.sort(key=lambda c: c[0])
        sizes = [len(c) for c in canon]
        n = sum(sizes)
        bad = [u for c in canon for u in (c[0], c[-1]) if not 0 <= u < n]
        if bad:
            raise IndexOutOfRange(f"user {bad[0]} outside [0, {n})")
        flat = np.fromiter(chain.from_iterable(canon), dtype=np.int64, count=n)
        twice = np.flatnonzero(np.bincount(flat, minlength=n) > 1)
        if twice.size:
            raise ValueError(f"user {twice[0]} appears in two chunks")
        # disjointness plus total size n implies the union covers [0, n)
        self._set_layout(flat, np.cumsum([0] + sizes, dtype=np.int64))

    def _set_layout(self, flat: np.ndarray, start: np.ndarray) -> "Partition":
        """Hold a canonical layout, read-only, with each user's chunk and position."""
        n, sizes = flat.shape[0], np.diff(start)
        self.n_users, self._chunk_flat, self._chunk_start = n, flat, start
        self._chunk_of = np.empty(n, dtype=np.int64)
        self._chunk_of[flat] = np.repeat(np.arange(sizes.shape[0]), sizes)
        self._pos_in_chunk = np.empty(n, dtype=np.int64)
        self._pos_in_chunk[flat] = np.arange(n) - np.repeat(start[:-1], sizes)
        for a in (flat, start, self._chunk_of, self._pos_in_chunk):
            a.flags.writeable = False
        return self

    @classmethod
    def equal_chunks(cls, n_users: int, chunk_size: int) -> "Partition":
        if n_users < 0:
            raise ValueError("n_users must be >= 0")
        if chunk_size <= 0 or n_users % chunk_size != 0:
            raise ValueError("chunk_size must divide n_users")
        users = np.arange(n_users, dtype=np.int64)
        return cls.__new__(cls)._set_layout(users, np.append(users[::chunk_size], users.size))

    @classmethod
    def single(cls, n_users: int) -> "Partition":
        if n_users < 1:
            raise ValueError("empty chunk")
        return cls.equal_chunks(n_users, n_users)

    @property
    def n_chunks(self) -> int:
        return self._chunk_start.shape[0] - 1

    def chunk_of(self, user: int) -> int:
        return int(self._chunk_of[user])

    def chunk_sizes(self) -> tuple[int, ...]:
        return tuple(np.diff(self._chunk_start).tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        same_sizes = np.array_equal(self._chunk_start, other._chunk_start)
        return same_sizes and np.array_equal(self._chunk_flat, other._chunk_flat)

    def __hash__(self) -> int:
        return hash((self._chunk_start.tobytes(), self._chunk_flat.tobytes()))

    def __repr__(self) -> str:
        return f"Partition(n_users={self.n_users}, chunks={self.n_chunks})"


@dataclass(frozen=True)
class GraphChunk:
    """One chunk subgraph with index maps back to the parent graph."""

    graph: TransactionGraph
    users: tuple[int, ...]  # local user index -> parent user index
    rings: tuple[int, ...]  # local ring index -> parent ring index


# -- matchings ---------------------------------------------------------------


def maximum_matching(graph: TransactionGraph) -> Matching:
    """A maximum matching, deterministic for a fixed input.

    The array of :func:`_matched_users`, wrapped as a :class:`Matching`;
    the core reads the array itself.  Which maximum matching is returned
    is irrelevant to the core computation (the core is invariant under the
    choice; a property test pins this against the matching of a randomly
    relabelled copy of the graph).
    """
    user_of = _matched_users(graph)
    rings = np.flatnonzero(user_of >= 0)
    return Matching(zip(user_of[rings].tolist(), rings.tolist()))


# Below this many edges :func:`_matched_users` runs Hopcroft-Karp alone: on
# bench edge lists the numpy rounds' fixed cost ties with it between about
# 2,000 and 3,900 edges, and they win by a quarter from about 5,000 (2-vCPU
# Xeon, numpy 2.4).
_MATCH_MIN_EDGES = 4096
# O(E) passes, proposal rounds and BFS levels together, that
# :func:`_array_matching` may spend before Hopcroft-Karp finishes.  One
# augmenting path through the whole graph takes one BFS level per ring.
_MATCH_BUDGET = 32


def _matched_users(graph: TransactionGraph) -> np.ndarray:
    """The user of each ring in one maximum matching, -1 for an unmatched ring.

    Graphs of fewer than ``_MATCH_MIN_EDGES`` edges go to
    :func:`_hopcroft_karp` alone, larger ones to :func:`_array_matching`.
    Both break every tie by the lowest ring, member or edge position, so
    repeated calls return the identical matching.  It runs on the users
    that occur.
    """
    cut, users = _occurring_users(graph)
    if cut.edge_count < _MATCH_MIN_EDGES:
        user_of = _hopcroft_karp(_member_lists(cut), [-1] * cut.n_users, [-1] * cut.n_rings)
    else:
        user_of = _array_matching(cut)
    if cut is graph:
        return user_of
    return np.append(users, -1)[user_of]  # an unmatched ring's -1 picks the appended -1


def _hopcroft_karp(members: list[list[int]], ring_of: list[int], user_of: list[int]) -> np.ndarray:
    """The user of each ring in a maximum matching grown from a given one (Hopcroft-Karp).

    ``ring_of`` gives each user's ring and ``user_of`` each ring's user,
    -1 where free; both are updated in place.  Each phase grows the
    matching along a maximal set of shortest augmenting paths: a BFS from
    the free rings layers the rings by alternating-path distance, up to
    the first layer with a free member, and a DFS from each free ring
    follows only edges into the next layer, abandoning rings that lead
    nowhere.  Rings and members are always scanned in ascending order, so
    from an empty matching the first phase gives each ring in turn its
    lowest free member.
    """
    n_rings = len(user_of)
    while True:
        free = [r for r, u in enumerate(user_of) if u == -1 and members[r]]
        # layer[r]: alternating-path distance of ring r from the free rings
        layer = [-1] * n_rings
        for r in free:
            layer[r] = 0
        frontier = free
        depth = 0
        found = False
        while frontier and not found:
            nxt = []
            for r in frontier:
                for u in members[r]:
                    owner = ring_of[u]
                    if owner == -1:
                        found = True
                    elif layer[owner] == -1:
                        layer[owner] = depth + 1
                        nxt.append(owner)
                if found:
                    break
            if not found:
                frontier = nxt
                depth += 1
        if not found:
            return np.array(user_of, dtype=np.int64)
        # shortest augmenting paths end at a free user next to a ring of layer
        # ``depth``; rings deeper than that were labelled in the last BFS
        # layer and are not descended into
        for root in free:
            path = [root]  # rings from the root down
            via: list[int] = []  # via[i]: user leading from path[i] to path[i + 1]
            iters = [iter(members[root])]
            while path:
                r = path[-1]
                for u in iters[-1]:
                    owner = ring_of[u]
                    if owner == -1:
                        via.append(u)
                        for ring, user in zip(path, via):
                            ring_of[user] = ring
                            user_of[ring] = user
                        path = []
                        break
                    if layer[owner] == layer[r] + 1 <= depth:
                        via.append(u)
                        path.append(owner)
                        iters.append(iter(members[owner]))
                        break
                else:
                    layer[r] = -1  # dead end for the rest of this phase
                    path.pop()
                    iters.pop()
                    if via:
                        via.pop()


def _array_matching(graph: TransactionGraph) -> np.ndarray:
    """The user of each ring in a maximum matching, -1 where unmatched, by numpy rounds.

    1. proposals: each free ring proposes to its first free member and
       each user takes the lowest ring that proposes to it
       (``np.minimum.at``), round after round on the edges between free
       rings and free users until none is left;
    2. augmenting rounds: a BFS forest grows level by level from every
       free ring, from a ring to its members and from a matched member to
       its ring.  A ring joins the tree of the lowest edge that reaches it
       first, a free user goes to the tree of its lowest edge, and a tree
       that holds a free user keeps its lowest one and stops growing.  So
       the trees' augmenting paths are vertex-disjoint, and one walk up
       the ``parent`` pointers flips them all (Azad, Buluç & Pothen 2017,
       without grafting).  A round without a path leaves the matching
       maximum (Berge).

    Every proposal round and BFS level is one O(E) pass.  Once
    ``_MATCH_BUDGET`` passes are spent, :func:`_hopcroft_karp` finishes
    from the matching so far.  Ids are held in the narrowest signed type
    that holds them, which keeps the E-sized arrays small.
    """
    n_users, n_rings = graph.n_users, graph.n_rings
    dtype = np.min_scalar_type(-1 - max(n_users, n_rings))
    sizes = np.diff(graph._starts)
    users = graph._users.astype(dtype)
    rings = np.repeat(np.arange(n_rings, dtype=dtype), sizes)
    user_of = np.full(n_rings, -1, dtype)
    ring_of = np.full(n_users, -1, dtype)
    budget = _MATCH_BUDGET
    first = np.full(max(n_users, n_rings), _INTP_MAX, dtype=np.intp)
    # 1. proposals, each ring's first live edge; ascending positions are ascending rings
    live_r, live_u = rings, users
    while live_r.size and budget:
        budget -= 1
        heads = np.ones(live_r.size, dtype=bool)
        np.not_equal(live_r[1:], live_r[:-1], out=heads[1:])
        heads = np.flatnonzero(heads)
        won = _first_claims(first, live_u[heads], heads)
        user_of[live_r[won]] = live_u[won]
        ring_of[live_u[won]] = live_r[won]
        keep = (user_of.take(live_r) < 0) & (ring_of.take(live_u) < 0)
        live_r, live_u = live_r[keep], live_u[keep]
    # 2. augmenting rounds
    tree = np.empty(n_rings + 1, dtype)  # slot n_rings, the ring -1 of a free user, is never reached
    parent = np.empty(n_rings, dtype)
    while budget:
        frontier = np.flatnonzero(user_of < 0).astype(dtype)
        tree.fill(-1)
        tree[frontier] = frontier
        tree[n_rings] = n_rings
        done = np.zeros(n_rings, dtype=bool)  # by root: the tree holds a free user
        ends, free_users = [frontier[:0]], [frontier[:0]]  # each path's last ring and free user
        while frontier.size and budget:
            budget -= 1
            count = sizes[frontier]
            edges = np.repeat(graph._starts[frontier] - _offsets(count)[:-1], count)
            edges += np.arange(edges.size)
            at, member = rings.take(edges), users.take(edges)
            owner = ring_of.take(member)
            # free members: each goes to its lowest edge's tree, and each tree keeps its lowest
            hit = np.flatnonzero(owner < 0)
            hit = _first_claims(first, member[hit], hit)
            hit = _first_claims(first, tree.take(at[hit]), hit)
            done[tree.take(at[hit])] = True
            ring_of[member[hit]] = at[hit]  # taken for the rest of the round
            ends.append(at[hit])
            free_users.append(member[hit])
            # matched members: each unreached ring joins the tree of its lowest edge
            step = np.flatnonzero((tree.take(owner) < 0) & ~done[tree.take(at)])
            step = _first_claims(first, owner[step], step)
            frontier = owner[step]
            tree[frontier] = tree.take(at[step])
            parent[frontier] = at[step]
        r, u = np.concatenate(ends), np.concatenate(free_users)
        if not (r.size or frontier.size):
            return user_of.astype(np.int64)  # no augmenting path is left (Berge)
        while r.size:  # flip every path at once, a ring of each a step, from its free user up
            old = user_of[r]
            user_of[r] = u
            ring_of[u] = r
            up = old >= 0
            r, u = parent[r[up]], old[up]
        if frontier.size:  # the budget ran out inside the round
            break
    return _hopcroft_karp(_member_lists(graph), ring_of.tolist(), user_of.tolist())


def _first_claims(first: np.ndarray, keys: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Of ascending ``positions``, each that comes first among those of its key in ``keys``.

    ``first`` is scratch space with a slot per key, each at the largest
    ``intp``, as it is left on return.  ``np.minimum.at`` picks the
    winners: a fancy assignment with repeated keys leaves which write wins
    unspecified.
    """
    np.minimum.at(first, keys, positions)
    won = first.take(keys) == positions
    first[keys] = _INTP_MAX
    return positions[won]


def _occurring_users(graph: TransactionGraph) -> tuple[TransactionGraph, Sequence[int]]:
    """``graph`` on the users that occur, and each of its users' index in ``graph``.

    Returns ``graph`` itself and ``range(n_users)`` unless the header names
    more users than there are edges, so work sized by users is bounded by
    the edges.  The users that occur are relabelled in ascending order,
    which keeps each ring's member order: per-member results carry over.
    """
    if graph.n_users <= graph.edge_count:
        return graph, range(graph.n_users)
    users, relabelled = np.unique(graph._users, return_inverse=True)
    return TransactionGraph._from_csr(users.shape[0], relabelled, graph._starts), users.tolist()


def _covering_matching(graph: TransactionGraph) -> np.ndarray:
    """The user of each ring in a matching that covers every ring: the transaction-graph certificate.

    The array of :func:`_matched_users`, which the core reads as it is.
    Cheap necessary conditions are checked before any matching runs: every
    ring has a member (:class:`EmptyRing`) and all rings together touch at
    least as many users as there are rings (Hall's condition for the whole
    ring set).  Raises :class:`NotATransactionGraph` when the maximum
    matching leaves a ring unmatched.
    """
    sizes = np.diff(graph._starts)
    if not sizes.all():
        raise EmptyRing(int(sizes.argmin()))
    users = np.sort(graph._users)  # np.unique would import numpy.ma
    touched = int(np.count_nonzero(np.diff(users))) + 1 if users.size else 0
    if touched < graph.n_rings:
        raise NotATransactionGraph(
            f"{graph.n_rings} rings have only {touched} distinct members"
        )
    user_of = _matched_users(graph)
    size = int(np.count_nonzero(user_of >= 0))
    if size != graph.n_rings:
        raise NotATransactionGraph(
            f"maximum matching has size {size} < {graph.n_rings} rings"
        )
    return user_of


def validate(graph: TransactionGraph) -> TransactionGraph:
    """Check the full transaction-graph contract, returning the graph.

    Raises :class:`EmptyRing` for a memberless ring and
    :class:`NotATransactionGraph` when no matching covers every ring.
    """
    _covering_matching(graph)
    return graph


def _require_covering(graph: TransactionGraph, signers: np.ndarray) -> None:
    """Raise unless ``signers``, one user per ring, are each in their own ring and distinct.

    The one check of a signer assignment: the graph sampler makes it on a
    block's union graph, and :func:`_ring_signers` turns a caller's
    :class:`Matching` into ``signers`` first.  Once every signer is a
    member, ``bincount`` counts them in at most ``n_users`` slots; a sort
    would page in numpy's SIMD sort kernels, about 0.1 MB more campaign
    peak RSS on an AVX-512 x86-64 host.
    """
    starts = graph._starts
    held = graph._users == np.repeat(signers, np.diff(starts))  # at most once per ring
    if np.count_nonzero(held) < graph.n_rings:
        r = int(np.argmax(np.diff(_offsets(held)[starts]) == 0))
        raise ValueError(f"matching pair ({int(signers[r])}, {r}) is not an edge")
    if (np.bincount(signers) > 1).any():
        raise ValueError("matching reuses a user")


def _ring_signers(graph: TransactionGraph, matching: Matching) -> np.ndarray:
    """The user of each ring of ``graph`` under ``matching``, which must name every ring once.

    The pairs are distinct rings in ascending order, so they name exactly
    ``0..n_rings-1`` when there are ``n_rings`` of them and the first and
    last lie in range.
    """
    if matching.size != graph.n_rings:
        raise MatchingNotMaximum(
            f"matching covers {matching.size} of {graph.n_rings} rings"
        )
    for u, r in matching.pairs[:1] + matching.pairs[-1:]:
        if not 0 <= r < graph.n_rings:
            raise ValueError(f"matching pair ({u}, {r}) is not an edge")
    try:
        return np.fromiter((u for u, _ in matching.pairs), dtype=np.int64, count=matching.size)
    except OverflowError:  # a user beyond int64 is in no ring
        u, r = next((u, r) for u, r in matching.pairs if not -_INT64_MAX - 1 <= u <= _INT64_MAX)
        raise ValueError(f"matching pair ({u}, {r}) is not an edge") from None


def upper_graph(graph: TransactionGraph, matching: Matching) -> TransactionGraph:
    """Balanced subgraph on the matched users, relabelled so user j signs ring j."""
    m = graph.n_rings
    nodes, rings = _edge_nodes(graph, matching)
    signed = nodes < m
    return TransactionGraph._from_csr(m, *_ring_members(m, m, nodes[signed], rings[signed]))


def _edge_nodes(graph: TransactionGraph, matching: Matching) -> tuple[np.ndarray, np.ndarray]:
    """Node of each edge's user and the edge's ring, for a covering ``matching``.

    Ring j's signer becomes node j and the other users follow ascending.
    """
    signers = _ring_signers(graph, matching)
    _require_covering(graph, signers)
    relabel = np.full(graph.n_users, -1, dtype=np.int64)
    relabel[signers] = np.arange(graph.n_rings)
    relabel[relabel < 0] = np.arange(graph.n_rings, graph.n_users)
    return relabel[graph._users], graph._ring_ids()


def induced_digraph(graph: TransactionGraph, matching: Matching) -> Digraph:
    """Digraph on user nodes: edge i -> j when user i sits in ring j (i != j).

    Users are relabelled so that ring j's matched user is node j; unmatched
    users take nodes ``n_rings..n_users-1`` in ascending original order.
    """
    nodes, rings = _edge_nodes(graph, matching)
    decoys = nodes != rings
    return Digraph._from_arrays(graph.n_users, nodes[decoys], rings[decoys])


# -- digraph algorithms ------------------------------------------------------
#
# The core asks for strong components (trim, colour and close sweeps, with
# Tarjan for small graphs and for what the sweep budget leaves) and the
# adversary campaign for core equality (the label test), both of digraphs
# given as flat edge arrays, ``tails[i] -> heads[i]``.  Component labels
# only tell nodes apart: they carry no topological order.  The conjecture
# grid asks for strong connectivity (the array walk) of digraphs given as
# the sampler's in-neighbour table.  The two block kernels check graphs of
# any sizes side by side, one call per block.

# Below this many edges :func:`_strong_components` runs Tarjan alone: on
# core digraphs the sweeps' fixed numpy cost ties with Tarjan near 500
# edges and wins clearly from about 1,000 (2-vCPU Xeon, numpy 2.4).
_SWEEP_MIN_EDGES = 1024
# O(E) sweeps :func:`_strong_components` may spend before Tarjan labels what
# is left.  A path loses one node at each end per trim sweep and a cycle of
# c nodes takes about 2c colour and close sweeps; the core digraphs of
# bench edge lists take one round of 13 sweeps at 2^11 users, 18 at 2^16.
_SWEEP_BUDGET = 32


def _tarjan(n_nodes: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Strong component id of every node (iterative Tarjan, O(n + m)).

    Ids count components in the order Tarjan closes them; a reference for
    tests and the finisher of :func:`_strong_components`.  One stable
    argsort of ``tails`` gives the successor lists, each in edge order.  A
    node is on Tarjan's stack exactly when it has an index but no
    component yet.
    """
    flat = heads[np.argsort(tails, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(tails, minlength=n_nodes)).tolist()
    succ = [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]
    index = [-1] * n_nodes
    low = [0] * n_nodes
    comp = [-1] * n_nodes
    stack: list[int] = []
    counter = 0
    n_comps = 0
    for root in range(n_nodes):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            v, it = frames[-1]
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    frames.append((w, iter(succ[w])))
                    break
                if comp[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comps
                        if w == v:
                            break
                    n_comps += 1
    return np.array(comp, dtype=np.int64)


def _strong_components(n_nodes: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Label of every node's strong component: equal labels, one component.

    Graphs of fewer than ``_SWEEP_MIN_EDGES`` edges go to :func:`_tarjan`.
    Larger ones repeat three steps on the live nodes, those not yet
    labelled, and the live edges between them (McLendon et al. 2005; Orzan
    2004):

    1. trim: a node without a live in-edge or without a live out-edge is a
       component of its own, labelled with its own id;
    2. colour: each node takes the largest id of a node that reaches it, by
       ``np.maximum.at`` sweeps to a fixpoint.  Node c then has colour c,
       and a component lies inside one colour, so the edges between
       colours go;
    3. close: the nodes of colour c that reach c, found by a backward walk
       inside the colour, are c's component, labelled c.

    Every sweep is one O(E) pass.  Once ``_SWEEP_BUDGET`` sweeps are spent,
    :func:`_tarjan` labels the live nodes, its labels offset by ``n_nodes``
    past every node id.  Ids and edges are held in the narrowest integer
    type that holds the labels, which keeps the E-sized arrays small.
    """
    if tails.size < _SWEEP_MIN_EDGES:
        return _tarjan(n_nodes, tails, heads)
    dtype = np.min_scalar_type(2 * n_nodes)
    nodes = np.arange(n_nodes, dtype=dtype)
    label = nodes.copy()
    live = np.ones(n_nodes, dtype=bool)
    tails, heads = tails.astype(dtype), heads.astype(dtype)
    sweeps = iter(range(_SWEEP_BUDGET))
    while tails.size:
        for _ in sweeps:  # 1. trim
            ends = np.zeros((2, n_nodes), dtype=bool)
            ends[0, heads] = True
            ends[1, tails] = True
            cut = live & ~(ends[0] & ends[1])
            if not cut.any():
                break
            live &= ~cut
            tails, heads = _live_edges(live, tails, heads)
        else:
            break
        colour, total = nodes.copy(), -1
        for _ in sweeps:  # 2. colour; colours only rise
            if total == (total := int(colour.sum())):
                break
            np.maximum.at(colour, heads, colour.take(tails))
        else:
            break
        inside = colour.take(tails) == colour.take(heads)
        tails, heads = tails[inside], heads[inside]
        closed = live & (colour == nodes)
        for _ in sweeps:  # 3. close, from each colour's root
            step = closed.take(heads) & ~closed.take(tails)
            if not step.any():
                break
            closed[tails[step]] = True
        else:
            break
        label[closed] = colour[closed]
        live &= ~closed
        tails, heads = _live_edges(live, tails, heads)
    else:
        return label
    rest = np.flatnonzero(live)
    index = np.zeros(n_nodes, dtype=dtype)
    index[rest] = np.arange(rest.size, dtype=dtype)
    label[rest] = n_nodes + _tarjan(rest.size, index.take(tails), index.take(heads))
    return label


def _live_edges(live: np.ndarray, tails: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges whose ends are both live."""
    keep = live.take(tails) & live.take(heads)
    return tails[keep], heads[keep]


# The forward walk of :func:`_strongly_connected_graphs` pulls first through
# this many bottom rows of the in-neighbour table, on tables more than twice
# as tall.  Summed over the kernel calls of the bench grids, a 4-row band
# at every height made the small grid's tables of K = 5-8 rows 2-12% slower
# (they need more pulls); from K = 13 none was over 1% slower, and the large
# grid's tables of K >= 16 were 19-36% faster.  Bands of 2 or 3 rows were
# slower than 4 on both grids; one of 6 rows was faster on the small grid
# and slower on the large one (2-vCPU Xeon, numpy 2.4).
_BAND_ROWS = 4


def _strongly_connected_graphs(
    starts: np.ndarray, table: np.ndarray, in_degrees: np.ndarray
) -> np.ndarray:
    """Per graph of a block-diagonal digraph, whether it is strongly connected.

    Graph g owns nodes ``starts[g] .. starts[g + 1] - 1`` of the ``N``
    nodes; every graph has at least one node.  Column v of the ``(K, N)``
    in-neighbour table holds v's ``in_degrees[v]`` in-neighbours, and every
    other entry is the sentinel node N, which is never marked.  A graph
    with a node lacking an in-edge or an out-edge fails at once.  The
    others need forward and reverse reachability from their first node to
    cover all their nodes, which is equivalent to having a single SCC.  A
    forward step marks every node with a marked in-neighbour, in all live
    graphs at once, and the walk stops when every live graph is covered or
    no graph gains.  On a table of more than ``2 * _BAND_ROWS`` rows the
    forward walk first pulls through the band of its bottom ``_BAND_ROWS``
    rows, a view that holds up to that many in-neighbours of every node,
    and goes on through the full table only if the band stops gaining
    before every live graph is covered; on shorter tables the band's extra
    pulls cost more than its narrower gathers save.  The band's entries are
    edges of the digraph or the sentinel, so every node it marks is
    reachable, and the full pulls that follow end at the same closure as a
    walk on the full table alone.
    The reverse walk marks the in-neighbours of the nodes it reached last,
    so each node's column is read once.  The sampled digraph models have
    logarithmic diameter, so the walks take few steps.  Single-node graphs
    count as strongly connected.
    """
    n_nodes = table.shape[1]
    firsts = starts[:-1]
    sizes = np.diff(starts)
    has_out = np.zeros(n_nodes + 1, dtype=bool)
    has_out[table] = True
    live = np.logical_and.reduceat(has_out[:n_nodes] & (in_degrees > 0), firsts)
    # forward: a node is reached once one of its in-neighbours is
    seen = np.zeros(n_nodes + 1, dtype=bool)
    seen[firsts[live]] = True
    covered, target = int(np.count_nonzero(live)), int(sizes[live].sum())
    band = (table[-_BAND_ROWS:],) if len(table) > 2 * _BAND_ROWS else ()
    for rows in (*band, table):
        while covered < target:
            seen[:n_nodes] |= seen[rows].any(axis=0)
            marked = int(np.count_nonzero(seen))
            if marked == covered:
                break
            covered = marked
    live &= np.logical_and.reduceat(seen[:n_nodes], firsts)
    # reverse: the in-neighbours of the nodes reached last are reached
    frontier = firsts[live]
    seen = np.zeros(n_nodes, dtype=bool)
    seen[frontier] = True
    covered, target = frontier.size, int(sizes[live].sum())
    while covered < target and frontier.size:
        step = np.zeros(n_nodes + 1, dtype=bool)
        step[table[:, frontier]] = True
        frontier = np.flatnonzero(step[:n_nodes] & ~seen)
        seen[frontier] = True
        covered += frontier.size
    live &= np.logical_and.reduceat(seen, firsts)
    return live | (sizes == 1)


def _core_equal_graphs(starts: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per graph of a block-diagonal digraph, whether no edge joins two strong components.

    The layout is that of :func:`_strongly_connected_graphs`.  ``fwd[v]``
    becomes the least node that reaches v and ``bwd[v]`` the least node v
    reaches, each by ``np.minimum.at`` label propagation along the edges
    to a fixpoint.  A graph passes iff ``fwd == bwd`` on all its nodes:
    then each v shares a strong component with its label m, and an edge
    a -> b gives ``m_b = fwd[b] <= fwd[a] = m_a = bwd[a] <= bwd[b] = m_b``;
    conversely, when every weak component is strongly connected both
    labels are the least node of v's component.  For the decoy -> signer
    digraph of a balanced graph this is core equality.  After s sweeps
    each node holds the least label within s edges of it, so the sweeps
    number one more than the longest such distance, below the size of the
    largest graph.
    """
    labels = []
    for tails, heads in ((src, dst), (dst, src)):
        label = np.arange(starts[-1])
        total = -1
        while total != (total := int(label.sum())):  # labels only fall
            np.minimum.at(label, heads, label[tails])
        labels.append(label)
    fwd, bwd = labels
    return np.logical_and.reduceat(fwd == bwd, starts[:-1])


def is_strongly_connected(digraph: Digraph) -> bool:
    """Whether every ordered node pair is joined by a directed path.

    True when :func:`_strong_components` gives every node one label.  A
    single-node digraph counts as strongly connected and the empty digraph
    does not.
    """
    n = digraph.n_nodes
    if n == 0:
        return False
    label = _strong_components(n, digraph._src, digraph._dst)
    return bool((label == label[0]).all())


# -- partitioning ------------------------------------------------------------


def partition_graph(graph: TransactionGraph, partition: Partition) -> list[GraphChunk]:
    """Split a graph along a user partition into locally reindexed subgraphs.

    Every ring must lie entirely inside one chunk; rings crossing chunks
    cannot arise from a partitioning sampler and raise
    :class:`RingCrossesChunks`.
    """
    if partition.n_users != graph.n_users:
        raise ValueError(
            f"partition covers {partition.n_users} users, graph has {graph.n_users}"
        )
    users, starts = graph._users, graph._starts
    sizes = np.diff(starts)
    chunk = partition._chunk_of[users]
    rings = graph._ring_ids()
    bad = sizes == 0
    bad[rings[chunk != chunk[starts[rings]]]] = True  # not in its ring's first member's chunk
    if bad.any():
        r = int(np.argmax(bad))
        if not sizes[r]:
            raise EmptyRing(r)
        raise RingCrossesChunks(f"ring {r} spans multiple chunks")
    # rings grouped by chunk, ascending within each, and their edges in the same order
    home = chunk[starts[:-1]]
    order = np.argsort(home, kind="stable")
    first_ring = _offsets(np.bincount(home, minlength=partition.n_chunks)).tolist()
    offsets = _offsets(sizes[order])
    local = partition._pos_in_chunk[users[np.argsort(chunk, kind="stable")]]
    flat, bounds = partition._chunk_flat.tolist(), partition._chunk_start.tolist()
    out: list[GraphChunk] = []
    for s, e, a, b in zip(bounds, bounds[1:], first_ring, first_ring[1:]):
        ring_users = local[offsets[a]:offsets[b]]
        sub = TransactionGraph._from_csr(e - s, ring_users, offsets[a:b + 1] - offsets[a])
        out.append(GraphChunk(graph=sub, users=tuple(flat[s:e]), rings=tuple(order[a:b].tolist())))
    return out
