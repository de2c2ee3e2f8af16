"""Shared graph generators and independent oracles for the test suite."""
from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest

from ringlab.core import _core_flags
from ringlab.graph import (
    Digraph,
    Matching,
    TransactionGraph,
    _require_covering,
    _ring_signers,
    maximum_matching,
)
from ringlab import adversary, samplers
from ringlab.samplers import Binomial


def make_graph(n_users, n_rings, edges):
    return TransactionGraph(n_users, n_rings, edges)


def remove_users(graph: TransactionGraph, corrupted) -> TransactionGraph:
    """Drop corrupted users' edges; ring nodes and user indices stay put.

    The corrupted-user view as the per-trial reference builds it: corrupted
    users remain as isolated vertices, so indices (and the hidden signer
    assignment) keep their meaning.
    """
    dropped = np.fromiter(corrupted, dtype=np.int64)
    return graph._subgraph(np.isin(graph._users, dropped, invert=True))


@pytest.fixture
def toy_graph():
    """Three users, three rings; ring 2 contains everyone, rings 0/1 only
    their signers.  The unique maximum matching pins down every signer."""
    return make_graph(3, 3, [(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)])


def random_valid_graph(
    gen: np.random.Generator,
    max_users: int = 7,
    *,
    balanced: bool = False,
    min_users: int = 1,
    extra_edge_prob: float = 0.35,
) -> TransactionGraph:
    """Random transaction graph, valid by construction.

    A random injection of rings into users is embedded first, so a
    covering matching always exists; extra edges are sprinkled on top.
    """
    n = int(gen.integers(min_users, max_users + 1))
    m = n if balanced else int(gen.integers(0, n + 1))
    signers = gen.permutation(n)[:m]
    edges = {(int(signers[j]), j) for j in range(m)}
    for u in range(n):
        for r in range(m):
            if (u, r) not in edges and gen.random() < extra_edge_prob:
                edges.add((u, r))
    graph = TransactionGraph(n, m, edges)
    _require_covering(graph, signers)
    return graph


def relabelled_matching(graph: TransactionGraph, gen: np.random.Generator) -> Matching:
    """A maximum matching of ``graph`` found under random user and ring labels.

    ``maximum_matching`` runs on a copy with both sides permuted, which
    changes the order it scans rings and members in, and the result is
    mapped back to the original labels.
    """
    user_perm = gen.permutation(graph.n_users).tolist()
    ring_perm = gen.permutation(graph.n_rings).tolist()
    relabelled = TransactionGraph(
        graph.n_users,
        graph.n_rings,
        ((user_perm[u], ring_perm[r]) for u, r in graph.edges),
    )
    user_back = {p: u for u, p in enumerate(user_perm)}
    ring_back = {p: r for r, p in enumerate(ring_perm)}
    return Matching((user_back[u], ring_back[r]) for u, r in maximum_matching(relabelled))


def _core_member_flags(graph: TransactionGraph, matching: Matching) -> np.ndarray:
    """Per edge of ``graph``, ring by ring in member order, whether it is in the core.

    The core's flags taken from a given covering ``matching`` instead of the
    one the core computes; only ``matching``'s rings are checked.
    """
    signers = _ring_signers(graph, matching)[graph._ring_ids()]
    return _core_flags(graph.n_users, graph._users, signers)


def weakly_connected(graph: TransactionGraph) -> bool:
    """Whether the bipartite graph is connected ignoring edge direction."""
    total = graph.n_users + graph.n_rings
    if total <= 1:
        return True
    if graph.edge_count == 0:
        return False
    rings_of: list[list[int]] = [[] for _ in range(graph.n_users)]
    for r in range(graph.n_rings):
        for u in graph.ring_members(r):
            rings_of[u].append(r)
    seen_users: set[int] = set()
    seen_rings: set[int] = set()
    first_ring = next(
        r for r in range(graph.n_rings) if graph.ring_members(r)
    )
    stack = [("r", first_ring)]
    seen_rings.add(first_ring)
    while stack:
        kind, idx = stack.pop()
        if kind == "r":
            for u in graph.ring_members(idx):
                if u not in seen_users:
                    seen_users.add(u)
                    stack.append(("u", u))
        else:
            for r in rings_of[idx]:
                if r not in seen_rings:
                    seen_rings.add(r)
                    stack.append(("r", r))
    return len(seen_users) == graph.n_users and len(seen_rings) == graph.n_rings


def random_connected_balanced_graph(
    gen: np.random.Generator, max_users: int = 7, min_users: int = 2
) -> TransactionGraph:
    while True:
        g = random_valid_graph(gen, max_users, balanced=True, min_users=min_users)
        if weakly_connected(g):
            return g


def reach_matrix(digraph: Digraph) -> list[list[bool]]:
    """Independent reachability oracle: ``reach[i][j]`` when a directed path
    leads from i to j (every node reaches itself), by Floyd-Warshall closure."""
    n = digraph.n_nodes
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in digraph.edges():
        reach[i][j] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return reach


def sc_bruteforce(digraph: Digraph) -> bool:
    """Independent strong-connectivity oracle: every node reaches every node."""
    return digraph.n_nodes > 0 and all(map(all, reach_matrix(digraph)))


def exact_not_sc_regular(k: int, n: int) -> float:
    """Enumerate every in-neighbor assignment; all are equally likely."""
    total = 0
    bad = 0
    for assignment in product(
        *(combinations([i for i in range(n) if i != j], k) for j in range(n))
    ):
        total += 1
        edges = [(i, j) for j, nbrs in enumerate(assignment) for i in nbrs]
        if not sc_bruteforce(Digraph(n, edges)):
            bad += 1
    return bad / total


def exact_not_sc_binomial(p: float, n: int) -> float:
    """Sum over all edge subsets weighted by p^|E| (1-p)^(N-|E|)."""
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    prob_bad = 0.0
    for mask in range(1 << len(slots)):
        edges = [slots[b] for b in range(len(slots)) if mask >> b & 1]
        weight = p ** len(edges) * (1 - p) ** (len(slots) - len(edges))
        if not sc_bruteforce(Digraph(n, edges)):
            prob_bad += weight
    return prob_bad


def floyd_column(draws: list[int], pool: int) -> list[int]:
    """Floyd's uniform ``len(draws)``-subset of ``range(pool)``, one step per draw.

    Draw i lies in ``[0, pool - len(draws) + i]``; it is kept unless already
    chosen, when the step's top value is taken instead.  Returns the chosen
    values in step order.
    """
    chosen: list[int] = []
    for i, t in enumerate(draws):
        top = pool - len(draws) + i
        chosen.append(top if t in chosen else t)
    return chosen


_MASK32 = (1 << 32) - 1


class LayoutStream:
    """The reference of stream layout 3 on ``(seed, stream_id)``, from fresh Philox objects.

    One object is one block's stream.  ``gen`` is a numpy ``Generator`` on
    the stream's main run, for the permutations and binomial counts.
    :meth:`main_words` takes the next 32-bit words of the main run
    (``random_raw``, the low half of each raw word first, an odd count
    dropping the last high half), and :meth:`value` makes a bounded value
    from one of them by scalar Lemire arithmetic: a rejected word is
    replaced by the next word of the overflow run, a second Philox on the
    same key at counter (0, 0, 0, 1), until one is accepted.  One object
    keeps one overflow run, as a block and a reused ``RandomSource`` do.
    """

    def __init__(self, seed: int, stream_id: int):
        key = np.array([seed, stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))
        self._overflow = np.random.Philox(key=key, counter=[0, 0, 0, 1])
        self._spare: list[int] = []
        self.overflow_words = 0  # overflow words taken so far

    def main_words(self, count: int) -> list[int]:
        words = []
        for raw in self.gen.bit_generator.random_raw((count + 1) // 2).tolist():
            words += [raw & _MASK32, raw >> 32]
        return words[:count]

    def _overflow_word(self) -> int:
        if not self._spare:
            raw = int(self._overflow.random_raw())
            self._spare = [raw >> 32, raw & _MASK32]
        self.overflow_words += 1
        return self._spare.pop()

    def value(self, word: int, bound: int) -> int:
        while word * bound & _MASK32 < ((1 << 32) - bound) % bound:
            word = self._overflow_word()
        return word * bound >> 32

    def draw(self, bounds) -> np.ndarray:
        """Values below ``bounds``, value i in row-major order taking main-run word i."""
        bounds = np.asarray(bounds, dtype=np.int64)
        words = self.main_words(bounds.size)
        values = [self.value(w, r) for w, r in zip(words, bounds.ravel().tolist())]
        return np.array(values, dtype=np.int64).reshape(bounds.shape)


def block_streams(seed: int, base: int, trials: int, n: int):
    """A campaign's blocks as layout 3 lays them out: ``(size, LayoutStream(seed, base + j))``.

    Block j holds ``max(1, _BLOCK_NODES // n)`` trials of n-node graphs,
    the last block the rest; ``_BLOCK_NODES`` is read at the call.
    """
    block = max(1, samplers._BLOCK_NODES // n)
    return [
        (min(block, trials - start), LayoutStream(seed, base + j))
        for j, start in enumerate(range(0, trials, block))
    ]


def inject_words(monkeypatch, word: int, where) -> None:
    """Replace main-run words of every draw, in the engines and in :class:`LayoutStream`.

    ``where(stream_id, count)`` gives the positions among the ``count``
    words of a draw on stream ``stream_id``, a block's stream, and each of
    them becomes ``word``: one draw is one ``_raw_words`` call of the
    samplers or the single-graph adversaries and one ``main_words`` call
    of the reference.
    """
    raw_words = samplers._raw_words
    main_words = LayoutStream.main_words

    def engine(bitgen, count):
        out = raw_words(bitgen, count).copy()
        out[list(where(int(bitgen.state["state"]["key"][1]), count))] = word
        return out

    def reference(self, count):
        out = main_words(self, count)
        for i in where(int(self.gen.bit_generator.state["state"]["key"][1]), count):
            out[i] = word
        return out

    monkeypatch.setattr(samplers, "_raw_words", engine)
    monkeypatch.setattr(adversary, "_raw_words", engine)
    monkeypatch.setattr(LayoutStream, "main_words", reference)


def reference_digraph_block(n: int, k, p, trials: int, stream: LayoutStream, decide=False):
    """The reference of a block of ``trials`` n-node digraph draws under layout 3, made by ``stream``.

    ``p`` None is the k-regular model, whose in-degrees take no draw;
    otherwise each trial's in-degrees in turn are one
    ``gen.binomial(n - 1, p, size=n)`` call (none at n = 1).  With
    ``decide``, a trial with an in-degree of 0 at n >= 2 is dropped.  The
    kept trials' ``(K, B*n)`` draw, K their largest in-degree, takes
    ``K*B*n`` main-run words in row-major order, row s below ``n - K + s``.
    Returns the kept trials' in-degrees, flat, the draw, and every trial's
    in-degrees, one row per trial.
    """
    if p is None or n == 1:
        rows = [np.full(n, k if p is None else 0, dtype=np.int64) for _ in range(trials)]
    else:
        rows = [stream.gen.binomial(n - 1, p, size=n) for _ in range(trials)]
    kept = [row for row in rows if row.all() or not decide or n == 1]
    degrees = np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
    k_max = int(degrees.max(initial=0))
    bounds = np.broadcast_to(np.arange(n - k_max, n)[:, None], (k_max, degrees.size))
    return degrees, stream.draw(bounds), rows


def reference_digraphs(n: int, degrees: np.ndarray, x: np.ndarray) -> list[Digraph]:
    """The digraphs of a :func:`reference_digraph_block`: node v's in-neighbours by Floyd."""
    k_max = x.shape[0]
    digraphs = []
    for b in range(degrees.size // n):
        edges = []
        for v in range(n):
            d = int(degrees[b * n + v])
            picks = floyd_column(x[k_max - d:, b * n + v].tolist(), n - 1)
            edges += [(u + (u >= v), v) for u in picks]  # skip the node itself
        digraphs.append(Digraph(n, edges))
    return digraphs


def reference_graph_block(config, m: int, graphs: int, stream: LayoutStream):
    """The reference of a block of ``graphs`` m-signer transaction graphs under layout 3.

    Every draw comes from ``stream``, in the samplers' order: each graph's
    signer permutation in turn, its first m users; under the binomial
    model each graph's ``gen.binomial`` call for its decoy counts in turn;
    then ``K*B*m + B`` main-run words, K the block's largest count.  Word
    ``s*B*m + b*m + j`` gives step s of graph b's signer j, below
    ``pool - K + 1 + s`` (or 1); the values are made in that order, so
    rejected ones take their overflow words in it.  Each ring is resolved
    by :func:`floyd_column` from its last count rows.  Returns, per graph,
    the graph, the signer assignment and the guess word, the block's word
    ``K*B*m + b``.
    """
    gen = stream.gen
    part = config.partition
    signers = [gen.permutation(config.n_users)[:m].tolist() for _ in range(graphs)]
    mates = []  # each signer's chunk mates, in the partition's order
    for row in signers:
        mates.append([])
        for s in row:
            c = part.chunk_of(s)
            chunk = part._chunk_flat[part._chunk_start[c]:part._chunk_start[c + 1]].tolist()
            mates[-1].append([u for u in chunk if u != s])
    pools = np.array([[len(c) for c in row] for row in mates], dtype=np.int64).reshape(graphs, m)
    if isinstance(config.kind, Binomial):
        counts = [gen.binomial(row, config.kind.p).tolist() for row in pools]
    else:
        counts = [[config.kind.k] * m for _ in range(graphs)]
    k_max = max((c for row in counts for c in row), default=0)
    words = stream.main_words(k_max * graphs * m + graphs)
    floyd_words, guess_words = words[:k_max * graphs * m], words[k_max * graphs * m:]
    steps = np.arange(k_max)[:, None]
    bound = np.maximum(pools.reshape(-1) + steps - k_max + 1, 1).ravel().tolist()
    draw = np.array([stream.value(w, r) for w, r in zip(floyd_words, bound)], dtype=np.int64)
    draw = draw.reshape(k_max, graphs * m)
    block = []
    for b in range(graphs):
        edges = []
        for j, (s, c) in enumerate(zip(signers[b], counts[b])):
            picks = floyd_column(draw[k_max - c:, b * m + j].tolist(), len(mates[b][j]))
            edges += [(s, j)] + [(mates[b][j][i], j) for i in picks]
        graph = TransactionGraph(config.n_users, m, edges)
        block.append((graph, Matching(zip(signers[b], range(m))), guess_words[b]))
    return block


def chi_square(values, bins: int) -> float:
    """Pearson's statistic of ``values`` in ``range(bins)`` against equal frequencies."""
    counts = np.bincount(values, minlength=bins)
    expected = len(values) / bins
    return float(((counts - expected) ** 2).sum() / expected)


# upper 0.001 quantiles of the chi-square distribution, by degrees of freedom
CHI_SQUARE_999 = {2: 13.816, 4: 18.467, 15: 37.697}


def permanent(matrix: list[list[int]]) -> int:
    """Permanent by expansion over the first row; fine for n <= 8."""
    size = len(matrix)
    if size == 0:
        return 1
    cols = list(range(size))

    def rec(r: int, used: int) -> int:
        if r == size:
            return 1
        total = 0
        for c in cols:
            if matrix[r][c] and not used >> c & 1:
                total += rec(r + 1, used | 1 << c)
        return total

    return rec(0, 0)
