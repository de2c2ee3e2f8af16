"""Graph types and operations against small oracles and stated invariants."""
import hashlib
import itertools
import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from ringlab import graph as graph_module
from ringlab.core import core
from ringlab.errors import (
    EmptyRing,
    IndexOutOfRange,
    MatchingNotMaximum,
    NotATransactionGraph,
    RingCrossesChunks,
)
from ringlab.graph import (
    Digraph,
    Matching,
    Partition,
    TransactionGraph,
    _core_equal_graphs,
    _MATCH_BUDGET,
    _SWEEP_BUDGET,
    _matched_users,
    _occurring_users,
    _strong_components,
    _strongly_connected_graphs,
    _tarjan,
    induced_digraph,
    is_strongly_connected,
    maximum_matching,
    partition_graph,
    upper_graph,
    validate,
)
from ringlab.samplers import (
    Binomial,
    RandomSource,
    Regular,
    SamplerConfig,
    _binomial_draw,
    _digraph_block,
    _graph_block,
    _graph_draw,
    _regular_draw,
    sample_binomial_digraph,
    sample_regular_digraph,
    sample_transaction_graph,
)

from conftest import (
    _core_member_flags,
    make_graph,
    random_valid_graph,
    reach_matrix,
    remove_users,
    relabelled_matching,
    sc_bruteforce,
)


# -- construction and validation ------------------------------------------------


def test_validate_toy(toy_graph):
    assert validate(toy_graph) is toy_graph
    assert maximum_matching(toy_graph).size == 3


def test_validate_zero_rings():
    g = make_graph(3, 0, [])
    assert validate(g) is g


@pytest.mark.parametrize("n_users", [2**63, 2**40])
def test_validate_and_matching_bounded_by_edges_not_header(n_users):
    # users in no ring take no memory: a header past int64 or RAM still runs
    g = TransactionGraph(n_users, 1, [(0, 0)])
    tracemalloc.start()
    try:
        assert validate(g) is g
        assert maximum_matching(g) == Matching([(0, 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_validate_rejects_unmatchable():
    g = make_graph(2, 2, [(0, 0), (0, 1)])
    with pytest.raises(NotATransactionGraph):
        validate(g)


def test_validate_rejects_unmatchable_past_hall_exit():
    # rings 0 and 1 share their only member, yet all three rings together
    # touch three users, so only the matching-size check can reject it
    g = make_graph(3, 3, [(0, 0), (0, 1), (1, 2), (2, 2)])
    with pytest.raises(NotATransactionGraph, match=r"maximum matching has size 2 < 3 rings"):
        validate(g)


def test_validate_rejects_empty_ring():
    g = make_graph(3, 2, [(0, 0), (1, 0)])
    with pytest.raises(EmptyRing) as exc:
        validate(g)
    assert "EmptyRing at ring 1" in str(exc.value)


def test_more_rings_than_users_rejected():
    with pytest.raises(NotATransactionGraph):
        make_graph(2, 3, [(0, 0), (1, 1), (0, 2)])


def test_bad_indices_rejected():
    with pytest.raises(IndexOutOfRange):
        make_graph(2, 2, [(2, 0), (0, 1)])
    with pytest.raises(IndexOutOfRange):
        make_graph(2, 2, [(0, 0), (0, 2)])


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        make_graph(2, 2, [(0, 0), (0, 0), (1, 1)])


BIG = 2**70  # beyond int64


@pytest.mark.parametrize(
    "edges, error, message",
    [
        # one edge: user range, then ring range
        ([(5, 5)], IndexOutOfRange, "user index 5 outside [0, 2)"),
        ([(-1, 0)], IndexOutOfRange, "user index -1 outside [0, 2)"),
        ([(0, -1)], IndexOutOfRange, "ring index -1 outside [0, 2)"),
        # several bad edges: the first one in input order wins
        ([(0, 0), (5, 0), (0, 5)], IndexOutOfRange, "user index 5 outside [0, 2)"),
        ([(0, 0), (0, 5), (5, 0)], IndexOutOfRange, "ring index 5 outside [0, 2)"),
        ([(0, 0), (0, 0), (5, 0)], ValueError, "duplicate edge (0, 0)"),
        ([(5, 0), (0, 0), (0, 0)], IndexOutOfRange, "user index 5 outside [0, 2)"),
        ([(1, 1), (0, 0), (1, 1), (0, 0)], ValueError, "duplicate edge (1, 1)"),
        ([(0, 0), (1, 0), (1, 0), (0, 0)], ValueError, "duplicate edge (1, 0)"),
        ([(5, 0), (5, 0)], IndexOutOfRange, "user index 5 outside [0, 2)"),
        # (0, 1) and (2, 0) share the key ring * n_users + user of a 2-user graph
        ([(0, 1), (2, 0)], IndexOutOfRange, "user index 2 outside [0, 2)"),
        ([(1, 0), (-1, 1)], IndexOutOfRange, "user index -1 outside [0, 2)"),
        # integers beyond int64 are out of range, not an overflow
        ([(0, 0), (BIG, 0)], IndexOutOfRange, f"user index {BIG} outside [0, 2)"),
        ([(0, 0), (0, -BIG)], IndexOutOfRange, f"ring index {-BIG} outside [0, 2)"),
        ([(0, 0), (0, 0), (BIG, 0)], ValueError, "duplicate edge (0, 0)"),
        ([(1, BIG), (0, 0), (0, 0)], IndexOutOfRange, f"ring index {BIG} outside [0, 2)"),
    ],
)
def test_constructor_error_precedence(edges, error, message):
    forms = [list(edges), iter(edges)]
    if all(abs(v) < 2**63 for edge in edges for v in edge):
        forms.append(np.array(edges))
    for form in forms:
        with pytest.raises(error) as exc:
            TransactionGraph(2, 2, form)
        assert str(exc.value) == message


def test_constructor_when_ring_user_key_exceeds_int64():
    # n_rings * n_users > 2**63: ordering and repeats must not wrap around
    n = 2**62
    edges = [(n - 1, 3), (5, 3), (0, 0), (7, 1), (2, 2), (n - 2, 3)]
    g = TransactionGraph(n, 4, edges)
    assert [g.ring_members(r) for r in range(4)] == [(0,), (7,), (2,), (5, n - 2, n - 1)]
    with pytest.raises(ValueError, match=r"duplicate edge \(5, 3\)"):
        TransactionGraph(n, 4, edges + [(5, 3)])


def test_supplied_matching_must_cover_and_be_edges():
    g = make_graph(2, 2, [(0, 0), (1, 1)])
    uses = (lambda m: upper_graph(g, m), lambda m: induced_digraph(g, m))
    for use in uses:
        use(Matching([(0, 0), (1, 1)]))
        with pytest.raises(MatchingNotMaximum):
            use(Matching([(0, 0)]))
        with pytest.raises(ValueError, match=r"pair \(1, 0\) is not an edge"):
            use(Matching([(1, 0), (0, 1)]))
        for ring in (-1, 5):  # no ring of the graph: -1 must not wrap to the last ring
            with pytest.raises(ValueError, match=rf"pair \(1, {ring}\) is not an edge"):
                use(Matching([(0, 0), (1, ring)]))
        with pytest.raises(ValueError, match=rf"pair \({2**70}, 1\) is not an edge"):
            use(Matching([(0, 0), (2**70, 1)]))


def test_matching_rejects_reuse():
    with pytest.raises(ValueError):
        Matching([(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        Matching([(0, 0), (1, 0)])


# -- maximum matching ------------------------------------------------------------


def test_matching_toy_unique(toy_graph):
    assert maximum_matching(toy_graph).pairs == ((0, 0), (1, 1), (2, 2))


def test_matching_complete_bipartite():
    g = make_graph(3, 3, [(u, r) for u in range(3) for r in range(3)])
    assert maximum_matching(g).size == 3


def _bruteforce_max_matching_size(graph):
    best = 0
    users = range(graph.n_users)
    for m_size in range(min(graph.n_users, graph.n_rings), -1, -1):
        for rings in itertools.combinations(range(graph.n_rings), m_size):
            for perm in itertools.permutations(users, m_size):
                if all(graph.has_edge(u, r) for u, r in zip(perm, rings)):
                    return m_size
    return best


def test_matching_size_matches_bruteforce_on_random_graphs():
    gen = np.random.default_rng(42)
    for _ in range(60):
        n = int(gen.integers(1, 7))
        m = int(gen.integers(0, min(n, 5) + 1))
        edges = {
            (u, r)
            for u in range(n)
            for r in range(m)
            if gen.random() < 0.4
        }
        for r in range(m):  # no empty rings
            if not any(u for u, rr in edges if rr == r) and not any(
                (u, r) in edges for u in range(n)
            ):
                edges.add((int(gen.integers(0, n)), r))
        g = make_graph(n, m, edges)
        assert maximum_matching(g).size == _bruteforce_max_matching_size(g)


def test_matching_deterministic(toy_graph):
    gen = np.random.default_rng(7)
    for _ in range(30):
        g = random_valid_graph(gen)
        assert maximum_matching(g) == maximum_matching(g)
        alt = relabelled_matching(g, gen)
        assert set(alt.pairs) <= g.edges
        assert alt.size == maximum_matching(g).size
        assert np.array_equal(
            _core_member_flags(g, alt), _core_member_flags(g, maximum_matching(g))
        )


def _assert_maximum(graph, matching):
    """A matching of ``graph`` with no augmenting path, hence maximum (Berge).

    An alternating BFS from every unmatched ring follows any edge to a user
    and a matched user's matching edge back to its ring; reaching a free
    user would close an augmenting path.
    """
    assert all(graph.has_edge(u, r) for u, r in matching)
    assert len(matching.users) == matching.size
    ring_of = {u: r for u, r in matching}
    todo = [r for r in range(graph.n_rings) if matching.user_for_ring(r) is None]
    seen = set(todo)
    while todo:
        for u in graph.ring_members(todo.pop()):
            assert u in ring_of, f"augmenting path ends at free user {u}"
            if ring_of[u] not in seen:
                seen.add(ring_of[u])
                todo.append(ring_of[u])


def test_matching_has_no_augmenting_path_on_random_graphs():
    gen = np.random.default_rng(19)
    deficient = 0
    for n in (200, 700, 1500, 3000):
        for reach in (1.0, 0.8):  # members drawn from the first reach * n users
            m = int(gen.integers(n // 2, n + 1))
            pool = int(reach * n)
            edges = {
                (int(u), r)
                for r in range(m)
                for u in gen.integers(0, pool, size=int(gen.integers(1, 4)))
            }
            g = make_graph(n, m, edges)
            matching = maximum_matching(g)
            _assert_maximum(g, matching)
            deficient += matching.size < m
    assert deficient > 0


def _greedy_size(graph):
    taken = set()
    for r in range(graph.n_rings):
        free = [u for u in graph.ring_members(r) if u not in taken]
        if free:
            taken.add(free[0])
    return len(taken)


def test_matching_exact_where_greedy_fails_at_every_length():
    # One chain per length L: rings c_0..c_L with c_i = {a_i, a_(i+1)} and
    # c_L = {a_L}.  Users are labelled in descending chain order, so a
    # lowest-free-member pass gives c_i the user a_(i+1) and strands c_L;
    # each chain then has one augmenting path of length 2L + 1, a distinct
    # length per chain, so no single phase of shortest paths fixes them all.
    edges, expected = [], []
    users = rings = 0
    for length in range(1, 13):
        a = [users + length - i for i in range(length + 1)]
        for i in range(length + 1):
            edges.append((a[i], rings + i))
            if i < length:
                edges.append((a[i + 1], rings + i))
            expected.append((a[i], rings + i))
        users += length + 1
        rings += length + 1
    g = make_graph(users, rings, edges)
    assert _greedy_size(g) == rings - 12
    matching = maximum_matching(g)
    _assert_maximum(g, matching)
    assert matching == Matching(expected)


def test_matching_pairs_are_edges():
    gen = np.random.default_rng(11)
    for _ in range(50):
        g = random_valid_graph(gen)
        m = maximum_matching(g)
        assert m.size == g.n_rings
        assert all(g.has_edge(u, r) for u, r in m)


def _matching_rounds(budget: int):
    """``_matched_users`` runs its numpy rounds on every graph, whatever its size,
    within ``budget`` passes, and Hopcroft-Karp finishes what they leave."""
    return mock.patch.multiple(graph_module, _MATCH_MIN_EDGES=0, _MATCH_BUDGET=budget)


def _random_bipartite(gen, max_users, max_rings, reach):
    """Rings of 1-3 members drawn from the first ``reach`` share of the users, so
    that some graphs have no covering matching."""
    n = int(gen.integers(1, max_users + 1))
    m = int(gen.integers(0, min(n, max_rings) + 1))
    pool = max(1, int(reach * n))
    edges = {(int(u), r) for r in range(m) for u in gen.integers(0, pool, size=int(gen.integers(1, 4)))}
    return make_graph(n, m, edges)


def test_array_matching_is_maximum_under_every_budget():
    # every pass budget, so that Hopcroft-Karp finishes after each proposal
    # round and each BFS level; small graphs against the exhaustive size,
    # larger ones, with longer augmenting paths, against Berge's condition
    gen = np.random.default_rng(29)
    graphs = [_random_bipartite(gen, 6, 5, reach) for reach in (1.0, 0.6) for _ in range(12)]
    graphs += [_random_bipartite(gen, 80, 80, reach) for reach in (1.0, 0.8) for _ in range(8)]
    graphs += [random_valid_graph(gen, 40, extra_edge_prob=0.06) for _ in range(8)]
    deficient = 0
    for g in graphs:
        exact = _bruteforce_max_matching_size(g) if g.n_users <= 6 else None
        for budget in range(_MATCH_BUDGET + 1):
            with _matching_rounds(budget):
                user_of = _matched_users(g)
                assert np.array_equal(_matched_users(g), user_of)
                matching = maximum_matching(g)
                assert matching.pairs == tuple(
                    (int(u), r) for r, u in enumerate(user_of.tolist()) if u >= 0
                )
                _assert_maximum(g, matching)
                if exact is not None:
                    assert matching.size == exact
                if matching.size == g.n_rings:
                    alt = relabelled_matching(g, gen)
                    assert np.array_equal(
                        _core_member_flags(g, matching), _core_member_flags(g, alt)
                    )
        deficient += matching.size < g.n_rings
    assert deficient > 0


# -- upper graph -----------------------------------------------------------------


def test_upper_graph_balanced_is_identity_shape(toy_graph):
    m = maximum_matching(toy_graph)
    up = upper_graph(toy_graph, m)
    assert up == toy_graph  # toy graph is balanced and already canonically labelled


def test_upper_graph_drops_unmatched_users():
    g = make_graph(3, 2, [(0, 0), (1, 1), (2, 0)])
    m = maximum_matching(g)
    assert m.pairs == ((0, 0), (1, 1))
    up = upper_graph(g, m)
    assert up.n_users == up.n_rings == 2
    assert up.edges == {(0, 0), (1, 1)}


def test_upper_graph_validates_and_is_balanced():
    gen = np.random.default_rng(13)
    for _ in range(40):
        g = random_valid_graph(gen)
        up = upper_graph(g, maximum_matching(g))
        assert up.n_users == up.n_rings
        validate(up)


def test_upper_graph_rejects_partial_matching():
    g = make_graph(3, 2, [(0, 0), (1, 1), (2, 0)])
    with pytest.raises(MatchingNotMaximum):
        upper_graph(g, Matching([(0, 0)]))


def _sha256_of_reprs(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()


def test_sampled_digraphs_and_upper_graphs_byte_pinned():
    # Digests of the sampler and relabelling outputs: any change to a draw,
    # its order or the relabelling rule changes them.  The public samplers
    # make each digraph as a block of one, whatever ``_BLOCK_NODES`` is;
    # k = n - 1, p = 0 and p = 1 are the extremes.
    regular = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 5), (0, 16), (3, 16), (15, 16),
               (0, 300), (4, 300), (299, 300), (3, 1100)]
    binomial = [(0.0, 1), (1.0, 1), (0.0, 2), (0.5, 2), (1.0, 2), (0.3, 5), (1.0, 16),
                (0.0, 300), (0.02, 300), (1.0, 300), (0.003, 1100)]

    def digraph_rows():
        for seed, stream in ((0, 0), (7, 2**64 - 1)):
            for k, n in regular:
                yield "r", sample_regular_digraph(k, n, RandomSource(seed, stream)).edges()
            for p, n in binomial:
                yield "b", sample_binomial_digraph(p, n, RandomSource(seed, stream)).edges()

    def upper_rows():
        gen = np.random.default_rng(41)
        for _ in range(300):
            g = random_valid_graph(gen, max_users=9)
            up = upper_graph(g, maximum_matching(g))
            yield up.n_users, [up.ring_members(r) for r in range(up.n_rings)]

    assert _sha256_of_reprs(digraph_rows()) == (
        "84435a51257d756eacdd440c9f1fa15a0596f97c09cd0e5b66b5d3df6f334ca1"
    )
    assert _sha256_of_reprs(upper_rows()) == (
        "bd7d4842ba14c2f8e9dd72db46eb5f19def4704b1f9aad058c79c616d53a01c8"
    )


# -- induced digraph ---------------------------------------------------------------


def test_induced_digraph_toy(toy_graph):
    d = induced_digraph(toy_graph, maximum_matching(toy_graph))
    assert d.n_nodes == 3
    assert d.edges() == [(0, 2), (1, 2)]


def test_induced_digraph_matching_only_graph():
    g = make_graph(4, 4, [(j, j) for j in range(4)])
    d = induced_digraph(g, maximum_matching(g))
    assert d.n_edges == 0


def test_induced_digraph_targets_are_rings():
    gen = np.random.default_rng(17)
    for _ in range(40):
        g = random_valid_graph(gen)
        d = induced_digraph(g, maximum_matching(g))
        assert d.n_nodes == g.n_users
        assert all(j < g.n_rings for _, j in d.edges())
        assert all(i != j for i, j in d.edges())


def test_induced_digraph_relabels_unmatched_ascending():
    # users 1 and 3 sign; users 0 and 2 are unmatched decoys
    g = make_graph(4, 2, [(1, 0), (3, 1), (0, 0), (2, 1)])
    m = Matching([(1, 0), (3, 1)])
    d = induced_digraph(g, m)
    # user 0 -> node 2, user 2 -> node 3 (ascending beyond the matched block)
    assert sorted(d.edges()) == [(2, 0), (3, 1)]


# -- scc / reachability kernels --------------------------------------------------------


def _sweeping(budget: int):
    """``_strong_components`` sweeps every graph, whatever its size, within ``budget`` sweeps."""
    return mock.patch.multiple(graph_module, _SWEEP_MIN_EDGES=0, _SWEEP_BUDGET=budget)


def _labellings(n_nodes: int, tails: np.ndarray, heads: np.ndarray):
    """Component labels from ``_tarjan``, from ``_strong_components``, and from
    its sweeps under every budget up to the full one, so that Tarjan finishes
    after each kind of sweep."""
    yield _tarjan(n_nodes, tails, heads)
    yield _strong_components(n_nodes, tails, heads)
    for budget in range(_SWEEP_BUDGET + 1):
        with _sweeping(budget):
            yield _strong_components(n_nodes, tails, heads)


def _partition(labels: np.ndarray) -> list[tuple[int, ...]]:
    """The node sets that share a label, as sorted node tuples in order."""
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(labels.tolist()):
        groups.setdefault(c, []).append(v)
    return sorted(tuple(vs) for vs in groups.values())


def _components(d: Digraph) -> list[tuple[int, ...]]:
    """Strong components of ``d``, the same from every labelling, as sorted node tuples in order."""
    found = [_partition(labels) for labels in _labellings(d.n_nodes, d._src, d._dst)]
    assert all(p == found[0] for p in found)
    return found[0]


def test_scc_cycle():
    d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert _components(d) == [(0, 1, 2)]


def test_scc_edgeless():
    d = Digraph(4)
    assert _components(d) == [(0,), (1,), (2,), (3,)]


def test_scc_toy_induced(toy_graph):
    d = induced_digraph(toy_graph, maximum_matching(toy_graph))
    assert _components(d) == [(0,), (1,), (2,)]


def test_scc_two_cycles_bridge():
    d = Digraph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)])
    assert _components(d) == [(0, 1), (2, 3), (4,)]


def _random_digraph(gen, max_nodes=8, p=0.3) -> Digraph:
    n = int(gen.integers(1, max_nodes + 1))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and gen.random() < p
    ]
    return Digraph(n, edges)


def test_scc_partitions_nodes_and_matches_mutual_reachability():
    gen = np.random.default_rng(23)
    for _ in range(60):
        d = _random_digraph(gen)
        reach = reach_matrix(d)
        for comp_of in _labellings(d.n_nodes, d._src, d._dst):
            assert len(comp_of) == d.n_nodes and min(comp_of) >= 0
            for i in range(d.n_nodes):
                for j in range(d.n_nodes):
                    assert (comp_of[i] == comp_of[j]) == (reach[i][j] and reach[j][i])


@pytest.mark.parametrize("n_edges", [600, 1023, 1024, 1600, 6000])
def test_strong_components_equal_tarjans_on_both_sides_of_the_size_switch(n_edges):
    # sparse random digraphs (trimmed nodes, many components, cross edges)
    # and block-diagonal unions of small ones (many colour rounds)
    gen = np.random.default_rng(n_edges)
    for density in (1.2, 2.0, 4.0):
        n = int(n_edges / density)
        pairs = np.unique(gen.integers(0, n, size=(2 * n_edges, 2)), axis=0)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        pairs = pairs[gen.permutation(len(pairs))[:n_edges]]
        assert len(pairs) == n_edges
        graphs = [Digraph(n, pairs.tolist())]
        while sum(d.n_edges for d in graphs[1:]) < n_edges:
            graphs.append(_random_digraph(gen, max_nodes=12, p=density / 8))
        starts, src, dst = _ragged_edges(graphs[1:])
        graphs.append(Digraph._from_arrays(int(starts[-1]), src, dst))
        for d in graphs[:1] + graphs[-1:]:
            found = [_partition(labels) for labels in _labellings(d.n_nodes, d._src, d._dst)]
            assert all(p == found[0] for p in found)


def _single_scc(d: Digraph) -> bool:
    return len(set(_tarjan(d.n_nodes, d._src, d._dst))) == 1


def test_is_strongly_connected_cases():
    for sweeps in (nullcontext(), _sweeping(0), _sweeping(3), _sweeping(_SWEEP_BUDGET)):
        with sweeps:
            assert is_strongly_connected(Digraph(1))
            assert not is_strongly_connected(Digraph(3, [(0, 1), (1, 2)]))
            n = 6
            cycle = Digraph(n, [(i, (i + 1) % n) for i in range(n)])
            assert is_strongly_connected(cycle)
            triangle = [(0, 1), (1, 2), (2, 0)]
            # both pass the m < n exit: node 0 cannot reach node 3 (forward walk fails)
            assert not is_strongly_connected(Digraph(4, triangle + [(3, 0), (3, 1)]))
            # node 3 cannot reach node 0 (only the reverse walk fails)
            assert not is_strongly_connected(Digraph(4, triangle + [(0, 3), (1, 3)]))


def test_is_strongly_connected_equals_single_scc():
    gen = np.random.default_rng(29)
    for _ in range(200):
        d = _random_digraph(gen)
        assert is_strongly_connected(d) == _single_scc(d) == sc_bruteforce(d)
        with _sweeping(_SWEEP_BUDGET):
            assert is_strongly_connected(d) == _single_scc(d)


@pytest.mark.parametrize("n", [1500, 2048])
def test_block_kernel_matches_scc_on_sampled_digraphs(n):
    # the grid kernel reads the sampler's table; Tarjan reads the same
    # digraph's flat edges
    for k in (1, 2, 8):
        for seed in range(3):
            for draw, stream, sample in (
                (_regular_draw(n, k), k, lambda rng: sample_regular_digraph(k, n, rng)),
                (_binomial_draw(n, k / (n - 1)), 100 + k,
                 lambda rng: sample_binomial_digraph(k / (n - 1), n, rng)),
            ):
                block = _digraph_block(n, *draw(RandomSource(seed, stream)))
                verdict = bool(_strongly_connected_graphs(*block)[0])
                assert verdict == _single_scc(sample(RandomSource(seed, stream)))


# -- the block kernel on graphs of mixed sizes ------------------------------------------


def _cycle(nodes):
    return [(a, b) for a, b in zip(nodes, nodes[1:] + nodes[:1])]


_TWO_CYCLES = _cycle([0, 1]) + _cycle([2, 3])
# graphs that fail at the in/out-degree exit, and graphs that pass it and
# fail only in the walk
_DEGREE_EXIT = [
    Digraph(2, [(0, 1)]),  # node 0 has no in-edge
    Digraph(3, _cycle([0, 1]) + [(1, 2)]),  # node 2 has no out-edge
    Digraph(4, _cycle([0, 1, 2]) + [(3, 0), (3, 1)]),  # node 3 has no in-edge
]
_WALK_ONLY = [
    Digraph(4, _TWO_CYCLES),  # neither walk covers the graph
    Digraph(4, _TWO_CYCLES + [(2, 0)]),  # the forward walk fails
    Digraph(4, _TWO_CYCLES + [(0, 2)]),  # only the reverse walk fails
    Digraph(9, _cycle([0, 1, 2, 3, 4]) + _cycle([5, 6, 7, 8]) + [(4, 5)]),
]


def _ragged_edges(graphs):
    """``graphs`` side by side as flat edges, graph g from node ``starts[g]``."""
    starts = np.cumsum([0] + [d.n_nodes for d in graphs])
    src = np.concatenate([d._src + first for d, first in zip(graphs, starts)])
    dst = np.concatenate([d._dst + first for d, first in zip(graphs, starts)])
    return starts, src, dst


def _ragged_table(graphs):
    """The grid kernel's arguments for ``graphs`` side by side: starts, table, in-degrees.

    Column v of the table holds v's in-neighbours in its last rows and the
    sentinel node N (the node count) in the rows above, as the sampler
    leaves it.
    """
    starts, src, dst = _ragged_edges(graphs)
    n_nodes = int(starts[-1])
    in_degrees = np.bincount(dst, minlength=n_nodes)
    k_max = int(in_degrees.max(initial=0))
    table = np.full((k_max, n_nodes), n_nodes, dtype=np.int64)
    columns = [[] for _ in range(n_nodes)]
    for a, b in zip(src.tolist(), dst.tolist()):
        columns[b].append(a)
    for v, ins in enumerate(columns):
        table[k_max - len(ins):, v] = ins
    return starts, table, in_degrees


def _passes_degree_exit(d: Digraph) -> bool:
    """Whether every node has an in-edge and an out-edge."""
    return len(set(d._src.tolist())) == len(set(d._dst.tolist())) == d.n_nodes


def test_kernel_verdicts_on_ragged_blocks_equal_each_graph_alone():
    gen = np.random.default_rng(31)
    fixed = [Digraph(1), Digraph(5, _cycle([0, 1, 2, 3, 4]))] + _DEGREE_EXIT + _WALK_ONLY
    verdicts = []
    for _ in range(60):
        graphs = [
            _random_digraph(gen, max_nodes=9, p=float(gen.choice([0.15, 0.3, 0.6])))
            for _ in range(int(gen.integers(1, 10)))
        ]
        graphs += [fixed[i] for i in gen.choice(len(fixed), size=3, replace=False)]
        graphs = [graphs[i] for i in gen.permutation(len(graphs))]
        sc = _strongly_connected_graphs(*_ragged_table(graphs))
        assert sc.shape == (len(graphs),)
        for d, verdict in zip(graphs, sc.tolist()):
            assert verdict == is_strongly_connected(d) == _single_scc(d)
            verdicts.append((d.n_nodes, verdict, _passes_degree_exit(d)))
    # every kind of graph occurs: single nodes, connected ones, and failures of each exit
    assert {n for n, _, _ in verdicts} == set(range(1, 10))
    assert any(n == 1 and v for n, v, _ in verdicts)
    assert any(n > 1 and v for n, v, _ in verdicts)
    assert any(n > 1 and not ok for n, _, ok in verdicts)
    assert any(not v and ok for n, v, ok in verdicts)
    assert all(not v for n, v, ok in verdicts if n > 1 and not ok)


_S = "sentinel"  # the node count N of the table it sits in


@pytest.mark.parametrize(
    "sizes, rows, expected",
    [
        # a single node, a 3-cycle plus a chord, a single node, and two
        # 2-cycles joined by 7 -> 5: nodes 7 and 8 have padding and are not
        # reached forward from 5, so a marked sentinel would pass them
        ([1, 3, 1, 4],
         [[_S, _S, _S, 2, _S, 6, _S, _S, _S],
          [_S, 3, 1, 1, _S, 7, 5, 8, 7]],
         [True, True, True, False]),
        # node 2 has no out-edge; the last node, 5, has no in-edge
        ([3, 3],
         [[_S, _S, 0, 4, 3, _S],
          [1, 0, 1, 5, 5, _S]],
         [False, False]),
        # every graph of more than one node fails the degree exit
        ([2, 1], [[_S, 0, _S]], [False, True]),
        # no edge at all: a table without rows
        ([1, 2, 1], [], [True, False, True]),
    ],
    ids=["mixed-sizes", "degree-exits", "no-walk", "no-rows"],
)
def test_kernel_on_hand_built_tables(sizes, rows, expected):
    starts = np.cumsum([0] + sizes)
    n_nodes = int(starts[-1])
    table = np.array(
        [[n_nodes if v == _S else v for v in row] for row in rows], dtype=np.int64
    ).reshape(len(rows), n_nodes)
    in_degrees = np.count_nonzero(table < n_nodes, axis=0)
    before = table.copy()
    assert _strongly_connected_graphs(starts, table, in_degrees).tolist() == expected
    assert (table == before).all()
    # the same graphs as flat edges, one at a time
    src = table[table < n_nodes]
    dst = np.broadcast_to(np.arange(n_nodes), table.shape)[table < n_nodes]
    for g, verdict in enumerate(expected):
        first, stop = starts[g], starts[g + 1]
        inside = (dst >= first) & (dst < stop)
        d = Digraph(stop - first, zip((src[inside] - first).tolist(), (dst[inside] - first).tolist()))
        assert is_strongly_connected(d) == verdict


# -- the core-equality label test ---------------------------------------------------


def _no_edge_between_components(d: Digraph) -> bool:
    """Whether every edge of ``d`` lies inside one Tarjan component."""
    comp_of = _tarjan(d.n_nodes, d._src, d._dst)
    return all(comp_of[a] == comp_of[b] for a, b in zip(d._src.tolist(), d._dst.tolist()))


def test_label_test_on_ragged_blocks_equals_tarjan():
    gen = np.random.default_rng(37)
    fixed = [Digraph(1), Digraph(5, _cycle([0, 1, 2, 3, 4]))] + _DEGREE_EXIT + _WALK_ONLY
    verdicts = []
    for _ in range(60):
        graphs = [
            _random_digraph(gen, max_nodes=9, p=float(gen.choice([0.1, 0.2, 0.4])))
            for _ in range(int(gen.integers(1, 10)))
        ]
        graphs += [fixed[i] for i in gen.choice(len(fixed), size=3, replace=False)]
        graphs = [graphs[i] for i in gen.permutation(len(graphs))]
        starts, src, dst = _ragged_edges(graphs)
        equal = _core_equal_graphs(starts, src, dst)
        assert equal.shape == (len(graphs),)
        for d, verdict in zip(graphs, equal.tolist()):
            assert verdict == _no_edge_between_components(d)
            verdicts.append((verdict, is_strongly_connected(d)))
    # both verdicts occur, and some graphs pass without being strongly connected
    assert {v for v, _ in verdicts} == {True, False}
    assert any(v and not sc for v, sc in verdicts)


def _decoy_digraph(graph: TransactionGraph) -> Digraph:
    """Edges from each decoy to the signer of a balanced graph whose ring j user j signs."""
    return Digraph(graph.n_users, [
        (u, r) for r in range(graph.n_rings) for u in graph.ring_members(r) if u != r
    ])


def _label_verdict(graph: TransactionGraph) -> bool:
    d = _decoy_digraph(graph)
    return bool(_core_equal_graphs(np.array([0, d.n_nodes]), d._src, d._dst)[0])


def _flags_verdict(graph: TransactionGraph) -> bool:
    matching = Matching((j, j) for j in range(graph.n_rings))
    return bool(_core_member_flags(graph, matching).all())


_PAIR_CYCLES = [[0, 1], [0, 1], [2, 3], [2, 3]]  # rings j, signed by user j
_CYCLE_64 = [sorted({j, (j + 1) % 64}) for j in range(64)]


@pytest.mark.parametrize(
    "rings, core_equal, sc",
    [
        (_PAIR_CYCLES, True, False),  # two disjoint 2-cycles
        ([[0, 1, 2]] + _PAIR_CYCLES[1:], False, False),  # plus the edge 2 -> 0
        ([[0], [1, 2], [1, 2]], True, False),  # an isolated signer without decoys
        ([[0]], True, True),
        (_CYCLE_64, True, True),  # 64 nodes: the deepest propagation
        ([[0]] + _CYCLE_64[1:], False, False),  # the cycle cut into a path
    ],
    ids=["two-cycles", "bridged", "isolated", "single", "cycle64", "path64"],
)
def test_label_test_hand_built_cases(rings, core_equal, sc):
    n = len(rings)
    graph = make_graph(n, n, [(u, r) for r, ms in enumerate(rings) for u in ms])
    assert _label_verdict(graph) == _flags_verdict(graph) == core_equal
    assert is_strongly_connected(_decoy_digraph(graph)) == sc


def test_digraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Digraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Digraph(3, [(0, 1), (0, 1)])
    with pytest.raises(IndexOutOfRange):
        Digraph(3, [(0, 3)])


# -- partitions ---------------------------------------------------------------------


def test_partition_validation():
    p = Partition([[0, 1], [2, 3]])
    assert p.n_users == 4
    assert p.chunk_of(2) == 1
    with pytest.raises(ValueError):
        Partition([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        Partition([[0], []])
    with pytest.raises(IndexOutOfRange):
        Partition([[0, 5]])


def test_partition_equal_chunks():
    p = Partition.equal_chunks(8, 4)
    assert p.chunk_sizes() == (4, 4)
    with pytest.raises(ValueError):
        Partition.equal_chunks(9, 4)
    # the array builders equal the general constructor on the same chunks,
    # given in any order, and hash alike
    for n, size in [(12, 3), (12, 12), (7, 1)]:
        chunks = [list(range(i, i + size))[::-1] for i in range(0, n, size)][::-1]
        for built in (Partition.equal_chunks(n, size), Partition(chunks)):
            assert built == Partition(range(i, i + size) for i in range(0, n, size))
            assert hash(built) == hash(Partition(chunks))
    assert Partition.single(5) == Partition([[4, 2, 0, 3, 1]]) != Partition([[0, 1], [2, 3, 4]])
    assert hash(Partition.single(5)) == hash(Partition([[4, 2, 0, 3, 1]]))
    # users ascend within a chunk, chunks by their first user
    shuffled = Partition([[5, 3], [4, 0], [2, 1]])
    assert shuffled == Partition([[1, 2], [0, 4], [3, 5]])
    assert shuffled._chunk_flat.tolist() == [0, 4, 1, 2, 3, 5]
    assert shuffled._chunk_start.tolist() == [0, 2, 4, 6]
    empty = Partition.equal_chunks(0, 3)
    assert empty == Partition([]) and hash(empty) == hash(Partition([]))
    assert (empty.n_users, empty.n_chunks) == (0, 0)
    with pytest.raises(ValueError, match="empty chunk"):
        Partition.single(0)


def test_equal_chunks_rejects_a_negative_user_count():
    for n, size in [(-4, 2), (-1, 1), (-3, 3)]:
        with pytest.raises(ValueError, match="^n_users must be >= 0$"):
            Partition.equal_chunks(n, size)


def test_partition_graph_single_chunk_is_graph(toy_graph):
    chunks = partition_graph(toy_graph, Partition.single(3))
    assert len(chunks) == 1
    assert chunks[0].graph == toy_graph
    assert chunks[0].users == (0, 1, 2)
    assert chunks[0].rings == (0, 1, 2)


def test_partition_graph_two_bicliques():
    edges = [(u, r) for u in range(2) for r in range(2)]
    edges += [(u + 2, r + 2) for u in range(2) for r in range(2)]
    g = make_graph(4, 4, edges)
    chunks = partition_graph(g, Partition([[0, 1], [2, 3]]))
    assert len(chunks) == 2
    for chunk in chunks:
        assert chunk.graph.edge_count == 4
        assert chunk.graph.n_users == chunk.graph.n_rings
        validate(chunk.graph)


def test_partition_graph_rejects_crossing_ring():
    g = make_graph(4, 2, [(0, 0), (2, 0), (1, 1)])
    with pytest.raises(RingCrossesChunks):
        partition_graph(g, Partition([[0, 1], [2, 3]]))


def test_partition_graph_reports_the_first_bad_ring():
    # ring 0 crosses chunks before ring 1 is empty, and the other way round
    with pytest.raises(RingCrossesChunks, match="ring 0 "):
        partition_graph(make_graph(4, 2, [(0, 0), (2, 0)]), Partition([[0, 1], [2, 3]]))
    with pytest.raises(EmptyRing) as caught:
        partition_graph(make_graph(4, 2, [(0, 1), (2, 1)]), Partition([[0, 1], [2, 3]]))
    assert caught.value.ring_index == 0


def _random_partitioned_graph(gen, n_chunks=2, chunk_max=4):
    sizes = [int(gen.integers(1, chunk_max + 1)) for _ in range(n_chunks)]
    offset = 0
    chunks = []
    all_edges = []
    total_rings = 0
    for size in sizes:
        sub = random_valid_graph(gen, size, min_users=size)
        for r in range(sub.n_rings):
            for u in sub.ring_members(r):
                all_edges.append((u + offset, r + total_rings))
        chunks.append(list(range(offset, offset + size)))
        offset += size
        total_rings += sub.n_rings
    g = TransactionGraph(offset, total_rings, all_edges)
    return g, Partition(chunks)


def test_partition_graph_edges_partition_and_matchings_concatenate():
    gen = np.random.default_rng(37)
    for _ in range(40):
        g, p = _random_partitioned_graph(gen)
        chunks = partition_graph(g, p)
        recovered = set()
        matching_pairs = []
        for chunk in chunks:
            for lu, lr in chunk.graph.edges:
                edge = (chunk.users[lu], chunk.rings[lr])
                assert edge not in recovered  # disjoint
                recovered.add(edge)
            for lu, lr in maximum_matching(chunk.graph):
                matching_pairs.append((chunk.users[lu], chunk.rings[lr]))
        assert recovered == g.edges  # union is E
        glued = Matching(matching_pairs)
        assert glued.size == g.n_rings
        assert all(g.has_edge(u, r) for u, r in glued)


# -- the CSR form ----------------------------------------------------------------------

# rings listed out of member order; in the partition below rings 0 and 2
# lie in chunk (0, 2, 4) and rings 1 and 3 in chunk (1, 3, 5)
_INTERLEAVED = [(4, 0), (0, 0), (5, 1), (1, 1), (4, 2), (2, 2), (3, 3), (5, 3)]


def _unmatched_users_graph():
    g = make_graph(6, 3, [(5, 0), (1, 0), (4, 1), (0, 1), (3, 2), (2, 2), (5, 2)])
    return g, maximum_matching(g)


# graph blocks of three graphs: unequal chunks, and binomial decoys whose
# graphs draw different largest decoy counts
_UNION_CASES = [
    (SamplerConfig(Partition([[0, 3, 5, 6], [1, 2, 4]]), Regular(1)), 4, 0),
    (SamplerConfig(Partition([[0, 3, 5, 6], [1, 2, 4]]), Regular(1)), 7, 1),
    (SamplerConfig(Partition.single(7), Binomial(0.4)), 7, 2),
]


def _sampled_union(config, m, seed):
    gen, run = RandomSource(seed)._stream()
    draw = _graph_draw(config, m)(gen, 3)
    if isinstance(config.kind, Binomial):
        # the graphs differ in their largest counts
        assert len(set(draw[2].reshape(3, m).max(axis=1).tolist())) > 1
    return _graph_block(config, m, 3, draw, run)[0]


_CSR_PRODUCERS = {
    "constructor": lambda: [make_graph(6, 4, _INTERLEAVED)],
    "constructor-array": lambda: [make_graph(6, 4, np.array(_INTERLEAVED))],
    "constructor-empty": lambda: [make_graph(0, 0, []), make_graph(3, 2, [])],
    "core": lambda: [core(make_graph(3, 3, [(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)]))],
    "upper_graph": lambda: [upper_graph(*_unmatched_users_graph())],
    "partition_graph": lambda: [
        chunk.graph
        for chunk in partition_graph(
            make_graph(6, 4, _INTERLEAVED), Partition([[0, 2, 4], [1, 3, 5]])
        )
    ],
    "sample_transaction_graph": lambda: [
        sample_transaction_graph(
            SamplerConfig(Partition([[0, 3, 5, 6], [1, 2, 4]]), Binomial(0.6)), 7, m,
            RandomSource(5, m),
        )[0]
        for m in (0, 4, 7)
    ],
    "graph_block": lambda: [_sampled_union(*case) for case in _UNION_CASES],
    "remove_users": lambda: [remove_users(make_graph(6, 4, _INTERLEAVED), {0, 5})],
    "occurring_users": lambda: [  # a header wider than the edges: users relabelled
        _occurring_users(make_graph(2**40, 3, [(2**39, 0), (7, 0), (3, 1), (2**40 - 1, 2)]))[0]
    ],
}


@pytest.mark.parametrize("producer", sorted(_CSR_PRODUCERS))
def test_every_producer_keeps_the_csr_invariant(producer):
    for g in _CSR_PRODUCERS[producer]():
        users, starts = g._users, g._starts
        assert users.dtype == starts.dtype == np.int64
        assert not users.flags.writeable and not starts.flags.writeable
        assert starts.shape == (g.n_rings + 1,)
        assert starts[0] == 0 and starts[-1] == g.edge_count == users.shape[0]
        sizes = np.diff(starts)
        assert (sizes >= 0).all()
        same_ring = np.repeat(np.arange(g.n_rings), sizes)
        same_ring = same_ring[1:] == same_ring[:-1]
        assert (users[1:][same_ring] > users[:-1][same_ring]).all()  # ascending in each ring
        rebuilt = TransactionGraph(g.n_users, g.n_rings, g.edges)
        assert g == rebuilt and hash(g) == hash(rebuilt)


def test_from_csr_leaves_the_callers_arrays_writable():
    users = np.array([0, 1, 1], dtype=np.int64)
    starts = np.array([0, 2, 3], dtype=np.int64)
    g = TransactionGraph._from_csr(2, users, starts)
    assert users.flags.writeable and starts.flags.writeable
    assert not g._users.flags.writeable and not g._starts.flags.writeable
    assert g == make_graph(2, 2, [(0, 0), (1, 0), (1, 1)])
