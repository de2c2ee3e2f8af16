"""Core computation against exhaustive enumeration and the structural lemmas."""
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ringlab import graph as graph_module
from ringlab.core import (
    CoreReport,
    core,
    core_bruteforce_oracle,
    core_report,
    enumerate_maximum_matchings,
    is_core_equal,
)
from ringlab.errors import InstanceTooLarge, NotATransactionGraph
from ringlab.graph import (
    Matching,
    Partition,
    TransactionGraph,
    _matched_users,
    induced_digraph,
    is_strongly_connected,
    maximum_matching,
    partition_graph,
    upper_graph,
    validate,
)

from conftest import (
    _core_member_flags,
    make_graph,
    permanent,
    random_connected_balanced_graph,
    random_valid_graph,
    relabelled_matching,
)


# -- the running example ----------------------------------------------------------


def test_core_toy_removes_exactly_the_impossible_edges(toy_graph):
    c = core(toy_graph)
    assert toy_graph.edges - c.edges == {(0, 2), (1, 2)}
    assert not is_core_equal(toy_graph)


def test_core_complete_biclique_is_everything():
    for t in (2, 3, 4):
        g = make_graph(t, t, [(u, r) for u in range(t) for r in range(t)])
        assert is_core_equal(g)
        assert core(g) == g


def test_core_report_toy(toy_graph):
    rep = core_report(toy_graph)
    assert rep.per_ring_core_degree == (1, 1, 1)
    assert rep.deanonymised_rings == ((0, 0), (1, 1), (2, 2))
    assert toy_graph.edges - rep.removed_edges == core(toy_graph).edges


def test_core_report_bicliques_nothing_deanonymised():
    edges = [(u, r) for u in range(3) for r in range(3)]
    rep = core_report(make_graph(3, 3, edges))
    assert rep.deanonymised_rings == ()
    assert rep.per_ring_core_degree == (3, 3, 3)
    assert min(rep.per_ring_core_degree) >= 1


# -- oracle equivalence -------------------------------------------------------------


def _small_graphs_with_covering_matching():
    """Every graph with at most 4 users and 3 rings that a matching covers.

    3,677 graphs: they include m = 0, m = n (no unmatched user), and
    unmatched users that reach some strong components but not others.
    """
    for n in range(5):
        for m in range(min(n, 3) + 1):
            slots = [(u, r) for u in range(n) for r in range(m)]
            for mask in range(1 << len(slots)):
                g = make_graph(n, m, [e for b, e in enumerate(slots) if mask >> b & 1])
                if maximum_matching(g).size == m:
                    yield g


def test_core_equals_bruteforce_oracle_on_random_graphs():
    gen = np.random.default_rng(101)
    random_graphs = (random_valid_graph(gen, max_users=7) for _ in range(300))
    for g in itertools.chain(random_graphs, _small_graphs_with_covering_matching()):
        oracle = core_bruteforce_oracle(g)
        assert core(g).edges == oracle.edges
        assert is_core_equal(g) == (oracle == g)


def test_is_core_equal_matches_oracle_on_random_graphs():
    gen = np.random.default_rng(104)
    unequal = wide = 0
    for _ in range(300):
        g = random_valid_graph(gen, max_users=7)
        assert is_core_equal(g) == (core_bruteforce_oracle(g) == g)
        unequal += not is_core_equal(g)
        wide += g.n_users > g.edge_count  # the pass runs on the users that occur
    assert unequal > 30 and wide > 30


def _core_report_by_diff(g):
    """The report derived from the core graph, diffed against ``g`` ring by ring."""
    c = core(g)
    removed = set()
    for r in range(g.n_rings):
        removed.update((u, r) for u in set(g.ring_members(r)) - set(c.ring_members(r)))
    degrees = c.ring_sizes()
    return CoreReport(
        removed_edges=frozenset(removed),
        deanonymised_rings=tuple(
            (r, c.ring_members(r)[0]) for r in range(c.n_rings) if degrees[r] == 1
        ),
        per_ring_core_degree=degrees,
    )


def test_core_report_matches_core_diff_on_random_graphs():
    gen = np.random.default_rng(105)
    removing = 0
    for _ in range(300):
        g = random_valid_graph(gen, max_users=9)
        rep = core_report(g)
        assert rep == _core_report_by_diff(g)
        assert g.edge_count - len(rep.removed_edges) == core(g).edge_count
        removing += bool(rep.removed_edges)
    assert removing > 30


def test_core_degree_one_means_same_user_in_every_matching():
    gen = np.random.default_rng(103)
    checked = 0
    while checked < 40:
        g = random_valid_graph(gen, max_users=6)
        if g.n_rings == 0:
            continue
        rep = core_report(g)
        matchings = enumerate_maximum_matchings(g)
        for ring, sole in rep.deanonymised_rings:
            assert all(m.user_for_ring(ring) == sole for m in matchings)
        checked += 1


def test_oracle_cap():
    g = make_graph(11, 1, [(0, 0)])
    with pytest.raises(InstanceTooLarge):
        core_bruteforce_oracle(g)
    assert core_bruteforce_oracle(g, max_users=11).edges == {(0, 0)}


# -- matching enumeration -----------------------------------------------------------


def test_enumerate_toy_unique(toy_graph):
    ms = enumerate_maximum_matchings(toy_graph)
    assert len(ms) == 1
    assert ms[0].pairs == ((0, 0), (1, 1), (2, 2))


def test_enumerate_complete_3x3_gives_6():
    g = make_graph(3, 3, [(u, r) for u in range(3) for r in range(3)])
    ms = enumerate_maximum_matchings(g)
    assert len(ms) == 6
    assert len(set(ms)) == 6


@pytest.mark.parametrize("n_users", [2**63, 2**40])
def test_enumerate_bounded_by_edges_not_header(n_users):
    # with the cap raised to the header, users in no ring take no memory
    g = TransactionGraph(n_users, 1, [(0, 0)])
    tracemalloc.start()
    try:
        assert enumerate_maximum_matchings(g, max_users=n_users) == [Matching([(0, 0)])]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_enumerate_count_matches_permanent_on_balanced():
    gen = np.random.default_rng(107)
    for _ in range(40):
        g = random_valid_graph(gen, max_users=6, balanced=True)
        mat = [
            [1 if g.has_edge(u, r) else 0 for r in range(g.n_rings)]
            for u in range(g.n_users)
        ]
        assert len(enumerate_maximum_matchings(g)) == permanent(mat)


def test_enumerate_requires_valid_graph():
    g = make_graph(2, 2, [(0, 0), (0, 1)])
    with pytest.raises(NotATransactionGraph):
        enumerate_maximum_matchings(g)


# -- structural lemma suites ---------------------------------------------------------


def test_core_idempotent():
    gen = np.random.default_rng(109)
    for _ in range(200):
        g = random_valid_graph(gen)
        c = core(g)
        assert core(c) == c


def test_matching_contained_in_core_contained_in_graph():
    gen = np.random.default_rng(113)
    for _ in range(200):
        g = random_valid_graph(gen)
        m = maximum_matching(g)
        c = core(g)
        assert set(m.pairs) <= c.edges <= g.edges


def test_core_invariant_under_matching_strategy():
    gen = np.random.default_rng(127)
    differing = 0
    for _ in range(200):
        g = random_valid_graph(gen)
        m = maximum_matching(g)
        alt = relabelled_matching(g, gen)
        assert alt.size == m.size
        assert np.array_equal(_core_member_flags(g, alt), _core_member_flags(g, m))
        differing += alt != m
    assert differing > 0


def test_strong_connectivity_implies_core_equal_balanced():
    gen = np.random.default_rng(131)
    hits = 0
    for _ in range(400):
        g = random_valid_graph(gen, balanced=True)
        d = induced_digraph(g, maximum_matching(g))
        if is_strongly_connected(d):
            assert is_core_equal(g)
            hits += 1
    assert hits > 20  # the implication was actually exercised


def test_core_equal_implies_strongly_connected_on_connected_balanced():
    gen = np.random.default_rng(137)
    for _ in range(150):
        g = random_connected_balanced_graph(gen)
        sc = is_strongly_connected(induced_digraph(g, maximum_matching(g)))
        assert is_core_equal(g) == sc


def test_partition_core_equivalence():
    gen = np.random.default_rng(139)
    for _ in range(100):
        sizes = [int(gen.integers(1, 5)) for _ in range(int(gen.integers(1, 4)))]
        offset = 0
        total_rings = 0
        chunks = []
        edges = []
        for size in sizes:
            sub = random_valid_graph(gen, size, min_users=size)
            for r in range(sub.n_rings):
                for u in sub.ring_members(r):
                    edges.append((u + offset, r + total_rings))
            chunks.append(range(offset, offset + size))
            offset += size
            total_rings += sub.n_rings
        g = make_graph(offset, total_rings, edges)
        p = Partition(chunks)
        per_chunk = all(
            is_core_equal(chunk.graph) for chunk in partition_graph(g, p)
        )
        assert is_core_equal(g) == per_chunk


def test_chunk_cores_reassemble_to_parent_core():
    gen = np.random.default_rng(149)
    for _ in range(60):
        sizes = [int(gen.integers(1, 5)) for _ in range(2)]
        offset = 0
        total_rings = 0
        chunks = []
        edges = []
        for size in sizes:
            sub = random_valid_graph(gen, size, min_users=size)
            for r in range(sub.n_rings):
                for u in sub.ring_members(r):
                    edges.append((u + offset, r + total_rings))
            chunks.append(range(offset, offset + size))
            offset += size
            total_rings += sub.n_rings
        g = make_graph(offset, total_rings, edges)
        p = Partition(chunks)
        glued = set()
        for chunk in partition_graph(g, p):
            for lu, lr in core(chunk.graph).edges:
                glued.add((chunk.users[lu], chunk.rings[lr]))
        assert glued == core(g).edges


def test_upper_graph_core_equal_implies_parent_core_equal():
    gen = np.random.default_rng(151)
    hits = 0
    for _ in range(400):
        g = random_valid_graph(gen)
        up = upper_graph(g, maximum_matching(g))
        if is_core_equal(up):
            assert is_core_equal(g)
            hits += 1
    assert hits > 20


def test_ring_extension_preserves_core_mismatch():
    gen = np.random.default_rng(157)
    found = 0
    while found < 120:
        g = random_valid_graph(gen, max_users=6)
        if g.n_rings >= g.n_users or is_core_equal(g):
            continue
        # add one ring with random members, keeping the graph valid
        for _ in range(30):
            member_count = int(gen.integers(1, g.n_users + 1))
            members = gen.permutation(g.n_users)[:member_count]
            edges = set(g.edges) | {(int(u), g.n_rings) for u in members}
            h = make_graph(g.n_users, g.n_rings + 1, edges)
            if maximum_matching(h).size == h.n_rings:
                assert not is_core_equal(h)
                found += 1
                break


def test_core_propagates_invalid_graph():
    g = make_graph(2, 2, [(0, 0), (0, 1)])
    with pytest.raises(NotATransactionGraph):
        core(g)


def test_core_and_enumerate_reject_unmatchable_past_hall_exit():
    # passes Hall's condition for the whole ring set; the matching falls short
    g = make_graph(3, 3, [(0, 0), (0, 1), (1, 2), (2, 2)])
    for fn in (core, core_report, enumerate_maximum_matchings):
        with pytest.raises(NotATransactionGraph, match=r"maximum matching has size 2 < 3 rings"):
            fn(g)


def test_validate_then_core_weakly_connected_instances():
    # regression guard: imbalanced graphs exercise the unmatched-node
    # reachability term of the core characterisation
    g = make_graph(4, 2, [(0, 0), (1, 1), (2, 0), (2, 1), (3, 1)])
    validate(g)
    c = core(g)
    # every edge touching an unmatched-user path survives
    assert c.edges == g.edges


def test_core_unmatched_reachability_term():
    # user 2 is unmatched; its edge makes ring 0 ambiguous in any
    # matching, so everything it can reach stays in the core
    g = make_graph(3, 2, [(0, 0), (1, 1), (2, 0)])
    c = core(g)
    assert (2, 0) in c.edges  # unmatched user edge is always matchable
    assert (0, 0) in c.edges  # still the matched edge
    rep = core_report(g)
    assert rep.per_ring_core_degree[0] == 2
    assert rep.per_ring_core_degree[1] == 1


@pytest.mark.parametrize("step", [1, -1])
def test_core_of_a_deep_chain(step):
    # step 1: ring j = {j, j+1}, last ring {m-1}; ring m-1 forces signer
    # m-1, which forces every ring's signer down the chain.  The digraph is
    # a path of 2^15 single-node components: a label-propagation core
    # would need one round per ring, and the strong-components pass trims
    # two nodes a sweep until its sweep budget is spent and Tarjan labels
    # the rest.  step -1 mirrors the chain (ring j = {j-1, j}, first ring
    # {0}), so Tarjan's depth-first search runs nearly 2^15 nodes deep.
    m = 2**15
    decoys = [(j + step, j) for j in range(m) if 0 <= j + step < m]
    rep = core_report(make_graph(m, m, [(j, j) for j in range(m)] + decoys))
    assert rep.removed_edges == frozenset(decoys)
    assert rep.deanonymised_rings == tuple((j, j) for j in range(m))
    assert rep.per_ring_core_degree == (1,) * m


def _long_augmenting_path(m):
    # ring 0 = {1}, ring j = {j, j+1}: the proposals give user 1 to ring 0
    # and user j to ring j, which strands ring 1 at the far end of one
    # augmenting path through every ring, to the free user m
    return make_graph(m + 1, m, [(1, 0)] + [(u, j) for j in range(1, m) for u in (j, j + 1)])


def _far_chains(m, length):
    # chains of rings c_0..c_L, c_i = {a_i, a_(i+1)} and c_L = {a_L}, users
    # labelled in descending chain order: the proposals give c_i the user
    # a_(i+1) and strand c_L, L + 1 rings from the free user a_0 of its chain
    edges = []
    for c in range(0, m, length + 1):
        a = [c + length - i for i in range(length + 1)]
        edges += [(a[i], c + i) for i in range(length + 1)]
        edges += [(a[i + 1], c + i) for i in range(length)]
    return make_graph(m, m, edges)


@pytest.mark.parametrize("build, args", [(_long_augmenting_path, (2**14,)), (_far_chains, (65 * 252, 64))])
def test_core_where_augmenting_paths_outlast_the_pass_budget(build, args):
    # each graph has one perfect matching, found only by paths longer than
    # the pass budget, so Hopcroft-Karp finishes after the numpy rounds
    graph = build(*args)
    assert graph.edge_count >= graph_module._MATCH_MIN_EDGES
    with mock.patch.object(graph_module, "_hopcroft_karp", wraps=graph_module._hopcroft_karp) as hk:
        assert (_matched_users(graph) >= 0).all()
    assert hk.call_count == 1
    rep = core_report(graph)
    with mock.patch.object(graph_module, "_MATCH_MIN_EDGES", graph.edge_count + 1):
        assert core_report(graph) == rep
    assert rep.per_ring_core_degree == (1,) * graph.n_rings
    assert len(rep.removed_edges) == graph.edge_count - graph.n_rings


@pytest.mark.parametrize("length", [2**15, 16])
def test_core_of_a_chain_of_cycles(length):
    # Cycle c holds users and rings c*length .. (c+1)*length - 1, ring j =
    # {j, j+1} around it; the first ring of every cycle but the last also
    # holds the first user of the next cycle.  Each cycle is one strong
    # component, and its link edges, which no perfect matching uses, point
    # to the cycle before it.  So the colouring closes one cycle per round,
    # and one cycle of 2^15 nodes alone takes 2^15 colour sweeps: both
    # outlast the sweep budget.
    m = 2**15
    ring = [(j + 1 if (j + 1) % length else j + 1 - length, j) for j in range(m)]
    links = [(first + length, first) for first in range(0, m - length, length)]
    rep = core_report(make_graph(m, m, [(j, j) for j in range(m)] + ring + links))
    assert rep.removed_edges == frozenset(links)
    assert rep.deanonymised_rings == ()
    assert rep.per_ring_core_degree == (2,) * m
