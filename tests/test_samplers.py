"""Sampler distributions, determinism, and the shared subset kernel."""
import hashlib
import math
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from ringlab import samplers
from ringlab.conjecture import estimate_not_sc_binomial, estimate_not_sc_regular
from ringlab.errors import InvalidConfig, InvalidParams
from ringlab.graph import (
    Partition,
    _require_covering,
    _ring_signers,
    is_strongly_connected,
    validate,
)
from ringlab.samplers import (
    Binomial,
    RandomSource,
    Regular,
    SamplerConfig,
    _BLOCK_NODES,
    _binomial_draw,
    _block_draw,
    _digraph_block,
    _floyd_block,
    _floyd_bound,
    _floyd_resolve,
    _graph_block,
    _graph_draw,
    _overflow_run,
    _raw_words,
    _regular_draw,
    _trial_blocks,
    sample_binomial_digraph,
    sample_regular_digraph,
    sample_ring,
    sample_transaction_graph,
)

from conftest import (
    CHI_SQUARE_999,
    LayoutStream,
    chi_square,
    floyd_column,
    inject_words,
    reference_digraph_block,
    reference_digraphs,
    reference_graph_block,
)


def _freq_within(counter, total, expected_prob, n_sigma=4.0):
    sigma = math.sqrt(expected_prob * (1 - expected_prob) / total)
    return all(
        abs(count / total - expected_prob) <= n_sigma * sigma
        for count in counter.values()
    )


# -- random source -----------------------------------------------------------------


def test_random_source_reproducible():
    a = RandomSource(12, 34).generator.integers(0, 1 << 30, size=16)
    b = RandomSource(12, 34).generator.integers(0, 1 << 30, size=16)
    assert np.array_equal(a, b)
    c = RandomSource(12, 35).generator.integers(0, 1 << 30, size=16)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n, trials, sizes", [
    (300, 15, [6, 6, 3]), (2048, 2, [1, 1]), (4096, 1, [1]), (1, 2049, [2048, 1]),
])
def test_trial_blocks_put_block_j_on_stream_base_plus_j(n, trials, sizes):
    # blocks of max(1, 2048 // n) trials, the last one the rest; block j's
    # main run and overflow run are those of stream base + j, which wraps
    # at 2**64
    base = (1 << 64) - 2
    blocks = list(_trial_blocks(RandomSource(99, base), trials, n))
    assert [size for size, _ in blocks] == sizes
    for j, (_, (gen, run)) in enumerate(blocks):
        reference = LayoutStream(99, (base + j) % (1 << 64))
        assert gen.bit_generator.random_raw(3).tolist() == (
            reference.gen.bit_generator.random_raw(3).tolist())
        assert [next(run) for _ in range(3)] == [reference._overflow_word() for _ in range(3)]


# -- the subset kernel --------------------------------------------------------------


def _floyd_subsets(rng, pools, counts):
    """Per column, a uniform ``counts[i]``-subset of ``range(pools[i])``: a Floyd block of one."""
    gen, run = rng._stream()
    words = _raw_words(gen.bit_generator, int(counts.max()) * pools.size)
    return _floyd_block(pools, counts, words, run)


def test_floyd_subsets_shapes_and_validity():
    pools = np.array([5, 3, 4, 6])
    counts = np.array([2, 3, 0, 6])
    chosen = _floyd_subsets(RandomSource(3), pools, counts)
    assert chosen.shape == (6, 4)
    for col, (pool, cnt) in enumerate(zip(pools, counts)):
        vals = [v for v in chosen[:, col] if v >= 0]
        assert len(vals) == cnt
        assert len(set(vals)) == cnt
        assert all(0 <= v < pool for v in vals)
        # unused slots sit above the used ones and are negative
        assert all(v < 0 for v in chosen[: 6 - cnt, col])


@pytest.mark.parametrize(
    "pools, dtype",
    [
        ((1, 5, 9, 40), np.int8),
        ((126, 127), np.int8),
        ((127, 128), np.int16),
        ((300, 32767), np.int16),
        ((32767, 32768), np.int32),
        ((5, 32769), np.int32),
    ],
)
@pytest.mark.parametrize("repeats", [False, True])
def test_floyd_resolve_matches_a_per_column_floyd(pools, dtype, repeats):
    # random draws within _floyd_bound, counts 0..K in one block with
    # unequal pools; small draws force repeats, so the replacement and
    # the compare against every earlier row both matter
    gen = np.random.default_rng([31, len(pools), pools[-1], repeats])
    for _ in range(20):
        pool_sizes = np.array(pools, dtype=np.int64)[gen.integers(0, len(pools), size=12)]
        counts = gen.integers(0, np.minimum(pool_sizes, 12) + 1)
        counts[:2] = 0, min(12, int(pool_sizes.min()))
        bound = _floyd_bound(pool_sizes, counts)
        x = gen.integers(0, np.minimum(bound, 3) if repeats else bound)
        draws = x.copy()
        chosen = _floyd_resolve(x, pool_sizes, counts)
        k_max = int(counts.max())
        assert chosen.shape == draws.shape and chosen.dtype == dtype
        for col, (pool, cnt) in enumerate(zip(pool_sizes.tolist(), counts.tolist())):
            used = chosen[k_max - cnt:, col].tolist()
            assert used == floyd_column(draws[k_max - cnt:, col].tolist(), pool)
            assert (chosen[:k_max - cnt, col] < 0).all()


def test_floyd_subsets_uniform_over_2_of_4():
    trials = 30000
    pools = np.full(trials, 4)
    counts = np.full(trials, 2)
    chosen = _floyd_subsets(RandomSource(5), pools, counts)
    seen = Counter(frozenset(chosen[:, i].tolist()) for i in range(trials))
    assert len(seen) == 6
    assert _freq_within(seen, trials, 1 / 6)


def test_floyd_subsets_full_pool_is_everything():
    chosen = _floyd_subsets(RandomSource(7), np.array([5]), np.array([5]))
    assert sorted(chosen[:, 0].tolist()) == [0, 1, 2, 3, 4]


# -- ring sampling -----------------------------------------------------------------


def test_sample_ring_regular_contains_signer_and_stays_in_chunk():
    part = Partition.equal_chunks(12, 4)
    cfg = SamplerConfig(part, Regular(2))
    rng = RandomSource(1)
    for signer in range(12):
        ring = sample_ring(cfg, 12, signer, rng)
        assert signer in ring
        assert len(ring) == 3
        c = part.chunk_of(signer)
        chunk = set(part._chunk_flat[part._chunk_start[c]:part._chunk_start[c + 1]].tolist())
        assert ring <= chunk


def test_sample_ring_regular_whole_chunk_when_k_is_size_minus_one():
    part = Partition.equal_chunks(8, 4)
    cfg = SamplerConfig(part, Regular(3))
    ring = sample_ring(cfg, 8, 5, RandomSource(2))
    assert ring == frozenset({4, 5, 6, 7})


def test_sample_ring_binomial_p_zero_and_one():
    part = Partition.single(6)
    assert sample_ring(SamplerConfig(part, Binomial(0.0)), 6, 2, RandomSource(3)) == {2}
    assert sample_ring(
        SamplerConfig(part, Binomial(1.0)), 6, 2, RandomSource(3)
    ) == frozenset(range(6))


def test_sample_ring_regular_uniform_over_decoy_sets():
    # chunk of 5, k = 2: six possible decoy pairs, each with probability 1/6
    part = Partition.single(5)
    cfg = SamplerConfig(part, Regular(2))
    rng = RandomSource(11)
    trials = 100_000
    seen = Counter()
    for _ in range(trials):
        ring = sample_ring(cfg, 5, 0, rng)
        seen[frozenset(ring - {0})] += 1
    assert set(seen) == {frozenset(c) for c in combinations(range(1, 5), 2)}
    assert _freq_within(seen, trials, 1 / 6)


def test_sample_ring_binomial_mean_and_variance():
    part = Partition.single(9)
    p = 0.375
    cfg = SamplerConfig(part, Binomial(p))
    rng = RandomSource(13)
    trials = 100_000
    sizes = np.array([len(sample_ring(cfg, 9, 4, rng)) - 1 for _ in range(trials)])
    mean_expect = p * 8
    var_expect = 8 * p * (1 - p)
    mean_sigma = math.sqrt(var_expect / trials)
    assert abs(sizes.mean() - mean_expect) <= 4 * mean_sigma
    assert abs(sizes.var() - var_expect) <= 0.05 * var_expect


def test_sampler_config_validation():
    part = Partition.equal_chunks(8, 4)
    with pytest.raises(InvalidConfig):
        SamplerConfig(part, Regular(4))
    with pytest.raises(InvalidConfig):
        SamplerConfig(part, Regular(-1))
    with pytest.raises(InvalidConfig):
        SamplerConfig(part, Binomial(1.5))
    cfg = SamplerConfig(part, Regular(3))
    with pytest.raises(InvalidConfig):
        sample_ring(cfg, 9, 0, RandomSource(0))
    with pytest.raises(InvalidConfig):
        sample_ring(cfg, 8, 8, RandomSource(0))


def test_regular_config_rejects_a_partition_without_chunks():
    for empty in (Partition([]), Partition.equal_chunks(0, 3)):
        for k in (0, 1):
            with pytest.raises(InvalidConfig, match=f"^k={k} needs a partition with at least one chunk$"):
                SamplerConfig(empty, Regular(k))
    SamplerConfig(Partition([]), Binomial(0.5))  # no decoy count to check


# -- transaction graph sampling -------------------------------------------------------


def test_sample_transaction_graph_empty():
    cfg = SamplerConfig(Partition.single(5), Regular(1))
    g, m = sample_transaction_graph(cfg, 5, 0, RandomSource(0))
    assert g.n_rings == 0 and m.size == 0
    validate(g)


_UNEQUAL = Partition([range(0, 2), range(2, 7), range(7, 12)])


@pytest.mark.parametrize(
    "partition, kind",
    [
        (Partition.equal_chunks(12, 6), Regular(0)),
        (Partition.equal_chunks(12, 6), Regular(2)),
        (Partition.equal_chunks(12, 6), Regular(5)),
        (Partition.equal_chunks(12, 6), Binomial(0.0)),
        (Partition.equal_chunks(12, 6), Binomial(1.0)),
        (Partition.equal_chunks(12, 6), Binomial(0.4)),
        (_UNEQUAL, Regular(1)),
        (_UNEQUAL, Binomial(0.4)),
    ],
    ids=["reg0", "reg2", "reg5", "bin0", "bin1", "bin0.4", "ureg1", "ubin.4"],
)
def test_sample_transaction_graph_validates_and_matching_is_true_assignment(partition, kind):
    cfg = SamplerConfig(partition, kind)
    for sid in range(25):  # m runs over 0..12 twice, both ends included
        g, m = sample_transaction_graph(cfg, 12, int(sid % 13), RandomSource(4, sid))
        validate(g)
        _require_covering(g, _ring_signers(g, m))
        signers = [u for u, _ in m.pairs]
        assert len(set(signers)) == len(signers)


def test_block_covering_check_raises_on_a_corrupted_signer_row():
    # blocks of three graphs over chunks of 3: k = 0 gives singleton rings,
    # k = 2 rings that are their signers' whole chunks (union users 3c..3c+2)
    blocks = {}
    for k in (0, 2):
        cfg = SamplerConfig(Partition.equal_chunks(6, 3), Regular(k))
        gen, run = RandomSource(3)._stream()
        union, signed = _graph_block(cfg, 6, 3, _graph_draw(cfg, 6)(gen, 3), run)
        signers = signed[union._starts[:-1]]
        _require_covering(union, signers)
        blocks[k] = union, signers
    union, signers = blocks[0]
    swapped = signers.copy()
    swapped[[7, 8]] = signers[[8, 7]]  # graph 1 keeps distinct signers, rings 1 and 2 lose theirs
    with pytest.raises(ValueError, match=rf"matching pair \({swapped[7]}, 7\) is not an edge"):
        _require_covering(union, swapped)
    reused = signers.copy()
    reused[13] = reused[12]  # graph 2 names one user twice, and ring 13 lacks it
    with pytest.raises(ValueError, match=rf"matching pair \({reused[13]}, 13\) is not an edge"):
        _require_covering(union, reused)
    union, signers = blocks[2]
    reused = signers.copy()
    j = 13 + int(np.flatnonzero(signers[13:18] // 3 == signers[12] // 3)[0])
    reused[j] = reused[12]  # graph 2 names one user twice, and both rings hold it
    with pytest.raises(ValueError, match="reuses a user"):
        _require_covering(union, reused)


@pytest.mark.parametrize("rejecting", [False, True])
def test_sample_transaction_graph_leaves_the_generator_where_numpy_does(monkeypatch, rejecting):
    # two graphs and then numpy's draws on a reused source equal those of the
    # layout-3 reference, with and without a half word that numpy buffered
    # before the first call; with rejecting, word 2m of the 3m + 1, the first
    # of the row of bound 3 (rows of bounds 1, 2, 3 over m columns), is the
    # word 0, which that bound rejects, so its value comes from the overflow run
    cases = [
        (Partition.equal_chunks(8, 4), Regular(3)),
        (Partition.equal_chunks(9, 3), Binomial(0.4)),
        (Partition([range(0, 2), range(2, 5), range(5, 9)]), Regular(1)),
    ]
    if rejecting:
        cases = cases[:1]
        inject_words(monkeypatch, 0, lambda sid, count: [2 * (count - 1) // 3])
    for (part, kind), m, buffered in product(cases, (0, 3, 8), (False, True)):
        config = SamplerConfig(part, kind)
        for sid in range(4):
            rng, reference = RandomSource(8, sid), LayoutStream(8, sid)
            if buffered:
                rng.generator.integers(0, 10)
                reference.gen.integers(0, 10)
            for _ in range(2):
                graph, matching = sample_transaction_graph(config, config.n_users, m, rng)
                assert (graph, matching) == reference_graph_block(config, m, 1, reference)[0][:2]
            assert rng.generator.integers(0, 1000, size=3).tolist() == reference.gen.integers(
                0, 1000, size=3).tolist()
            assert (reference.overflow_words >= 2) == (rejecting and m > 0)


def test_sample_transaction_graph_bicliques_when_chunks_are_ring_sized():
    cfg = SamplerConfig(Partition.equal_chunks(12, 3), Regular(2))
    g, _ = sample_transaction_graph(cfg, 12, 12, RandomSource(5))
    # every ring is its signer's whole chunk: disjoint (k+1)-bicliques
    for r in range(12):
        members = set(g.ring_members(r))
        assert members in ({0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11})


def test_sample_transaction_graph_deterministic():
    cfg = SamplerConfig(Partition.equal_chunks(10, 5), Binomial(0.4))
    a = sample_transaction_graph(cfg, 10, 10, RandomSource(6, 1))
    b = sample_transaction_graph(cfg, 10, 10, RandomSource(6, 1))
    assert a[0] == b[0] and a[1] == b[1]


# -- digraph models ---------------------------------------------------------------


def test_regular_digraph_in_degrees_exact():
    for sid in range(20):
        d = sample_regular_digraph(3, 9, RandomSource(7, sid))
        in_deg = Counter(j for _, j in d.edges())
        assert all(in_deg[j] == 3 for j in range(9))


def test_regular_digraph_complete_when_k_is_n_minus_1():
    d = sample_regular_digraph(4, 5, RandomSource(8))
    assert d.n_edges == 20


def test_digraph_param_validation():
    with pytest.raises(InvalidParams):
        sample_regular_digraph(3, 3, RandomSource(0))
    with pytest.raises(InvalidParams):
        sample_regular_digraph(-1, 3, RandomSource(0))
    with pytest.raises(InvalidParams):
        sample_binomial_digraph(1.2, 3, RandomSource(0))


def test_binomial_digraph_extremes():
    assert sample_binomial_digraph(1.0, 5, RandomSource(9)).n_edges == 20
    assert sample_binomial_digraph(0.0, 5, RandomSource(9)).n_edges == 0


@pytest.mark.parametrize("n, k", [(2, 1), (5, 2), (16, 3), (300, 8), (1100, 4)])
@pytest.mark.parametrize("model", ["regular", "binomial"])
def test_digraph_block_table_layout(n, k, model):
    # every column holds its node's in-neighbours in its last in-degree
    # rows, distinct, other than the node and inside its own graph; the
    # sentinel N fills the rows above
    draw = _regular_draw(n, k) if model == "regular" else _binomial_draw(n, k / (n - 1))
    padded = 0
    for size, stream in _trial_blocks(RandomSource(17, 5), 2 * max(1, _BLOCK_NODES // n) + 1, n):
        starts, table, in_degrees = _digraph_block(n, *draw.block(stream, size))
        k_max, n_nodes = table.shape
        assert starts.tolist() == list(range(0, n_nodes + 1, n))
        if model == "regular":
            assert (in_degrees == k).all() and k_max == k
        rows = np.arange(k_max)[:, None]
        is_sentinel = rows < k_max - in_degrees
        assert ((table == n_nodes) == is_sentinel).all()
        assert (np.count_nonzero(table < n_nodes, axis=0) == in_degrees).all()
        nodes = np.arange(n_nodes)
        first = nodes - nodes % n
        valid = ~is_sentinel
        assert (table != nodes)[valid].all()
        assert ((table >= first) & (table < first + n))[valid].all()
        ordered = np.sort(table, axis=0)
        assert not ((ordered[1:] == ordered[:-1]) & (ordered[1:] < n_nodes)).any()
        padded += int(np.count_nonzero(is_sentinel))
    assert (padded > 0) == (model == "binomial" and k < n - 1)


def test_block_draw_equals_the_layout_reference():
    # a draw against the layout-3 reference on the same key: the digraphs'
    # row bounds n - K .. n - 1 (K = 0, n = 1, K = n - 1 with its leading
    # bound-1 row), then sorted bounds in [2**31, 2**32], where about one word
    # in four is rejected and its value comes from the overflow run
    shapes = np.random.default_rng(23)
    most_rejected = 0
    for sid in range(600):
        n = int(shapes.integers(1, 40))
        if sid % 3 == 0:
            tops = np.arange(n - int(shapes.integers(0, n)), n, dtype=np.uint64)
        elif sid % 3 == 1:
            tops = np.arange(1, n, dtype=np.uint64)
        else:
            picks = shapes.integers(1 << 31, (1 << 32) + 1, size=int(shapes.integers(0, 6)))
            tops = np.unique(picks).astype(np.uint64)
        words = _raw_words(RandomSource(3, sid).generator.bit_generator, tops.size * n)
        words = words[:tops.size * n].reshape(tops.size, n)
        x = _block_draw(words, tops[:, None], _overflow_run(3, sid))
        bound = np.broadcast_to(tops.astype(np.int64)[:, None], (tops.size, n))
        assert x.shape == bound.shape and x.dtype.kind == "i"
        reference = LayoutStream(3, sid)
        assert np.array_equal(x, reference.draw(bound))
        most_rejected = max(most_rejected, reference.overflow_words)
    assert most_rejected >= 10


# (n, regular k or binomial p) of the digraph blocks below; the binomial
# cases at p = 1/(n - 1) and 2/(n - 1) drop about a third of their trials
# and more for their in-degrees of 0
_DIGRAPH_BLOCK_CASES = [(1, 0, None), (2, 1, None), (5, 2, None), (33, 0, None), (33, 32, None),
                        (2, None, 0.5), (5, None, 0.25), (16, None, 2 / 15), (33, None, 1 / 32),
                        (33, None, 1.0), (150, None, 3 / 149)]


@pytest.mark.parametrize("decide", [False, True])
@pytest.mark.parametrize("n, k, p", _DIGRAPH_BLOCK_CASES)
def test_block_draw_of_several_trials_equals_the_layout_reference(n, k, p, decide):
    # a digraph block of 1..B trials on one stream, the last block partial,
    # against the layout-3 reference: the in-degrees of every trial, then,
    # with decide, the trials with an in-degree of 0 dropped, and one draw
    # for the kept ones below the block's own row bounds
    draw = _regular_draw(n, k) if p is None else _binomial_draw(n, p)
    block = max(1, _BLOCK_NODES // n)
    dropped = partial = 0
    for sid, trials in enumerate([1, 2, 3, block - 1, block, block + 1, 2 * block + 1]):
        for j, (size, stream) in enumerate(_trial_blocks(RandomSource(6, 40 * sid), trials, n)):
            degrees, x = draw.block(stream, size, decide)
            want_degrees, want_x, _ = reference_digraph_block(
                n, k, p, size, LayoutStream(6, 40 * sid + j), decide
            )
            assert np.array_equal(degrees, want_degrees) and np.array_equal(x, want_x)
            dropped += degrees.size < size * n
            partial += size < block
    assert partial > 0
    assert (dropped > 0) == (decide and n > 1 and (k == 0 or p is not None and p < 1))


@pytest.mark.parametrize("n", [1, 2, 5, 33])
def test_digraph_draws_equal_the_numpy_floyd_draw(n):
    # each public digraph sampler's draws, a block of one on its source,
    # against the layout-3 reference block on the same key; k = 0 draws
    # nothing, k = n - 1 (p = 1) has a bound-1 row
    for k in sorted({0, n // 2, n - 1}):
        p = k / (n - 1) if n > 1 else 0.5
        for draw, binomial in ((_regular_draw(n, k), False), (_binomial_draw(n, p), True)):
            for sid in range(20):
                degrees, x = draw(RandomSource(4, sid))
                want = reference_digraph_block(n, k, p if binomial else None, 1,
                                               LayoutStream(4, sid))
                assert np.array_equal(degrees, want[0]) and np.array_equal(x, want[1])


def test_grid_stream_with_a_rejected_word_is_pinned():
    # stream 31 of seed 0 rejects a word in its (16, 4096) regular draw, so
    # this pin reads the overflow run
    n, k = 4096, 16
    degrees, x = _regular_draw(n, k)(RandomSource(0, 31))
    reference = LayoutStream(0, 31)
    assert np.array_equal(x, reference.draw(_floyd_bound(np.full(n, n - 1), degrees)))
    assert reference.overflow_words >= 1
    assert hashlib.sha256(x.astype("<i8").tobytes()).hexdigest() == (
        "df95f0348f9ed011b6b1524638ea807283dc63794dd3028cf9576aef6b9bdcf9"
    )


# (model, stream of the block, slot of the rejecting trial among the kept
# ones) at n = 512, blocks of 4: seed 0's regular block on stream 2468, and
# its binomial (p = 6/511) block on stream 407, whose first two trials are
# kept, with different largest in-degrees, and whose last two are decided
# by their in-degrees
REJECTION_CASES = [("regular", 2468, 0), ("binomial", 407, -2)]


@pytest.mark.parametrize("model, stream_id, slot", REJECTION_CASES)
def test_rejected_word_inside_a_block_is_redrawn(monkeypatch, model, stream_id, slot):
    # the word 0, which the last row's bound n - 1 rejects, replaces the
    # first word of that row in the slot trial's columns: that value takes
    # the block's overflow run, and no other value moves
    n, k, p = 512, 8, 6 / 511
    draw = _regular_draw(n, k) if model == "regular" else _binomial_draw(n, p)
    p = None if model == "regular" else p
    block = _BLOCK_NODES // n
    clean_degrees, clean, _ = reference_digraph_block(
        n, k, p, block, LayoutStream(0, stream_id), True
    )
    kept = clean_degrees.size // n
    assert kept == block if model == "regular" else 2 == kept < block
    column = slot % kept * n
    at = (clean.shape[0] - 1) * clean.size // clean.shape[0] + column

    inject_words(monkeypatch, 0, lambda sid, count: [at] if sid == stream_id and count > at else [])
    reference = LayoutStream(0, stream_id)
    degrees, want, _ = reference_digraph_block(n, k, p, block, reference, True)
    assert reference.overflow_words >= 1
    moved = want != clean
    assert np.flatnonzero(moved).tolist() in ([], [at])
    got_degrees, x = draw.block(RandomSource(0, stream_id)._stream(), block, decide=True)
    assert np.array_equal(got_degrees, degrees) and np.array_equal(x, want)
    # and the campaign counts equal those of the reference's digraphs
    if model == "regular":
        estimate = estimate_not_sc_regular(k, n, block, RandomSource(0, stream_id))
    else:
        estimate = estimate_not_sc_binomial(p, n, block, RandomSource(0, stream_id))
    connected = sum(map(is_strongly_connected, reference_digraphs(n, degrees, want)))
    assert estimate.failures == block - connected


def test_rejected_block_values_come_from_the_overflow_run_and_are_uniform():
    # blocks of 4 trials' draws, side by side, with rows of bounds 3, 5 and
    # 2**32 - 1: the word 0, which each of them rejects, replaces every word
    # in the columns of an inner trial and of the last one.  Their values
    # come from the block's overflow run, in value order, and are uniform;
    # the other trials' values are those the block makes without the
    # injection
    tops = np.array([3, 5, (1 << 32) - 1], dtype=np.uint64)
    n, count, injected = 16, 4, (1, 3)
    values = {r: [] for r in tops.tolist()}
    for block in range(250):
        words = _raw_words(RandomSource(37, block).generator.bit_generator, 3 * count * n)
        words = words.reshape(3, count * n)
        clean = _block_draw(words, tops[:, None], _overflow_run(37, block))
        words = words.copy()
        for b in injected:
            words[:, b * n:(b + 1) * n] = 0
        x = _block_draw(words, tops[:, None], _overflow_run(37, block))
        reference = LayoutStream(37, block)
        for r, row, clean_row in zip(tops.tolist(), x.tolist(), clean.tolist()):
            for b in range(count):
                got = row[b * n:(b + 1) * n]
                if b in injected:
                    assert got == [reference.value(0, r) for _ in range(n)]
                    values[r] += got
                else:
                    assert got == clean_row[b * n:(b + 1) * n]
    assert chi_square(values[3], 3) < CHI_SQUARE_999[2]
    assert chi_square(values[5], 5) < CHI_SQUARE_999[4]
    top = (1 << 32) - 1
    assert chi_square([v * 16 // top for v in values[top]], 16) < CHI_SQUARE_999[15]


def test_successive_draws_on_a_source_never_share_an_overflow_word(monkeypatch):
    # every main-run word is the word 0, which the bound 3 rejects, and the
    # rings of chunk 4 with k 1 draw below 3: successive rings on one reused
    # source take successive words of its one overflow run, as the
    # reference's do, so no two draws share a word
    config = SamplerConfig(Partition.equal_chunks(8, 4), Regular(1))
    inject_words(monkeypatch, 0, lambda sid, count: range(count))
    taken = []
    overflow_run = samplers._overflow_run

    def recording(seed, stream_id):
        for word in overflow_run(seed, stream_id):
            taken.append(word)
            yield word

    monkeypatch.setattr(samplers, "_overflow_run", recording)
    rng, reference = RandomSource(39, 2), LayoutStream(39, 2)
    for draws in range(1, 7):
        (decoy,) = sample_ring(config, 8, 5, rng) - {5}
        assert decoy == [4, 6, 7][int(reference.draw([[3]])[0, 0])]
        assert len(taken) == reference.overflow_words >= draws
    fresh = overflow_run(39, 2)
    assert taken == [next(fresh) for _ in taken]


def test_digraph_samplers_on_a_reused_source_are_pinned():
    # the digraph draws continue a reused source's main run and overflow run
    # as the layout-3 reference does: a 32-bit half word numpy buffered
    # before the call is neither used nor dropped, so it stays for numpy's
    # next draw, and none is left behind
    rng, reference = RandomSource(1, 6), LayoutStream(1, 6)
    rng.generator.integers(0, 10)
    reference.gen.integers(0, 10)
    models = [(6, 0.5, _binomial_draw(6, 0.5)), (5, None, _regular_draw(5, 4)),
              (5, None, _regular_draw(5, 2))]
    for n, p, draw in models:
        degrees, x = draw(rng)
        if p is not None:
            reference.gen.binomial(n - 1, p, size=n)
        assert np.array_equal(x, reference.draw(_floyd_bound(np.full(n, n - 1), degrees)))
    assert rng.generator.integers(0, 1000, size=4).tolist() == reference.gen.integers(
        0, 1000, size=4).tolist()
    rng = RandomSource(1)
    sample_regular_digraph(3, 5, rng)
    assert rng.generator.integers(0, 1000) == 820
    rng = RandomSource(1)
    rng.generator.integers(0, 10)  # buffers the high half of a word
    buffered = rng.generator.bit_generator.state
    regular = sample_regular_digraph(2, 5, rng)
    binomial = sample_binomial_digraph(0.5, 6, rng)
    state = rng.generator.bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (1, buffered["uinteger"])
    after = rng.generator.integers(0, 1000, size=4).tolist()
    pinned = repr((regular.edges(), binomial.edges(), after)).encode()
    assert hashlib.sha256(pinned).hexdigest() == (
        "06fcb76db126efd8693741e1ddf22da37cda4e4d385dbe6ada60b5ea302c91ae"
    )


def _digraph_key(d):
    return tuple(sorted(d.edges()))


def test_regular_digraph_uniform_over_assignments():
    # k=1, n=3: each node picks one in-neighbor from two, 8 equally likely digraphs
    trials = 80_000
    seen = Counter()
    for sid in range(trials):
        seen[_digraph_key(sample_regular_digraph(1, 3, RandomSource(10, sid)))] += 1
    assert len(seen) == 8
    assert _freq_within(seen, trials, 1 / 8)


def test_binomial_digraph_uniform_at_half():
    # p = 1/2, n = 3: all 64 edge subsets equally likely
    trials = 80_000
    seen = Counter()
    for sid in range(trials):
        seen[_digraph_key(sample_binomial_digraph(0.5, 3, RandomSource(11, sid)))] += 1
    assert len(seen) == 64
    assert _freq_within(seen, trials, 1 / 64)


def test_induced_digraph_of_regular_sampler_matches_regular_digraph_model():
    # single chunk of 3, k = 1, everyone signs: the induced digraph of the
    # sampled graph must follow the same distribution as the k-in-degree
    # regular model (frequency comparison on all 8 outcomes)
    from ringlab.graph import induced_digraph

    trials = 80_000
    cfg = SamplerConfig(Partition.single(3), Regular(1))
    seen_graph = Counter()
    for sid in range(trials):
        g, m = sample_transaction_graph(cfg, 3, 3, RandomSource(12, sid))
        seen_graph[_digraph_key(induced_digraph(g, m))] += 1
    seen_model = Counter()
    for sid in range(trials):
        seen_model[_digraph_key(sample_regular_digraph(1, 3, RandomSource(13, sid)))] += 1
    assert set(seen_graph) == set(seen_model) and len(seen_graph) == 8
    for key in seen_graph:
        diff = abs(seen_graph[key] - seen_model[key]) / trials
        sigma = math.sqrt(2 * (1 / 8) * (7 / 8) / trials)
        assert diff <= 4 * sigma
