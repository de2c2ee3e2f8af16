"""Adversary strategies and the security experiments."""
import math
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from ringlab import adversary as adversary_module
from ringlab import samplers as samplers_module
from ringlab.adversary import (
    BlackMarbleConfig,
    _Campaign,
    adversary_core,
    adversary_matching_count,
    adversary_trivial,
    estimate_success,
    run_campaign,
    run_experiment,
    _corrupt_users,
)
from ringlab.core import _core_flags, core, is_core_equal
from ringlab.errors import InstanceTooLarge, InvalidBeta, InvalidConfig, NotATransactionGraph
from ringlab.graph import Partition, _core_equal_graphs, _tarjan, induced_digraph
from ringlab.samplers import (
    Binomial,
    RandomSource,
    Regular,
    SamplerConfig,
    _block_draw,
    _block_graph,
    _graph_block,
    _graph_draw,
    _overflow_run,
    _trial_blocks,
    sample_transaction_graph,
)

from conftest import (
    CHI_SQUARE_999,
    LayoutStream,
    _core_member_flags,
    block_streams,
    chi_square,
    inject_words,
    make_graph,
    reference_graph_block,
    remove_users,
)


def _three_sigma(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


# -- individual adversaries ----------------------------------------------------------


def test_trivial_tie_break_lowest_ring_index():
    # ring sizes 3, 2, 2: the first size-2 ring (index 1) must be chosen
    g = make_graph(
        4, 3, [(0, 0), (1, 0), (2, 0), (1, 1), (3, 1), (2, 2), (3, 2)]
    )
    for sid in range(20):
        u, r = adversary_trivial(g, RandomSource(1, sid))
        assert r == 1
        assert u in (1, 3)


def test_trivial_certain_on_singleton_ring():
    g = make_graph(3, 2, [(0, 0), (1, 0), (2, 1)])
    assert adversary_trivial(g, RandomSource(2)) == (2, 1)


def test_trivial_uniform_over_members():
    g = make_graph(3, 1, [(0, 0), (1, 0), (2, 0)])
    seen = Counter(adversary_trivial(g, RandomSource(3, sid))[0] for sid in range(30000))
    for u in range(3):
        assert abs(seen[u] / 30000 - 1 / 3) < 4 * math.sqrt((1 / 3) * (2 / 3) / 30000)


def test_core_adversary_toy_always_succeeds(toy_graph):
    # every ring's core degree is 1; the guess is forced and correct
    for sid in range(10):
        assert adversary_core(toy_graph, RandomSource(4, sid)) == (0, 0)


def test_core_adversary_equals_trivial_on_core_equal_graphs():
    # disjoint bicliques: core(G) == G, so both strategies see the same
    # graph and consume randomness identically
    edges = [(u, r) for u in range(3) for r in range(3)]
    edges += [(u + 3, r + 3) for u in range(3) for r in range(3)]
    g = make_graph(6, 6, edges)
    assert is_core_equal(g)
    for sid in range(25):
        assert adversary_core(g, RandomSource(5, sid)) == adversary_trivial(
            g, RandomSource(5, sid)
        )


def test_core_adversary_uniform_over_core_members_when_core_equal():
    edges = [(u, r) for u in range(3) for r in range(3)]
    g = make_graph(3, 3, edges)
    assert is_core_equal(g)
    trials = 30000
    seen = Counter(adversary_core(g, RandomSource(6, sid)) for sid in range(trials))
    assert set(r for _, r in seen) == {0}  # lowest-index tie break
    for u in range(3):
        assert abs(seen[(u, 0)] / trials - 1 / 3) < 4 * math.sqrt((1 / 3) * (2 / 3) / trials)


def _layout_single_guess(graph, adversary, seed, sid):
    """A single-graph adversary's guess by the layout reference, and the reference's stream.

    The guess is the value of main-run word 0 of ``LayoutStream(seed, sid)``
    in the smallest ring of the adversary's view: the graph, or for the core
    adversary its core when a matching covers every ring.
    """
    view = graph
    if adversary is adversary_core:
        try:
            view = core(graph)
        except NotATransactionGraph:  # no core: the trivial guess
            pass
    stream = LayoutStream(seed, sid)
    return _reference_guess(view, stream, stream.main_words(1)[0]), stream


_SINGLE_GRAPHS = {
    "ties": make_graph(4, 3, [(0, 0), (1, 0), (2, 0), (1, 1), (3, 1), (2, 2), (3, 2)]),
    # ring 0's core is {2, 3}: the core adversary guesses ring 0, the trivial one ring 1
    "core_mismatch": make_graph(
        4, 3, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
    ),
    "fewer_rings": make_graph(6, 2, [(0, 0), (1, 0), (2, 0), (3, 0), (2, 1), (4, 1), (5, 1)]),
    "no_covering": make_graph(3, 3, [(u, r) for u in (0, 2) for r in range(3)]),
    "no_rings": make_graph(3, 0, []),
    "all_empty": remove_users(make_graph(3, 2, [(0, 0), (1, 0), (1, 1)]), {0, 1}),
}


@pytest.mark.parametrize("adversary", [adversary_trivial, adversary_core], ids=["trivial", "core"])
@pytest.mark.parametrize("name", list(_SINGLE_GRAPHS))
def test_single_graph_adversaries_guess_from_one_layout_word(adversary, name):
    graph = _SINGLE_GRAPHS[name]
    for sid in range(40):
        rng = RandomSource(12, sid)
        expected, stream = _layout_single_guess(graph, adversary, 12, sid)
        assert adversary(graph, rng) == expected
        # the guess took one raw word: the source goes on where the reference does
        assert rng.generator.bit_generator.random_raw() == stream.gen.bit_generator.random_raw()
    if name in ("no_rings", "all_empty"):
        assert expected == (0, 0)  # the fixed blind guess


@pytest.mark.parametrize("adversary", [adversary_trivial, adversary_core], ids=["trivial", "core"])
def test_single_graph_adversaries_take_rejected_words_from_the_overflow_run(
    monkeypatch, adversary
):
    # ring 1 has 3 members, and word 0 is rejected below 3; two guesses on one
    # source take successive words of its one overflow run
    graph = make_graph(4, 2, [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)])
    inject_words(monkeypatch, 0, lambda sid, count: [0])
    seen = set()
    for sid in range(30):
        rng = RandomSource(13, sid)
        first, stream = _layout_single_guess(graph, adversary, 13, sid)
        second = _reference_guess(graph, stream, stream.main_words(1)[0])
        assert stream.overflow_words >= 2
        assert (adversary(graph, rng), adversary(graph, rng)) == (first, second)
        seen.update((first, second))
    assert seen == {(1, 1), (2, 1), (3, 1)}


def test_matching_count_toy_picks_matched_edge(toy_graph):
    assert adversary_matching_count(toy_graph) == (0, 0)


def test_matching_count_k22_tie_break():
    g = make_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert adversary_matching_count(g) == (0, 0)


def test_matching_count_cap():
    g = make_graph(11, 1, [(0, 0)])
    with pytest.raises(InstanceTooLarge):
        adversary_matching_count(g)


@pytest.mark.parametrize("beta", [None, 0.5])
def test_matching_count_campaign_cap_holds_with_and_without_corruption(beta):
    # a corrupted view is never analysed, yet the campaign keeps the cap
    cfg = SamplerConfig(Partition.equal_chunks(12, 4), Regular(2))
    marble = BlackMarbleConfig(beta) if beta else None
    with pytest.raises(InstanceTooLarge, match="^12 users exceeds the brute-force cap of 10$"):
        run_campaign(cfg, 12, "matching_count", 5, RandomSource(0), marble=marble)


def test_paired_core_beats_trivial_on_core_mismatched_instances():
    # small single chunk with k=1: core mismatches are frequent
    cfg = SamplerConfig(Partition.single(4), Regular(1))
    triv = core_adv = considered = 0
    for t in range(10000):
        rng = RandomSource(7, t)
        g, m = sample_transaction_graph(cfg, 4, 4, rng)
        if is_core_equal(g):
            continue
        considered += 1
        triv += adversary_trivial(g, rng) in m
        core_adv += adversary_core(g, rng) in m
    assert considered > 1000
    p1, p2 = core_adv / considered, triv / considered
    noise = 3 * math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / considered)
    assert p1 >= p2 - noise
    assert p1 > p2  # strict at this sample size: core analysis really helps


def test_paired_matching_count_beats_core_on_small_instances():
    cfg = SamplerConfig(Partition.single(6), Regular(2))
    core_adv = count_adv = 0
    trials = 10000
    for t in range(trials):
        rng = RandomSource(8, t)
        g, m = sample_transaction_graph(cfg, 6, 6, rng)
        core_adv += adversary_core(g, rng) in m
        count_adv += adversary_matching_count(g) in m
    p1, p2 = count_adv / trials, core_adv / trials
    noise = 3 * math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / trials)
    assert p1 >= p2 - noise


# -- experiments -----------------------------------------------------------------------


def test_run_experiment_biclique_trivial_rate():
    cfg = SamplerConfig(Partition.equal_chunks(20, 4), Regular(3))
    est = estimate_success(cfg, 20, "trivial", 20000, RandomSource(9))
    assert abs(est.estimate - 0.25) <= _three_sigma(0.25, est.trials)


def test_run_experiment_singleton_rings_always_win():
    cfg = SamplerConfig(Partition.single(6), Binomial(0.0))
    est = estimate_success(cfg, 6, "trivial", 400, RandomSource(10))
    assert est.estimate == 1.0
    assert est.ci_high == 1.0
    assert est.ci_low < 1.0


def test_experiment_outcome_success_edge_in_matching():
    cfg = SamplerConfig(Partition.equal_chunks(8, 4), Regular(2))
    for sid in range(50):
        rng = RandomSource(11, sid)
        outcome = run_experiment(cfg, 8, "core", rng)
        g, m = sample_transaction_graph(cfg, 8, 8, RandomSource(11, sid))
        if outcome.success:
            assert outcome.guessed_edge in m


def test_advantage_bound_all_adversaries():
    # success of every implemented adversary is at most
    # Pr[G != core(G)] + 1/(k+1) up to Monte Carlo noise
    k = 2
    cfg = SamplerConfig(Partition.single(6), Regular(k))
    trials = 5000
    mismatch = None
    for adversary in ("trivial", "core", "matching_count"):
        result = run_campaign(cfg, 6, adversary, trials, RandomSource(12))
        if mismatch is None:
            mismatch = result.core_mismatch.estimate
        bound = mismatch + 1 / (k + 1)
        assert result.success.estimate <= bound + _three_sigma(
            min(bound, 1.0), trials
        )


def test_estimate_success_deterministic():
    cfg = SamplerConfig(Partition.equal_chunks(12, 4), Regular(2))
    a = estimate_success(cfg, 12, "core", 500, RandomSource(13))
    b = estimate_success(cfg, 12, "core", 500, RandomSource(13))
    assert a == b


def test_estimate_rejects_bad_args():
    cfg = SamplerConfig(Partition.single(4), Regular(1))
    with pytest.raises(InvalidConfig):
        estimate_success(cfg, 5, "trivial", 10, RandomSource(0))
    with pytest.raises(InvalidConfig):
        estimate_success(cfg, 4, "nope", 10, RandomSource(0))
    with pytest.raises(InvalidConfig):
        estimate_success(cfg, 4, "trivial", 0, RandomSource(0))


# (users, chunk size, sampler, adversary, beta) -> (successes, core mismatches)
# of 300 trials from RandomSource(0, 3) under stream layout 3.  Recorded from
# _reference_block run trial by trial, whose core adversary runs its own
# matching and core on every trial: sharing the sampled graph's core with it
# must not change a single outcome.
GOLDEN_CAMPAIGNS = [
    ((40, 4, Regular(3), "trivial", None), (69, 0)),
    ((40, 4, Regular(3), "core", None), (69, 0)),
    ((40, 8, Regular(3), "trivial", None), (78, 174)),
    ((40, 8, Regular(3), "core", None), (202, 174)),
    ((40, 8, Regular(3), "trivial", 0.25), (71, 162)),
    ((40, 8, Regular(3), "core", 0.25), (71, 162)),
    ((40, 8, Regular(3), "core", 0.5), (72, 162)),
    ((12, 4, Regular(1), "trivial", None), (159, 299)),
    ((12, 4, Regular(1), "core", None), (300, 299)),
    ((12, 4, Regular(1), "core", 0.5), (156, 300)),
    ((9, 9, Binomial(0.2), "trivial", None), (268, 282)),
    ((9, 9, Binomial(0.2), "core", None), (293, 282)),
    ((9, 9, Binomial(0.2), "matching_count", None), (297, 282)),
    ((9, 9, Binomial(0.2), "core", 0.25), (218, 291)),
    ((9, 9, Binomial(0.2), "matching_count", 0.25), (218, 291)),
]


@pytest.mark.parametrize("case, expected", GOLDEN_CAMPAIGNS)
def test_campaign_counts_golden(case, expected):
    users, chunk, kind, adversary, beta = case
    cfg = SamplerConfig(Partition.equal_chunks(users, chunk), kind)
    marble = BlackMarbleConfig(beta) if beta else None
    result = run_campaign(cfg, users, adversary, 300, RandomSource(0, 3), marble=marble)
    assert (result.success.failures, result.core_mismatch.failures) == expected


@pytest.mark.parametrize("case, expected", GOLDEN_CAMPAIGNS)
def test_core_flags_run_only_for_the_passive_core_guess(monkeypatch, case, expected):
    # core mismatches are counted on the block's arrays; only the passive
    # core adversary takes core flags, once per block that holds a trial
    # that is not core-equal
    users, chunk, kind, adversary, beta = case
    passive_core = adversary == "core" and beta is None
    real_flags = adversary_module._core_flags
    calls = []

    def flags(n_nodes, nodes, signers):
        if not passive_core:
            raise AssertionError("core flags computed outside the passive core guess")
        calls.append(n_nodes)
        return real_flags(n_nodes, nodes, signers)

    monkeypatch.setattr(adversary_module, "_core_flags", flags)
    cfg = SamplerConfig(Partition.equal_chunks(users, chunk), kind)
    marble = BlackMarbleConfig(beta) if beta else None
    mismatched_blocks = 0
    for size, stream in _trial_blocks(RandomSource(0, 3), 300, 2 * users):
        equal = _Campaign(cfg, adversary, marble).run(stream, size)[3]
        mismatched_blocks += not equal.all()
    calls.clear()
    result = run_campaign(cfg, users, adversary, 300, RandomSource(0, 3), marble=marble)
    assert (result.success.failures, result.core_mismatch.failures) == expected
    assert len(calls) == (mismatched_blocks if passive_core else 0)


_ORACLE_CONFIGS = [
    (Partition.equal_chunks(8, 4), Regular(0)),
    (Partition.equal_chunks(8, 4), Regular(3)),  # k = chunk - 1
    (Partition.single(6), Regular(5)),
    (Partition.equal_chunks(24, 8), Regular(2)),
    (Partition.equal_chunks(9, 3), Binomial(0.0)),
    (Partition.equal_chunks(9, 3), Binomial(0.2)),
    (Partition.single(4), Regular(1)),
    (Partition.single(5), Binomial(0.25)),
    (Partition.single(6), Binomial(0.2)),
    (Partition.single(10), Binomial(0.3)),
    (Partition.equal_chunks(9, 3), Binomial(1.0)),
    (Partition([range(0, 2), range(2, 5), range(5, 9)]), Regular(1)),
    (Partition([range(0, 2), range(2, 5), range(5, 9)]), Binomial(0.4)),
    (Partition([range(0, 1), range(1, 4), range(4, 6), range(6, 9)]), Binomial(0.6)),
    (Partition.equal_chunks(5, 1), Regular(0)),  # chunks of one user
]


def test_block_core_equality_equals_core_flags_on_sampled_blocks():
    tally = Counter()
    for i, (part, kind) in enumerate(_ORACLE_CONFIGS):
        config = SamplerConfig(part, kind)
        n = config.n_users
        for sid in range(4):  # blocks of 50 graphs
            base = 100 * i + sid
            gen, run = RandomSource(24, base)._stream()
            union, signed = _graph_block(config, n, 50, _graph_draw(config, n)(gen, 50), run)
            users, starts = union._users, union._starts
            assert union.n_users == union.n_rings == 50 * n
            decoys = users != signed
            graph_starts = np.arange(0, union.n_users + 1, n)
            verdicts = _core_equal_graphs(graph_starts, users[decoys], signed[decoys]).tolist()
            assert len(verdicts) == 50
            block_flags = _core_flags(union.n_users, users, signed)
            reference = reference_graph_block(config, n, 50, LayoutStream(24, base))
            for b, verdict in enumerate(verdicts):
                graph = _block_graph(n, n, union, b)
                # graph b is the reference's, its signers those of the union
                alone, matching, _ = reference[b]
                assert graph == alone
                edges = slice(starts[b * n], starts[(b + 1) * n])
                ring_signers = signed[starts[b * n:(b + 1) * n]] - b * n
                assert ring_signers.tolist() == [u for u, _ in matching]
                flags = _core_member_flags(graph, matching)
                assert verdict == flags.all()
                # the union's flags of trial b's edges, ring by ring
                assert np.array_equal(block_flags[edges], flags)
                # components never cross chunks: one per chunk iff every chunk is SC
                d = induced_digraph(graph, matching)
                comps = set(_tarjan(d.n_nodes, d._src, d._dst).tolist())
                tally[verdict, len(comps) == part.n_chunks] += 1
    # both verdicts occur where some chunk is not strongly connected
    assert tally[True, False] >= 100 and tally[False, False] >= 100


# -- block engine against the per-trial reference ----------------------------------------


def _campaign_outcomes(config, adversary, trials, rng, marble):
    """Per trial: guessed user and ring, win, core-equal; the engine's blocks concatenated."""
    engine = _Campaign(config, adversary, marble)
    blocks = [engine.run(stream, size)
              for size, stream in _trial_blocks(rng, trials, 2 * config.n_users)]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _reference_guess(view, stream, word):
    """The smallest nonempty ring of ``view``, lowest index on ties, and its member
    ``stream.value(word, size)`` in ascending order; ``(0, 0)`` when no ring has a member."""
    rings = [view.ring_members(j) for j in range(view.n_rings)]
    smallest = min((len(members) for members in rings if members), default=0)
    if not smallest:
        return (0, 0)
    j = next(j for j, members in enumerate(rings) if len(members) == smallest)
    return (rings[j][stream.value(word, len(rings[j]))], j)


def _reference_block(config, adversary, trials, stream, marble):
    """A block of trials run one by one on the block's stream: the reference.

    Every draw comes from ``stream``, a :class:`conftest.LayoutStream`: the
    corruption permutations, chunk by chunk and in each chunk trial by
    trial; the graphs' (:func:`reference_graph_block`); and, trial by
    trial, the guesses, each the value of its graph's guess word
    (:func:`_reference_guess`).  A corrupted view is guessed on as it is;
    otherwise the core adversary guesses on the core and the
    matching-count adversary takes its oracle's edge.  Returns per trial
    the guessed edge, the win and whether the sampled graph is core-equal.
    """
    part = config.partition
    corrupted = [set() for _ in range(trials)]
    if marble is not None:
        for start, size in zip(part._chunk_start.tolist(), part.chunk_sizes()):
            count = marble.corrupted_count(size)
            for bad in corrupted if count else []:
                bad.update(part._chunk_flat[start + stream.gen.permutation(size)[:count]].tolist())
    outcomes = []
    for (graph, matching, word), bad in zip(
        reference_graph_block(config, config.n_users, trials, stream), corrupted
    ):
        flags = _core_member_flags(graph, matching)
        if bad:  # the reduced view has no core
            guess = _reference_guess(remove_users(graph, bad), stream, word)
        elif adversary == "matching_count":
            guess = adversary_matching_count(graph)
        else:
            guess = _reference_guess(core(graph) if adversary == "core" else graph, stream, word)
        success = guess in matching
        if marble is not None:
            success = success and marble.admissible(part, bad)
        outcomes.append((guess, success, bool(flags.all())))
    return outcomes


def _reference_trials(config, adversary, trials, rng, marble):
    """:func:`_reference_block` of each block of a campaign on ``rng``: stream ``base + j``."""
    return [
        outcome
        for size, stream in block_streams(rng.seed, rng.stream_id, trials, 2 * config.n_users)
        for outcome in _reference_block(config, adversary, size, stream, marble)
    ]


_ENGINE_CONFIGS = [
    (Partition.equal_chunks(8, 4), Regular(0)),
    (Partition.equal_chunks(8, 4), Regular(1)),
    (Partition.equal_chunks(8, 4), Regular(3)),
    (Partition.equal_chunks(9, 3), Binomial(0.0)),
    (Partition.equal_chunks(9, 3), Binomial(0.2)),
    (Partition.single(6), Binomial(0.2)),
    (Partition.equal_chunks(9, 3), Binomial(1.0)),
    (Partition([range(0, 2), range(2, 5), range(5, 9)]), Regular(1)),
    (Partition([range(0, 2), range(2, 5), range(5, 9)]), Binomial(0.4)),
    (Partition([range(0, 1), range(1, 4), range(4, 6), range(6, 9)]), Binomial(0.6)),
]


@pytest.mark.parametrize("beta", [None, 0.1, 0.5])
@pytest.mark.parametrize("adversary", ["trivial", "core", "matching_count"])
@pytest.mark.parametrize(
    "config",
    [SamplerConfig(part, kind) for part, kind in _ENGINE_CONFIGS],
    ids=["reg0", "reg1", "reg3", "bin0", "bin.2", "bin.2single", "bin1", "ureg1", "ubin.4",
         "ubin.6"],
)
def test_block_engine_matches_per_trial_reference(monkeypatch, config, adversary, beta):
    # blocks of 4 trials: 1, B - 1, B, B + 1 and 2B + 1 trials cross every
    # kind of block boundary; beta = 0.1 corrupts nobody (floor(0.1 * |C|) = 0)
    n = config.n_users
    monkeypatch.setattr(samplers_module, "_BLOCK_NODES", 8 * n)
    marble = BlackMarbleConfig(beta) if beta else None
    for trials in (1, 3, 4, 5, 9):
        rng = RandomSource(21, 5 + trials)
        expected = _reference_trials(config, adversary, trials, rng, marble)
        users, rings, success, core_equal = _campaign_outcomes(
            config, adversary, trials, rng, marble
        )
        assert list(zip(users.tolist(), rings.tolist())) == [e[0] for e in expected]
        assert success.tolist() == [e[1] for e in expected]
        assert core_equal.tolist() == [e[2] for e in expected]
        result = run_campaign(config, n, adversary, trials, rng, marble=marble)
        wins = sum(e[1] for e in expected)
        mismatches = sum(not e[2] for e in expected)
        assert (result.success.failures, result.core_mismatch.failures) == (wins, mismatches)


def test_block_engine_matches_reference_at_the_block_size():
    # the module's own block size, crossed once: 2B + 1 trials
    config = SamplerConfig(Partition.equal_chunks(40, 8), Regular(3))
    marble = BlackMarbleConfig(0.25)
    block = samplers_module._BLOCK_NODES // 80
    trials = 2 * block + 1
    rng = RandomSource(22)
    expected = _reference_trials(config, "core", trials, rng, marble)
    users, rings, success, core_equal = _campaign_outcomes(config, "core", trials, rng, marble)
    assert list(zip(users.tolist(), rings.tolist())) == [e[0] for e in expected]
    assert success.tolist() == [e[1] for e in expected]
    assert core_equal.tolist() == [e[2] for e in expected]


@pytest.mark.parametrize("adversary", ["trivial", "core", "matching_count"])
@pytest.mark.parametrize("beta", [None, 0.5])
def test_run_experiment_is_a_one_trial_campaign(adversary, beta):
    config = SamplerConfig(Partition.equal_chunks(8, 4), Regular(1))
    marble = BlackMarbleConfig(beta) if beta else None
    for sid in range(30):
        outcome = run_experiment(config, 8, adversary, RandomSource(23, sid), marble=marble)
        users, rings, success, core_equal = _campaign_outcomes(
            config, adversary, 1, RandomSource(23, sid), marble
        )
        assert outcome.guessed_edge == (users[0], rings[0])
        assert outcome.success == success[0]
        assert outcome.graph_was_core_equal == core_equal[0]
        assert outcome == _reference_outcome(config, adversary, RandomSource(23, sid), marble)


def _reference_outcome(config, adversary, rng, marble):
    stream = LayoutStream(rng.seed, rng.stream_id)
    (guess, success, core_equal), = _reference_block(config, adversary, 1, stream, marble)
    return adversary_module.ExperimentOutcome(guess, success, core_equal)


# -- the campaign's raw-word draw against the layout-3 reference -----------------------

# chunk 4 with k 3 puts a bound-1 row first; the others cover chunk 8, binomial
# counts and unequal chunks
_DRAW_CONFIGS = [
    (Partition.equal_chunks(40, 4), Regular(3)),
    (Partition.equal_chunks(40, 8), Regular(3)),
    (Partition.equal_chunks(9, 3), Binomial(0.2)),
    (Partition.single(6), Binomial(0.5)),
    (Partition([range(0, 2), range(2, 5), range(5, 9)]), Regular(1)),
    (Partition([range(0, 1), range(1, 4), range(4, 6), range(6, 9)]), Binomial(0.6)),
]


@pytest.mark.parametrize("part, kind", _DRAW_CONFIGS)
def test_campaign_trial_draws_equal_numpys(part, kind):
    # each trial of a block of 8: its graph in the block's union, and the
    # guess its guess word makes for every length, against the layout-3
    # reference block on the block's stream; lengths near 2**32 reject words,
    # whose values then come from the block's overflow run, after those its
    # Floyd draw took
    config = SamplerConfig(part, kind)
    n = config.n_users
    lengths = [1, 2, 3, 4, 5, 7, n, 3 << 30, (1 << 32) - 1]
    rejections = 0
    for block in range(6):
        gen, run = RandomSource(31, block)._stream()
        signers, pools, counts, words = _graph_draw(config, n)(gen, 8)
        union, _ = _graph_block(config, n, 8, (signers, pools, counts, words), run)
        guess_words = words[int(counts.max(initial=0)) * 8 * n:][:8].tolist()
        reference = LayoutStream(31, block)
        for b, (graph, _, word) in enumerate(reference_graph_block(config, n, 8, reference)):
            assert _block_graph(n, n, union, b) == graph and guess_words[b] == word
            for length in lengths:
                pick = _block_draw(
                    np.array([[word]], dtype="<u4"), np.array([[length]], dtype="<u8"), run
                )
                assert int(pick[0, 0]) == reference.value(word, length)
        rejections += reference.overflow_words
    assert rejections >= 5


# chunk 4 with k 3 draws rows of bounds 1, 2 and 3 over 8 columns a trial, so
# in a block of B trials word 16*B + 8*t of its 25*B is trial t's first of
# bound 3; k 2 rings have three members, so every trivial guess is below 3
# and trial t's comes from word 16*B + t of the block's 17*B, its guess word.
# Below 3 the word 0 is rejected: the low half of 3 * 0 is below
# (2**32 - 3) % 3 = 1.
_REJECTIONS = {
    "floyd": ((Partition.equal_chunks(8, 4), Regular(3)), 25, lambda block, t: 16 * block + 8 * t),
    "guess": ((Partition.equal_chunks(8, 4), Regular(2)), 17, lambda block, t: 16 * block + t),
}


def _reject_word(monkeypatch, where, stream_id=None, trials=None):
    """Make the word that ``_REJECTIONS[where]`` names the word 0, in the engine and the
    reference: in the block of stream ``stream_id``, or of every stream when it is None,
    for the trials of the block listed in ``trials``, or for each of them when it is None."""
    _, per_trial, position = _REJECTIONS[where]

    def positions(sid, count):
        block = count // per_trial
        if stream_id not in (None, sid):
            return []
        return [position(block, t) for t in (range(block) if trials is None else trials)]

    inject_words(monkeypatch, 0, positions)


def _overflow_reads(monkeypatch):
    """The stream ids of the overflow runs that the samplers read, in order of first read."""
    reads = []
    overflow_run = samplers_module._overflow_run

    def run(seed, stream_id):
        reads.append(stream_id)
        yield from overflow_run(seed, stream_id)

    monkeypatch.setattr(samplers_module, "_overflow_run", run)
    return reads


@pytest.mark.parametrize("trial", [0, 2, 3])
@pytest.mark.parametrize("where", ["floyd", "guess"])
def test_campaign_redraws_a_rejected_word_through_numpy(monkeypatch, where, trial):
    # one trial of a block of 4, on stream 7, rejects a word: its value comes
    # from the block's overflow run, the only one read, and every outcome
    # equals the layout-3 reference's
    (part, kind), _, _ = _REJECTIONS[where]
    config = SamplerConfig(part, kind)
    monkeypatch.setattr(samplers_module, "_BLOCK_NODES", 8 * config.n_users)  # blocks of 4
    rng = RandomSource(32, 7)
    _reject_word(monkeypatch, where, 7, [trial])
    reads = _overflow_reads(monkeypatch)
    expected = _reference_trials(config, "trivial", 4, rng, None)
    users, rings, success, _ = _campaign_outcomes(config, "trivial", 4, rng, None)
    assert reads == [7]
    assert list(zip(users.tolist(), rings.tolist())) == [e[0] for e in expected]
    assert success.tolist() == [e[1] for e in expected]


# a guess with beta 0.5 is made in a ring that lost members, below 1 or 2,
# where the word 0 is accepted
@pytest.mark.parametrize("where, beta", [("floyd", None), ("floyd", 0.5), ("guess", None)])
def test_run_experiment_is_a_campaign_trial_with_rejected_words(monkeypatch, where, beta):
    # every block rejects a word, so every block reads its overflow run:
    # run_experiment on RandomSource(seed, sid) equals the one trial of a
    # campaign of one trial on RandomSource(seed, sid), and the reference's
    (part, kind), _, _ = _REJECTIONS[where]
    config = SamplerConfig(part, kind)
    marble = BlackMarbleConfig(beta) if beta else None
    _reject_word(monkeypatch, where)
    reads = _overflow_reads(monkeypatch)
    for sid in range(60, 69):
        users, rings, success, core_equal = _campaign_outcomes(
            config, "trivial", 1, RandomSource(36, sid), marble
        )
        outcome = run_experiment(config, 8, "trivial", RandomSource(36, sid), marble=marble)
        assert outcome == adversary_module.ExperimentOutcome(
            (users[0], rings[0]), success[0], core_equal[0]
        )
        assert outcome == _reference_outcome(config, "trivial", RandomSource(36, sid), marble)
        result = run_campaign(config, 8, "trivial", 1, RandomSource(36, sid), marble=marble)
        assert result.success.failures == outcome.success
        assert result.core_mismatch.failures == (not outcome.graph_was_core_equal)
    assert reads == [sid for sid in range(60, 69) for _ in range(3)]


def test_rejected_campaign_values_come_from_the_overflow_run_and_are_uniform(monkeypatch):
    # a chunk of 6 with k 2 draws rows of bounds 4 and 5 over 6 columns a
    # trial and guesses below 3: in a block of B trials the word 0 replaces
    # word 6*B + 6*t + 5 of the block's 13*B, trial t's last of bound 5, and
    # word 12*B + t, its guess word, and both bounds reject it.  The values
    # come from the block's overflow run, the Floyd ones first, are uniform
    # and give the reference's outcomes; every other Floyd value is the one
    # drawn without the injection
    config = SamplerConfig(Partition.single(6), Regular(2))
    trials, rng = 1500, RandomSource(38)
    floyd_draws = []
    block_draw = samplers_module._block_draw

    def recording_draw(*args):
        x = block_draw(*args)
        floyd_draws.append(x.copy())
        return x

    accepted = []
    accept = samplers_module._accept

    def accept_and_record(run, bound):
        accepted.append((bound, accept(run, bound)))
        return accepted[-1][1]

    def positions(sid, count):
        block = count // 13
        return [6 * block + 6 * t + 5 for t in range(block)] + [12 * block + t for t in range(block)]

    monkeypatch.setattr(samplers_module, "_block_draw", recording_draw)
    monkeypatch.setattr(samplers_module, "_accept", accept_and_record)
    _campaign_outcomes(config, "trivial", trials, rng, None)
    clean, floyd_draws[:] = list(floyd_draws), []
    assert accepted == []
    inject_words(monkeypatch, 0, positions)
    users, rings, success, _ = _campaign_outcomes(config, "trivial", trials, rng, None)
    expected = _reference_trials(config, "trivial", trials, rng, None)
    assert list(zip(users.tolist(), rings.tolist())) == [e[0] for e in expected]
    assert success.tolist() == [e[1] for e in expected]
    for x, x_clean in zip(floyd_draws, clean, strict=True):
        kept = np.ones(x.shape, dtype=bool)
        kept[1, 5::6] = False
        assert np.array_equal(x[kept], x_clean[kept])
    floyd = [v for bound, v in accepted if bound == 5]
    guesses = [v for bound, v in accepted if bound == 3]
    assert len(floyd) == len(guesses) == trials and len(accepted) == 2 * trials
    assert np.concatenate([x[1, 5::6] for x in floyd_draws]).tolist() == floyd
    # each block's Floyd values are taken before its guesses
    bounds = [bound for bound, _ in accepted]
    assert bounds == [b for x in floyd_draws for b in [5] * (x.shape[1] // 6) + [3] * (x.shape[1] // 6)]
    assert chi_square(floyd, 5) < CHI_SQUARE_999[4]
    assert chi_square(guesses, 3) < CHI_SQUARE_999[2]


def _state_key(gen):
    state = gen.bit_generator.state
    return (state["state"]["counter"].tolist(), state["buffer"].tolist(), state["buffer_pos"],
            state["has_uint32"], state["uinteger"])


@pytest.mark.parametrize("adversary, rejecting", [
    ("trivial", None), ("core", None), ("matching_count", None),
    ("trivial", "floyd"), ("trivial", "guess"),
])
def test_run_experiment_leaves_the_generator_where_numpy_does(monkeypatch, adversary, rejecting):
    # two trials and then numpy's draws on a reused source equal those of
    # the layout-3 reference, with and without a half word that numpy
    # buffered before the first call; k 0 rings have one member
    cases = [_REJECTIONS["floyd"][0], _REJECTIONS["guess"][0], (Partition.single(6), Regular(0)),
             (Partition.equal_chunks(9, 3), Binomial(0.4))]
    if rejecting is not None:  # every trial rejects a word
        cases = [_REJECTIONS[rejecting][0]]
        _reject_word(monkeypatch, rejecting)
    for (part, kind), sid, buffered in product(cases, range(6), (False, True)):
        config = SamplerConfig(part, kind)
        rng, reference = RandomSource(33, sid), LayoutStream(33, sid)
        if buffered:
            rng.generator.integers(0, 10)
            reference.gen.integers(0, 10)
        for _ in range(2):
            outcome = run_experiment(config, config.n_users, adversary, rng)
            (guess, success, core_equal), = _reference_block(config, adversary, 1, reference, None)
            assert outcome == adversary_module.ExperimentOutcome(guess, success, core_equal)
        assert _state_key(rng.generator) == _state_key(reference.gen)
        assert rng.generator.integers(0, 1000, size=3).tolist() == reference.gen.integers(
            0, 1000, size=3).tolist()
        assert (reference.overflow_words >= 2) == (rejecting is not None)


class _CountingGenerator:
    """A block's generator that counts the draws made of it: permutations,
    binomial counts, raw-word draws, state restores and ``integers`` calls."""

    def __init__(self, gen, calls):
        self._gen = gen
        self._calls = calls
        self.bit_generator = self

    def permuted(self, *args, **kwargs):
        self._calls["permuted"] += 1
        return self._gen.permuted(*args, **kwargs)

    def binomial(self, *args):
        self._calls["binomial"] += 1
        return self._gen.binomial(*args)

    def integers(self, low, high, **kwargs):
        self._calls["integers"] += 1
        return self._gen.integers(low, high, **kwargs)

    def random_raw(self, size):
        self._calls["random_raw"] += 1
        return self._gen.bit_generator.random_raw(size)

    @property
    def state(self):
        return self._gen.bit_generator.state

    @state.setter
    def state(self, value):
        self._calls["restores"] += 1
        self._gen.bit_generator.state = value


@pytest.mark.parametrize("part, kind", _DRAW_CONFIGS)
@pytest.mark.parametrize("adversary, beta", [("trivial", None), ("core", None), ("core", 0.25)])
def test_campaign_block_takes_one_raw_word_draw_per_trial(part, kind, adversary, beta):
    # a block of 5 trials makes each draw once: one permuted call per
    # corrupted chunk and one for the signers, one binomial call under the
    # binomial model, and one random_raw call for every trial's Floyd words
    # and guess word; no numpy bounded draw and no state restore is made
    config = SamplerConfig(part, kind)
    marble = BlackMarbleConfig(beta) if beta else None
    engine = _Campaign(config, adversary, marble)
    corrupted_chunks = sum(1 for size in part.chunk_sizes() if marble and marble.corrupted_count(size))
    want = Counter({"random_raw": 1, "permuted": 1 + corrupted_chunks})
    if isinstance(kind, Binomial):
        want["binomial"] = 1
    for block in range(3):
        calls = Counter()
        stream = (_CountingGenerator(RandomSource(34, block).generator, calls),
                  _overflow_run(34, block))
        outcomes = engine.run(stream, 5)
        assert calls == want
        expected = engine.run(RandomSource(34, block)._stream(), 5)
        for got, wanted in zip(outcomes, expected):
            assert np.array_equal(got, wanted)


def test_campaign_block_reads_an_overflow_run_only_for_a_rejected_word(monkeypatch):
    # a block of 5 reads no overflow run; once its trial 2 rejects a Floyd
    # word it makes no more raw-word draws, no state restore and no numpy
    # bounded draw, and reads its overflow run
    (part, kind), _, _ = _REJECTIONS["floyd"]
    config = SamplerConfig(part, kind)
    reads = _overflow_reads(monkeypatch)
    for rejecting in (False, True):
        if rejecting:
            _reject_word(monkeypatch, "floyd", 35, [2])
        calls = Counter()
        stream = (_CountingGenerator(RandomSource(0, 35).generator, calls),
                  samplers_module._overflow_run(0, 35))
        _Campaign(config, "trivial", None).run(stream, 5)
        assert calls == Counter({"random_raw": 1, "permuted": 1})
        assert reads == ([35] if rejecting else [])


def test_campaign_peak_memory_does_not_grow_with_trials():
    # wins and core mismatches are counted block by block, so 80 blocks of
    # trials peak no higher than 40; a warm-up as long as the longest run
    # fills numpy's and Python's bounded caches first, whatever ran before
    config = SamplerConfig(Partition.equal_chunks(40, 4), Regular(3))
    block = samplers_module._BLOCK_NODES // 80
    run_campaign(config, 40, "trivial", 80 * block, RandomSource(24))  # one-off allocations
    peaks = []
    for trials in (40 * block, 80 * block):
        tracemalloc.start()
        try:
            run_campaign(config, 40, "trivial", trials, RandomSource(24))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**14


def test_campaign_rejects_a_partition_without_users():
    config = SamplerConfig(Partition([]), Binomial(0.5))
    with pytest.raises(InvalidConfig):
        run_campaign(config, 0, "trivial", 3, RandomSource(0))


# -- black marbles ----------------------------------------------------------------------


def test_black_marble_beta_zero_is_noop():
    cfg = SamplerConfig(Partition.equal_chunks(12, 4), Regular(2))
    marble = BlackMarbleConfig(0.0)
    for sid in range(40):
        active = run_experiment(cfg, 12, "core", RandomSource(14, sid), marble=marble)
        passive = run_experiment(cfg, 12, "core", RandomSource(14, sid))
        assert active == passive


def test_black_marble_reduction_removes_only_corrupted_edges():
    cfg = SamplerConfig(Partition.equal_chunks(8, 4), Regular(3))
    g, _ = sample_transaction_graph(cfg, 8, 8, RandomSource(15))
    reduced = remove_users(g, {0, 5})
    assert reduced.n_users == g.n_users and reduced.n_rings == g.n_rings
    assert reduced.edges == {(u, r) for u, r in g.edges if u not in (0, 5)}


def test_black_marble_corruption_is_admissible():
    part = Partition.equal_chunks(20, 5)
    cfg = SamplerConfig(part, Regular(2))
    for beta in (0.2, 0.4, 0.79):
        marble = BlackMarbleConfig(beta)
        for sid in range(30):
            # a block of three trials: one row of corrupted users each
            for corrupted in _corrupt_users(cfg, marble, RandomSource(16, sid).generator, 3):
                assert marble.admissible(part, corrupted)
                per_chunk = Counter(part.chunk_of(u) for u in corrupted)
                assert all(per_chunk[c] == math.floor(beta * 5) for c in range(4))


def test_black_marble_admissible_rejects_an_overfull_chunk():
    part = Partition.equal_chunks(10, 5)
    marble = BlackMarbleConfig(0.2)  # one corrupted user per chunk at most
    assert marble.admissible(part, {0, 5})
    assert not marble.admissible(part, {0, 1})
    rows = np.zeros((3, 10), dtype=bool)
    rows[1, [5, 9]] = True
    rows[2, [4, 5]] = True
    assert marble._admissible_rows(part, rows).tolist() == [True, False, True]


def test_black_marble_invalid_beta():
    with pytest.raises(InvalidBeta):
        BlackMarbleConfig(1.0)
    with pytest.raises(InvalidBeta):
        BlackMarbleConfig(-0.1)


def test_black_marble_regular_trivial_success_stays_at_trivial_rate():
    # within-ring signer exchangeability makes corruption useless to the
    # smallest-ring guesser: success sits at 1/(k+1) for every beta
    k = 3
    cfg = SamplerConfig(Partition.equal_chunks(32, 8), Regular(k))
    trials = 6000
    for beta in (0.0, 0.25, 0.5):
        marble = BlackMarbleConfig(beta) if beta else None
        est = estimate_success(
            cfg, 32, "trivial", trials, RandomSource(17), marble=marble
        )
        assert abs(est.estimate - 1 / (k + 1)) <= _three_sigma(1 / (k + 1), trials)


def test_black_marble_never_helps_core_adversary_in_untargeted_game():
    cfg = SamplerConfig(Partition.equal_chunks(32, 8), Regular(3))
    trials = 6000
    base = estimate_success(cfg, 32, "core", trials, RandomSource(18))
    for beta in (0.25, 0.5):
        est = estimate_success(
            cfg, 32, "core", trials, RandomSource(18), marble=BlackMarbleConfig(beta)
        )
        noise = 3 * math.sqrt(
            (est.estimate * (1 - est.estimate) + base.estimate * (1 - base.estimate))
            / trials
        )
        assert est.estimate <= base.estimate + noise
