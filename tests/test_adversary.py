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
    ADVERSARIES,
    BlackMarbleConfig,
    _Campaign,
    adversary_core,
    adversary_matching_count,
    adversary_trivial,
    estimate_success,
    run_campaign,
    run_experiment,
    _adv_core,
    _adv_trivial,
    _corrupt_users,
)
from ringlab.core import _core_flags, core, is_core_equal
from ringlab.errors import InstanceTooLarge, InvalidBeta, InvalidConfig
from ringlab.graph import Partition, _core_equal_graphs, _tarjan, induced_digraph
from ringlab.samplers import (
    Binomial,
    RandomSource,
    Regular,
    SamplerConfig,
    _block_floyd,
    _block_graph,
    _decoy_counts,
    _floyd_bound,
    _floyd_draw,
    _graph_block,
    _graph_draw,
    _lemire,
    _pool_sizes,
    _StreamFamily,
    _trial_blocks,
    _trial_streams,
    sample_transaction_graph,
)

from conftest import _core_member_flags, make_graph, numpy_transaction_graph, remove_users


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
    fam = _StreamFamily(7)
    triv = core_adv = considered = 0
    for t in range(10000):
        gen = fam.generator(t)
        g, m = sample_transaction_graph(cfg, 4, 4, RandomSource(7, t))
        if is_core_equal(g):
            continue
        considered += 1
        triv += _adv_trivial(g, gen, None) in m
        core_adv += _adv_core(g, gen, core(g)) in m
    assert considered > 1000
    p1, p2 = core_adv / considered, triv / considered
    noise = 3 * math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / considered)
    assert p1 >= p2 - noise
    assert p1 > p2  # strict at this sample size: core analysis really helps


def test_paired_matching_count_beats_core_on_small_instances():
    cfg = SamplerConfig(Partition.single(6), Regular(2))
    fam = _StreamFamily(8)
    core_adv = count_adv = 0
    trials = 10000
    for t in range(trials):
        gen = fam.generator(t)
        g, m = sample_transaction_graph(cfg, 6, 6, RandomSource(8, t))
        core_adv += _adv_core(g, gen, core(g)) in m
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
# of 300 trials from RandomSource(0, 3).  Recorded while the core adversary
# still ran its own matching and core on every trial: sharing the sampled
# graph's core with it must not change a single outcome.
GOLDEN_CAMPAIGNS = [
    ((40, 4, Regular(3), "trivial", None), (76, 0)),
    ((40, 4, Regular(3), "core", None), (76, 0)),
    ((40, 8, Regular(3), "trivial", None), (76, 171)),
    ((40, 8, Regular(3), "core", None), (206, 171)),
    ((40, 8, Regular(3), "trivial", 0.25), (74, 184)),
    ((40, 8, Regular(3), "core", 0.25), (74, 184)),
    ((40, 8, Regular(3), "core", 0.5), (74, 184)),
    ((12, 4, Regular(1), "trivial", None), (131, 297)),
    ((12, 4, Regular(1), "core", None), (297, 297)),
    ((12, 4, Regular(1), "core", 0.5), (152, 300)),
    ((9, 9, Binomial(0.2), "trivial", None), (273, 290)),
    ((9, 9, Binomial(0.2), "core", None), (296, 290)),
    ((9, 9, Binomial(0.2), "matching_count", None), (299, 290)),
    ((9, 9, Binomial(0.2), "core", 0.25), (205, 281)),
    ((9, 9, Binomial(0.2), "matching_count", 0.25), (205, 281)),
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
    for gens in _trial_blocks(RandomSource(0, 3), 300, 2 * users):
        equal = _Campaign(cfg, adversary, marble).run(gens)[3]
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
        draw = _graph_draw(config, n)
        for sid in range(4):  # blocks of 50 graphs
            base = 100 * i + sid
            draws = [draw(gen) for gen in _trial_streams(RandomSource(24, base), 50)]
            union, signed = _graph_block(config, n, draws)
            users, starts = union._users, union._starts
            assert union.n_users == union.n_rings == len(draws) * n
            decoys = users != signed
            graph_starts = np.arange(0, union.n_users + 1, n)
            verdicts = _core_equal_graphs(graph_starts, users[decoys], signed[decoys]).tolist()
            assert len(verdicts) == len(draws)
            block_flags = _core_flags(union.n_users, users, signed)
            for b, verdict in enumerate(verdicts):
                graph = _block_graph(n, n, union, b)
                # graph b is the graph its stream gives alone, its signers those of the union
                alone, matching = sample_transaction_graph(
                    config, n, n, RandomSource(24, base + b)
                )
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
    blocks = [engine.run(gens) for gens in _trial_blocks(rng, trials, 2 * config.n_users)]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _reference_trial(config, adversary, gen, marble):
    """One trial as the per-trial loop ran it before the block engine: the reference.

    Every draw is numpy's own: the graph's (:func:`numpy_transaction_graph`)
    and the guess's ``gen.integers``.  Returns the guessed edge, the win and
    whether the sampled graph is core-equal.
    """
    corrupted = set()
    if marble is not None:
        corrupted = set(_corrupt_users(config, marble, gen).tolist())
    graph, matching = numpy_transaction_graph(config, config.n_users, gen)
    flags = _core_member_flags(graph, matching)
    if corrupted:  # the reduced view has no core
        guess = ADVERSARIES[adversary](remove_users(graph, corrupted), gen, None)
    else:
        guess = ADVERSARIES[adversary](graph, gen, core(graph))
    success = guess in matching
    if marble is not None:
        success = success and marble.admissible(config.partition, corrupted)
    return guess, success, bool(flags.all())


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
        expected = [
            _reference_trial(config, adversary, gen, marble)
            for gen in _trial_streams(rng, trials)
        ]
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
    expected = [
        _reference_trial(config, "core", gen, marble) for gen in _trial_streams(rng, trials)
    ]
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
    guess, success, core_equal = _reference_trial(config, adversary, rng.generator, marble)
    return adversary_module.ExperimentOutcome(guess, success, core_equal)


# -- the campaign's raw-word draw against numpy's own draws ----------------------------

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


def _numpy_floyd(config, gen):
    """A trial's Floyd draw through numpy, after its signer permutation and counts."""
    signers = gen.permutation(config.n_users)
    pools = _pool_sizes(config.partition, signers)
    counts = _decoy_counts(config, gen, pools)
    return _floyd_draw(gen, _floyd_bound(pools, counts))


@pytest.mark.parametrize("part, kind", _DRAW_CONFIGS)
def test_campaign_trial_draws_equal_numpys(part, kind):
    # each trial of a block: its columns of the block's Floyd draw, and the
    # guess its last word makes for every length, against numpy on its stream;
    # lengths near 2**32 reject words, which the campaign then draws through numpy
    config = SamplerConfig(part, kind)
    n = config.n_users
    lengths = np.array([1, 2, 3, 4, 5, 7, n, 3 << 30, (1 << 32) - 1], dtype="<u8")
    halves, rejections = set(), 0
    for block in range(6):
        rng = RandomSource(31, 50 * block)
        drawn = [_graph_draw(config, n)(gen) for gen in _trial_streams(rng, 8)]
        signers = np.concatenate([d[2] for d in drawn])
        counts = np.concatenate([d[3] for d in drawn])
        x = _block_floyd(n, drawn, _pool_sizes(part, signers), counts)
        for b, d in enumerate(drawn):
            halves.add(d[1]["has_uint32"])
            gen = RandomSource(31, 50 * block + b).generator
            xb = _numpy_floyd(config, gen)
            assert np.array_equal(x[x.shape[0] - xb.shape[0]:, b * n:(b + 1) * n], xb)
            after = gen.bit_generator.state
            picks, rejected = _lemire(np.full((lengths.size, 1), d[4][-1], dtype="<u4"),
                                      lengths[:, None])
            rejected = np.zeros(lengths.size, dtype=bool) if rejected is None else rejected >= 0
            for pick, length, bad in zip(picks.ravel().tolist(), lengths.tolist(), rejected):
                gen.bit_generator.state = after
                rejections += bad
                assert bad or pick == gen.integers(0, length)
    assert halves == {0, 1} and rejections >= 5


def _zero_word(monkeypatch, index, trial=None):
    """Make word ``index`` of the graph draws' word source 0: at its ``trial``-th
    call, or at every call that returns that word when ``trial`` is None.

    For a bound or length of 3, numpy rejects a word whose low half of
    ``3 * word`` is below ``(2**32 - 3) % 3 = 1``: the word 0.
    """
    next_words = samplers_module._next_words
    calls = []

    def words(*args):
        out = next_words(*args)
        if len(calls) == trial or (trial is None and -out.size <= index < out.size):
            out = out.copy()
            out[index] = 0
        calls.append(1)
        return out

    monkeypatch.setattr(samplers_module, "_next_words", words)


# chunk 4 with k 3 draws rows of bounds 1, 2 and 3, so word n is the first of
# bound 3; k 2 rings have three members, so every trivial guess is below 3
_REJECTIONS = {
    "floyd": ((Partition.equal_chunks(8, 4), Regular(3)), 8),
    "guess": ((Partition.equal_chunks(8, 4), Regular(2)), -1),
}


@pytest.mark.parametrize("trial", [0, 2, 3])
@pytest.mark.parametrize("where", ["floyd", "guess"])
def test_campaign_redraws_a_rejected_word_through_numpy(monkeypatch, where, trial):
    (part, kind), index = _REJECTIONS[where]
    config = SamplerConfig(part, kind)
    monkeypatch.setattr(samplers_module, "_BLOCK_NODES", 8 * config.n_users)  # blocks of 4
    rng = RandomSource(32, 7)
    expected = [_reference_trial(config, "trivial", gen, None) for gen in _trial_streams(rng, 4)]
    redraws = []
    floyd_draw = samplers_module._floyd_draw
    settle = adversary_module._settle
    monkeypatch.setattr(samplers_module, "_floyd_draw",
                        lambda *args: redraws.append("floyd") or floyd_draw(*args))
    monkeypatch.setattr(adversary_module, "_settle",
                        lambda *args: redraws.append("guess") or settle(*args))
    _zero_word(monkeypatch, index, trial)
    users, rings, success, _ = _campaign_outcomes(config, "trivial", 4, rng, None)
    assert redraws == [where]
    assert list(zip(users.tolist(), rings.tolist())) == [e[0] for e in expected]
    assert success.tolist() == [e[1] for e in expected]


def _state_key(gen):
    state = gen.bit_generator.state
    return (state["state"]["counter"].tolist(), state["buffer"].tolist(), state["buffer_pos"],
            state["has_uint32"], state["uinteger"])


@pytest.mark.parametrize("adversary, rejecting", [
    ("trivial", None), ("core", None), ("matching_count", None),
    ("trivial", "floyd"), ("trivial", "guess"),
])
def test_run_experiment_leaves_the_generator_where_numpy_does(monkeypatch, adversary, rejecting):
    # a reused source, with and without a buffered half word before the
    # call; k 0 rings have one member, so a trivial guess draws no word
    cases = [_REJECTIONS["floyd"][0], _REJECTIONS["guess"][0], (Partition.single(6), Regular(0)),
             (Partition.equal_chunks(9, 3), Binomial(0.4))]
    if rejecting is not None:  # every trial rejects a word
        cases, index = [_REJECTIONS[rejecting][0]], _REJECTIONS[rejecting][1]
        _zero_word(monkeypatch, index)
    for (part, kind), sid, buffered in product(cases, range(6), (False, True)):
        config = SamplerConfig(part, kind)
        rng, reference = RandomSource(33, sid), RandomSource(33, sid).generator
        if buffered:
            rng.generator.integers(0, 10)
            reference.integers(0, 10)
        outcome = run_experiment(config, config.n_users, adversary, rng)
        guess, success, core_equal = _reference_trial(config, adversary, reference, None)
        assert outcome == adversary_module.ExperimentOutcome(guess, success, core_equal)
        assert _state_key(rng.generator) == _state_key(reference)
        assert rng.generator.integers(0, 1000, size=3).tolist() == reference.integers(
            0, 1000, size=3).tolist()


class _CountingGenerator:
    """A trial's generator that counts the raw-word draws, state restores and
    ``integers`` calls made of it; ``integers`` calls with an array bound count apart."""

    def __init__(self, gen, calls):
        self._gen = gen
        self._calls = calls
        self.bit_generator = self

    def permutation(self, *args):
        return self._gen.permutation(*args)

    def binomial(self, *args):
        return self._gen.binomial(*args)

    def integers(self, low, high, **kwargs):
        self._calls["array integers" if np.ndim(high) else "integers"] += 1
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
    # every trial's Floyd words and guess word come from one random_raw call;
    # no numpy bounded draw with an array bound and no state restore is made
    config = SamplerConfig(part, kind)
    marble = BlackMarbleConfig(beta) if beta else None
    engine = _Campaign(config, adversary, marble)
    for block in range(3):
        calls = Counter()
        gens = [
            _CountingGenerator(RandomSource(34, 10 * block + t).generator, calls) for t in range(5)
        ]
        outcomes = engine.run(gens)
        assert calls == Counter({"random_raw": 5})
        expected = engine.run(_trial_streams(RandomSource(34, 10 * block), 5))
        for got, want in zip(outcomes, expected):
            assert np.array_equal(got, want)


def test_campaign_block_restores_a_state_only_for_a_rejected_word(monkeypatch):
    (part, kind), index = _REJECTIONS["floyd"]
    config = SamplerConfig(part, kind)
    _zero_word(monkeypatch, index, 2)
    calls = Counter()
    gens = [_CountingGenerator(RandomSource(35, t).generator, calls) for t in range(5)]
    _Campaign(config, "trivial", None).run(gens)
    # trial 2 is drawn again through numpy from its state, then takes its next word
    assert calls == Counter({"random_raw": 6, "restores": 1, "array integers": 1})


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
            corrupted = _corrupt_users(cfg, marble, RandomSource(16, sid).generator)
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
