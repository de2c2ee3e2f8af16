"""Deanonymisation experiments and concrete adversary strategies.

The passive experiment samples a transaction graph in which every user
has signed, hands the adversary the graph alone (never the signer
assignment), and scores a win when the guessed (user, ring) pair is the
true assignment.  The active variant additionally corrupts a bounded
fraction of users per chunk beforehand and removes their edges from the
graph the adversary sees.

Three adversaries are provided: the trivial smallest-ring guesser, a
core-based analyst that first discards edges outside the union of
maximum matchings, and an exact matching-count oracle that is
Bayes-optimal under the uniform signer model but only feasible at
brute-force scale.  The first two make one guess, for a campaign block
and for one graph alike (:func:`_smallest_ring_guesses`): a member of the
smallest ring, on the core for the second, that one guess word picks
under the one bounded-integer rule of :mod:`ringlab.samplers`.

Campaigns run in the blocks of ``samplers._trial_blocks``, of
``max(1, _BLOCK_NODES // (2 * n_users))`` trials each: a trial's graph has
n users and n rings.  Block j of a campaign on ``base`` draws only from
stream ``base + j``, under stream layout 3 (see ``samplers``), each draw
once for the whole block, in this order: the corruption permutations,
one per corrupted chunk; the signer permutations; the binomial decoy
counts; then the ``K*B*n + B`` main-run words of the block's Floyd draw
and of the adversary's B guesses (``samplers._graph_draw``), K being the
block's largest decoy count.  One Lemire pass and one Floyd resolve then
give the whole block as one graph, the disjoint union of its trials'
graphs: user u and ring j of trial b are union user ``b*n + u`` and union
ring ``b*n + j``.  The guesses come last, trial b's from the block's
guess word b, in one more Lemire pass.  Rejected values take their words
from the block's overflow run, the Floyd draw's first and then the
guesses'.

Each trial decides whether its sampled graph is core-equal.  Every user
signs, so the graph is balanced, and an edge of it leaves the core
exactly when, in the digraph with an edge from each decoy to the signer
of its ring, that edge joins two strong components (Dulmage & Mendelsohn
1958; Tassa 2012).  User u of trial t is node ``t*n + u`` of one such
digraph over the block: one label-propagation call per block
(:func:`~ringlab.graph._core_equal_graphs`) decides core equality for
every trial, and for a block that holds a core mismatch the passive core
adversary takes every member's core flag from one
:func:`~ringlab.core._core_flags` call, so no per-trial graph is built.
The flags come from the signer assignment, which leaks nothing: every
maximum matching yields the same core (pinned by
``test_core_invariant_under_matching_strategy``).  In the corrupted-user
game the view has no core: every user signs (m = n), so once any user is
corrupted the view's rings touch fewer than m users and no matching
covers them.  The core and matching-count adversaries then fall back to
the trivial guess, so campaigns analyse only uncorrupted views.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import floor
from typing import Iterable, Iterator

import numpy as np
from numpy.random import Generator

from .core import (
    BRUTE_FORCE_USER_CAP, _core_flags, _covering_core_flags, enumerate_maximum_matchings
)
from .errors import InstanceTooLarge, InvalidBeta, InvalidConfig, NotATransactionGraph
from .graph import Partition, TransactionGraph, _core_equal_graphs, _offsets
from .samplers import (
    RandomSource,
    SamplerConfig,
    _Stream,
    _block_draw,
    _block_graph,
    _graph_block,
    _graph_draw,
    _raw_words,
    _trial_blocks,
)
from .stats import EstimateResult

__all__ = [
    "ExperimentOutcome",
    "BlackMarbleConfig",
    "CampaignResult",
    "adversary_trivial",
    "adversary_core",
    "adversary_matching_count",
    "run_experiment",
    "estimate_success",
    "run_campaign",
    "ADVERSARIES",
]


@dataclass(frozen=True)
class ExperimentOutcome:
    """Result of one experiment trial.

    ``graph_was_core_equal`` refers to the graph as sampled (before any
    corrupted-user reduction); it feeds the advantage-bound comparisons.
    """

    guessed_edge: tuple[int, int]
    success: bool
    graph_was_core_equal: bool


@dataclass(frozen=True)
class BlackMarbleConfig:
    """Per-chunk corruption budget: floor(beta * |C|) users of every chunk."""

    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise InvalidBeta(f"beta={self.beta} outside [0, 1)")

    def corrupted_count(self, chunk_size: int) -> int:
        return floor(self.beta * chunk_size)

    def admissible(self, partition: Partition, corrupted: Iterable[int]) -> bool:
        """The admissibility predicate: |B ∩ C| <= beta * |C| for every chunk."""
        rows = np.zeros((1, partition.n_users), dtype=bool)
        rows[0, np.fromiter(corrupted, dtype=np.int64)] = True
        return bool(self._admissible_rows(partition, rows)[0])

    def _admissible_rows(self, partition: Partition, corrupted: np.ndarray) -> np.ndarray:
        """:meth:`admissible` for each row of a ``(B, n_users)`` corrupted-user mask."""
        row, users = np.nonzero(corrupted)
        chunks = partition.n_chunks
        per_chunk = np.bincount(
            row * chunks + partition._chunk_of[users], minlength=corrupted.shape[0] * chunks
        ).reshape(-1, chunks)
        return (per_chunk <= self.beta * np.diff(partition._chunk_start)).all(axis=1)


# -- adversaries ---------------------------------------------------------------

ADVERSARIES = ("trivial", "core", "matching_count")


def _smallest_ring_guesses(
    union: TransactionGraph,
    graphs: int,
    keep: np.ndarray | None,
    words: np.ndarray,
    run: Iterator[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Each graph's smallest-ring guess: the one guess rule of the trivial and core adversaries.

    ``union`` is the disjoint union of ``graphs`` graphs of n users and m
    rings each: user u and ring j of graph b are union user ``b*n + u``
    and union ring ``b*m + j``.  ``keep`` flags the members a guess may
    name, one flag per union edge (None: every member).  Graph b guesses
    its smallest ring with a kept member, lowest index on ties, and the
    member of it that its guess word ``words[b]`` picks among the kept
    ones in ascending order (:func:`~ringlab.samplers._block_draw`, a
    rejected word taking its value from the overflow ``run``).  A graph
    whose rings keep no member, or that has none, makes the fixed blind
    guess ``(0, 0)`` and uses no word.  Returns each graph's guessed user
    and ring.
    """
    n, m = union.n_users // graphs, union.n_rings // graphs
    users, starts = union._users, union._starts
    if m == 0:  # no ring: the blind guess
        return np.zeros((2, graphs), dtype=np.int64)
    # each ring's first kept member, numbered among the kept members
    kept = starts if keep is None else _offsets(keep)[starts]
    sizes = np.diff(kept).reshape(graphs, m)
    rings = np.where(sizes > 0, sizes, n + 1).argmin(axis=1)
    lengths = sizes[np.arange(graphs), rings]
    guessing = np.flatnonzero(lengths)
    picks = _block_draw(words[None, guessing], lengths[None, guessing].astype("<u8"), run)[0]
    # the picks-th kept member of the guessed ring, in ascending order
    at = kept[guessing * m + rings[guessing]] + picks
    if keep is not None:
        at = np.flatnonzero(keep)[at]
    guesses = np.zeros(graphs, dtype=np.int64)
    guesses[guessing] = users[at] - guessing * n
    return guesses, rings


def _guess(graph: TransactionGraph, keep: np.ndarray | None, rng: RandomSource) -> tuple[int, int]:
    """:func:`_smallest_ring_guesses` of one graph, from one main-run word of ``rng``."""
    gen, run = rng._stream()
    users, rings = _smallest_ring_guesses(graph, 1, keep, _raw_words(gen.bit_generator, 1), run)
    return int(users[0]), int(rings[0])


def adversary_trivial(graph: TransactionGraph, rng: RandomSource) -> tuple[int, int]:
    """Pick the smallest ring (lowest index on ties), guess a uniform member."""
    return _guess(graph, None, rng)


def adversary_core(graph: TransactionGraph, rng: RandomSource) -> tuple[int, int]:
    """Guess a uniform core member of the ring with least core degree; trivially without a core."""
    try:
        keep = _covering_core_flags(graph)[2]
    except NotATransactionGraph:
        keep = None
    return _guess(graph, keep, rng)


def adversary_matching_count(graph: TransactionGraph) -> tuple[int, int]:
    """Edge contained in the most maximum matchings (lexicographic on ties).

    Bayes-optimal for uniformly chosen signers; exponential, so limited to
    instances within the brute-force cap.
    """
    counts: dict[tuple[int, int], int] = {}
    for matching in enumerate_maximum_matchings(graph):
        for pair in matching.pairs:
            counts[pair] = counts.get(pair, 0) + 1
    best_pair = None
    best_count = -1
    for pair, count in counts.items():
        if count > best_count or (count == best_count and pair < best_pair):
            best_pair, best_count = pair, count
    return best_pair


# -- experiments ---------------------------------------------------------------

def _corrupt_users(
    config: SamplerConfig, marble: BlackMarbleConfig, gen: Generator, trials: int
) -> np.ndarray:
    """Each trial's corrupted users: ``floor(beta*|C|)`` uniform users of every chunk C.

    Returns one row per trial.  Each chunk with a nonzero count draws one
    ``permuted`` call over its positions, one row per trial, in chunk
    order.
    """
    part = config.partition
    picks = [np.empty((trials, 0), dtype=np.int64)]
    for start, size in zip(part._chunk_start.tolist(), part.chunk_sizes()):
        count = marble.corrupted_count(size)
        if count:
            order = np.tile(np.arange(start, start + size), (trials, 1))
            picks.append(gen.permuted(order, axis=1, out=order)[:, :count])
    return part._chunk_flat[np.concatenate(picks, axis=1)]


class _Campaign:
    """The campaign engine for one (config, adversary, marble): runs blocks of trials.

    A block is one :func:`~ringlab.samplers._graph_block` union; each
    trial's view keeps members of its graph by one flag per union edge.
    The core and matching-count adversaries analyse only uncorrupted
    views: once a user is corrupted no matching covers the view's rings,
    and both guess as the trivial adversary does.
    """

    def __init__(
        self, config: SamplerConfig, adversary: str, marble: BlackMarbleConfig | None
    ):
        if adversary not in ADVERSARIES:
            raise InvalidConfig(
                f"unknown adversary {adversary!r}; expected one of {sorted(ADVERSARIES)}"
            )
        if adversary == "matching_count" and config.n_users > BRUTE_FORCE_USER_CAP:
            raise InstanceTooLarge(
                f"{config.n_users} users exceeds the brute-force cap of {BRUTE_FORCE_USER_CAP}"
            )
        self.config = config
        self.marble = marble
        corrupting = marble is not None and any(
            marble.corrupted_count(size) for size in config.partition.chunk_sizes()
        )
        self.analysis = None if corrupting else adversary  # None: every guess is trivial
        self.draw = _graph_draw(config, config.n_users)

    def run(
        self, stream: _Stream, trials: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per trial of a block of ``trials``: guessed user and ring, win, core-equal."""
        config, n = self.config, self.config.n_users
        gen, run = stream
        if self.marble is not None:
            corrupted = _corrupt_users(config, self.marble, gen, trials)
        draw = self.draw(gen, trials)
        union, signed = _graph_block(config, n, trials, draw, run)
        users, starts = union._users, union._starts
        decoys = users != signed
        core_equal = _core_equal_graphs(
            np.arange(0, union.n_users + 1, n), users[decoys], signed[decoys]
        )

        keep = None  # per edge, whether the guess may name that member; None: every member
        if self.marble is not None:
            is_corrupted = np.zeros((trials, n), dtype=bool)
            is_corrupted[np.arange(trials)[:, None], corrupted] = True
            keep = ~is_corrupted.ravel()[users]
        if self.analysis == "core" and not core_equal.all():
            # the passive core adversary guesses on the core: one flag per member
            keep = _core_flags(union.n_users, users, signed)
        if self.analysis == "matching_count":  # sampled graphs always have a covering matching
            guesses, rings = np.array(
                [adversary_matching_count(_block_graph(n, n, union, b)) for b in range(trials)],
                dtype=np.int64,
            ).T
        else:
            # each trial's guess word follows the block's Floyd draw
            counts, words = draw[2], draw[3]
            guess_words = words[int(counts.max(initial=0)) * counts.shape[0]:]
            guesses, rings = _smallest_ring_guesses(union, trials, keep, guess_words, run)
        block = np.arange(trials)
        success = signed[starts[block * n + rings]] - block * n == guesses
        if self.marble is not None:
            success &= self.marble._admissible_rows(config.partition, is_corrupted)
        return guesses, rings, success, core_equal


def _check_experiment_args(config: SamplerConfig, n_users: int) -> None:
    config._check_users(n_users)
    if n_users < 1:
        raise InvalidConfig("an experiment needs at least one user")


def run_experiment(
    config: SamplerConfig,
    n_users: int,
    adversary: str,
    rng: RandomSource,
    *,
    marble: BlackMarbleConfig | None = None,
) -> ExperimentOutcome:
    """One trial: all users sign, the adversary sees the graph alone.

    With ``marble`` the trial is active: users are corrupted first and
    their edges removed.  With beta = 0 nothing is corrupted, no randomness
    is consumed by the corruption step, and the trial is the passive one.
    The trial is a campaign block of one on ``rng``'s stream, which it
    continues: on a fresh ``RandomSource(seed, sid)`` it is the one trial
    of ``run_campaign(..., trials=1, RandomSource(seed, sid))``.
    """
    _check_experiment_args(config, n_users)
    users, rings, success, core_equal = _Campaign(config, adversary, marble).run(
        rng._stream(), 1
    )
    return ExperimentOutcome(
        guessed_edge=(int(users[0]), int(rings[0])),
        success=bool(success[0]),
        graph_was_core_equal=bool(core_equal[0]),
    )


@dataclass(frozen=True)
class CampaignResult:
    """Aggregates of a trial campaign.

    ``success`` estimates the adversary's win probability;
    ``core_mismatch`` estimates Pr[G != core(G)] over the same trials
    (always measured on the un-reduced graph).
    """

    success: EstimateResult
    core_mismatch: EstimateResult


def run_campaign(
    config: SamplerConfig,
    n_users: int,
    adversary: str,
    trials: int,
    base_rng: RandomSource,
    *,
    marble: BlackMarbleConfig | None = None,
) -> CampaignResult:
    """Run independent trials in blocks on per-block streams and aggregate both estimates.

    The trials run in the blocks of :func:`~ringlab.samplers._trial_blocks`,
    block j drawing only from stream ``base_rng.stream_id + j``: each
    block is sampled as one union graph, its core equality is decided
    exactly by one label-propagation call per block, and its guesses are
    made from its guess words in one pass.  Wins and core-equal trials are
    counted block by block; no per-trial array outlives its block.  The
    passive core adversary takes core flags once per block that holds a
    core mismatch (see the module docstring for why that leaks nothing);
    only the matching-count adversary builds a graph per trial.
    """
    _check_experiment_args(config, n_users)
    if trials < 1:
        raise InvalidConfig("trials must be >= 1")
    engine = _Campaign(config, adversary, marble)
    wins = core_equal = 0
    for size, stream in _trial_blocks(base_rng, trials, 2 * n_users):
        _, _, success, equal = engine.run(stream, size)
        wins += int(np.count_nonzero(success))
        core_equal += int(np.count_nonzero(equal))
    return CampaignResult(
        success=EstimateResult.from_counts(trials, wins),
        core_mismatch=EstimateResult.from_counts(trials, trials - core_equal),
    )


def estimate_success(
    config: SamplerConfig,
    n_users: int,
    adversary: str,
    trials: int,
    base_rng: RandomSource,
    *,
    marble: BlackMarbleConfig | None = None,
) -> EstimateResult:
    """Adversary success rate over ``trials`` experiments with a Wilson 95% CI.

    The trials run in the blocks of :func:`run_campaign`, block j on
    stream ``base_rng.stream_id + j``, so the estimate is a pure function
    of (seed, stream_id, arguments).
    """
    return run_campaign(
        config, n_users, adversary, trials, base_rng, marble=marble
    ).success
