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
brute-force scale.

Each trial computes the core member flags of the sampled graph once, from
the signer assignment.  They decide ``graph_was_core_equal`` and, in the
passive game, give the core graph handed to the adversary with the view
as ``view_core``.  That leaks nothing: every maximum matching yields the
same core (pinned by ``test_core_invariant_under_matching_strategy``).
In the corrupted-user game the view has no core: every user signs
(m = n), so once any user is corrupted the view's rings touch fewer than
m users and no matching covers them.  The trial then hands over
``view_core=None``, and the core adversary falls back to the trivial
guess.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import floor

from numpy.random import Generator

from .core import _core_from_flags, _core_member_flags, core, enumerate_maximum_matchings
from .errors import InvalidBeta, InvalidConfig, NotATransactionGraph
from .graph import Partition, TransactionGraph
from .samplers import RandomSource, SamplerConfig, _sample_graph, _trial_streams
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

    def admissible(self, partition: Partition, corrupted: set[int]) -> bool:
        """The admissibility predicate: |B ∩ C| <= beta * |C| for every chunk."""
        per_chunk = [0] * partition.n_chunks
        for u in corrupted:
            per_chunk[partition.chunk_of(u)] += 1
        return all(
            cnt <= self.beta * size
            for cnt, size in zip(per_chunk, partition.chunk_sizes())
        )


# -- adversaries ---------------------------------------------------------------
#
# Adversaries receive the published graph only.  Reduced graphs produced by
# the corrupted-user experiment may contain empty rings or may not admit a
# full signer assignment; every strategy degrades to the trivial one when
# its analysis is impossible, and empty rings are never guessed into.  Each
# strategy takes (view, gen, view_core), where view_core is core(view) or None
# when no matching covers the view's rings; only the core strategy uses it.


def _guess_min_degree_ring(
    view: TransactionGraph, gen: Generator
) -> tuple[int, int]:
    best_j = -1
    best_size = -1
    for j in range(view.n_rings):
        size = len(view.ring_members(j))
        if size and (best_j < 0 or size < best_size):
            best_j = j
            best_size = size
    if best_j < 0:
        return (0, 0)  # nothing visible; a fixed blind guess
    members = view.ring_members(best_j)
    u = members[int(gen.integers(0, len(members)))]
    return (u, best_j)


def _adv_trivial(view: TransactionGraph, gen: Generator, view_core) -> tuple[int, int]:
    return _guess_min_degree_ring(view, gen)


def _adv_core(view: TransactionGraph, gen: Generator, view_core) -> tuple[int, int]:
    """Smallest-ring guess on core(view), or on view when it has no core."""
    return _guess_min_degree_ring(view if view_core is None else view_core, gen)


def _adv_matching_count(
    view: TransactionGraph, gen: Generator, view_core
) -> tuple[int, int]:
    try:
        return adversary_matching_count(view)
    except NotATransactionGraph:
        return _guess_min_degree_ring(view, gen)


ADVERSARIES = {
    "trivial": _adv_trivial,
    "core": _adv_core,
    "matching_count": _adv_matching_count,
}


def adversary_trivial(graph: TransactionGraph, rng: RandomSource) -> tuple[int, int]:
    """Pick the smallest ring (lowest index on ties), guess a uniform member."""
    return _adv_trivial(graph, rng.generator, None)


def adversary_core(graph: TransactionGraph, rng: RandomSource) -> tuple[int, int]:
    """Guess a uniform core-connected member of the ring with least core degree."""
    try:
        graph_core = core(graph)
    except NotATransactionGraph:
        graph_core = None
    return _adv_core(graph, rng.generator, graph_core)


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
    config: SamplerConfig, marble: BlackMarbleConfig, gen: Generator
) -> set[int]:
    corrupted: set[int] = set()
    for chunk in config.partition.chunks:
        count = marble.corrupted_count(len(chunk))
        if count:
            picks = gen.permutation(len(chunk))[:count]
            corrupted.update(chunk[i] for i in picks.tolist())
    return corrupted


def _remove_users(graph: TransactionGraph, corrupted: set[int]) -> TransactionGraph:
    """Drop corrupted users' edges; ring nodes and user indices stay put.

    Corrupted users remain as isolated vertices so that indices (and the
    hidden signer assignment) keep their meaning; no implemented adversary
    distinguishes an absent node from an isolated one.
    """
    members = [
        [u for u in graph.ring_members(r) if u not in corrupted]
        for r in range(graph.n_rings)
    ]
    return TransactionGraph._from_members(graph.n_users, members)


def _experiment(
    config: SamplerConfig,
    adversary_fn,
    gen: Generator,
    marble: BlackMarbleConfig | None,
) -> ExperimentOutcome:
    n = config.n_users
    corrupted: set[int] = set()
    if marble is not None:
        corrupted = _corrupt_users(config, marble, gen)
    graph, matching = _sample_graph(config, n, gen)
    flags = _core_member_flags(graph, matching)
    if corrupted:  # the reduced view has no core; see the module docstring
        guess = adversary_fn(_remove_users(graph, corrupted), gen, None)
    else:
        guess = adversary_fn(graph, gen, _core_from_flags(graph, flags))
    success = guess in matching
    if marble is not None:
        success = success and marble.admissible(config.partition, corrupted)
    return ExperimentOutcome(
        guessed_edge=guess,
        success=success,
        graph_was_core_equal=all(map(all, flags)),
    )


def _resolve_adversary(adversary: str):
    try:
        return ADVERSARIES[adversary]
    except KeyError:
        raise InvalidConfig(
            f"unknown adversary {adversary!r}; expected one of {sorted(ADVERSARIES)}"
        ) from None


def _check_experiment_args(config: SamplerConfig, n_users: int) -> None:
    if n_users != config.n_users:
        raise InvalidConfig(
            f"config partitions {config.n_users} users, caller declared {n_users}"
        )


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
    """
    _check_experiment_args(config, n_users)
    return _experiment(config, _resolve_adversary(adversary), rng.generator, marble)


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
    """Run independent trials on per-trial streams and aggregate both estimates.

    Each trial computes the sampled graph's core once, from the signer
    assignment; both the mismatch count and the passive core adversary use
    it (see the module docstring for why that leaks nothing).
    """
    _check_experiment_args(config, n_users)
    if trials < 1:
        raise InvalidConfig("trials must be >= 1")
    fn = _resolve_adversary(adversary)
    wins = 0
    mismatches = 0
    for gen in _trial_streams(base_rng, trials):
        outcome = _experiment(config, fn, gen, marble)
        wins += outcome.success
        mismatches += not outcome.graph_was_core_equal
    return CampaignResult(
        success=EstimateResult.from_counts(trials, wins),
        core_mismatch=EstimateResult.from_counts(trials, mismatches),
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

    Trial t draws from stream ``base_rng.stream_id + t``, so the estimate
    is a pure function of (seed, stream_id, arguments) no matter how the
    trials are scheduled.
    """
    return run_campaign(
        config, n_users, adversary, trials, base_rng, marble=marble
    ).success
