"""Graph-analysis resistance lab for ring samplers.

Quantifies how well decoy-selection (ring sampling) strategies resist
deanonymisation through matching cores of transaction graphs: exact core
computation, security experiments with concrete adversaries, Monte Carlo
campaigns over two random digraph models, closed-form ring-size
recommendations, and a min-entropy anonymity measure.

``import ringlab`` loads only ``errors``, ``graph``, ``core`` and ``stats``,
which ``ringlab core`` runs on, and ``recommend`` (see below).  The public
names of the engines (``samplers``, ``adversary``, ``conjecture`` and
``entropy``) load their module, and with it ``numpy.random``, at first
access (PEP 562).  So ``from ringlab import *`` gives only the names of
the five modules loaded at import; ``dir(ringlab)`` lists all of them.

The package re-exports the functions ``core`` and ``recommend``, which
shadow the submodules of the same names: ``import ringlab.core as m`` and
``ringlab.core`` both give the function.  Tools that need a module reach
it through ``importlib.import_module("ringlab.core")``.  Both submodules
load at import, before the functions are bound, so no later import of
them rebinds the names.
"""

from .core import (
    BRUTE_FORCE_USER_CAP,
    CoreReport,
    core,
    core_bruteforce_oracle,
    core_report,
    enumerate_maximum_matchings,
    is_core_equal,
)
from .errors import (
    DomainError,
    EmptyRing,
    HypothesisViolated,
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidBeta,
    InvalidConfig,
    InvalidParams,
    MatchingNotMaximum,
    NoFeasibleK,
    NotATransactionGraph,
    RingCrossesChunks,
    RinglabError,
)
from .graph import (
    Digraph,
    GraphChunk,
    Matching,
    Partition,
    TransactionGraph,
    induced_digraph,
    is_strongly_connected,
    maximum_matching,
    partition_graph,
    upper_graph,
    validate,
)
from .recommend import (
    Recommendation,
    core_mismatch_bound,
    minimal_decoys_numeric,
    recommend,
    recommended_decoys,
    recommended_decoys_black_marble,
)
from .stats import EstimateResult, graham_pike_limit, wilson_interval

__version__ = "0.1.0"

# The public names of the engine modules: name -> the submodule that defines it.
_LAZY = {
    name: module
    for module, names in {
        "adversary": (
            "ADVERSARIES",
            "BlackMarbleConfig",
            "CampaignResult",
            "ExperimentOutcome",
            "adversary_core",
            "adversary_matching_count",
            "adversary_trivial",
            "estimate_success",
            "run_campaign",
            "run_experiment",
        ),
        "conjecture": (
            "GridCell",
            "GridSpec",
            "binomial_bound",
            "check_conjectures_grid",
            "estimate_not_sc_binomial",
            "estimate_not_sc_regular",
            "write_grid_csv",
        ),
        "entropy": (
            "DistributionDeviation",
            "SignerDistribution",
            "anonymity_bound_binomial",
            "anonymity_bound_regular",
            "anonymity_exact",
        ),
        "samplers": (
            "Binomial",
            "RandomSource",
            "Regular",
            "SamplerConfig",
            "sample_binomial_digraph",
            "sample_regular_digraph",
            "sample_ring",
            "sample_transaction_graph",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    """An engine's public name, its module loaded at the first access and the value kept."""
    from importlib import import_module  # at function level: no public name of its own

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
