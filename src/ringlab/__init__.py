"""Graph-analysis resistance lab for ring samplers.

Quantifies how well decoy-selection (ring sampling) strategies resist
deanonymisation through matching cores of transaction graphs: exact core
computation, security experiments with concrete adversaries, Monte Carlo
campaigns over two random digraph models, closed-form ring-size
recommendations, and a min-entropy anonymity measure.

The package re-exports the function ``core``, which shadows the submodule
of the same name: ``import ringlab.core as m`` and ``ringlab.core`` both
give the function.  Tools that need the module reach it through
``importlib.import_module("ringlab.core")``.
"""

from .adversary import (
    ADVERSARIES,
    BlackMarbleConfig,
    CampaignResult,
    ExperimentOutcome,
    adversary_core,
    adversary_matching_count,
    adversary_trivial,
    estimate_success,
    run_campaign,
    run_experiment,
)
from .conjecture import (
    GridCell,
    GridSpec,
    binomial_bound,
    check_conjectures_grid,
    estimate_not_sc_binomial,
    estimate_not_sc_regular,
    graham_pike_limit,
    write_grid_csv,
)
from .core import (
    BRUTE_FORCE_USER_CAP,
    CoreReport,
    core,
    core_bruteforce_oracle,
    core_report,
    enumerate_maximum_matchings,
    is_core_equal,
)
from .entropy import (
    DistributionDeviation,
    SignerDistribution,
    anonymity_bound_binomial,
    anonymity_bound_regular,
    anonymity_exact,
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
from .samplers import (
    Binomial,
    RandomSource,
    Regular,
    SamplerConfig,
    sample_binomial_digraph,
    sample_regular_digraph,
    sample_ring,
    sample_transaction_graph,
)
from .stats import EstimateResult, wilson_interval

__version__ = "0.1.0"
