"""samplex: identification outcomes, sample-complexity distributions,
and typicality-based novelty decisions for finite hypothesis sets over
bit strings and discrete stochastic processes."""

from .bayes import (
    Decision,
    DecisionStatus,
    HypothesisSet,
    MCStoppingReport,
    PosteriorState,
    SCEstimate,
    StoppingConfig,
    check_stop,
    divergence_rate,
    equivalence_groups,
    expected_sc_evaluator,
    falsification_bounds,
    mc_sample_complexity,
    mc_surprisal_moment_curve,
    posterior_trace,
    posterior_update,
    surprisal_moment,
    typical_band,
    typical_set_bounds,
    warmup_threshold,
)
from .bitstrings import (
    IdOutcome,
    IdStatus,
    SortedHypothesisSet,
    build_context_tree,
    identify_depth_first,
    identify_sorted,
    identify_tree,
    resolution_cap,
)
from .info import (
    ComputationRefused,
    ProbVector,
    as_probvector,
    cross_entropy,
    divergences,
    entropy,
    entropy_rate,
    relative_entropy,
    total_variation,
)
from .processes import (
    BitSource,
    IidSpec,
    MarkovSpec,
    NonErgodicError,
    SpreadCode,
    markov_sample,
    sample_discrete,
    sequence_log_probability,
    spec_from_json,
    spread_decode,
    spread_encode,
    symbols,
)
from .scdist import (
    EmpiricalSCDist,
    GeometricSCDist,
    PairwiseSCDist,
    PointMassSCDist,
    UndefinedMomentError,
    enumerate_orderings_oracle,
    pairwise_verification,
)

__version__ = "0.1.0"

__all__ = [
    # bayes
    "Decision", "DecisionStatus", "HypothesisSet", "MCStoppingReport",
    "PosteriorState", "SCEstimate", "StoppingConfig", "check_stop",
    "divergence_rate", "equivalence_groups", "expected_sc_evaluator",
    "falsification_bounds", "mc_sample_complexity",
    "mc_surprisal_moment_curve", "posterior_trace", "posterior_update",
    "surprisal_moment",
    "typical_band", "typical_set_bounds", "warmup_threshold",
    # bitstrings
    "IdOutcome", "IdStatus", "SortedHypothesisSet", "build_context_tree",
    "identify_depth_first", "identify_sorted", "identify_tree",
    "resolution_cap",
    # info
    "ComputationRefused", "ProbVector", "as_probvector", "cross_entropy",
    "divergences", "entropy", "entropy_rate", "relative_entropy",
    "total_variation",
    # processes
    "BitSource", "IidSpec", "MarkovSpec", "NonErgodicError", "SpreadCode",
    "markov_sample", "sample_discrete", "sequence_log_probability",
    "spec_from_json", "spread_decode", "spread_encode", "symbols",
    # scdist
    "EmpiricalSCDist", "GeometricSCDist", "PairwiseSCDist", "PointMassSCDist",
    "UndefinedMomentError", "enumerate_orderings_oracle",
    "pairwise_verification",
]
