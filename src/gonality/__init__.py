"""Chip-firing divisor theory on finite simple graphs.

The library computes q-reduced divisors, linear equivalence, Baker-Norine
rank, and exact gonality with verifiable certificates; bounds gonality
between exact treewidth and ``n - alpha``; and drives a reproducible Monte
Carlo harness over Erdos-Renyi random graphs.
"""

from .bounds import (
    IndependentSet,
    MISResult,
    TreeDecomposition,
    ValidationReport,
    egg_cuts_reach,
    frieze_alpha_estimate,
    maximum_independent_set,
    parse_tree_decomposition,
    serialize_tree_decomposition,
    treewidth_exact,
    treewidth_lower_bound,
    validate_tree_decomposition,
)
from .divisors import (
    Divisor,
    FiringScript,
    apply_firing,
    canonical_divisor,
    divisor,
    effective_representative,
    has_positive_rank,
    linearly_equivalent,
    parse_divisor,
    parse_firing_script,
    q_reduce,
    q_reduce_with_script,
    rank,
    serialize_divisor,
    serialize_firing_script,
)
from .errors import (
    BudgetExceededError,
    CertificateError,
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeCountError,
    GonalityError,
    MalformedHeaderError,
    NotIndependentError,
    SelfLoopError,
    SizeLimitError,
    VertexRangeError,
)
from .experiments import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentSummary,
    SummaryRow,
    TrialRecord,
    c_of,
    convergence_report,
    mix_trial_seed,
    read_records_csv,
    run_experiment,
    run_trial,
    summarize,
    write_records_csv,
)
from .graphs import (
    GnpParams,
    Graph,
    build_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    degeneracy,
    genus,
    induced_subgraph,
    min_degree,
    parse_graph,
    path_graph,
    sample_gnp,
    serialize_graph,
)
from .search import (
    GonalityResult,
    PositiveRankCertificate,
    certify_independence_bound,
    complement_divisor,
    gonality,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)

__version__ = "0.1.0"
