"""Laboratory for matchings in k-uniform hypergraphs.

Exact solvers, fractional certificates, extremal constructions, stability
and closeness checks, absorbing families, and a two-round randomized
almost-perfect-matching pipeline, all exactly verifiable at desk scale.
"""

from .core import (
    Hypergraph,
    Subgraph,
    complete_hypergraph,
    degree,
    from_json,
    induced,
    load,
    min_l_degree,
    remove,
    save,
    to_json,
)
from .constructions import (
    build_clique_minus,
    build_parity,
    build_space_barrier,
    build_space_barrier_at,
    comb0,
    space_barrier_edge_count,
    theorem_m_range,
    threshold_formula,
    threshold_sweep,
)
from .exact import (
    BergeCertificate,
    IndependenceResult,
    MatchingResult,
    berge_deficiency,
    independence_number,
    max_matching,
    validate_matching,
)
from .fractional import (
    FractionalSolution,
    StableCompletion,
    fractional_optimum,
    stable_completion,
)
from .stability import (
    downward_closure,
    frankl_bound_check,
    is_stable,
    katona_check,
    random_stable_hypergraph,
    shadow,
    stability_closeness_check,
)
from .closeness import (
    ClosenessReport,
    GoodnessReport,
    barrier_deficit,
    classify_good,
    closest_partition,
    f_density_check,
)
from .absorbing import (
    AbsorbingFamily,
    AbsorbingParameters,
    absorb,
    default_parameters,
    sample_absorbing_family,
)
from .pipeline import (
    PipelineResult,
    RoundOneSample,
    almost_perfect_pipeline,
    check_round1_properties,
    greedy_low_degradation_matching,
    round1_sample,
    round2_sparsify,
)
from .errors import (
    AbsorptionStuckError,
    CertificationError,
    DomainError,
    PipelineError,
    SizeLimitError,
)

__version__ = "0.1.0"
