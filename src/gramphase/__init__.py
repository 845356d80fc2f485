"""Recovery of block-structured signals from Gram-matrix measurements
under compact group ambiguities."""

from .blocks import (
    BlockSignal,
    DimensionMismatch,
    GroupAction,
    GroupElement,
    RepresentationStructure,
    StructureMismatch,
    apply,
    compose,
    cyclic_action,
    cyclic_shift_element,
    cyclic_structure,
    decompose,
    decompose_cyclic,
    full_ambiguity_action,
    haar_sample,
    identity_element,
    random_signal,
    reconstruct,
    reconstruct_cyclic,
)
from .moments import (
    GramTuple,
    MraSampleSet,
    analytic_second_moment,
    empirical_second_moment,
    extract_gram,
    gram_tuple,
    sample_observations,
)
from .priors import (
    LinearSubspacePrior,
    PriorSpec,
    RankDeficiencyError,
    SparsityPrior,
    SupportPrior,
    project_prior,
    random_subspace_prior,
)
from .solvers import (
    SolveReport,
    SolverConfig,
    matrix_sqrt_psd,
    procrustes_project,
    rho,
    solve,
    solve_batch,
)
from .analysis import (
    DistortionReport,
    IntractableGridError,
    TransversalityReport,
    TransversalityViolation,
    distortion_estimate,
    distortion_ratios,
    effective_dimension,
    intersecting_subspace_prior,
    sqrt_gram_map,
    transversality_check,
)
from .experiments import (
    ExperimentConfig,
    run_bilipschitz,
    run_demo_solve,
    run_error_vs_noise,
    run_iterations_vs_k,
    run_simulate,
    run_transversality,
)

__version__ = "0.1.0"
