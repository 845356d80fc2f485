"""Recovery of block-structured signals from Gram-matrix measurements
under compact group ambiguities.

``import gramphase`` loads the solver core: ``blocks``, ``moments``,
``priors`` and ``solvers``, all that :func:`solve` needs.  The grid
engine (``analysis``), the experiment runners (``experiments``), the
serializer (``serialize``) and the command line (``cli``) load on first
use (PEP 562): the first access of one of their names here, or of the
submodule itself, imports it, and the name is then cached in this
module's globals.  ``dir(gramphase)`` and ``from gramphase import *``
list the deferred names too; a star import loads them.

Two imports inside the modules stay eager.  ``blocks`` imports
``ThreadPoolExecutor`` at its top, and with it ``queue`` and
``threading``, which its thread pool and draw helper use.
``experiments`` imports ``analysis`` at its top, since callers (the
benchmark's tracer among them) wrap ``experiments.transversality_check``
and ``experiments.distortion_estimate`` by attribute; so using the
runners loads the grid engine too.
"""

from importlib import import_module as _import_module

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

# each deferred name -> the submodule it is read from
_LAZY = {
    **dict.fromkeys((
        "DistortionReport",
        "IntractableGridError",
        "TransversalityReport",
        "TransversalityViolation",
        "distortion_estimate",
        "distortion_ratios",
        "effective_dimension",
        "intersecting_subspace_prior",
        "sqrt_gram_map",
        "transversality_check",
    ), "analysis"),
    **dict.fromkeys((
        "ExperimentConfig",
        "run_bilipschitz",
        "run_demo_solve",
        "run_error_vs_noise",
        "run_iterations_vs_k",
        "run_simulate",
        "run_transversality",
    ), "experiments"),
}
_SUBMODULES = ("analysis", "experiments", "serialize", "cli")

__version__ = "0.1.0"
# the star import's names: every public name above, the deferred ones and
# the submodules but ``cli``, which never loaded with the package
__all__ = [
    *(name for name in globals() if not name.startswith("_")),
    *_LAZY,
    *(m for m in _SUBMODULES if m != "cli"),
]


def __getattr__(name):
    if name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    elif name in _LAZY:
        value = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_SUBMODULES})
