"""The import surface of ``gramphase``: the solver core loads with the
package, the grid engine, runners, serializer and CLI on first use, and
every public name resolves to the object of its home module."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gramphase

SRC = Path(__file__).resolve().parents[1] / "src"

# the 64 names ``from gramphase import *`` gave when every submodule
# loaded with the package, each with the submodule that defines it
HOME = {
    **dict.fromkeys((
        "BlockSignal", "DimensionMismatch", "GroupAction", "GroupElement",
        "RepresentationStructure", "StructureMismatch", "apply", "compose",
        "cyclic_action", "cyclic_shift_element", "cyclic_structure", "decompose",
        "decompose_cyclic", "full_ambiguity_action", "haar_sample", "identity_element",
        "random_signal", "reconstruct", "reconstruct_cyclic"), "blocks"),
    **dict.fromkeys((
        "GramTuple", "MraSampleSet", "analytic_second_moment", "empirical_second_moment",
        "extract_gram", "gram_tuple", "sample_observations"), "moments"),
    **dict.fromkeys((
        "LinearSubspacePrior", "PriorSpec", "RankDeficiencyError", "SparsityPrior",
        "SupportPrior", "project_prior", "random_subspace_prior"), "priors"),
    **dict.fromkeys((
        "SolveReport", "SolverConfig", "matrix_sqrt_psd", "procrustes_project", "rho",
        "solve", "solve_batch"), "solvers"),
    **dict.fromkeys((
        "DistortionReport", "IntractableGridError", "TransversalityReport",
        "TransversalityViolation", "distortion_estimate", "distortion_ratios",
        "effective_dimension", "intersecting_subspace_prior", "sqrt_gram_map",
        "transversality_check"), "analysis"),
    **dict.fromkeys((
        "ExperimentConfig", "run_bilipschitz", "run_demo_solve", "run_error_vs_noise",
        "run_iterations_vs_k", "run_simulate", "run_transversality"), "experiments"),
}
SUBMODULES = ("analysis", "blocks", "experiments", "moments", "priors", "serialize", "solvers")
PUBLIC = (*HOME, *SUBMODULES)


def _home(name):
    if name in SUBMODULES:
        return importlib.import_module(f"gramphase.{name}")
    return getattr(importlib.import_module(f"gramphase.{HOME[name]}"), name)


def _child(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_import_loads_only_the_solver_core():
    """A fresh ``import gramphase`` loads none of ``analysis``,
    ``experiments``, ``serialize`` and ``cli``, and neither does a solve;
    the first access of a deferred name loads its module."""
    loaded = _child(
        "import sys, numpy as np, gramphase as gp\n"
        "def mods(): return sorted(m for m in sys.modules if m.startswith('gramphase'))\n"
        "print(*mods())\n"
        "s = gp.RepresentationStructure(((8, 4),))\n"
        "rng = np.random.default_rng(0)\n"
        "prior = gp.random_subspace_prior(s, 4, rng)\n"
        "truth = gp.decompose(prior.basis @ rng.standard_normal(4), s)\n"
        "gp.solve(gp.gram_tuple(truth), prior, gp.SolverConfig(max_iters=5))\n"
        "print('|', *mods())\n"
        "gp.transversality_check\n"
        "print('|', *mods())\n")
    at_import, after_solve, after_access = " ".join(loaded).split(" | ")
    core = "gramphase gramphase.blocks gramphase.moments gramphase.priors gramphase.solvers"
    assert at_import == after_solve == core
    assert "gramphase.analysis" in after_access.split()


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_home_modules_object(name):
    home = _home(name)
    assert getattr(gramphase, name) is home
    ns = {}
    exec(f"from gramphase import {name}", ns)
    assert ns[name] is home


def test_star_import_gives_the_pinned_names():
    ns = {}
    exec("from gramphase import *", ns)
    ns.pop("__builtins__")
    assert sorted(ns) == sorted(PUBLIC)
    assert all(ns[name] is _home(name) for name in PUBLIC)


def test_dir_lists_every_public_name():
    listed = dir(gramphase)
    assert set(PUBLIC) <= set(listed)
    assert "cli" in listed  # deferred, though no star import gives it
    assert listed == sorted(listed)


def test_an_unknown_name_is_refused():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gramphase.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from gramphase import no_such_name", {})


def test_a_patched_deferred_name_is_restored_on_undo():
    from gramphase import analysis

    vars(gramphase).pop("transversality_check", None)  # as before its first access
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gramphase, "transversality_check", len)
        assert gramphase.transversality_check is len
    assert gramphase.transversality_check is analysis.transversality_check
