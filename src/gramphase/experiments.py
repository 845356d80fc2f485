"""Reproducible experiment runners behind the CLI.

Every trial owns an RNG stream derived from ``(master_seed, sweep_slot,
trial_index)`` by ``_trial_rng``, the runners' one stream constructor, so
results are byte-identical no matter how trials are scheduled.  Both
sweeps solve their trials through ``_sweep``: one stack on the calling
thread, or, for a real one of ``SPLIT_ROWS`` rows per CPU, one share per
CPU on the chunk map's threads; both write the same CSV.  The trial path
is stacked: ``_trial_stack`` draws each trial's arrays from its own
stream by the one rule of ``blocks._gaussian``, then runs the QR and
rank test, the orthonormality check, the PSD clamp and the Gram check
once per stack (per subspace dimension or shape group) and hands arrays
straight to the solver's stack engine, with no prior, Gram tuple or
signal object per trial.  A row of that engine does not depend on its
stack, whatever its subspace dimension.  The one-shot solve builds its
random instance the same way, as a stack of one.  Both analysis runners
draw their prior through ``_prior_draw``.  Every runner writes through
``_write``, only under ``out``: without it nothing is written.  All
output files carry ``#`` provenance comments with a hash of the semantic
config (output paths excluded) and the master seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .blocks import (
    GroupAction,
    RepresentationStructure,
    StructureMismatch,
    _chunk_map,
    _gaussian,
    _one_blas_thread,
    _whole_number,
    cyclic_action,
    cyclic_structure,
    # no longer called here; bench/measure.py still traces it under this name
    decompose,  # noqa: F401
    flat_block,
    full_ambiguity_action,
    group_stacks,
    random_signal,
    reconstruct,
)
from .moments import (
    _check_grams,
    analytic_second_moment,
    clamp_psd,
    empirical_second_moment,
    extract_gram,
    gram_tuple,
    sample_observations,
)
from .priors import _check_subspace_dim, _subspace_stack, random_subspace_prior
from .solvers import SolveReport, SolverConfig, _reports, _solve_stack, solve
from .analysis import distortion_estimate, transversality_check
from . import blocks, serialize

__all__ = [
    "ExperimentConfig",
    "run_iterations_vs_k",
    "run_error_vs_noise",
    "run_demo_solve",
    "run_simulate",
    "run_transversality",
    "run_bilipschitz",
]

DESK_TRIALS = 200
PAPER_TRIALS = 10_000
_DEFAULT_STRUCTURE = RepresentationStructure(((8, 4),), "real")


# per runner, the subspace dimension, the trial count and the structure it
# uses when the config leaves them unset; transversality counts sampled
# points and grids cyclic:8, whose blocks have dimension 1 or 2, and
# bilipschitz counts signal pairs
_FALLBACKS = {
    "exp-noise": (10, DESK_TRIALS, _DEFAULT_STRUCTURE),
    "solve": (4, DESK_TRIALS, _DEFAULT_STRUCTURE),
    "transversality": (2, 20, cyclic_structure(8, "real")),
    "bilipschitz": (4, 100_000, _DEFAULT_STRUCTURE),
}

# fields that change no result: left out of the config hash
_UNHASHED = frozenset({"out", "gram_file", "prior_file"})


@dataclass
class ExperimentConfig:
    """Everything a runner needs, and the one place that holds its
    defaults and checks; the CLI passes only what the user set."""

    experiment: str = "iterations_vs_k"
    structure: RepresentationStructure | None = None  # None: the runner's fallback
    trials: int | None = None
    k_values: tuple[int, ...] = (2, 4, 6, 8)
    sigma_values: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1)
    subspace_dim: int | None = None
    sigma: float = 0.0
    n_samples: int = 1000
    master_seed: int = 0
    out: str | None = None
    algorithm: str = SolverConfig.algorithm  # "ap" is accepted for alternating_projection
    beta: float = SolverConfig.beta
    max_iters: int = SolverConfig.max_iters
    tol: float = SolverConfig.tol
    paper_scale: bool = False
    grid_resolution: int = 512
    exclude_tol: float = 0.5
    action: str = "full"  # or "cyclic"
    gram_file: str | None = None
    prior_file: str | None = None

    def __post_init__(self):
        if self.algorithm == "ap":
            self.algorithm = "alternating_projection"
        self.paper_scale = bool(self.paper_scale)
        # counts are stored as ints, so 10.0 and 10 hash alike
        for name in ("trials", "subspace_dim", "n_samples", "grid_resolution", "max_iters"):
            if getattr(self, name) is not None:  # None: the runner's fallback
                setattr(self, name, _whole_number(getattr(self, name), name))
        self.master_seed = _whole_number(self.master_seed, "master_seed", 0)
        self.k_values = tuple(_whole_number(k, "each of k_values") for k in self.k_values)
        self.solver_config("residual")  # SolverConfig checks algorithm, beta and tol
        if self.action not in ("full", "cyclic"):
            raise ValueError(f"unknown action {self.action!r}")
        if self.master_seed >= 2**32:
            # a larger seed spans several SeedSequence words, so its trial
            # streams would alias those of another (seed, slot, trial)
            raise ValueError(f"master_seed must be in [0, 2**32), got {self.master_seed}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if not self.k_values:
            raise ValueError("subspace dimension sweep must be nonempty")
        if not self.sigma_values or not all(
            math.isfinite(s) and s >= 0 for s in self.sigma_values
        ):
            raise ValueError("noise sweep must be nonempty, finite and nonnegative")

    def resolved_trials(self, runner: str | None = None) -> int:
        """The trial count ``runner`` (a ``_FALLBACKS`` key) runs; runners
        without an entry fall back to ``DESK_TRIALS``, which paper scale
        replaces by ``PAPER_TRIALS``."""
        if self.trials is not None:
            return self.trials
        fallback = DESK_TRIALS if runner is None else _FALLBACKS[runner][1]
        return PAPER_TRIALS if self.paper_scale and fallback == DESK_TRIALS else fallback

    def resolved_structure(self, runner: str | None = None) -> RepresentationStructure:
        """The structure ``runner`` (a ``_FALLBACKS`` key) uses; runners
        without an entry fall back to 8x4."""
        if self.structure is not None:
            return self.structure
        return _DEFAULT_STRUCTURE if runner is None else _FALLBACKS[runner][2]

    def resolved_subspace_dim(self, runner: str) -> int:
        """The subspace dimension ``runner`` (a ``_FALLBACKS`` key) uses."""
        if self.subspace_dim is not None:
            return self.subspace_dim
        return _FALLBACKS[runner][0]

    def solver_config(self, stop_on: str) -> SolverConfig:
        return SolverConfig(algorithm=self.algorithm, beta=self.beta,
                            max_iters=self.max_iters, tol=self.tol, stop_on=stop_on)

    def provenance(self, runner: str | None = None, **extra) -> list[str]:
        """Provenance lines hashing the config, its structure as ``runner``
        resolves it, and ``extra``."""
        payload = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in _UNHASHED
        }
        payload["structure"] = serialize.structure_to_dict(self.resolved_structure(runner))
        payload.update(extra)
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]
        return [
            f"experiment={self.experiment}",
            f"config_hash={digest}",
            f"master_seed={self.master_seed}",
        ]


def _trial_rng(*words: int) -> np.random.Generator:
    """The runners' one stream constructor, on ``(master_seed, slot[, trial])``."""
    return np.random.default_rng(np.random.SeedSequence(words))


# ---------------------------------------------------------------------------
# random trials, solved in stacks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialSpec:
    """One random trial: a signal in a random ``k``-dimensional subspace,
    drawn from the RNG stream ``(master_seed, slot, index)``.

    ``sigma=None`` measures the exact Gram tuple and draws no noise;
    otherwise the signal is perturbed by Gaussian noise of that level
    before its Grams are taken (and clamped to PSD).
    """

    structure: RepresentationStructure
    k: int
    slot: int
    index: int
    master_seed: int
    sigma: float | None = None


def _trial_stack(specs: list[TrialSpec]):
    """``(grams, priors, inits, truths)`` of trials on one structure, as
    the arrays the solver's stack engine takes: a ``(T, G, r, r)`` Gram
    stack per shape group, one prior stack per subspace dimension with
    its rows, and ``(T, d)`` init and truth rows.

    Each trial draws from its own stream, in the order of the per-object
    path, each array by :func:`~gramphase.blocks._gaussian`: the basis,
    the real coefficients, the noise and the init, block by block.  The
    QR and its rank test, the orthonormality check, the PSD clamp and the
    Gram check then run once per subspace dimension or shape group, for
    the whole stack.  So each row is bit for bit what
    :func:`~gramphase.priors.random_subspace_prior`,
    :func:`~gramphase.moments.gram_tuple`,
    :func:`~gramphase.moments.clamp_psd` and
    :func:`~gramphase.blocks.random_signal` give on its stream, and each
    error they raise still fires, without an object per trial.
    """
    s = specs[0].structure
    if any(spec.structure != s for spec in specs):
        raise StructureMismatch("trials in one stack use different structures")
    d, count = s.ambient_dim, len(specs)
    drawn: dict[int, tuple[list, list, list]] = {}  # K: its trials, bases, coefficients
    noisy, noise = [], []  # the noisy trials, and sigma times their noise
    inits = [np.empty((count, n, r), s.dtype) for n, r in s.blocks]
    for t, spec in enumerate(specs):
        _check_subspace_dim(d, spec.k)
        rows, bases, coeffs = drawn.setdefault(spec.k, ([], [], []))
        rng = _trial_rng(spec.master_seed, spec.slot, spec.index)
        rows.append(t)
        bases.append(_gaussian(rng, (d, spec.k), s.field))
        coeffs.append(rng.standard_normal(spec.k))
        if spec.sigma is not None:
            noisy.append(t)
            noise.append(spec.sigma * _gaussian(rng, d, s.field))
        for m in inits:
            m[t] = _gaussian(rng, m.shape[1:], s.field)
    truths = np.empty((count, d), s.dtype)
    priors = []
    for rows, bases, coeffs in drawn.values():
        stack = _subspace_stack(np.array(bases))
        truths[rows] = np.matmul(stack.basis, np.array(coeffs)[..., None])[..., 0]
        priors.append((np.array(rows), stack))
    observed = truths
    if noisy:
        observed = truths.copy()
        observed[noisy] += noise
    grams = [x.conj().mT @ x for x in group_stacks(observed, s)]
    _check_grams(s, grams)
    if noisy:
        for g in grams:
            g[noisy] = clamp_psd(g[noisy])
        _check_grams(s, [g[noisy] for g in grams])
    init = np.concatenate([flat_block(m) for m in inits], axis=1)
    return grams, priors, init, truths


# Rows per share below which a sweep's stack runs whole, per field, from
# ``scripts/time_solver.py --noise`` on 2 CPUs: 8x4 iteration stacks of
# 128-191 rows run about 5% slower split.  Complex products contend on two
# threads (800-row complex sweeps ran 10-13% slower split): never split.
SPLIT_ROWS = {"real": 64, "complex": math.inf}


@_one_blas_thread
def _run_trials(specs: list[TrialSpec], config: SolverConfig) -> np.ndarray:
    """``(iterations, converged, oracle_error)`` per trial, a ``(T, 3)``
    array.  The stack is dealt out round robin, one share of at least
    ``SPLIT_ROWS`` rows per CPU, each built and solved on a chunk map
    thread under this call's one BLAS thread; no row depends on its stack."""
    floor = SPLIT_ROWS[specs[0].structure.field]
    shares = max(1, min(blocks._workers(), int(len(specs) // floor)))
    out = np.empty((len(specs), 3))

    def solve_share(w):
        share = specs[w::shares]
        solved = _solve_stack(share[0].structure, config, *_trial_stack(share))
        out[w::shares] = np.column_stack([solved.iterations, solved.converged,
                                         solved.oracle_error])

    _chunk_map(solve_share, ((w,) for w in range(shares)))
    return out


def _sweep(cfg: ExperimentConfig, runner: str | None, values, spec) -> tuple[int, list]:
    """The trial count ``runner`` resolves and, per sweep value, the
    arrays ``(iterations, converged, oracle_error)`` of its trials; the
    trial ``spec(slot, value, index)`` of every (value, trial) pair is
    solved by ``_run_trials``, with oracle stopping."""
    trials = cfg.resolved_trials(runner)
    specs = [spec(slot, v, t) for slot, v in enumerate(values) for t in range(trials)]
    results = _run_trials(specs, cfg.solver_config("oracle"))
    table = results.reshape(len(values), trials, 3).transpose(0, 2, 1)
    return trials, [(iters, conv.astype(bool), errs) for iters, conv, errs in table]


def _write(cfg: ExperimentConfig, files: dict) -> None:
    """The one write path: nothing is written without ``cfg.out``.  The
    name ``""`` is the file ``cfg.out`` itself (a sweep's CSV), whose
    parent directory is made if missing; any other name is a file in the
    directory ``cfg.out``, made if missing.  Each value is a ``serialize``
    writer and the arguments it takes after the path."""
    if not cfg.out:
        return
    out = Path(cfg.out)
    (out.parent if "" in files else out).mkdir(parents=True, exist_ok=True)
    for name, (writer, *args) in files.items():
        writer(out / name, *args)


def _prior_draw(cfg: ExperimentConfig, runner: str, slot: int):
    """``(structure, subspace_dim, rng, prior)`` of an analysis runner:
    the prior is the first draw of the stream ``(master_seed, slot)``."""
    s = cfg.resolved_structure(runner)
    m = cfg.resolved_subspace_dim(runner)
    rng = _trial_rng(cfg.master_seed, slot)
    return s, m, rng, random_subspace_prior(s, m, rng)


# ---------------------------------------------------------------------------
# the sweeps: iteration count vs subspace dimension, error vs noise level
# ---------------------------------------------------------------------------


@_one_blas_thread
def run_iterations_vs_k(cfg: ExperimentConfig) -> list[dict]:
    """Median iterations to reach the oracle tolerance, per subspace
    dimension; capped trials keep the cap value in the median.  Every
    (dimension, trial) pair is solved in one sweep stack."""
    s = cfg.resolved_structure()
    trials, results = _sweep(cfg, None, cfg.k_values,
                             lambda slot, k, t: TrialSpec(s, k, slot, t, cfg.master_seed))
    rows = [
        {"K": k, "median_iterations": float(np.median(iters)),
         "convergence_rate": float(conv.mean())}
        for k, (iters, conv, _) in zip(cfg.k_values, results)
    ]
    prov = cfg.provenance(resolved_trials=trials)
    _write(cfg, {"": (serialize.write_csv, list(rows[0]), rows, prov)})
    return rows


@_one_blas_thread
def run_error_vs_noise(cfg: ExperimentConfig) -> list[dict]:
    """Median sign-resolved relative error per noise level.

    The noiseless row keeps only converged trials in its median (the
    stalled rest is visible through the convergence rate); noisy rows
    aggregate every trial, since nothing converges below a noise floor.
    Every (noise level, trial) pair is solved in one sweep stack.  Oracle
    stopping makes the noiseless row equivalent to the iteration
    experiment; above the noise floor neither rule ever fires early.
    """
    k = cfg.resolved_subspace_dim("exp-noise")
    s = cfg.resolved_structure("exp-noise")
    trials, results = _sweep(
        cfg, "exp-noise", cfg.sigma_values,
        lambda slot, sigma, t: TrialSpec(s, k, slot, t, cfg.master_seed, float(sigma)))
    rows = [
        {"sigma": float(sigma),
         "median_error": float(np.median(errs[conv] if sigma == 0 and conv.any() else errs)),
         "trials": trials, "convergence_rate": float(conv.mean())}
        for sigma, (_, conv, errs) in zip(cfg.sigma_values, results)
    ]
    prov = cfg.provenance(resolved_trials=trials, subspace_dim_resolved=k)
    _write(cfg, {"": (serialize.write_csv, list(rows[0]), rows, prov)})
    return rows


# ---------------------------------------------------------------------------
# one-shot solve, simulation, analysis runners
# ---------------------------------------------------------------------------


@_one_blas_thread
def run_demo_solve(cfg: ExperimentConfig) -> SolveReport:
    """Load (or synthesize) a measurement and prior and solve it; with
    ``cfg.out``, write the report, the estimate and a one-row CSV into
    that directory.  A synthesized instance is trial 0 of slot 0, with
    its signal perturbed at ``cfg.sigma``."""
    k = sigma = ""
    config = cfg.solver_config("residual")
    if cfg.gram_file or cfg.prior_file:
        if not (cfg.gram_file and cfg.prior_file):
            raise ValueError("need both --gram and --prior, or neither for a random instance")
        measured = serialize.gram_from_dict(serialize.load_json(cfg.gram_file))
        prior = serialize.prior_from_dict(serialize.load_json(cfg.prior_file))
        init = random_signal(measured.structure, _trial_rng(cfg.master_seed, 0, 0))
        report = solve(measured, prior, config, init=init)
    else:
        k, sigma = cfg.resolved_subspace_dim("solve"), cfg.sigma
        s = cfg.resolved_structure("solve")
        spec = TrialSpec(s, k, 0, 0, cfg.master_seed, sigma or None)
        report = _reports(s, _solve_stack(s, config, *_trial_stack([spec])))[0]
    oracle_error = "" if report.oracle_error is None else report.oracle_error
    row = {"trial_id": 0, "K": k, "sigma": sigma, "iterations": report.iterations_used,
           "converged": int(report.converged), "residual": report.residual_final,
           "oracle_error": oracle_error}
    _write(cfg, {
        "report.json": (serialize.save_json, serialize.solve_report_to_dict(report)),
        "estimate.csv": (serialize.write_matrix_csv, reconstruct(report.estimate)[None, :],
                         cfg.provenance(file="estimate")),
        "solve.csv": (serialize.write_csv, list(row), [row], cfg.provenance(file="solve")),
    })
    return report


def _action_for(cfg: ExperimentConfig, s: RepresentationStructure) -> GroupAction:
    if cfg.action == "full":
        return full_ambiguity_action(s)
    if cyclic_structure(s.ambient_dim, s.field) != s:
        suffix = ":complex" if s.field == "complex" else ""
        raise ValueError(
            f"--action cyclic needs a cyclic structure such as "
            f"--structure cyclic:{s.ambient_dim}{suffix}, got blocks {s.blocks}"
        )
    return cyclic_action(s.ambient_dim, s.field)


@_one_blas_thread
def run_simulate(cfg: ExperimentConfig) -> dict:
    """Generate observations of a random signal, estimate the second
    moment and extract its Gram tuple; with ``cfg.out``, write the truth,
    the samples, both moments and both Gram tuples into that directory.
    Returns the moment error, the observation count and ``cfg.out``."""
    s = cfg.resolved_structure()
    action = _action_for(cfg, s)
    truth = random_signal(s, _trial_rng(cfg.master_seed, 1))
    samples = sample_observations(truth, action, cfg.sigma, cfg.n_samples, cfg.master_seed)
    moment = empirical_second_moment(samples)
    analytic = analytic_second_moment(truth)
    est = extract_gram(moment, s)
    prov = cfg.provenance(file="simulate")
    _write(cfg, {
        "truth.json": (serialize.save_json, serialize.signal_to_dict(truth)),
        "samples.csv": (serialize.write_samples_csv, samples, prov),
        "empirical_moment.csv": (serialize.write_matrix_csv, moment, prov),
        "analytic_moment.csv": (serialize.write_matrix_csv, analytic, prov),
        "gram_estimated.json": (serialize.save_json, serialize.gram_to_dict(est)),
        "gram_true.json": (serialize.save_json, serialize.gram_to_dict(gram_tuple(truth))),
    })
    err = float(np.linalg.norm(moment - analytic))
    return {"moment_error": err, "n": samples.n, "out": cfg.out}


@_one_blas_thread
def run_transversality(cfg: ExperimentConfig) -> dict:
    s, m, rng, prior = _prior_draw(cfg, "transversality", 2)
    report = transversality_check(s, prior, cfg.resolved_trials("transversality"),
                                  cfg.grid_resolution, rng, exclude_tol=cfg.exclude_tol)
    payload = {name: getattr(report, name) for name in (
        "k_effective", "m_dim", "samples_checked", "worst_margin", "threshold",
        "grid_resolution", "exclude_tol")}
    payload["num_violations"] = len(report.violations)
    payload["violations"] = [
        {"point_index": v.point_index, "margin": v.margin,
         "description": list(map(list, v.description))}
        for v in report.violations
    ]
    margins = [{"point_index": i, "margin": m_} for i, m_ in enumerate(report.point_margins)]
    _write(cfg, {
        "transversality.json": (serialize.save_json, payload),
        "margins.csv": (serialize.write_csv, ["point_index", "margin"], margins,
                        cfg.provenance("transversality", subspace_dim_resolved=m)),
    })
    return payload


@_one_blas_thread
def run_bilipschitz(cfg: ExperimentConfig) -> dict:
    s, m, rng, prior = _prior_draw(cfg, "bilipschitz", 3)
    report = distortion_estimate(s, prior, cfg.resolved_trials("bilipschitz"), rng)
    payload = {name: getattr(report, name) for name in (
        "alpha_lower", "beta_upper", "pairs_sampled", "pairs_skipped")}
    edges = report.histogram_edges
    histogram = [
        {"bin_lo": float(edges[i]), "bin_hi": float(edges[i + 1]), "count": int(c)}
        for i, c in enumerate(report.histogram_counts)
    ]
    _write(cfg, {
        "bilipschitz.json": (serialize.save_json, payload),
        "ratio_histogram.csv": (serialize.write_csv, ["bin_lo", "bin_hi", "count"], histogram,
                                cfg.provenance("bilipschitz", subspace_dim_resolved=m)),
    })
    return payload
