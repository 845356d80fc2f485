"""Reproducible experiment runners behind the CLI.

Every trial owns an RNG stream derived from ``(master_seed, sweep_slot,
trial_index)``, so results are byte-identical no matter how trials are
scheduled: serial and process-pool runs write the same CSV.  All the
trials of one runner call are solved together as one stack by
:func:`~gramphase.solvers.solve_batch`, whose rows do not depend on the
stack they sit in, whatever their subspace dimension.  All output
files carry ``#`` provenance comments with a hash of the semantic
config (worker count and output paths excluded) and the master seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .blocks import (
    GroupAction,
    RepresentationStructure,
    cyclic_action,
    cyclic_structure,
    decompose,
    full_ambiguity_action,
    random_signal,
    reconstruct,
)
from .moments import (
    GramTuple,
    analytic_second_moment,
    clamp_psd,
    empirical_second_moment,
    extract_gram,
    gram_tuple,
    sample_observations,
)
from .priors import random_subspace_prior
from .solvers import SolveReport, SolverConfig, solve, solve_batch
from .analysis import distortion_estimate, transversality_check
from . import serialize

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


def _default_structure() -> RepresentationStructure:
    return RepresentationStructure(((8, 4),), "real")


# per runner, the subspace dimension, the trial count and the structure it
# uses when the config leaves them unset; transversality counts sampled
# points and grids cyclic:8, whose blocks have dimension 1 or 2, and
# bilipschitz counts signal pairs
_FALLBACKS = {
    "exp-noise": (10, DESK_TRIALS, _default_structure()),
    "solve": (4, DESK_TRIALS, _default_structure()),
    "transversality": (2, 20, cyclic_structure(8, "real")),
    "bilipschitz": (4, 100_000, _default_structure()),
}

# fields that change no result: left out of the config hash
_UNHASHED = frozenset({"out", "workers", "gram_file", "prior_file"})


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
    algorithm: str = "alternating_projection"  # "ap" is accepted for it
    beta: float = 0.5
    max_iters: int = 1000
    tol: float = 1e-6
    paper_scale: bool = False
    workers: int = 1
    grid_resolution: int = 512
    exclude_tol: float = 0.5
    action: str = "full"  # or "cyclic"
    gram_file: str | None = None
    prior_file: str | None = None

    def __post_init__(self):
        if self.algorithm == "ap":
            self.algorithm = "alternating_projection"
        self.paper_scale = bool(self.paper_scale)
        self.solver_config("residual")  # SolverConfig checks algorithm, beta, max_iters, tol
        if self.action not in ("full", "cyclic"):
            raise ValueError(f"unknown action {self.action!r}")
        if not 0 <= self.master_seed < 2**32:
            # a larger seed spans several SeedSequence words, so its trial
            # streams would alias those of another (seed, slot, trial)
            raise ValueError(f"master_seed must be in [0, 2**32), got {self.master_seed}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if self.subspace_dim is not None and self.subspace_dim < 1:
            raise ValueError("subspace_dim must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValueError("subspace dimension sweep must be nonempty and positive")
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
        return _default_structure() if runner is None else _FALLBACKS[runner][2]

    def resolved_subspace_dim(self, runner: str) -> int:
        """The subspace dimension ``runner`` (a ``_FALLBACKS`` key) uses."""
        if self.subspace_dim is not None:
            return self.subspace_dim
        return _FALLBACKS[runner][0]

    def solver_config(self, stop_on: str) -> SolverConfig:
        return SolverConfig(
            algorithm=self.algorithm,
            beta=self.beta,
            max_iters=self.max_iters,
            tol=self.tol,
            stop_on=stop_on,
        )

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


def _trial_rng(master_seed: int, slot: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, slot, trial]))


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


def _trial_instance(spec: TrialSpec):
    """``(measured, prior, init, truth)`` of one trial."""
    s = spec.structure
    rng = _trial_rng(spec.master_seed, spec.slot, spec.index)
    prior = random_subspace_prior(s, spec.k, rng)
    truth_amb = prior.basis @ rng.standard_normal(spec.k)
    truth = decompose(truth_amb, s)
    if spec.sigma is None:
        measured = gram_tuple(truth)
    else:
        noise = spec.sigma * rng.standard_normal(s.ambient_dim)
        if s.field == "complex":
            noise = noise + 1j * spec.sigma * rng.standard_normal(s.ambient_dim)
        noisy = gram_tuple(decompose(truth_amb + noise, s))
        measured = GramTuple(s, tuple(clamp_psd(g) for g in noisy.grams))
    return measured, prior, random_signal(s, rng), truth


def _solve_trials(specs: list[TrialSpec], config: SolverConfig) -> list[tuple]:
    """``(iterations, converged, oracle_error)`` per trial, solved as one stack."""
    measured, priors, inits, truths = zip(*map(_trial_instance, specs))
    reports = solve_batch(measured, priors, config, inits, truths)
    return [(r.iterations_used, r.converged, r.oracle_error) for r in reports]


def _run_trials(specs: list[TrialSpec], config: SolverConfig, workers: int) -> list[tuple]:
    """Solve the trials as one stack.  With several workers the stack is
    dealt out round robin, one share per worker, solved in parallel; a
    row's result does not depend on its stack, so the output is the same."""
    if workers <= 1:
        return _solve_trials(specs, config)
    out = [None] * len(specs)
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        futures = [
            (w, pool.submit(_solve_trials, specs[w::workers], config))
            for w in range(min(workers, len(specs)))
        ]
        for w, future in futures:
            out[w::workers] = future.result()
    return out


# ---------------------------------------------------------------------------
# iteration count vs subspace dimension
# ---------------------------------------------------------------------------


def run_iterations_vs_k(cfg: ExperimentConfig) -> list[dict]:
    """Median iterations to reach the oracle tolerance, per subspace
    dimension; capped trials keep the cap value in the median.  Every
    (dimension, trial) pair is solved in one stack."""
    trials = cfg.resolved_trials()
    s = cfg.resolved_structure()
    specs = [
        TrialSpec(s, k, slot, t, cfg.master_seed)
        for slot, k in enumerate(cfg.k_values)
        for t in range(trials)
    ]
    results = _run_trials(specs, cfg.solver_config("oracle"), cfg.workers)
    rows = []
    for slot, k in enumerate(cfg.k_values):
        res = results[slot * trials:(slot + 1) * trials]
        iters = np.array([r[0] for r in res], dtype=float)
        conv = np.array([r[1] for r in res], dtype=bool)
        rows.append(
            {
                "K": k,
                "median_iterations": float(np.median(iters)),
                "convergence_rate": float(conv.mean()),
            }
        )
    if cfg.out:
        serialize.write_csv(
            cfg.out,
            ["K", "median_iterations", "convergence_rate"],
            rows,
            cfg.provenance(resolved_trials=trials),
        )
    return rows


# ---------------------------------------------------------------------------
# recovery error vs noise level
# ---------------------------------------------------------------------------


def run_error_vs_noise(cfg: ExperimentConfig) -> list[dict]:
    """Median sign-resolved relative error per noise level.

    The noiseless row keeps only converged trials in its median (the
    stalled rest is visible through the convergence rate); noisy rows
    aggregate every trial, since nothing converges below a noise floor.
    Every (noise level, trial) pair is solved in one stack.  Oracle
    stopping makes the noiseless row equivalent to the iteration
    experiment; above the noise floor neither rule ever fires early.
    """
    trials = cfg.resolved_trials("exp-noise")
    k = cfg.resolved_subspace_dim("exp-noise")
    s = cfg.resolved_structure("exp-noise")
    specs = [
        TrialSpec(s, k, slot, t, cfg.master_seed, float(sigma))
        for slot, sigma in enumerate(cfg.sigma_values)
        for t in range(trials)
    ]
    results = _run_trials(specs, cfg.solver_config("oracle"), cfg.workers)
    rows = []
    for slot, sigma in enumerate(cfg.sigma_values):
        res = results[slot * trials:(slot + 1) * trials]
        errs = np.array([r[2] for r in res], dtype=float)
        conv = np.array([r[1] for r in res], dtype=bool)
        if sigma == 0 and conv.any():
            median = float(np.median(errs[conv]))
        else:
            median = float(np.median(errs))
        rows.append(
            {
                "sigma": float(sigma),
                "median_error": median,
                "trials": trials,
                "convergence_rate": float(conv.mean()),
            }
        )
    if cfg.out:
        serialize.write_csv(
            cfg.out,
            ["sigma", "median_error", "trials", "convergence_rate"],
            rows,
            cfg.provenance(resolved_trials=trials, subspace_dim_resolved=k),
        )
    return rows


# ---------------------------------------------------------------------------
# one-shot solve, simulation, analysis runners
# ---------------------------------------------------------------------------


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out) if cfg.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_demo_solve(cfg: ExperimentConfig) -> SolveReport:
    """Load (or synthesize) a measurement and prior, solve, write report
    and estimate files into the output directory.  A synthesized instance
    is trial 0 of slot 0, with its signal perturbed at ``cfg.sigma``."""
    k = sigma = ""
    if cfg.gram_file or cfg.prior_file:
        if not (cfg.gram_file and cfg.prior_file):
            raise ValueError("need both --gram and --prior, or neither for a random instance")
        measured = serialize.gram_from_dict(serialize.load_json(cfg.gram_file))
        prior = serialize.prior_from_dict(serialize.load_json(cfg.prior_file))
        init = random_signal(measured.structure, _trial_rng(cfg.master_seed, 0, 0))
        truth = None
    else:
        k, sigma = cfg.resolved_subspace_dim("solve"), cfg.sigma
        spec = TrialSpec(cfg.resolved_structure("solve"), k, 0, 0, cfg.master_seed, sigma or None)
        measured, prior, init, truth = _trial_instance(spec)
    report = solve(measured, prior, cfg.solver_config("residual"), init=init, truth=truth)
    out = _outdir(cfg)
    serialize.save_json(out / "report.json", serialize.solve_report_to_dict(report))
    serialize.write_matrix_csv(
        out / "estimate.csv",
        reconstruct(report.estimate)[None, :],
        cfg.provenance(file="estimate"),
    )
    row = {
        "trial_id": 0,
        "K": k,
        "sigma": sigma,
        "iterations": report.iterations_used,
        "converged": int(report.converged),
        "residual": report.residual_final,
        "oracle_error": "" if report.oracle_error is None else report.oracle_error,
    }
    serialize.write_csv(out / "solve.csv", list(row), [row], cfg.provenance(file="solve"))
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


def run_simulate(cfg: ExperimentConfig) -> dict:
    """Generate observations of a random signal, estimate the second
    moment, extract its Gram tuple, and write everything out."""
    s = cfg.resolved_structure()
    action = _action_for(cfg, s)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, 1]))
    truth = random_signal(s, rng)
    samples = sample_observations(truth, action, cfg.sigma, cfg.n_samples, cfg.master_seed)
    moment = empirical_second_moment(samples)
    analytic = analytic_second_moment(truth)
    est = extract_gram(moment, s)
    out = _outdir(cfg)
    prov = cfg.provenance(file="simulate")
    serialize.save_json(out / "truth.json", serialize.signal_to_dict(truth))
    serialize.write_samples_csv(out / "samples.csv", samples, prov)
    serialize.write_matrix_csv(out / "empirical_moment.csv", moment, prov)
    serialize.write_matrix_csv(out / "analytic_moment.csv", analytic, prov)
    serialize.save_json(out / "gram_estimated.json", serialize.gram_to_dict(est))
    serialize.save_json(
        out / "gram_true.json", serialize.gram_to_dict(gram_tuple(truth))
    )
    err = float(np.linalg.norm(moment - analytic))
    return {"moment_error": err, "n": samples.n, "out": str(out)}


def run_transversality(cfg: ExperimentConfig) -> dict:
    s = cfg.resolved_structure("transversality")
    m = cfg.resolved_subspace_dim("transversality")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, 2]))
    prior = random_subspace_prior(s, m, rng)
    report = transversality_check(
        s,
        prior,
        cfg.resolved_trials("transversality"),
        cfg.grid_resolution,
        rng,
        exclude_tol=cfg.exclude_tol,
    )
    payload = {
        "k_effective": report.k_effective,
        "m_dim": report.m_dim,
        "samples_checked": report.samples_checked,
        "worst_margin": report.worst_margin,
        "threshold": report.threshold,
        "grid_resolution": report.grid_resolution,
        "exclude_tol": report.exclude_tol,
        "num_violations": len(report.violations),
        "violations": [
            {
                "point_index": v.point_index,
                "margin": v.margin,
                "description": list(map(list, v.description)),
            }
            for v in report.violations
        ],
    }
    if cfg.out:
        out = _outdir(cfg)
        serialize.save_json(out / "transversality.json", payload)
        serialize.write_csv(
            out / "margins.csv",
            ["point_index", "margin"],
            [
                {"point_index": i, "margin": m_}
                for i, m_ in enumerate(report.point_margins)
            ],
            cfg.provenance("transversality", subspace_dim_resolved=m),
        )
    return payload


def run_bilipschitz(cfg: ExperimentConfig) -> dict:
    s = cfg.resolved_structure("bilipschitz")
    m = cfg.resolved_subspace_dim("bilipschitz")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, 3]))
    prior = random_subspace_prior(s, m, rng)
    pairs = cfg.resolved_trials("bilipschitz")
    report = distortion_estimate(s, prior, pairs, rng)
    payload = {
        "alpha_lower": report.alpha_lower,
        "beta_upper": report.beta_upper,
        "pairs_sampled": report.pairs_sampled,
        "pairs_skipped": report.pairs_skipped,
    }
    if cfg.out:
        out = _outdir(cfg)
        serialize.save_json(out / "bilipschitz.json", payload)
        serialize.write_csv(
            out / "ratio_histogram.csv",
            ["bin_lo", "bin_hi", "count"],
            [
                {
                    "bin_lo": float(report.histogram_edges[i]),
                    "bin_hi": float(report.histogram_edges[i + 1]),
                    "count": int(c),
                }
                for i, c in enumerate(report.histogram_counts)
            ],
            cfg.provenance(subspace_dim_resolved=m),
        )
    return payload
