"""The four benchmark workloads.

A workload builds its inputs from the seed (``inputs(r)`` gives round
``r``), runs one round of calls into gramphase through ``clock.call``,
and checks every output with :mod:`checks`.  Rounds always hold the same
operations, so the share of failed operations is fixed by the workload.
Package functions are looked up on their modules at call time, so the
tracer's wrappers see the benchmark's own calls too.

``params`` overrides the sizes; the tests use it to run tiny rounds.
"""

from __future__ import annotations

import math
import time
import warnings
from pathlib import Path

import numpy as np

import checks


class Clock:
    """Sums the wall time spent inside timed calls.

    With ``calibrate``, a timed call that starts ``every`` seconds of timed
    work after the last calibration first runs the calibration, and
    ``segments`` lists ``[calibration_s, timed_s]`` for each stretch of
    timed work that follows one.
    """

    def __init__(self, calibrate=None, every=0.25):
        self.timed = 0.0
        self.calibrate, self.every = calibrate, every
        self.segments: list[list[float]] = []

    def call(self, fn, *args, **kwargs):
        if self.calibrate is not None and (
                not self.segments or self.segments[-1][1] >= self.every):
            self.segments.append([self.calibrate(), 0.0])
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.timed += dt
        if self.segments:
            self.segments[-1][1] += dt
        return out


def derive(seed, *keys) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _gaussian(rng, size, field="real"):
    v = rng.standard_normal(size)
    if field == "complex":
        v = v + 1j * rng.standard_normal(size)
    return v


def _qr_basis(rng, dim, m, field="real"):
    return np.linalg.qr(_gaussian(rng, (dim, m), field))[0]


class Workload:
    name = ""
    FULL: dict = {}
    # block shapes the kernels are timed on in the traced run
    KERNEL_BLOCKS = (((8, 4),), "real")

    def __init__(self, gp, seed, scratch, params=None):
        self.gp = gp
        self.seed = seed
        self.scratch = Path(scratch)
        self.p = {**self.FULL, **(params or {})}

    def finish(self) -> list[str]:
        """Checks on properties pooled over every round run."""
        return []


# ---------------------------------------------------------------------------


class Sweep(Workload):
    """Experiment runners: iterations vs K and error vs noise on 8x4."""

    name = "sweep"
    # Small runner calls (about a quarter second each) let the calibration
    # mix run close in time to the work it scales.
    FULL = dict(k_values=(2, 4, 8), trials=12, max_iters=150,
                noise_k=4, sigmas=(1e-3, 1e-2, 1e-1), noise_trials=4, noise_max_iters=200)

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.structure = self.gp.RepresentationStructure(((8, 4),), "real")
        self.iter_rows, self.noise_rows = [], []
        self.scratch.mkdir(parents=True, exist_ok=True)

    def inputs(self, r):
        p, cfg = self.p, self.gp.experiments.ExperimentConfig
        master = derive(self.seed, r)
        it = cfg(experiment="iterations_vs_k", structure=self.structure,
                 k_values=tuple(p["k_values"]), trials=p["trials"], max_iters=p["max_iters"],
                 master_seed=master, out=str(self.scratch / "iterations.csv"))
        nz = cfg(experiment="error_vs_noise", structure=self.structure,
                 subspace_dim=p["noise_k"], sigma_values=tuple(p["sigmas"]),
                 trials=p["noise_trials"], max_iters=p["noise_max_iters"],
                 master_seed=master, out=str(self.scratch / "noise.csv"))
        return it, nz

    def run(self, inp, clock, check=True):
        it, nz = inp
        ex = self.gp.experiments
        rows = clock.call(ex.run_iterations_vs_k, it)
        errors = []
        if check:
            errors += checks.check_csv_rows(
                it.out, ["K", "median_iterations", "convergence_rate"], rows)
        nrows = clock.call(ex.run_error_vs_noise, nz)
        if check:
            errors += checks.check_csv_rows(
                nz.out, ["sigma", "median_error", "trials", "convergence_rate"], nrows)
            self.iter_rows.append(rows)
            self.noise_rows.append(nrows)
        ops = it.trials * len(it.k_values) + nz.trials * len(nz.sigma_values)
        return ops, 0, errors

    def finish(self):
        return checks.check_sweep(self.iter_rows, self.noise_rows)


# ---------------------------------------------------------------------------


class Solve(Workload):
    """One gramphase.solve call per operation, on instances built here."""

    name = "solve"
    # (blocks, field, prior kind, K or sparsity or support size, algorithm)
    SEEDED = (
        (((8, 4),), "real", "subspace", 4, "alternating_projection"),
        (((8, 4),), "real", "subspace", 3, "rrr"),
        (((8, 4), (3, 2)), "real", "subspace", 5, "alternating_projection"),
        (((8, 4), (3, 2)), "real", "subspace", 6, "rrr"),
        (((8, 4),), "real", "sparsity", 6, "alternating_projection"),
        (((8, 4),), "real", "sparsity_dict", 6, "rrr"),
        (((8, 4), (3, 2)), "real", "support", 16, "alternating_projection"),
    )
    # Complex instances fail on every input until the solver measures the
    # distance to the truth over the global U(1) phase; they use fixed
    # inputs so the failed count is the same on every run.
    FIXED = (
        (((6, 2),), "complex", "subspace", 2, "alternating_projection"),
        (((8, 4), (3, 2)), "complex", "subspace", 3, "rrr"),
    )
    FIXED_SEED = 20250107
    FULL = dict(max_iters=300, tol=1e-6)
    KERNEL_BLOCKS = (((8, 4), (3, 2)), "real")

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.fixed = [self._instance(spec, np.random.default_rng([self.FIXED_SEED, i]))
                      for i, spec in enumerate(self.FIXED)]

    def _instance(self, spec, rng):
        gp = self.gp
        blocks, field, kind, k, algorithm = spec
        s = gp.RepresentationStructure(blocks, field)
        d = s.ambient_dim
        if kind == "subspace":
            basis = _qr_basis(rng, d, k, field)
            prior, desc = gp.LinearSubspacePrior(basis), {"kind": kind, "basis": basis}
            truth = basis @ _gaussian(rng, k, field)
        elif kind.startswith("sparsity"):
            dico = _qr_basis(rng, d, d) if kind == "sparsity_dict" else None
            coeffs = np.zeros(d)
            coeffs[rng.choice(d, k, replace=False)] = rng.standard_normal(k)
            truth = coeffs if dico is None else dico @ coeffs
            prior = gp.SparsityPrior(k, dico)
            desc = {"kind": "sparsity", "k": k, "dictionary": dico}
        else:
            mask = np.zeros(d, dtype=bool)
            mask[rng.choice(d, k, replace=False)] = True
            truth = np.where(mask, rng.standard_normal(d), 0.0)
            prior, desc = gp.SupportPrior(mask), {"kind": kind, "mask": mask}
        mats = checks.split_blocks(truth, blocks)
        grams = checks.gram_mats(mats)
        dim_signal = k * (2 if field == "complex" else 1)
        return {
            "blocks": blocks, "field": field, "truth": truth, "grams": grams,
            "prior": desc, "algorithm": algorithm,
            "unique": kind == "subspace"
            and checks.effective_dimension(blocks, field) > 2 * dim_signal,
            "args": (gp.GramTuple(s, tuple(grams)), prior),
            "init": gp.BlockSignal(s, tuple(checks.split_blocks(_gaussian(rng, d, field), blocks))),
            "truth_signal": gp.BlockSignal(s, tuple(mats)),
        }

    def inputs(self, r):
        rng = np.random.default_rng(derive(self.seed, r))
        return [self._instance(spec, rng) for spec in self.SEEDED] + self.fixed

    def run(self, inp, clock, check=True):
        gp = self.gp
        errors, failed = [], 0
        for inst in inp:
            cfg = gp.SolverConfig(algorithm=inst["algorithm"], max_iters=self.p["max_iters"],
                                  tol=self.p["tol"])
            rep = clock.call(gp.solve, *inst["args"], cfg,
                             init=inst["init"], truth=inst["truth_signal"])
            if not check:
                continue
            est = np.concatenate([m.flatten(order="F") for m in rep.estimate.matrices])
            errs, mismatch = checks.check_solve(
                inst, est, rep.residual_final, rep.converged, rep.oracle_error, cfg.tol)
            errors += errs
            if mismatch and inst["field"] == "complex":
                failed += 1
            elif mismatch:
                errors.append(f"oracle_error {rep.oracle_error!r} disagrees with "
                              "the orbit distance")
        return len(inp), failed, errors


# ---------------------------------------------------------------------------


class Mra(Workload):
    """Observations folded into Gram estimates: cyclic and full-ambiguity
    actions, plus one run_simulate writing its files."""

    name = "mra"
    FULL = dict(cyclic=((64, 100), (256, 30), (1024, 10)), full_blocks=((8, 4), (3, 2)),
                full_n=100_000, simulate_n=16, simulate_obs=2000, sigma=0.1)

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        gp = self.gp
        self.cyclic_actions = [gp.cyclic_action(n) for n, _ in self.p["cyclic"]]
        self.full_structure = gp.RepresentationStructure(tuple(self.p["full_blocks"]), "real")
        self.full_action = gp.full_ambiguity_action(self.full_structure)
        self.simulate_structure = gp.cyclic_structure(self.p["simulate_n"])
        self.scratch.mkdir(parents=True, exist_ok=True)

    def inputs(self, r):
        gp, p = self.gp, self.p
        rng = np.random.default_rng(derive(self.seed, r))
        cyclic = []
        for action, (n, n_obs) in zip(self.cyclic_actions, p["cyclic"]):
            x_time = rng.standard_normal(n)
            cyclic.append((action, gp.decompose_cyclic(x_time), x_time, n_obs,
                           derive(self.seed, r, n)))
        s = self.full_structure
        full = gp.BlockSignal(s, tuple(rng.standard_normal(b) for b in s.blocks))
        sim = gp.experiments.ExperimentConfig(
            experiment="simulate", structure=self.simulate_structure, action="cyclic",
            n_samples=p["simulate_obs"], sigma=p["sigma"], master_seed=derive(self.seed, r, 1),
            out=str(self.scratch / "simulate"))
        return cyclic, (full, derive(self.seed, r, 0)), sim

    def _pipeline(self, clock, truth, action, n_obs, seed):
        gp = self.gp
        samples = clock.call(gp.sample_observations, truth, action, self.p["sigma"], n_obs, seed)
        moment = clock.call(gp.empirical_second_moment, samples)
        del samples
        return clock.call(gp.extract_gram, moment, action.structure)

    def run(self, inp, clock, check=True):
        cyclic, (full, full_seed), sim = inp
        sigma, errors, ops = self.p["sigma"], [], 0
        for action, truth, x_time, n_obs, seed in cyclic:
            est = self._pipeline(clock, truth, action, n_obs, seed)
            ops += n_obs
            if check:
                errors += checks.check_cyclic_truth(truth.matrices, x_time)
                errors += checks.check_gram_estimate(
                    est.grams, truth.matrices, sigma, n_obs, "real")
        est = self._pipeline(clock, full, self.full_action, self.p["full_n"], full_seed)
        ops += self.p["full_n"]
        if check:
            errors += checks.check_gram_estimate(
                est.grams, full.matrices, sigma, self.p["full_n"], "real")
        del est
        out = clock.call(self.gp.experiments.run_simulate, sim)
        ops += sim.n_samples
        if check:
            errors += checks.check_simulate_files(sim.out, out, sigma, sim.n_samples)
        return ops, 0, errors


# ---------------------------------------------------------------------------


class Analysis(Workload):
    """The transversality grid engine and the distortion square roots."""

    name = "analysis"
    # A cyclic:8, K=2 prior whose whole circle of unit points keeps a grid
    # margin near 0.3, well above the threshold of ten grid steps (0.12
    # at resolution 512).  Random priors come within the threshold on a
    # few percent of draws, so the no-violation check uses this one.
    REGIME_PRIOR_SEED = 38
    POINTS_PER_CYCLE = 8
    FULL = dict(grid=512, pairs=30_000, scalar_pairs=2_000, exclude_tol=0.5, grid_samples=4_000)

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        gp = self.gp
        self.cyclic = gp.cyclic_structure(8)
        self.blocks = self.cyclic.blocks
        self.regime_basis = _qr_basis(np.random.default_rng(self.REGIME_PRIOR_SEED), 8, 2)
        self.regime_prior = gp.LinearSubspacePrior(self.regime_basis)
        self.s84 = gp.RepresentationStructure(((8, 4),), "real")
        self.scalar = gp.RepresentationStructure(((1, 1),), "real")
        self.scalar_prior = gp.LinearSubspacePrior(np.ones((1, 1)))

    def inputs(self, r):
        gp = self.gp
        rng = np.random.default_rng(derive(self.seed, r))
        # Rounds cycle through POINTS_PER_CYCLE evenly spaced points of the
        # half circle (x and -x are checked alike) from a seeded offset.
        # The engine's cost depends on where the point sits, with a few
        # costly arcs, so a run covering the circle evenly costs the same
        # whatever the offset.
        offset = derive(self.seed) / 2**32
        theta = np.pi * (offset + r % self.POINTS_PER_CYCLE) / self.POINTS_PER_CYCLE
        point = self.regime_basis @ np.array([np.cos(theta), np.sin(theta)])
        # plant a quarter turn of block 1; keep points whose block 1 carries
        # enough weight that the turned copy is not near a sign flip
        quarter = [np.eye(n) for n, _ in self.blocks]
        quarter[1] = np.array([[0.0, -1.0], [1.0, 0.0]])
        while True:
            x = rng.standard_normal(8)
            x /= np.linalg.norm(x)
            if np.linalg.norm(x[self.cyclic.block_slices[1]]) ** 2 >= 0.25:
                break
        turned = np.concatenate([(q @ m).ravel(order="F")
                                 for q, m in zip(quarter, checks.split_blocks(x, self.blocks))])
        planted_basis = np.linalg.qr(np.column_stack([x, turned]))[0]
        basis84 = _qr_basis(rng, 32, 4)
        return (point, x, planted_basis, gp.LinearSubspacePrior(planted_basis),
                gp.LinearSubspacePrior(basis84), derive(self.seed, r, 1))

    def _scalar(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # K=1 is outside the injective regime by design
            return self.gp.distortion_estimate(self.scalar, self.scalar_prior,
                                               self.p["scalar_pairs"], rng)

    def run(self, inp, clock, check=True):
        gp, p = self.gp, self.p
        point, x, planted_basis, planted_prior, prior84, seed = inp
        rng = np.random.default_rng(seed)
        # the checks draw from their own stream, so a replay without them
        # repeats the same calls
        check_rng = np.random.default_rng([seed, 1])
        errors = []
        clean = clock.call(gp.transversality_check, self.cyclic, self.regime_prior, 1, p["grid"],
                           rng, exclude_tol=p["exclude_tol"], points=[point])
        if check:
            if clean.violations or not clean.worst_margin > clean.threshold:
                errors.append(f"in-regime prior: {len(clean.violations)} violations, "
                              f"margin {clean.worst_margin:.4g} <= threshold {clean.threshold:.4g}")
            errors += self._margin_bound(point, self.regime_basis, clean.worst_margin, check_rng)
        bad = clock.call(gp.transversality_check, self.cyclic, planted_prior, 1, p["grid"],
                         rng, exclude_tol=p["exclude_tol"], points=[x])
        if check:
            if not bad.violations or not bad.worst_margin < 1e-6:
                errors.append(f"planted quarter turn missed: margin {bad.worst_margin:.3e}")
            for v in bad.violations:
                errors += checks.check_violation(x, v.element.blocks, planted_basis, self.blocks,
                                                 v.margin, p["exclude_tol"])
            errors += self._margin_bound(x, planted_basis, bad.worst_margin, check_rng)
        dist = clock.call(gp.distortion_estimate, self.s84, prior84, p["pairs"], rng)
        if check:
            errors += checks.check_distortion(dist.alpha_lower, dist.beta_upper, p["pairs"],
                                              dist.pairs_sampled, dist.pairs_skipped)
        scalar = clock.call(self._scalar, rng)
        if check:
            errors += checks.check_scalar_distortion(scalar.alpha_lower, scalar.beta_upper)
        return 4, 0, errors

    def _margin_bound(self, x, basis, margin, rng):
        sampled = checks.sampled_grid_distance(x, basis, self.blocks, self.p["grid"],
                                               self.p["exclude_tol"], self.p["grid_samples"], rng)
        return checks.check_margin_upper_bound(margin, sampled)


WORKLOADS = {w.name: w for w in (Sweep, Solve, Mra, Analysis)}


def grid_elements(blocks, grid) -> float:
    """Size of the product grid the transversality engine covers per point."""
    return float(math.prod(2 if n == 1 else 2 * grid for n, _ in blocks))
