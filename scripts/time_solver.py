#!/usr/bin/env python3
"""Time the solver iteration layer by layer, and the sweeps.

    PYTHONPATH=src python3 scripts/time_solver.py [--rounds R] [--iters M]
        [--parent DIR] [--noise]

Each case runs ``solve_batch`` on ``T`` random instances with a
tolerance no row can reach, so every row runs ``M`` iterations, and
reports the wall time per iteration of the whole stack, split into the
prior projection, the measurement projection and the stopping norms
(residual or oracle error).  Each round takes the fastest of ``CALLS``
calls, for the total and for each layer, so that one burst of load on a
shared machine does not move the round.  The split wraps the solver
module's own functions, so it adds a few microseconds per call; the
total is timed in separate, unwrapped calls.  Cases:

- ``8x4`` real, subspace dimension 4, at T = 1 (residual stopping, as a
  single ``solve``), T = 12 and T = 200 (oracle stopping, as the
  experiment runners);
- ``8x4,3x2`` real, subspace dimension 4, at T = 1 (residual stopping):
  two shape groups, so the residual adds two stacks;
- ``8x4`` real with a 6-sparse prior, at T = 1 (residual stopping): the
  hard threshold, and a rank-deficient Gram, so every polar factor comes
  from the SVD;
- ``8x4`` real with a 6-sparse prior in a random orthonormal dictionary,
  RRR, at T = 1 (residual stopping): the hard threshold of the
  coefficients between two dictionary products (its blocks keep full
  rank and take the eigendecomposition);
- ``8x4,3x2`` complex, subspace dimension 3, RRR, at T = 1 (residual
  stopping): the complex eigendecompositions;
- ``cyclic:1024`` real at T = 16 with a subspace prior of dimension 256
  (residual stopping).

The T = 1 cases take the paths of the bench's ``solve`` workload: both
algorithms, both fields, one and two shape groups, the subspace and
sparsity projections, and both polar factors (the support prior's
one-line mask is the only projection not timed).

``--noise`` also times ``run_error_vs_noise`` with 200 trials on one
CPU (seed 2026) on real 8x4 at K = 10 and on complex 8x4,3x2 at K = 4,
split into the trial build (``_trial_stack``, also in microseconds per
trial) and the solve (the stack engine ``_solve_stack``); the rest is
the runner and its CSV.  Then it times the sweeps of ``SWEEPS`` (seed 2026)
whole, at 1 CPU, and split, at 2: on 8x4 both default sweeps (800 rows
each), the two runner calls of one bench ``sweep`` round (36 and 12
rows), and iteration and K = 10 noise sweeps at the sizes that bracket
the real row floor of ``SPLIT_ROWS`` in ``gramphase.experiments``; both
default sweeps and noise sweeps near that floor on the complex 8x4,3x2,
whose products contend when two threads run them at once; and noise
sweeps of 800 and 128 rows on the larger real 16x8.  The CPU count is
``blocks._workers`` patched, with every field's row floor set to 1 so
that every stack splits at 2; by default a real stack of fewer than
twice its floor, and every complex stack, runs whole on the calling
thread, as at 1 CPU.

``--parent DIR`` repeats everything with ``DIR/src`` on the path,
alternating with this checkout round by round, and prints the two side
by side; numbers are medians over the rounds, each round a fresh process
(``_rounds.py``).  numpy only.
"""
import json
import math
import time

import _rounds

# (label, structure, prior, its dimension or sparsity, T, stopping rule, algorithm)
CASES = (
    ("8x4 T=1", "8x4", "subspace", 4, 1, "residual", "alternating_projection"),
    ("8x4 T=12", "8x4", "subspace", 4, 12, "oracle", "alternating_projection"),
    ("8x4 T=200", "8x4", "subspace", 4, 200, "oracle", "alternating_projection"),
    ("8x4,3x2 T=1", "8x4,3x2", "subspace", 4, 1, "residual", "alternating_projection"),
    ("8x4 sparse T=1", "8x4", "sparsity", 6, 1, "residual", "alternating_projection"),
    ("8x4 dict RRR T=1", "8x4", "dictionary", 6, 1, "residual", "rrr"),
    ("8x4,3x2:complex RRR T=1", "8x4,3x2:complex", "subspace", 3, 1, "residual", "rrr"),
    ("cyclic:1024 T=16", "cyclic:1024", "subspace", 256, 16, "residual",
     "alternating_projection"),
)
# solve_batch calls per case and round, of which the fastest counts
CALLS = 5
LAYERS = (
    ("prior", "project_prior"),
    ("measurement", "_project_measurement"),
    ("residual", "_Rows.residuals"),
    ("oracle", "_Rows.oracle_errors"),
)


def _instances(structure, kind, k, count, seed):
    import numpy as np
    from gramphase import (SparsityPrior, decompose, gram_tuple, random_signal,
                           random_subspace_prior)

    rng = np.random.default_rng(seed)
    d = structure.ambient_dim
    rows = []
    for _ in range(count):
        if kind == "subspace":
            prior = random_subspace_prior(structure, k, rng)
            coeffs = rng.standard_normal(k)
            if structure.field == "complex":
                coeffs = coeffs + 1j * rng.standard_normal(k)
            truth = prior.basis @ coeffs
        else:  # k-sparse, in the standard basis or a random orthonormal one (real)
            dictionary = None
            if kind == "dictionary":
                dictionary = np.linalg.qr(rng.standard_normal((d, d)))[0]
            truth = np.zeros(d)
            truth[rng.choice(d, k, replace=False)] = rng.standard_normal(k)
            prior = SparsityPrior(k, dictionary)
            if dictionary is not None:
                truth = dictionary @ truth
        truth = decompose(truth, structure)
        rows.append((gram_tuple(truth), prior, random_signal(structure, rng), truth))
    return [list(c) for c in zip(*rows)]


def time_case(spec, iters):
    """Microseconds per iteration: the total, then each layer."""
    from gramphase import SolverConfig, solve_batch, solvers
    from gramphase.cli import parse_structure

    label, structure, kind, k, count, stop_on, algorithm = spec
    s = parse_structure(structure)
    measured, priors, inits, truths = _instances(s, kind, k, count, seed=2026)
    config = SolverConfig(algorithm=algorithm, max_iters=iters, tol=1e-300, stop_on=stop_on)
    solve_batch(measured, priors, config, inits, truths)  # warm-up
    total = math.inf
    for _ in range(CALLS):
        t0 = time.perf_counter()
        solve_batch(measured, priors, config, inits, truths)
        total = min(total, time.perf_counter() - t0)
    totals, fastest = {}, {}
    saved = []
    for _, path in LAYERS:
        owner = solvers._Rows if path.startswith("_Rows.") else solvers
        name = path.rsplit(".", 1)[-1]
        if hasattr(owner, name):
            saved.append((owner, name, _rounds.wrap(owner, name, totals)))
    try:
        for _ in range(CALLS):
            totals.clear()
            solve_batch(measured, priors, config, inits, truths)
            for name, seconds in totals.items():
                fastest[name] = min(seconds, fastest.get(name, math.inf))
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    out = {"total": 1e6 * total / iters}
    for layer, path in LAYERS:
        out[layer] = 1e6 * fastest.get(path.rsplit(".", 1)[-1], 0.0) / iters
    return out


# the layers of the noise sweep: (label, its function in the experiments module)
NOISE_LAYERS = (("build", "_trial_stack"), ("solve", "_solve_stack"))
# (label, structure, subspace dimension) of the noise sweeps timed by layer
NOISE_SWEEPS = (("8x4 K=10", "8x4", 10), ("8x4,3x2:complex K=4", "8x4,3x2:complex", 4))
NOISE_COLUMNS = ("total", "build", "solve", "build us/trial")


def time_noise(structure, k):
    """Seconds of a noise sweep of 200 trials per level on one CPU: the
    total, the trial build and the solve, and the build per trial in us."""
    from gramphase import blocks, experiments
    from gramphase.cli import parse_structure

    cfg = experiments.ExperimentConfig(experiment="error_vs_noise", subspace_dim=k,
                                       structure=parse_structure(structure), master_seed=2026)
    totals = {}
    saved = []
    for _, name in NOISE_LAYERS:
        saved.append((name, _rounds.wrap(experiments, name, totals)))
    workers, blocks._workers = blocks._workers, lambda: 1
    try:
        t0 = time.perf_counter()
        experiments.run_error_vs_noise(cfg)
        total = time.perf_counter() - t0
    finally:
        blocks._workers = workers
        for name, fn in saved:
            setattr(experiments, name, fn)
    out = {"total": total}
    for label, name in NOISE_LAYERS:
        out[label] = totals.get(name, 0.0)
    out["build us/trial"] = 1e6 * out["build"] / (cfg.resolved_trials() * len(cfg.sigma_values))
    return out


# (label, runner, structure, its config at seed 2026): the default sweeps,
# one bench sweep round's two calls and sizes around the row floor on
# 8x4; both default sweeps and noise sizes around the real floor on a
# complex structure; the default noise sweep and one near the floor on a
# larger real one
SWEEPS = (
    ("exp-noise K=10, 800 rows", "run_error_vs_noise", "8x4", {}),
    ("exp-iterations, 800 rows", "run_iterations_vs_k", "8x4", {}),
    ("bench iterations, 36 rows", "run_iterations_vs_k", "8x4",
     dict(k_values=(2, 4, 8), trials=12, max_iters=150)),
    ("bench noise, 12 rows", "run_error_vs_noise", "8x4",
     dict(subspace_dim=4, sigma_values=(1e-3, 1e-2, 1e-1), trials=4, max_iters=200)),
    ("iterations, 64 rows", "run_iterations_vs_k", "8x4", dict(trials=16, max_iters=150)),
    ("iterations, 128 rows", "run_iterations_vs_k", "8x4", dict(trials=32, max_iters=150)),
    ("iterations, 192 rows", "run_iterations_vs_k", "8x4", dict(trials=48, max_iters=150)),
    ("noise K=10, 64 rows", "run_error_vs_noise", "8x4", dict(trials=16)),
    ("noise K=10, 128 rows", "run_error_vs_noise", "8x4", dict(trials=32)),
    ("complex noise, 800 rows", "run_error_vs_noise", "8x4,3x2:complex", {}),
    ("complex iterations, 800 rows", "run_iterations_vs_k", "8x4,3x2:complex", {}),
    ("complex noise, 64 rows", "run_error_vs_noise", "8x4,3x2:complex", dict(trials=16)),
    ("complex noise, 128 rows", "run_error_vs_noise", "8x4,3x2:complex", dict(trials=32)),
    ("complex noise, 192 rows", "run_error_vs_noise", "8x4,3x2:complex", dict(trials=48)),
    ("16x8 noise, 800 rows", "run_error_vs_noise", "16x8", {}),
    ("16x8 noise, 128 rows", "run_error_vs_noise", "16x8", dict(trials=32)),
)
CPUS = (1, 2)


def time_sweeps():
    """Milliseconds per sweep of ``SWEEPS`` at each CPU count of ``CPUS``."""
    from gramphase import blocks, experiments
    from gramphase.cli import parse_structure

    saved = blocks._workers, experiments.SPLIT_ROWS

    def run(runner, structure, given, cpus):
        blocks._workers = lambda: cpus
        experiments.SPLIT_ROWS = dict.fromkeys(saved[1], 1)
        cfg = experiments.ExperimentConfig(**given, structure=parse_structure(structure),
                                           master_seed=2026)
        t0 = time.perf_counter()
        getattr(experiments, runner)(cfg)
        return 1e3 * (time.perf_counter() - t0)

    out = {}
    try:
        for _, *sweep in SWEEPS[2:4]:  # warm-up
            run(*sweep, 1)
        for label, *sweep in SWEEPS:
            out[label] = {str(cpus): run(*sweep, cpus) for cpus in CPUS}
    finally:
        blocks._workers, experiments.SPLIT_ROWS = saved
    return out


def measure(iters, noise):
    """One round in this process: every case, and the sweeps."""
    result = {label: time_case(spec, iters) for spec in CASES for label in [spec[0]]}
    if noise:
        result["noise s"] = {label: time_noise(*sweep) for label, *sweep in NOISE_SWEEPS}
        result["sweeps ms"] = time_sweeps()
    return result


def main():
    ap = _rounds.parser(__doc__)
    ap.add_argument("--iters", type=int, default=200)
    ap.add_argument("--noise", action="store_true", help="also time the noise sweeps")
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure(args.iters, args.noise)))
        return
    flags = ["--iters", str(args.iters)] + (["--noise"] if args.noise else [])
    med = _rounds.run(__file__, flags, args.rounds, args.parent)[0]
    print(f"us per iteration, median of {args.rounds} rounds of {args.iters} iterations "
          f"(each round the fastest of {CALLS} calls)")
    head = f"{'case':<24} {'side':<7}" + "".join(f"{c:>12}" for c in
                                                  ["total"] + [l for l, _ in LAYERS])
    print(head)
    for label, *_ in CASES:
        for side in med:
            row = med[side][label]
            print(f"{label:<24} {side:<7}" + "".join(
                f"{row[c]:>12.1f}" for c in ["total"] + [l for l, _ in LAYERS]))
    if args.noise:
        print("noise sweeps, 200 trials per level, 1 CPU, s (build also in us per trial)")
        print(f"{'sweep':<24}{'side':<7}" + "".join(f"{c:>16}" for c in NOISE_COLUMNS))
        for label, *_ in NOISE_SWEEPS:
            for side in med:
                row = med[side]["noise s"][label]
                print(f"{label:<24}{side:<7}" + "".join(f"{row[c]:>16.3f}" for c in NOISE_COLUMNS))
        print("sweeps, ms per run; every stack split at 2 CPUs")
        print(f"{'sweep':<30}{'side':<7}" + "".join(f"{f'cpus={c}':>10}" for c in CPUS))
        for label, *_ in SWEEPS:
            for side in med:
                row = med[side]["sweeps ms"][label]
                print(f"{label:<30}{side:<7}" + "".join(f"{row[str(c)]:>10.1f}" for c in CPUS))
    print(json.dumps(med))


if __name__ == "__main__":
    main()
