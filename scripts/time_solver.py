#!/usr/bin/env python3
"""Time the solver iteration layer by layer, and the exp-noise sweep.

    PYTHONPATH=src python3 scripts/time_solver.py [--rounds R] [--iters M]
        [--parent DIR] [--noise]

Each case runs ``solve_batch`` on ``T`` random instances with a
tolerance no row can reach, so every row runs ``M`` iterations, and
reports the wall time per iteration of the whole stack, split into the
prior projection, the measurement projection and the stopping norms
(residual or oracle error).  The split wraps the solver module's own
functions, so it adds a few microseconds per call; the total is timed
in a separate, unwrapped run.  Cases:

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

``--noise`` also times ``run_error_vs_noise`` at K = 10 with 200 trials
and one worker (seed 2026), split into the trial build (``_trial_stack``,
or ``_trial_instance`` in a checkout that builds trials one at a time)
and the solve (the stack engine ``_solve_stack``, or ``solve_batch``
with its object front); the rest is the runner and its CSV.  ``--parent DIR`` repeats everything with
``DIR/src`` on the path, alternating with this checkout round by round,
and prints the two side by side; numbers are medians over the rounds.
numpy only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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


def _wrap(owner, name, totals):
    fn = getattr(owner, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        totals[name] = totals.get(name, 0.0) + time.perf_counter() - t0
        return out

    setattr(owner, name, timed)
    return fn


def time_case(spec, iters):
    """Microseconds per iteration: the total, then each layer."""
    from gramphase import SolverConfig, solve_batch, solvers
    from gramphase.cli import parse_structure

    label, structure, kind, k, count, stop_on, algorithm = spec
    s = parse_structure(structure)
    measured, priors, inits, truths = _instances(s, kind, k, count, seed=2026)
    config = SolverConfig(algorithm=algorithm, max_iters=iters, tol=1e-300, stop_on=stop_on)
    solve_batch(measured, priors, config, inits, truths)  # warm-up
    t0 = time.perf_counter()
    solve_batch(measured, priors, config, inits, truths)
    total = time.perf_counter() - t0
    totals = {}
    saved = []
    for _, path in LAYERS:
        owner = solvers._Rows if path.startswith("_Rows.") else solvers
        name = path.rsplit(".", 1)[-1]
        if hasattr(owner, name):
            saved.append((owner, name, _wrap(owner, name, totals)))
    try:
        solve_batch(measured, priors, config, inits, truths)
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    out = {"total": 1e6 * total / iters}
    for layer, path in LAYERS:
        out[layer] = 1e6 * totals.get(path.rsplit(".", 1)[-1], 0.0) / iters
    return out


# the layers of the noise sweep: (label, names in the experiments module,
# the first one it has being timed)
NOISE_LAYERS = (("build", ("_trial_stack", "_trial_instance")),
                ("solve", ("_solve_stack", "solve_batch")))


def time_noise():
    """Seconds of the K = 10 noise sweep: the total, the trial build and the solve."""
    from gramphase import experiments
    from gramphase.cli import parse_structure

    cfg = experiments.ExperimentConfig(experiment="error_vs_noise",
                                       structure=parse_structure("8x4"),
                                       master_seed=2026, workers=1)
    totals = {}
    saved = []
    for _, names in NOISE_LAYERS:
        name = next(n for n in names if hasattr(experiments, n))
        saved.append((name, _wrap(experiments, name, totals)))
    try:
        t0 = time.perf_counter()
        experiments.run_error_vs_noise(cfg)
        total = time.perf_counter() - t0
    finally:
        for name, fn in saved:
            setattr(experiments, name, fn)
    out = {"total": total}
    for (label, _), (name, _) in zip(NOISE_LAYERS, saved):
        out[label] = totals.get(name, 0.0)
    return out


def measure(iters, noise):
    """One round in this process: every case, and the noise sweep."""
    result = {label: time_case(spec, iters) for spec in CASES for label in [spec[0]]}
    if noise:
        result["exp-noise s"] = time_noise()
    return result


def _child(src, iters, noise):
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, __file__, "--child", "--iters", str(iters)] + (
        ["--noise"] if noise else [])
    return json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True,
                                     text=True).stdout)


def _medians(rounds):
    out = {}
    for key, first in rounds[0].items():
        if isinstance(first, dict):
            out[key] = {k: statistics.median(r[key][k] for r in rounds) for k in first}
        else:
            out[key] = statistics.median(r[key] for r in rounds)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--iters", type=int, default=200)
    ap.add_argument("--parent", type=Path, help="checkout to time beside this one")
    ap.add_argument("--noise", action="store_true", help="also time exp-noise K=10")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure(args.iters, args.noise)))
        return
    sides = {"this": ROOT / "src"}
    if args.parent:
        sides = {"parent": args.parent.resolve() / "src", **sides}
    rounds = {side: [] for side in sides}
    for _ in range(args.rounds):
        for side, src in sides.items():
            rounds[side].append(_child(src, args.iters, args.noise))
    med = {side: _medians(r) for side, r in rounds.items()}
    print(f"us per iteration, median of {args.rounds} rounds of {args.iters} iterations")
    head = f"{'case':<24} {'side':<7}" + "".join(f"{c:>12}" for c in
                                                  ["total"] + [l for l, _ in LAYERS])
    print(head)
    for label, *_ in CASES:
        for side in sides:
            row = med[side][label]
            print(f"{label:<24} {side:<7}" + "".join(
                f"{row[c]:>12.1f}" for c in ["total"] + [l for l, _ in LAYERS]))
    if args.noise:
        print("exp-noise K=10, 200 trials, 1 worker, s")
        print(f"{'side':<7}" + "".join(f"{c:>10}" for c in ("total", "build", "solve")))
        for side in sides:
            row = med[side]["exp-noise s"]
            print(f"{side:<7}" + "".join(f"{row[c]:>10.3f}" for c in ("total", "build", "solve")))
    print(json.dumps(med))


if __name__ == "__main__":
    main()
