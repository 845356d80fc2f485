#!/usr/bin/env python3
"""Write a fixed set of reference outputs through the API, for comparing
two checkouts byte for byte.

    PYTHONPATH=src python3 scripts/reference_outputs.py OUT_DIR

Covers the acceptance workloads (exp-iterations with 200 trials at
K=2,4,6,8 and exp-noise at K=10, both seed 2026; transversality on
cyclic:8 at grid 512; bilipschitz on 8x4 with 100,000 pairs), a complex
noise sweep and a complex distortion run, simulate under the full real,
full complex and cyclic actions, solve with real alternating projection
and complex RRR, a SHA-256 of 200 Haar draws per action, and a SHA-256
of the observations ``sample_observations`` draws on a few full and
cyclic actions (10,001 full-ambiguity draws cross the slices in which
``haar_stack`` factors its stack).  Run it
once per checkout, with that checkout's ``src`` on ``PYTHONPATH``, then
``diff -r`` the two output directories: any difference is a changed
result.
"""
import hashlib
import sys
from pathlib import Path

import numpy as np

from gramphase import blocks
from gramphase.cli import parse_structure
from gramphase.experiments import (
    ExperimentConfig,
    run_bilipschitz,
    run_demo_solve,
    run_error_vs_noise,
    run_iterations_vs_k,
    run_simulate,
    run_transversality,
)
from gramphase.moments import sample_observations

COMPLEX = "8x4,3x2:complex"


def _config(experiment, out, structure="8x4", **kwargs):
    return ExperimentConfig(
        experiment=experiment, structure=parse_structure(structure), out=str(out), **kwargs
    )


def _haar_digest(action, draws=200, seed=2026):
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(draws):
        for d in blocks.haar_sample(action, rng).blocks:
            h.update(np.ascontiguousarray(d).tobytes())
    return h.hexdigest()


def _observation_digest(action, n, seed=2026):
    x = blocks.random_signal(action.structure, np.random.default_rng(seed))
    obs = sample_observations(x, action, 0.3, n, seed).observations
    return hashlib.sha256(np.ascontiguousarray(obs).tobytes()).hexdigest()


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    run_iterations_vs_k(_config("exp-iterations", out / "iterations.csv",
                                k_values=(2, 4, 6, 8), master_seed=2026))
    run_error_vs_noise(_config("exp-noise", out / "noise.csv",
                               subspace_dim=10, master_seed=2026))
    run_error_vs_noise(_config("exp-noise", out / "noise_complex.csv", COMPLEX,
                               subspace_dim=4, trials=50, max_iters=300,
                               master_seed=2026))
    run_transversality(_config("transversality", out / "transversality", "cyclic:8",
                               subspace_dim=2, grid_resolution=512, master_seed=11))
    run_bilipschitz(_config("bilipschitz", out / "bilipschitz", subspace_dim=4,
                            trials=100_000, master_seed=7))
    run_bilipschitz(_config("bilipschitz", out / "bilipschitz_complex", COMPLEX,
                            subspace_dim=3, trials=20_000, master_seed=7))
    for name, structure, action in (
        ("full_real", "8x4,3x2,1x1", "full"),
        ("full_complex", COMPLEX, "full"),
        ("cyclic_real", "cyclic:8", "cyclic"),
        ("cyclic_complex", "cyclic:6:complex", "cyclic"),
    ):
        run_simulate(_config("simulate", out / f"simulate_{name}", structure,
                             action=action, n_samples=500, sigma=0.3, master_seed=1))
    run_demo_solve(_config("solve", out / "solve_real_ap", subspace_dim=4, master_seed=7))
    run_demo_solve(_config("solve", out / "solve_complex_rrr", COMPLEX, subspace_dim=3,
                           algorithm="rrr", master_seed=7))
    lines = []
    for structure in ("8x4,3x2,1x1", "8x4,3x2,1x1:complex"):
        action = blocks.full_ambiguity_action(parse_structure(structure))
        lines.append(f"full {structure} {_haar_digest(action)}")
    for n, field in ((8, "real"), (6, "complex")):
        lines.append(f"cyclic:{n}:{field} {_haar_digest(blocks.cyclic_action(n, field))}")
    (out / "haar_sha256.txt").write_text("\n".join(lines) + "\n")
    lines = []
    for name, action, n in (
        ("full 8x4,3x2", blocks.full_ambiguity_action(parse_structure("8x4,3x2")), 10_001),
        ("full 8x4,3x2:complex", blocks.full_ambiguity_action(parse_structure(COMPLEX)), 10_001),
        ("cyclic:16", blocks.cyclic_action(16), 2000),
        ("cyclic:1024", blocks.cyclic_action(1024), 10),
        ("cyclic:7:complex", blocks.cyclic_action(7, "complex"), 500),
    ):
        lines.append(f"{name} n={n} {_observation_digest(action, n)}")
    (out / "observations_sha256.txt").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: reference_outputs.py OUT_DIR")
    main(Path(sys.argv[1]))
