#!/usr/bin/env python3
"""Write a fixed set of reference outputs through the API, for comparing
two checkouts byte for byte.

    PYTHONPATH=src python3 scripts/reference_outputs.py OUT_DIR

Covers the acceptance workloads (exp-iterations with 200 trials at
K=2,4,6,8 and exp-noise at K=10, both seed 2026; transversality on
cyclic:8 at grid 512, at random points and at points of planted
intersections (``transversality_planted.txt``: the spans of a signal and
a turned copy, one signal with a zero block, whose elements all tie, with
every margin in hex and every violation's element labels); bilipschitz
on 8x4 with 100,000 pairs), sweeps on the two shape groups of 8x4,3x2
(iterations at the repeated, unsorted K=6,2,10,2, and a noisy
exp-noise), a complex noise sweep, a complex distortion run, one on
cyclic:16 (many blocks of one shape, where one square-root call covers
several blocks) and one on 8x4 with 10,241 pairs (a one-row tail after
the last full chunk of pairs at one and at two workers), simulate under
the full real, full complex and cyclic actions, solve with real
alternating projection (on 8x4 and on the three shape groups of
8x4,3x2,1x1) and complex RRR, solve from files on 8x4 with a
6-sparse prior (alternating projection, whose rank-deficient Gram sends
every polar factor to the SVD) and a 6-sparse prior in a random
orthonormal dictionary (RRR), a SHA-256 of 200 Haar draws per action,
and a SHA-256 of the observations ``sample_observations`` draws on a few
full and cyclic actions.  Those cross every chunk boundary of the
sampler: 10,001 full-ambiguity draws cross the chunks of ``haar_chunks``
and the noise blocks, and cyclic:16 x 20,000 and cyclic:7:complex x
30,000 cross the noise blocks of a real and a complex cyclic draw.
``cyclic_sha256.txt`` holds a SHA-256 of ``decompose_cyclic`` and
``reconstruct_cyclic`` per N = 1..17, 64 and 1024, real and complex, on
a Gaussian signal and on that signal times 0.0 (signed zeros).
``cli_stdout.txt`` holds what each subcommand prints, and its exit code,
on a small config (its files go to a temporary directory, named
``OUT_DIR`` there).  ``api_surface.txt`` lists each name of
``from gramphase import *`` with the type and module of the object it
resolves to, so a dropped or re-pointed name shows.  Run it once per
checkout, with that checkout's ``src`` on ``PYTHONPATH``, then
``diff -r`` the two output directories: any difference is a changed
result.  gramphase runs numpy's bundled OpenBLAS on one thread, so the
outputs do not depend on the CPU count: the two runs may be on different
CPU sets (``taskset -c 0`` against two CPUs gives the same files).
"""
import hashlib
import io
import sys
import tempfile
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from gramphase import blocks, serialize
from gramphase.cli import main as cli_main, parse_structure
from gramphase.experiments import (
    ExperimentConfig,
    run_bilipschitz,
    run_demo_solve,
    run_error_vs_noise,
    run_iterations_vs_k,
    run_simulate,
    run_transversality,
)
from gramphase.analysis import intersecting_subspace_prior, transversality_check
from gramphase.moments import gram_tuple, sample_observations
from gramphase.priors import SparsityPrior, random_subspace_prior

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


def _cyclic_digest(n, field, seed=2026):
    rng = np.random.default_rng([seed, n])
    x = rng.standard_normal(n)
    if field == "complex":
        x = x + 1j * rng.standard_normal(n)
    h = hashlib.sha256()
    for v in (x, 0.0 * x):  # the second holds signed zeros
        signal = blocks.decompose_cyclic(v)
        for m in signal.matrices + (blocks.reconstruct_cyclic(signal),):
            h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()


def _observation_digest(action, n, seed=2026):
    x = blocks.random_signal(action.structure, np.random.default_rng(seed))
    obs = sample_observations(x, action, 0.3, n, seed).observations
    return hashlib.sha256(np.ascontiguousarray(obs).tobytes()).hexdigest()


# subcommand runs: a converged and a capped (exit 2) solve, a solve from
# files, and a bare transversality, which grids its fallback structure cyclic:8
CLI_RUNS = (
    "simulate --structure cyclic:8 --action cyclic --n 50 --sigma 0.2 --seed 2 --out {d}/sim",
    "solve --K 4 --seed 7 --out {d}/solve",
    "solve --K 4 --seed 7 --max-iters 3 --out {d}/solve_capped",
    "solve --gram {d}/gram.json --prior {d}/prior.json --seed 3 --out {d}/solve_files",
    "exp-iterations --trials 5 --K 2,4 --max-iters 200 --seed 3",
    "exp-noise --trials 4 --sigma 0,0.01 --K 4 --max-iters 80 --seed 17",
    "transversality --structure cyclic:6 --K 2 --trials 2 --grid-res 64 --seed 1",
    "transversality",
    "bilipschitz --structure 8x4 --K 4 --trials 500 --seed 3",
)


def _cli_stdout() -> str:
    lines = []
    with tempfile.TemporaryDirectory() as d:
        s = parse_structure("6x2")
        rng = np.random.default_rng(0)
        prior = random_subspace_prior(s, 2, rng)
        truth = blocks.decompose(prior.basis @ rng.standard_normal(2), s)
        serialize.save_json(f"{d}/gram.json", serialize.gram_to_dict(gram_tuple(truth)))
        serialize.save_json(f"{d}/prior.json", serialize.prior_to_dict(prior))
        for run in CLI_RUNS:
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = cli_main(run.format(d=d).split())
            lines += [f"$ gramphase {run.format(d='OUT_DIR')}",
                      stdout.getvalue().replace(d, "OUT_DIR") + f"exit {code}"]
    return "\n".join(lines) + "\n"


def _api_surface() -> str:
    ns = {}
    exec("from gramphase import *", ns)
    lines = []
    for name in sorted(set(ns) - {"__builtins__"}):
        obj = ns[name]
        if isinstance(obj, types.ModuleType):
            home = obj.__name__
        elif isinstance(obj, types.UnionType):  # PriorSpec, by its members
            home = repr(obj)
        else:
            home = obj.__module__
        lines.append(f"{name} {type(obj).__name__} {home}")
    return "\n".join(lines) + "\n"


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def _planted_transversality() -> str:
    """Margins and violations on cyclic:8 at grid 512 for points of the
    span of a signal and a copy of it turned on one or two blocks, by a
    grid angle or between grid angles; the third signal is zero on block 3,
    so every element of that block ties and the lowest index must win."""
    s = parse_structure("cyclic:8")
    rng = np.random.default_rng(2026)
    lines = []
    for case, (turns, zero) in enumerate((({1: np.pi / 2}, None), ({2: 2.0, 3: 2.5}, None),
                                          ({1: 2.5}, 3))):
        x = blocks.random_signal(s, rng)
        if zero is not None:
            x = blocks.BlockSignal(s, tuple(0.0 * m if l == zero else m
                                            for l, m in enumerate(x.matrices)))
        g = blocks.GroupElement(tuple(_rotation(turns[l]) if l in turns else np.eye(n)
                                      for l, (n, _) in enumerate(s.blocks)))
        prior = intersecting_subspace_prior(x, g)
        x_amb, gx_amb = blocks.reconstruct(x), blocks.reconstruct(blocks.apply(g, x))
        points = [x_amb, gx_amb, x_amb + gx_amb, x_amb - 0.5 * gx_amb]
        report = transversality_check(s, prior, len(points), 512, rng, points=points)
        lines.append(f"case {case} margins "
                     + " ".join(float(m).hex() for m in report.point_margins))
        for v in report.violations:
            labels = " ".join(f"{kind}:{t}" for kind, t in v.description)
            lines.append(f"case {case} point {v.point_index} margin {float(v.margin).hex()} "
                         f"element {labels}")
    return "\n".join(lines) + "\n"


def _sparse_solves(out: Path) -> None:
    s = parse_structure("8x4")
    rng = np.random.default_rng(5)
    d = s.ambient_dim
    for name, dictionary, algorithm in (
        ("solve_sparse_ap", None, "alternating_projection"),
        ("solve_dictionary_rrr", np.linalg.qr(rng.standard_normal((d, d)))[0], "rrr"),
    ):
        coeffs = np.zeros(d)
        coeffs[rng.choice(d, 6, replace=False)] = rng.standard_normal(6)
        truth = coeffs if dictionary is None else dictionary @ coeffs
        files = out / f"{name}_input"
        files.mkdir(exist_ok=True)
        serialize.save_json(files / "gram.json",
                            serialize.gram_to_dict(gram_tuple(blocks.decompose(truth, s))))
        serialize.save_json(files / "prior.json",
                            serialize.prior_to_dict(SparsityPrior(6, dictionary)))
        run_demo_solve(_config("solve", out / name, gram_file=str(files / "gram.json"),
                               prior_file=str(files / "prior.json"), algorithm=algorithm,
                               max_iters=300, master_seed=3))


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    run_iterations_vs_k(_config("exp-iterations", out / "iterations.csv",
                                k_values=(2, 4, 6, 8), master_seed=2026))
    run_error_vs_noise(_config("exp-noise", out / "noise.csv",
                               subspace_dim=10, master_seed=2026))
    run_iterations_vs_k(_config("exp-iterations", out / "iterations_two_shapes.csv", "8x4,3x2",
                                k_values=(6, 2, 10, 2), trials=40, max_iters=300,
                                master_seed=2026))
    run_error_vs_noise(_config("exp-noise", out / "noise_two_shapes.csv", "8x4,3x2",
                               subspace_dim=4, trials=50, max_iters=300, master_seed=2026))
    run_error_vs_noise(_config("exp-noise", out / "noise_complex.csv", COMPLEX,
                               subspace_dim=4, trials=50, max_iters=300,
                               master_seed=2026))
    run_transversality(_config("transversality", out / "transversality", "cyclic:8",
                               subspace_dim=2, grid_resolution=512, master_seed=11))
    (out / "transversality_planted.txt").write_text(_planted_transversality())
    run_bilipschitz(_config("bilipschitz", out / "bilipschitz", subspace_dim=4,
                            trials=100_000, master_seed=7))
    run_bilipschitz(_config("bilipschitz", out / "bilipschitz_complex", COMPLEX,
                            subspace_dim=3, trials=20_000, master_seed=7))
    run_bilipschitz(_config("bilipschitz", out / "bilipschitz_cyclic", "cyclic:16",
                            subspace_dim=4, trials=20_000, master_seed=7))
    run_bilipschitz(_config("bilipschitz", out / "bilipschitz_tail", subspace_dim=4,
                            trials=10_241, master_seed=7))
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
    run_demo_solve(_config("solve", out / "solve_multi_real_ap", "8x4,3x2,1x1",
                           subspace_dim=3, master_seed=1))
    _sparse_solves(out)
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
        ("cyclic:16", blocks.cyclic_action(16), 20_000),
        ("cyclic:7:complex", blocks.cyclic_action(7, "complex"), 30_000),
    ):
        lines.append(f"{name} n={n} {_observation_digest(action, n)}")
    (out / "observations_sha256.txt").write_text("\n".join(lines) + "\n")
    lines = [f"cyclic:{n}:{field} {_cyclic_digest(n, field)}"
             for field in ("real", "complex") for n in [*range(1, 18), 64, 1024]]
    (out / "cyclic_sha256.txt").write_text("\n".join(lines) + "\n")
    (out / "cli_stdout.txt").write_text(_cli_stdout())
    (out / "api_surface.txt").write_text(_api_surface())


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: reference_outputs.py OUT_DIR")
    main(Path(sys.argv[1]))
