"""Tests of the benchmark itself: tiny rounds of every workload with all
checks on, and each checker shown to reject a deliberately wrong output.

    python3 -m pytest bench
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gramphase as gp  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sweep": dict(k_values=(2, 8), trials=6, max_iters=150, sigmas=(1e-3, 1e-1),
                  noise_trials=3, noise_max_iters=100),
    "solve": dict(max_iters=60),
    "mra": dict(cyclic=((8, 50), (9, 20)), full_n=2_000, simulate_obs=100),
    "analysis": dict(grid=256, pairs=2_000, scalar_pairs=200, grid_samples=500),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_round_passes_every_check(name, tmp_path):
    work = workloads.WORKLOADS[name](gp, 0, tmp_path, TINY[name])
    clock = workloads.Clock()
    ops, failed, errors = work.run(work.inputs(0), clock)
    errors += work.finish()
    assert errors == []
    assert ops > 0 and clock.timed > 0
    # only the complex solves fail, on the known oracle_error fault
    assert failed == (len(workloads.Solve.FIXED) if name == "solve" else 0)


def _subspace_instance(rng, blocks=((8, 4),), k=3):
    d = sum(n * r for n, r in blocks)
    basis = np.linalg.qr(rng.standard_normal((d, k)))[0]
    truth = basis @ rng.standard_normal(k)
    return {
        "blocks": blocks, "field": "real", "truth": truth,
        "grams": checks.gram_mats(checks.split_blocks(truth, blocks)),
        "prior": {"kind": "subspace", "basis": basis}, "unique": True,
    }, basis


def test_solve_check_rejects_estimate_off_the_orbit():
    inst, basis = _subspace_instance(np.random.default_rng(1))
    errors, mismatch = checks.check_solve(inst, -inst["truth"], 0.0, True, 0.0, 1e-6)
    assert errors == [] and not mismatch
    moved = inst["truth"] + basis @ np.array([0.3, 0.0, 0.0])
    res = checks.gram_residual(moved, inst["grams"], inst["blocks"])
    dist = checks.orbit_distance(moved, inst["truth"]) / np.linalg.norm(inst["truth"])
    errors, _ = checks.check_solve(inst, moved, res, True, dist, 1e-6)
    assert any("off the truth's orbit" in e for e in errors)


def test_solve_check_flags_a_wrong_oracle_error_and_residual():
    inst, _ = _subspace_instance(np.random.default_rng(2))
    errors, mismatch = checks.check_solve(inst, inst["truth"], 0.0, True, 0.5, 1e-6)
    assert mismatch and errors == []
    errors, _ = checks.check_solve(inst, inst["truth"], 0.1, False, 0.0, 1e-6)
    assert any("residual" in e for e in errors)


def test_solve_check_rejects_estimate_outside_the_prior():
    inst, _ = _subspace_instance(np.random.default_rng(3))
    off = inst["truth"] + 1e-3 * np.random.default_rng(4).standard_normal(32)
    res = checks.gram_residual(off, inst["grams"], inst["blocks"])
    errors, _ = checks.check_solve(inst, off, res, False, None, 1e-6)
    assert any("subspace" in e for e in errors)
    assert checks.prior_errors(np.array([1.0, 0.0, 2.0]), {"kind": "sparsity", "k": 1})
    mask = np.array([True, False, True])
    assert checks.prior_errors(np.array([1.0, 1e-9, 2.0]), {"kind": "support", "mask": mask})


def test_orbit_distance_is_the_phase_minimum():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert checks.orbit_distance(np.exp(0.7j) * x, x) < 1e-12
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    closed = math.sqrt(max(np.vdot(x, x).real + np.vdot(y, y).real - 2 * abs(np.vdot(x, y)), 0))
    assert checks.orbit_distance(x, y) == pytest.approx(closed, rel=1e-12)
    brute = min(np.linalg.norm(x - np.exp(1j * t) * y) for t in np.linspace(0, 2 * np.pi, 20001))
    assert checks.orbit_distance(x, y) == pytest.approx(brute, rel=1e-6)


def test_gram_check_rejects_an_estimate_scaled_by_two():
    rng = np.random.default_rng(6)
    mats = [rng.standard_normal((8, 4)), rng.standard_normal((3, 2))]
    s = gp.RepresentationStructure(((8, 4), (3, 2)))
    truth = gp.BlockSignal(s, tuple(mats))
    samples = gp.sample_observations(truth, gp.full_ambiguity_action(s), 0.1, 5_000, 7)
    est = gp.extract_gram(gp.empirical_second_moment(samples), s).grams
    assert checks.check_gram_estimate(est, mats, 0.1, 5_000, "real") == []
    assert checks.check_gram_estimate([2 * g for g in est], mats, 0.1, 5_000, "real")
    not_psd = [g - 100 * np.eye(len(g)) for g in est]
    errors = checks.check_gram_estimate(not_psd, mats, 0.1, 5_000, "real")
    assert any("eigenvalue" in e for e in errors)


def test_cyclic_truth_check_uses_the_power_spectrum():
    x = np.random.default_rng(8).standard_normal(10)
    sig = gp.decompose_cyclic(x)
    assert checks.check_cyclic_truth(sig.matrices, x) == []
    assert checks.check_cyclic_truth([2 * m for m in sig.matrices], x)


def test_margin_check_rejects_a_margin_above_a_sampled_distance():
    rng = np.random.default_rng(9)
    blocks = gp.cyclic_structure(8).blocks
    basis = np.linalg.qr(rng.standard_normal((8, 2)))[0]
    x = basis @ rng.standard_normal(2)
    sampled = checks.sampled_grid_distance(x, basis, blocks, 64, 0.5, 2_000, rng)
    assert math.isfinite(sampled)
    assert checks.check_margin_upper_bound(sampled, sampled) == []
    assert checks.check_margin_upper_bound(sampled + 0.01, sampled)


def test_violation_check_recomputes_the_distance():
    blocks = gp.cyclic_structure(8).blocks
    x = np.random.default_rng(10).standard_normal(8)
    x /= np.linalg.norm(x)
    element = [np.eye(n) for n, _ in blocks]
    element[1] = np.array([[0.0, -1.0], [1.0, 0.0]])
    turned = np.concatenate([(d @ m).ravel(order="F")
                             for d, m in zip(element, checks.split_blocks(x, blocks))])
    basis = np.linalg.qr(np.column_stack([x, turned]))[0]
    assert checks.check_violation(x, element, basis, blocks, 0.0, 0.5) == []
    assert checks.check_violation(x, element, basis, blocks, 0.2, 0.5)


def test_distortion_checks_reject_impossible_ratios():
    assert checks.check_distortion(0.1, 1.2, 10, 10, 0) == []
    assert checks.check_distortion(0.1, 1.5, 10, 10, 0)  # above sqrt(2)
    assert checks.check_distortion(0.0, 1.0, 10, 10, 0)
    assert checks.check_distortion(0.1, 1.0, 10, 9, 0)
    assert checks.check_scalar_distortion(1.0, 1.0) == []
    assert checks.check_scalar_distortion(1.0, 1.0 + 1e-9)


def test_csv_and_sweep_checks_reject_wrong_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("# provenance\nK,median_iterations\n2,40.5\n4,0.1\n")
    rows = [{"K": 2, "median_iterations": 40.5}, {"K": 4, "median_iterations": 0.1}]
    assert checks.check_csv_rows(path, ["K", "median_iterations"], rows) == []
    rows[1]["median_iterations"] = 0.1000000001
    assert checks.check_csv_rows(path, ["K", "median_iterations"], rows)
    it = [[{"K": 2, "median_iterations": 50.0, "convergence_rate": 1.0},
           {"K": 4, "median_iterations": 40.0, "convergence_rate": 1.0}]]
    noise = [[{"sigma": 1e-2, "median_error": 0.02}, {"sigma": 1e-1, "median_error": 0.01}]]
    errors = checks.check_sweep(it, noise)
    assert any("decrease" in e for e in errors)
    assert any("increase" in e for e in errors)


def test_tracer_self_time_and_uninstall():
    mod = types.SimpleNamespace()

    def inner():
        t = __import__("time").perf_counter()
        while __import__("time").perf_counter() - t < 0.01:
            pass

    def outer():
        mod.inner()
        mod.inner()

    mod.inner, mod.outer = inner, outer
    tracer = spans.Tracer()
    tracer.wrap(mod, "inner", "m.inner")
    tracer.wrap(mod, "outer", "m.outer")
    mod.outer()
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer
    tot = tracer.totals()
    assert tot["m.inner"]["calls"] == 2
    assert tot["m.outer"]["self_s"] == pytest.approx(
        tot["m.outer"]["s"] - tot["m.inner"]["s"], abs=1e-12)
    assert tot["m.outer"]["self_s"] < 0.005
    assert tracer.under("m.inner", "m.outer") == 2


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
