"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6 is expected to fail its dynamic-range clause: at subspace
dimension 10 the measurement equations on the [(8, 4)] structure form a
square system whose solution set generically contains several valid
points besides the truth, so no blind solver can keep the median error
small at low noise.  ``test_supplementary_k10_recovery_is_non_unique``
verifies that independently with a multi-start Newton solver; the
monotonicity clause and the same sweep in the certified regime
(subspace dimension 4, also a supplementary test) behave as expected.
"""

import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from gramphase import (
    GramTuple,
    GroupElement,
    RepresentationStructure,
    analytic_second_moment,
    blocks,
    cyclic_action,
    cyclic_shift_element,
    cyclic_structure,
    decompose,
    distortion_estimate,
    distortion_ratios,
    effective_dimension,
    empirical_second_moment,
    experiments,
    extract_gram,
    full_ambiguity_action,
    gram_tuple,
    haar_sample,
    intersecting_subspace_prior,
    procrustes_project,
    random_signal,
    random_subspace_prior,
    reconstruct,
    sample_observations,
    transversality_check,
    apply,
)
from gramphase.experiments import ExperimentConfig, run_error_vs_noise, run_iterations_vs_k
from tests._oracles import cyclic_average_outer, fd_orbit_dimension, procrustes_grid_best

MASTER_SEED = 2026

# frozen on the first run with MASTER_SEED (criterion 5c): exact-match regression
GOLDEN_MEDIAN_ITERATIONS = {2: 46.5, 4: 125.5, 6: 401.5, 8: 1000.0}


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {label} ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] criterion {num}: {label} ({elapsed:.1f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget"


@pytest.fixture(scope="module")
def iterations_rows():
    cfg = ExperimentConfig(
        experiment="exp-iterations",
        trials=200,
        k_values=(2, 4, 6, 8),
        master_seed=MASTER_SEED,
    )
    start = time.perf_counter()
    rows = run_iterations_vs_k(cfg)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def noise_rows():
    cfg = ExperimentConfig(
        experiment="exp-noise",
        trials=200,
        sigma_values=(1e-4, 1e-3, 1e-2, 1e-1),
        subspace_dim=10,
        master_seed=MASTER_SEED,
    )
    start = time.perf_counter()
    rows = run_error_vs_noise(cfg)
    return rows, time.perf_counter() - start


def test_criterion_1_second_moment_consistency():
    with criterion(1, "Gram extraction inverts the analytic second moment", 5):
        for structure in (
            RepresentationStructure(((8, 4),)),
            cyclic_structure(16, "complex"),
        ):
            for seed in range(100):
                x = random_signal(structure, np.random.default_rng(seed))
                got = extract_gram(analytic_second_moment(x), structure)
                want = gram_tuple(x)
                err = max(
                    np.max(np.abs(a - b)) for a, b in zip(got.grams, want.grams)
                )
                assert err < 1e-12, f"{structure.field} seed {seed}: {err:.2e}"
        action = cyclic_action(16, "complex")
        for seed in range(10):
            x = random_signal(action.structure, np.random.default_rng(seed))
            exact = cyclic_average_outer(x, action, cyclic_shift_element)
            err = np.max(np.abs(analytic_second_moment(x) - exact))
            assert err < 1e-12, f"group average mismatch {err:.2e}"


def test_criterion_2_schur_block_structure():
    with criterion(2, "second moment is block-scalar with zero coupling", 5):
        structures = (
            RepresentationStructure(((8, 4),)),
            RepresentationStructure(((1, 1), (4, 2))),
            RepresentationStructure(((3, 2), (2, 3)), "complex"),
        )
        for structure in structures:
            for seed in range(5):
                x = random_signal(structure, np.random.default_rng(seed))
                m = analytic_second_moment(x)
                scale = max(float(np.max(np.abs(m))), 1.0)
                for li, sli in enumerate(structure.block_slices):
                    for lj, slj in enumerate(structure.block_slices):
                        if li != lj:
                            assert np.max(np.abs(m[sli, slj])) == 0.0
                    n, r = structure.blocks[li]
                    sub = m[sli, sli].reshape(r, n, r, n)
                    for i in range(r):
                        for j in range(r):
                            dev = sub[i, :, j, :] - np.eye(n) * sub[i, 0, j, 0]
                            assert np.max(np.abs(dev)) < 1e-12 * scale


def test_criterion_3_moment_convergence_rate():
    with criterion(3, "debiased moment error decays like n^(-1/2)", 30):
        structure = RepresentationStructure(((8, 4),))
        action = full_ambiguity_action(structure)
        sizes = (100, 1000, 10_000)
        medians = []
        for n in sizes:
            errs = []
            for seed in range(20):
                x = random_signal(
                    structure, np.random.default_rng(np.random.SeedSequence([404, seed]))
                )
                samples = sample_observations(x, action, 0.5, n, seed=seed)
                errs.append(
                    np.linalg.norm(
                        empirical_second_moment(samples) - analytic_second_moment(x)
                    )
                )
            medians.append(np.median(errs))
        slope = np.polyfit(np.log10(sizes), np.log10(medians), 1)[0]
        assert -0.65 <= slope <= -0.35, f"log-log slope {slope:.3f}"


def test_criterion_4_procrustes_correctness():
    with criterion(4, "measurement projector: exact constraint, grid-optimal", 30):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(1, n + 1))
            rank = int(rng.integers(0, r + 1))
            a = rng.standard_normal((rank, r)) if rank else np.zeros((1, r))
            g = a.T @ a
            y = procrustes_project(g, rng.standard_normal((n, r)))
            assert np.max(np.abs(y.T @ y - g)) < 1e-10 * max(1.0, np.abs(g).max())
        for _ in range(30):
            a = rng.standard_normal((2, 2))
            g = a.T @ a
            xt = rng.standard_normal((2, 2))
            d = np.linalg.norm(procrustes_project(g, xt) - xt)
            assert d <= procrustes_grid_best(g, xt) + 1e-5
            g1 = np.array([[float(rng.uniform(0.0, 9.0))]])
            xt1 = rng.standard_normal((2, 1))
            d1 = np.linalg.norm(procrustes_project(g1, xt1) - xt1)
            assert d1 <= procrustes_grid_best(g1, xt1) + 1e-5


def test_criterion_5_iterations_vs_subspace_dimension(iterations_rows):
    iterations_rows, experiment_s = iterations_rows
    assert experiment_s < 180, f"experiment took {experiment_s:.0f}s"
    with criterion(5, "iteration sweep: monotone, fast at K=2, golden medians", 180):
        medians = [row["median_iterations"] for row in iterations_rows]
        print(f"    medians={medians} (experiment {experiment_s:.0f}s)")
        assert all(a <= b for a, b in zip(medians, medians[1:])), medians
        rate_k2 = iterations_rows[0]["convergence_rate"]
        assert rate_k2 > 0.9, f"K=2 convergence rate {rate_k2}"
        for row in iterations_rows:
            assert row["median_iterations"] == GOLDEN_MEDIAN_ITERATIONS[row["K"]], (
                f"K={row['K']}: {row['median_iterations']} != golden "
                f"{GOLDEN_MEDIAN_ITERATIONS[row['K']]}"
            )


def test_criterion_6a_noise_sweep_monotone(noise_rows):
    noise_rows, experiment_s = noise_rows
    assert experiment_s < 180, f"experiment took {experiment_s:.0f}s"
    with criterion(6, "(a) noise sweep: median error nondecreasing", 180):
        meds = [row["median_error"] for row in noise_rows]
        print(f"    medians={meds} (experiment {experiment_s:.0f}s)")
        inversions = [
            (meds[i] - meds[i + 1]) / meds[i]
            for i in range(len(meds) - 1)
            if meds[i + 1] < meds[i]
        ]
        assert len(inversions) <= 1, f"{len(inversions)} inversions in {meds}"
        assert all(v <= 0.10 for v in inversions), f"inversion too large: {inversions}"


def test_criterion_6b_noise_sweep_dynamic_range(noise_rows):
    # Expected to FAIL: at subspace dimension 10 (= the structure's
    # effective dimension) the Gram constraints form a square polynomial
    # system with several real solutions besides +-truth, each an exact,
    # blind-indistinguishable recovery.  The median error is therefore
    # pinned near the inter-solution distance at every noise level and
    # cannot be 10x smaller at sigma=1e-4 than at sigma=1e-1.  The two
    # supplementary tests below verify the fiber structure directly and
    # show the expected thousand-fold range at subspace dimension 4.
    with criterion(6, "(b) noise sweep: 10x error range across sigma", 180):
        meds = [row["median_error"] for row in noise_rows[0]]
        assert meds[0] * 10.0 <= meds[-1], (
            f"median at sigma=1e-4 ({meds[0]:.3g}) is not 10x below sigma=1e-1 "
            f"({meds[-1]:.3g}): recovery at K=10 is non-unique (square system), "
            "so the low-noise median is dominated by alternative exact solutions"
        )


def test_supplementary_k10_recovery_is_non_unique():
    # Independent verification of why criterion 6(b) cannot pass: at
    # subspace dimension 10 the ten Gram equations on the ten subspace
    # coefficients admit several real solutions besides +-truth, found
    # here by a plain multi-start Newton solver (no package code in the
    # loop), so a blind solver cannot prefer the truth.
    from scipy.optimize import fsolve

    start = time.perf_counter()
    s = RepresentationStructure(((8, 4),))
    rng = np.random.default_rng(np.random.SeedSequence([777, 0]))
    prior = random_subspace_prior(s, 10, rng)
    truth_amb = prior.basis @ rng.standard_normal(10)
    truth_c = prior.basis.T @ truth_amb
    target = truth_amb.reshape((8, 4), order="F").T @ truth_amb.reshape((8, 4), order="F")
    upper = np.triu_indices(4)

    def equations(c):
        y = (prior.basis @ c).reshape((8, 4), order="F")
        return (y.T @ y - target)[upper]

    distinct = []
    for _ in range(100):
        c, _info, ier, _msg = fsolve(equations, rng.standard_normal(10) * 1.2, full_output=True)
        if ier != 1 or np.linalg.norm(equations(c)) > 1e-9:
            continue
        if c[np.argmax(np.abs(c))] < 0:
            c = -c
        if all(np.linalg.norm(c - d) > 1e-6 for d in distinct):
            distinct.append(c)
    spurious = [
        c for c in distinct
        if min(np.linalg.norm(c - truth_c), np.linalg.norm(c + truth_c)) > 1e-3
    ]
    assert len(spurious) >= 2, "expected multiple exact non-truth recoveries"
    print(
        f"\n[PASS] supplementary: K=10 fiber holds {len(spurious)} exact non-truth "
        f"solutions (of {len(distinct)} found; {time.perf_counter() - start:.1f}s)"
    )


def test_supplementary_noise_sweep_certified_regime():
    label = "supplementary: noise sweep in the certified regime (K=4)"
    start = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="exp-noise",
        trials=40,
        sigma_values=(1e-4, 1e-3, 1e-2, 1e-1),
        subspace_dim=4,
        master_seed=MASTER_SEED,
    )
    rows = run_error_vs_noise(cfg)
    meds = [row["median_error"] for row in rows]
    assert all(a < b for a, b in zip(meds, meds[1:])), meds
    assert meds[0] * 10.0 <= meds[-1]
    print(f"\n[PASS] {label}: medians={['%.2e' % m for m in meds]} "
          f"({time.perf_counter() - start:.1f}s)")


def test_criterion_7_transversality():
    with criterion(7, "orbit grid check: clean in regime, catches plant", 120):
        s = cyclic_structure(8, "real")
        rng = np.random.default_rng(11)
        prior = random_subspace_prior(s, 2, rng)
        report = transversality_check(s, prior, 20, 512, rng)
        assert report.worst_margin > 0.0
        assert report.violations == (), f"{len(report.violations)} violations"
        assert report.worst_margin > report.threshold

        plant_rng = np.random.default_rng(3)
        x = random_signal(s, plant_rng)
        x_amb = reconstruct(x) / x.norm()
        mats = [np.eye(n) for n, _ in s.blocks]
        mats[1] = np.array([[0.0, -1.0], [1.0, 0.0]])  # on-grid quarter turn
        planted = GroupElement(tuple(mats))
        bad_prior = intersecting_subspace_prior(decompose(x_amb, s), planted)
        bad = transversality_check(s, bad_prior, 1, 512, plant_rng, points=[x_amb])
        assert len(bad.violations) >= 1
        assert bad.worst_margin < 1e-6, f"planted margin {bad.worst_margin:.2e}"


def test_criterion_8_distortion_sanity():
    with criterion(8, "distortion: exact scalar case, positive lower bound", 60):
        scalar = RepresentationStructure(((1, 1),))
        from gramphase import LinearSubspacePrior

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = distortion_estimate(
                scalar, LinearSubspacePrior(np.array([[1.0]])), 10_000,
                np.random.default_rng(0),
            )
        assert abs(rep.alpha_lower - 1.0) < 1e-12
        assert abs(rep.beta_upper - 1.0) < 1e-12

        s = RepresentationStructure(((8, 4),))
        prior = random_subspace_prior(s, 4, np.random.default_rng(1))
        rep84 = distortion_estimate(s, prior, 100_000, np.random.default_rng(2))
        assert rep84.alpha_lower > 0.0
        assert math.isfinite(rep84.beta_upper)
        print(f"    alpha={rep84.alpha_lower:.4f} beta={rep84.beta_upper:.4f}")

        rng = np.random.default_rng(3)
        x = np.stack([reconstruct(random_signal(s, rng)) for _ in range(100)])
        y = np.stack([reconstruct(random_signal(s, rng)) for _ in range(100)])
        base, _ = distortion_ratios(x, y, s)
        flipped, _ = distortion_ratios(-x, y, s)
        g = haar_sample(full_ambiguity_action(s), rng)
        gx = np.stack([reconstruct(apply(g, decompose(v, s))) for v in x])
        gy = np.stack([reconstruct(apply(g, decompose(v, s))) for v in y])
        moved, _ = distortion_ratios(gx, gy, s)
        assert np.max(np.abs(base - flipped)) < 1e-10
        assert np.max(np.abs(base - moved)) < 1e-10


def test_criterion_9_effective_dimension():
    with criterion(9, "effective dimension matches orbit-rank estimates", 30):
        rng = np.random.default_rng(0)
        structures = (
            RepresentationStructure(((1, 1),)),
            RepresentationStructure(((2, 1),)),
            RepresentationStructure(((3, 2), (2, 2))),
            RepresentationStructure(((8, 4),)),
            RepresentationStructure(((1, 3), (3, 3))),
        )
        for s in structures:
            assert s.ambient_dim <= 32
            _, kh = effective_dimension(s)
            assert kh == fd_orbit_dimension(s, rng), s.blocks
        for bandlimit in (1, 2, 3, 4):
            for mult in (2 * bandlimit + 1, 2 * bandlimit + 3):
                blocks = tuple((2 * l + 1, mult) for l in range(bandlimit + 1))
                _, kh = effective_dimension(RepresentationStructure(blocks))
                assert kh == sum(
                    math.comb(2 * l + 1, 2) for l in range(bandlimit + 1)
                )


def test_criterion_10_determinism(tmp_path, monkeypatch):
    with criterion(10, "byte-identical CSVs: rerun and serial vs parallel", 600):
        def iter_cfg(out):
            return ExperimentConfig(
                experiment="exp-iterations", trials=10, k_values=(2, 3),
                master_seed=55, max_iters=200, out=str(out),
            )

        def noise_cfg(out):
            return ExperimentConfig(
                experiment="exp-noise", trials=6, sigma_values=(0.01, 0.1),
                subspace_dim=4, master_seed=56, max_iters=150, out=str(out),
            )

        # a row floor of 1, so that these small stacks split at 2 and 3 CPUs
        monkeypatch.setattr(experiments, "SPLIT_ROWS", {"real": 1, "complex": 1})
        for name, maker, runner in (
            ("iters", iter_cfg, run_iterations_vs_k),
            ("noise", noise_cfg, run_error_vs_noise),
        ):
            paths = [tmp_path / f"{name}_{tag}.csv" for tag in ("a", "b", "par2", "par3")]
            for path, workers in zip(paths, (1, 1, 2, 3)):
                monkeypatch.setattr(blocks, "_workers", lambda: workers)
                runner(maker(path))
            blobs = [p.read_bytes() for p in paths]
            assert blobs[0] == blobs[1], f"{name}: rerun differs"
            assert blobs[0] == blobs[2] == blobs[3], f"{name}: parallel differs"
