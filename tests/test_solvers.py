import numpy as np
import pytest

from gramphase import (
    BlockSignal,
    GramTuple,
    LinearSubspacePrior,
    RepresentationStructure,
    SolverConfig,
    SparsityPrior,
    SupportPrior,
    decompose,
    gram_tuple,
    matrix_sqrt_psd,
    procrustes_project,
    random_signal,
    random_subspace_prior,
    reconstruct,
    rho,
    solve,
    solve_batch,
)
from gramphase.blocks import frobenius_norms
from tests._oracles import procrustes_grid_best


def _pinned_signs(u, vh):
    """The sign/phase pinning the measurement projector once applied: the
    first entry above 1e-12 of every right singular vector made real
    positive."""
    big = np.abs(vh) > 1e-12
    has = big.any(axis=1)
    pivots = vh[np.arange(vh.shape[0]), np.where(has, big.argmax(axis=1), 0)]
    safe = np.where(pivots == 0, 1.0, pivots)
    phases = np.where(has, safe / np.abs(safe), 1.0)
    return u * phases[None, :], vh * np.conj(phases)[:, None]


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
        )

    def test_against_eigendecomposition(self):
        g = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = matrix_sqrt_psd(g)
        np.testing.assert_allclose(s @ s, g, atol=1e-12)
        # independent reconstruction through the general eig routine
        w, v = np.linalg.eig(g)
        s2 = (v * np.sqrt(w)) @ np.linalg.inv(v)
        np.testing.assert_allclose(s, s2, atol=1e-10)

    def test_hermitian_complex(self):
        g = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
        s = matrix_sqrt_psd(g)
        np.testing.assert_allclose(s, s.conj().T, atol=1e-12)
        np.testing.assert_allclose(s @ s, g, atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            matrix_sqrt_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestProcrustes:
    def test_fixed_point(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        g = x.T @ x
        np.testing.assert_allclose(procrustes_project(g, x), x, atol=1e-10)

    def test_nearest_orthogonal_to_positive_diagonal(self):
        y = procrustes_project(np.eye(2), np.diag([2.0, 3.0]))
        np.testing.assert_allclose(y, np.eye(2), atol=1e-12)
        assert procrustes_grid_best(np.eye(2), np.diag([2.0, 3.0])) >= (
            np.linalg.norm(np.diag([2.0, 3.0]) - y) - 1e-5
        )

    def test_sphere_case(self):
        y = procrustes_project(np.array([[4.0]]), np.array([[-1.0], [0.0]]))
        np.testing.assert_allclose(y, [[-2.0], [0.0]], atol=1e-12)

    def test_constraint_always_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            r = int(rng.integers(1, n + 1))
            rank = int(rng.integers(0, r + 1))
            a = rng.standard_normal((rank, r)) if rank else np.zeros((1, r))
            g = a.T @ a
            xt = rng.standard_normal((n, r))
            y = procrustes_project(g, xt)
            assert np.max(np.abs(y.T @ y - g)) < 1e-10 * max(1.0, np.abs(g).max())

    def test_optimality_on_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            # 2x2 block
            a = rng.standard_normal((2, 2))
            g = a.T @ a
            xt = rng.standard_normal((2, 2))
            d = np.linalg.norm(procrustes_project(g, xt) - xt)
            assert d <= procrustes_grid_best(g, xt) + 1e-5
            # 2x1 block
            g1 = np.array([[float(rng.uniform(0.0, 4.0))]])
            xt1 = rng.standard_normal((2, 1))
            d1 = np.linalg.norm(procrustes_project(g1, xt1) - xt1)
            assert d1 <= procrustes_grid_best(g1, xt1) + 1e-5

    def test_wide_block_rejected(self):
        with pytest.raises(ValueError, match="wide"):
            procrustes_project(np.eye(3), np.zeros((2, 3)))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_sign_pinning_would_not_change_the_projection(self, field):
        # U V* sums u_i v_i* over singular pairs, and a sign or phase on a
        # pair cancels in its term, so pinning them is a no-op
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(1, n + 1))
            rank = int(rng.integers(0, r + 1))
            a = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, r))
            if field == "complex":
                a = a + 1j * (rng.standard_normal((n, rank)) @ rng.standard_normal((rank, r)))
            u, _, vh = np.linalg.svd(a, full_matrices=False)
            pu, pvh = _pinned_signs(u, vh)
            if field == "real":
                np.testing.assert_array_equal(pu @ pvh, u @ vh)
            else:
                assert np.max(np.abs(pu @ pvh - u @ vh)) <= 1e-15


class TestRho:
    def test_sign_identification(self):
        s = RepresentationStructure(((3, 2),))
        x = random_signal(s, np.random.default_rng(0))
        neg = BlockSignal(s, tuple(-m for m in x.matrices))
        assert rho(x, x) == 0.0
        assert rho(x, neg) == 0.0

    def test_orthogonal_pair(self):
        s = RepresentationStructure(((2, 1),))
        x = BlockSignal(s, (np.array([[1.0], [0.0]]),))
        y = BlockSignal(s, (np.array([[0.0], [1.0]]),))
        assert abs(rho(x, y) - np.sqrt(2.0)) < 1e-14

    def test_pseudo_metric_properties(self):
        s = RepresentationStructure(((4, 2), (1, 3)))
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x, y, z = (random_signal(s, rng) for _ in range(3))
            assert abs(rho(x, y) - rho(y, x)) < 1e-12
            assert rho(x, z) <= rho(x, y) + rho(y, z) + 1e-12


class TestSolve:
    def test_unconstrained_prior_fixed_point(self):
        s = RepresentationStructure(((4, 2),))
        rng = np.random.default_rng(1)
        truth = random_signal(s, rng)
        prior = random_subspace_prior(s, s.ambient_dim, rng)
        report = solve(
            gram_tuple(truth), prior, SolverConfig(max_iters=200, seed=0)
        )
        if report.converged:
            assert report.residual_final < 1e-6

    def test_scalar_magnitude(self):
        s = RepresentationStructure(((1, 1),))
        measured = GramTuple(s, (np.array([[9.0]]),))
        report = solve(
            measured,
            SupportPrior(np.array([True])),
            SolverConfig(),
            init=decompose(np.array([0.25]), s),
        )
        assert report.converged and report.iterations_used <= 2
        assert abs(abs(reconstruct(report.estimate)[0]) - 3.0) < 1e-12

    def test_subspace_recovery_median(self):
        s = RepresentationStructure(((8, 4),))
        errs = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            prior = random_subspace_prior(s, 4, rng)
            truth = decompose(prior.basis @ rng.standard_normal(4), s)
            report = solve(
                gram_tuple(truth),
                prior,
                SolverConfig(stop_on="oracle"),
                init=random_signal(s, rng),
                truth=truth,
            )
            errs.append(report.oracle_error)
        assert np.median(errs) < 1e-6

    def test_converged_flag_implies_residual_below_tol(self):
        # prior contains the truth, so any converged run satisfies the
        # measurement to tolerance
        s = RepresentationStructure(((8, 4),))
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            prior = random_subspace_prior(s, 4, rng)
            truth = decompose(prior.basis @ rng.standard_normal(4), s)
            report = solve(
                gram_tuple(truth), prior, SolverConfig(), init=random_signal(s, rng)
            )
            if report.converged:
                hits += 1
                assert report.residual_final < 1e-6
                assert report.iterations_used <= 1000
        assert hits > 0

    def test_rrr_variant_runs_and_converges(self):
        s = RepresentationStructure(((8, 4),))
        rng = np.random.default_rng(7)
        prior = random_subspace_prior(s, 3, rng)
        truth = decompose(prior.basis @ rng.standard_normal(3), s)
        report = solve(
            gram_tuple(truth),
            prior,
            SolverConfig(algorithm="rrr", beta=0.5, stop_on="oracle"),
            init=random_signal(s, rng),
            truth=truth,
        )
        assert report.converged
        assert report.oracle_error < 1e-6

    def test_estimate_satisfies_prior_exactly(self):
        s = RepresentationStructure(((6, 2),))
        rng = np.random.default_rng(3)
        prior = random_subspace_prior(s, 2, rng)
        truth = decompose(prior.basis @ rng.standard_normal(2), s)
        report = solve(
            gram_tuple(truth), prior, SolverConfig(max_iters=50), init=random_signal(s, rng)
        )
        est = reconstruct(report.estimate)
        proj = prior.basis @ (prior.basis.T @ est)
        assert np.linalg.norm(est - proj) < 1e-12

    def test_trajectory_and_determinism(self):
        s = RepresentationStructure(((4, 2),))
        rng = np.random.default_rng(8)
        prior = random_subspace_prior(s, 2, rng)
        truth = decompose(prior.basis @ rng.standard_normal(2), s)
        cfg = SolverConfig(max_iters=40, seed=123, track_trajectory=True)
        a = solve(gram_tuple(truth), prior, cfg)
        b = solve(gram_tuple(truth), prior, cfg)
        assert a.residual_trajectory == b.residual_trajectory
        assert len(a.residual_trajectory) == a.iterations_used + 1
        np.testing.assert_array_equal(
            reconstruct(a.estimate), reconstruct(b.estimate)
        )

    def test_nan_aborts_with_diagnostic(self):
        s = RepresentationStructure(((2, 1),))
        measured = gram_tuple(random_signal(s, np.random.default_rng(0)))
        bad = decompose(np.array([np.nan, 1.0]), s)
        prior = LinearSubspacePrior(np.eye(2)[:, :1])
        with pytest.raises(FloatingPointError, match="iteration"):
            solve(measured, prior, SolverConfig(), init=bad)

    def test_wide_block_structure_rejected(self):
        s = RepresentationStructure(((2, 3),))
        x = random_signal(s, np.random.default_rng(0))
        prior = LinearSubspacePrior(np.eye(6)[:, :2])
        with pytest.raises(ValueError, match="wide"):
            solve(gram_tuple(x), prior, SolverConfig())

    def test_oracle_stop_requires_truth(self):
        s = RepresentationStructure(((2, 1),))
        measured = gram_tuple(random_signal(s, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="truth"):
            solve(measured, LinearSubspacePrior(np.eye(2)), SolverConfig(stop_on="oracle"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(algorithm="rrr", beta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(tol=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(algorithm="rrrr")


def _batch_instances(field, kind, rows, seed):
    """``rows`` random solvable instances on 8x4,3x2 sharing one prior shape."""
    s = RepresentationStructure(((8, 4), (3, 2)), field)
    d = s.ambient_dim
    rng = np.random.default_rng(seed)

    def draw(*shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if field == "complex" else a

    out = []
    for _ in range(rows):
        if kind == "subspace":
            basis = np.linalg.qr(draw(d, 3))[0]
            prior, truth = LinearSubspacePrior(basis), basis @ draw(3)
        elif kind == "sparsity":
            coeffs = np.zeros(d, dtype=s.dtype)
            coeffs[rng.choice(d, 6, replace=False)] = draw(6)
            prior, truth = SparsityPrior(6), coeffs
        else:
            mask = np.zeros(d, dtype=bool)
            mask[rng.choice(d, 16, replace=False)] = True
            prior, truth = SupportPrior(mask), np.where(mask, draw(d), 0.0)
        t = decompose(truth, s)
        out.append((gram_tuple(t), prior, decompose(draw(d), s), t))
    return out


def _assert_same_report(a, b):
    assert a.iterations_used == b.iterations_used
    assert a.converged == b.converged
    assert a.residual_final == b.residual_final
    assert a.oracle_error == b.oracle_error
    np.testing.assert_array_equal(reconstruct(a.estimate), reconstruct(b.estimate))


class TestBatchedSolve:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("algorithm", ["alternating_projection", "rrr"])
    @pytest.mark.parametrize("kind", ["subspace", "sparsity", "support"])
    def test_every_row_equals_its_single_solve(self, field, algorithm, kind):
        rows = _batch_instances(field, kind, 8, seed=1)
        config = SolverConfig(algorithm=algorithm, max_iters=150)
        singles = [solve(m, p, config, init=i, truth=t) for m, p, i, t in rows]
        # rows leave the stack at different iterations, some at the cap
        assert len({r.iterations_used for r in singles}) > 1

        def batch(order):
            measured, priors, inits, truths = zip(*(rows[j] for j in order))
            return solve_batch(measured, priors, config, inits, truths)

        for j, report in enumerate(batch(range(len(rows)))):
            _assert_same_report(report, singles[j])
        order = np.random.default_rng(0).permutation(len(rows))
        for part in (order[:3], order[3:]):
            for j, report in zip(part, batch(part)):
                _assert_same_report(report, singles[j])

    def test_oracle_stopping_rows_equal_single_solves(self):
        rows = _batch_instances("real", "subspace", 6, seed=4)
        config = SolverConfig(max_iters=200, stop_on="oracle", track_trajectory=True)
        measured, priors, inits, truths = zip(*rows)
        batched = solve_batch(measured, priors, config, inits, truths)
        for (m, p, i, t), report in zip(rows, batched):
            single = solve(m, p, config, init=i, truth=t)
            _assert_same_report(report, single)
            assert report.residual_trajectory == single.residual_trajectory

    def test_priors_of_mixed_type_or_shape_rejected(self):
        rows = _batch_instances("real", "subspace", 1, 0)
        rows += _batch_instances("real", "support", 1, 0)
        measured, priors, inits, _ = zip(*rows)
        with pytest.raises(ValueError, match="same type"):
            solve_batch(measured, priors, SolverConfig(), inits)
        wider = random_subspace_prior(measured[0].structure, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="same shape"):
            solve_batch(measured, [priors[0], wider], SolverConfig(), inits)


class TestScaleRobustness:
    def test_norms_match_the_plain_formula_in_range_and_scale_outside(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            mats = [
                rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-8, 8),
                rng.standard_normal((2, 3)),
            ]
            if rng.random() < 0.5:
                mats = [m + 1j * rng.standard_normal(m.shape) for m in mats]
            plain = np.sqrt(sum(np.linalg.norm(m) ** 2 for m in mats))
            assert frobenius_norms([m[None] for m in mats])[0] == plain
            assert frobenius_norms([mats[0][None]])[0] == np.linalg.norm(mats[0])
            for c in (1e-200, 1e200):
                scaled = frobenius_norms([c * m[None] for m in mats])[0]
                assert abs(scaled / (c * plain) - 1.0) < 1e-14

    @pytest.mark.parametrize("c", [1e-150, 1e-75, 1e75, 1e150])
    def test_scaled_instances_converge_like_unscaled(self, c):
        s = RepresentationStructure(((8, 4),))
        config = SolverConfig(max_iters=400, tol=1e-8)
        hits = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            prior = random_subspace_prior(s, 2, rng)
            truth = prior.basis @ rng.standard_normal(2)
            init = reconstruct(random_signal(s, rng))
            t = decompose(truth, s)
            base = solve(gram_tuple(t), prior, config, init=decompose(init, s), truth=t)
            if not base.converged:
                continue
            hits += 1
            t = decompose(c * truth, s)
            report = solve(gram_tuple(t), prior, config, init=decompose(c * init, s), truth=t)
            assert report.converged
            assert report.iterations_used == base.iterations_used > 0
            assert report.residual_final < config.tol
            assert report.oracle_error < 1e-6
        assert hits > 0
