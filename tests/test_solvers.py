import math
import re

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
from gramphase import blocks, solvers
from gramphase.blocks import frobenius_norms
from tests._oracles import procrustes_grid_best, svd_procrustes


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("r, entry", [(4, (0, 0)), (4, (1, 1)), (4, (0, 3)), (1, (0, 0))])
    def test_a_non_finite_matrix_is_refused(self, bad, r, entry):
        g = np.eye(r)
        g[entry] = bad
        with pytest.raises(ValueError, match="^matrix must be finite"):
            matrix_sqrt_psd(g)
        with pytest.raises(ValueError, match="^matrix must be finite"):
            procrustes_project(g, np.eye(r + 1, r))

    def test_a_stack_names_its_non_finite_matrix(self):
        g = np.stack([np.eye(3)] * 6).reshape(2, 3, 3, 3)
        g[1, 0, 2, 2] = np.nan
        with pytest.raises(ValueError, match=r"^matrix \[1, 0\] must be finite"):
            matrix_sqrt_psd(g)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stack_rows_equal_single_calls_bitwise(self, field):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 40, 4, 3))
        if field == "complex":
            a = a + 1j * rng.standard_normal(a.shape)
        a[1, :, 2:] = 0.0  # rank-deficient half
        g = a.conj().swapaxes(-1, -2) @ a
        stacked = matrix_sqrt_psd(g)
        for row, single in zip(stacked.reshape(-1, 3, 3), g.reshape(-1, 3, 3)):
            assert np.array_equal(row, matrix_sqrt_psd(single))

    def test_one_non_hermitian_matrix_in_a_stack_rejected(self):
        g = np.stack([np.eye(2)] * 3)
        g[1, 0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            matrix_sqrt_psd(g)
        # each matrix is measured against its own scale, not the stack's
        g = np.stack([1e6 * np.eye(2), np.array([[1.0, 1e-6], [0.0, 1.0]])])
        with pytest.raises(ValueError, match="Hermitian"):
            matrix_sqrt_psd(g)


def _numpy_wrappers(monkeypatch):
    """Route the solver's LAPACK helpers through numpy's own wrappers."""
    monkeypatch.setattr(solvers, "_eigh", np.linalg.eigh)
    monkeypatch.setattr(solvers, "_svd", lambda a: np.linalg.svd(a, full_matrices=False))


def _same_outcome(call, reference):
    """Both calls raise the same error, or return arrays of the same dtypes
    and bits (NaNs included)."""
    try:
        want = reference()
    except np.linalg.LinAlgError as exc:
        with pytest.raises(np.linalg.LinAlgError, match=re.escape(str(exc))):
            call()
        return
    got = call()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is np.ndarray and g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w, strict=True)


LAPACK_TYPES = [np.float64, np.complex128, np.float32, np.complex64, np.int64]


class TestLapackHelpers:
    """The kernels of ``blocks``: ``_eigh``, ``_svd`` and ``_reduced_q``
    call numpy's LAPACK gufuncs directly (``solvers`` imports the first
    two); they must give what ``np.linalg.eigh``, the thin
    ``np.linalg.svd`` and the reduced ``np.linalg.qr`` give, bit for bit,
    dtype and errors included.  ``_gram`` must give the plain product."""

    @staticmethod
    def _stack(rng, dtype, *shape):
        a = rng.standard_normal(shape)
        if np.issubdtype(dtype, np.complexfloating):
            a = a + 1j * rng.standard_normal(shape)
        if np.issubdtype(dtype, np.integer):
            a = np.round(4 * a)
        return a.astype(dtype)

    @pytest.mark.parametrize("dtype", LAPACK_TYPES)
    def test_eigh_is_numpys(self, dtype):
        rng = np.random.default_rng(31)
        for r in range(1, 9):
            a = self._stack(rng, dtype, 3, 2, r, r)
            g = a + a.conj().mT  # Hermitian, in the input's own type
            _same_outcome(lambda: solvers._eigh(g), lambda: np.linalg.eigh(g))
            # a non-contiguous view, and a stack of Grams as the solver makes
            _same_outcome(lambda: solvers._eigh(g.mT), lambda: np.linalg.eigh(g.mT))
            gram = a.conj().mT @ a
            _same_outcome(lambda: solvers._eigh(gram), lambda: np.linalg.eigh(gram))
            if not np.issubdtype(dtype, np.integer):
                bad = g.copy()
                bad[1, 0] = np.nan
                _same_outcome(lambda: solvers._eigh(bad), lambda: np.linalg.eigh(bad))

    @pytest.mark.parametrize("dtype", LAPACK_TYPES)
    def test_thin_svd_is_numpys(self, dtype):
        rng = np.random.default_rng(32)
        thin = lambda a: np.linalg.svd(a, full_matrices=False)  # noqa: E731
        for r in range(1, 9):
            for n in (r, r + 3):
                a = self._stack(rng, dtype, 3, 2, n, r)
                a[2, 1, :, r // 2:] = 0  # rank deficient, as sparse iterates make
                _same_outcome(lambda: solvers._svd(a), lambda: thin(a))
                _same_outcome(lambda: solvers._svd(a[:, ::-1]), lambda: thin(a[:, ::-1]))
                if not np.issubdtype(dtype, np.integer):
                    bad = a.copy()
                    bad[0, 1] = np.nan
                    _same_outcome(lambda: solvers._svd(bad), lambda: thin(bad))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_reduced_q_is_numpys(self, dtype):
        rng = np.random.default_rng(35)
        for n, m in [(1, 1), (4, 4), (9, 3), (32, 10)]:
            a = self._stack(rng, dtype, 5, n, m)
            bad = a.copy()
            bad[2, n // 2, m // 2] = np.nan
            for x in (a, bad):
                factored = x.copy()  # R is left on and above its diagonal
                _same_outcome(lambda: (blocks._reduced_q(factored), np.triu(factored[:, :m])),
                              lambda: tuple(np.linalg.qr(x, mode="reduced")))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_gram_is_the_plain_product(self, field):
        rng = np.random.default_rng(36)
        for n in range(1, 10):
            for r in range(1, 9):
                s = RepresentationStructure(((n, r), (n, r), (1, 1)), field)
                for t in (1, 3, 36, 200):
                    rows = self._stack(rng, s.dtype, t, s.ambient_dim)
                    bases = self._stack(rng, s.dtype, t, n, r)
                    # the group stacks of a trial stack, a signal's blocks,
                    # and 2-D and stacked bases in C and Fortran order
                    for x in (*blocks.group_stacks(rows, s), *decompose(rows[0], s).matrices,
                              bases, bases[0], np.asfortranarray(bases[0]),
                              np.ascontiguousarray(bases.mT).mT):
                        want = x.conj().mT @ x
                        got = blocks._gram(x)
                        assert got.dtype == want.dtype and got.shape == want.shape
                        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_gram_of_a_stack_is_the_gram_of_each_matrix(self, field):
        # from 16 rows the plain product of a real matrix (numpy's syrk)
        # leaves the bits of the C-order product; _gram takes the same
        # path for one matrix as for a stack
        rng = np.random.default_rng(37)
        for n in (16, 17, 33):
            for r in (2, 3, 4, 8):
                rows = self._stack(rng, np.complex128 if field == "complex" else np.float64,
                                   3, 2 * n * r)
                s = RepresentationStructure(((n, r), (n, r)), field)
                x = blocks.group_stacks(rows, s)[0]
                g = blocks._gram(x)
                for t in range(3):
                    for j in range(2):
                        assert np.array_equal(g[t, j].view(np.int64),
                                              blocks._gram(x[t, j]).view(np.int64))

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.float64, np.complex128])
    def test_public_projectors_keep_the_wrappers_dtype_and_bits(self, dtype, monkeypatch):
        # single-precision input is computed in double and cast back, as
        # numpy's wrappers do; a helper that skipped the cast returned
        # float64 (complex128) here, with other last bits
        rng = np.random.default_rng(33)
        cases = []
        for rank in (3, 1):  # full rank takes the eigendecomposition, rank 1 the SVD
            b = self._stack(rng, dtype, rank, 3)
            g = b.conj().T @ b
            cases.append(((g + g.conj().T) / 2, self._stack(rng, dtype, 6, 3)))
        cases.append((cases[0][0], cases[0][1][:, :1] @ np.ones((1, 3), dtype)))

        def run():
            out = [matrix_sqrt_psd(np.stack([g for g, _ in cases]))]
            out += [procrustes_project(g, x) for g, x in cases]
            return out

        ours = run()
        _numpy_wrappers(monkeypatch)
        _same_outcome(lambda: ours, run)


class TestContiguousProducts:
    """``blocks._gram`` and ``solvers._psd_root`` multiply real stacks in
    C order (the rule of ``blocks._matmul``), which numpy's matmul takes
    down another BLAS path than transposed memory; up to 9 rows the
    products must keep every bit of the plain ``@`` on the ``.mT`` views."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("stack", [(1, 1), (2, 3), (512, 1)])
    def test_gram_and_root_equal_the_view_products(self, field, stack):
        rng = np.random.default_rng(34)
        for n in range(1, 10):
            for r in range(1, 9):
                x = rng.standard_normal((*stack, n, r))
                if field == "complex":
                    x = x + 1j * rng.standard_normal(x.shape)
                # each matrix in C order, and transposed in memory as
                # blocks.group_stacks lays out blocks
                for x in (x, np.ascontiguousarray(x.mT).mT):
                    g = solvers._gram(x)
                    assert np.array_equal(g.view(np.int64), (x.conj().mT @ x).view(np.int64))
                    w, v = np.linalg.eigh((g + g.conj().mT) / 2.0)
                    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().mT
                    assert np.array_equal(solvers._psd_root(g)[0].view(np.int64),
                                          root.view(np.int64))


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


def _draw(rng, field, *shape):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if field == "complex" else a


def _with_singular_values(rng, field, n, r, s):
    """An ``n x r`` matrix with singular values ``s`` and random singular vectors."""
    u = np.linalg.qr(_draw(rng, field, n, r))[0]
    v = np.linalg.qr(_draw(rng, field, r, r))[0]
    return (u * s) @ v.conj().T


def _gram_error(y, g):
    return np.max(np.abs(y.conj().T @ y - g)) / max(1.0, np.abs(g).max())


class TestPolarProjection:
    """The measurement projector against an SVD oracle that shares no code
    with the package: ``Q`` from the eigendecomposition of ``A* A`` on
    well-conditioned blocks, the thin SVD on rank-deficient ones, and the
    closed form for one column."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_eigh_polar_matches_the_svd_oracle(self, field):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(400):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(2, n + 1))
            # condition numbers at most 3 and 2, so A = xt S is far from
            # the threshold and takes the eigendecomposition
            xt = _with_singular_values(rng, field, n, r, rng.uniform(1.0, 3.0, r))
            b = _with_singular_values(rng, field, r, r, rng.uniform(1.0, 2.0, r))
            g = b.conj().T @ b
            y = procrustes_project(g, xt)
            oracle = svd_procrustes(g, xt)
            worst = max(worst, np.linalg.norm(y - oracle) / np.linalg.norm(oracle))
            assert _gram_error(y, g) < 1e-13
        assert worst < 1e-13

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rank_deficient_blocks_keep_the_gram_exact(self, field):
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(2, n + 1))
            rank = int(rng.integers(0, r))
            b = _draw(rng, field, rank, r) if rank else np.zeros((1, r))
            xt = _draw(rng, field, n, r)
            if rng.random() < 0.5:  # a rank-deficient block as well, or instead
                xt[:, int(rng.integers(r))] = 0.0
                if rng.random() < 0.5:
                    b = _draw(rng, field, r, r)
            g = b.conj().T @ b
            y = procrustes_project(g, xt)
            assert _gram_error(y, g) < 1e-12
            # optimal: no farther from xt than the oracle's choice
            oracle = svd_procrustes(g, xt)
            assert np.linalg.norm(y - xt) <= np.linalg.norm(oracle - xt) * (1 + 1e-12) + 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("c", [1e-150, 1e150])
    def test_extreme_scales_keep_the_gram_exact(self, field, c):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(1, n + 1))
            b, xt = _draw(rng, field, r, r), _draw(rng, field, n, r)
            g = (c * b).conj().T @ (c * b)
            y = procrustes_project(g, c * xt)
            assert np.max(np.abs(y.conj().T @ y - g)) < 1e-12 * np.abs(g).max()
            unscaled = procrustes_project(b.conj().T @ b, xt)
            np.testing.assert_allclose(y / c, unscaled, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_one_column_closed_form(self, field):
        rng = np.random.default_rng(24)
        dtype = complex if field == "complex" else float
        for n in (1, 2, 5):
            y = procrustes_project(np.array([[4.0]]), np.zeros((n, 1), dtype=dtype))
            # a zero column maps to sqrt(g) e_1
            np.testing.assert_array_equal(y, 2.0 * np.eye(n, 1))
            x = _draw(rng, field, n, 1)
            y = procrustes_project(np.array([[9.0]]), x)
            np.testing.assert_allclose(y, 3.0 * x / np.linalg.norm(x), rtol=1e-15)
            # exact powers of two do not change the direction by a bit
            for k in (-1000, 1000):
                np.testing.assert_array_equal(
                    procrustes_project(np.array([[9.0]]), x * np.ldexp(1.0, k)), y
                )


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

    @pytest.mark.parametrize("spec", [
        (((8, 4),), "real"),
        (((8, 4), (3, 2), (1, 1)), "real"),
        (((8, 4), (3, 2)), "complex"),
    ])
    def test_solver_oracle_error_is_rho_over_the_truth_norm(self, spec):
        # one distance: the oracle error a solve reports is bitwise rho of
        # its estimate and the truth, over the truth's norm
        blocks, field = spec
        s = RepresentationStructure(blocks, field)
        config = SolverConfig(max_iters=60)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            prior = random_subspace_prior(s, 3, rng)
            truth = decompose(prior.basis @ rng.standard_normal(3), s)
            report = solve(gram_tuple(truth), prior, config,
                           init=random_signal(s, rng), truth=truth)
            scale = frobenius_norms([reconstruct(truth)[None]])[0]
            assert report.oracle_error == rho(report.estimate, truth) / scale


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

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"tol": float("nan")}, "tol must be a finite positive number, got nan"),
            ({"tol": float("inf")}, "tol must be a finite positive number, got inf"),
            ({"tol": True}, "tol must be a finite positive number, got True"),
            ({"tol": "5"}, "tol must be a finite positive number, got '5'"),
            ({"max_iters": 10.5}, "max_iters must be a whole number >= 1, got 10.5"),
            ({"max_iters": True}, "max_iters must be a whole number >= 1, got True"),
            ({"max_iters": "5"}, "max_iters must be a whole number >= 1, got '5'"),
            ({"max_iters": float("nan")}, "max_iters must be a whole number >= 1, got nan"),
            ({"max_iters": float("inf")}, "max_iters must be a whole number >= 1, got inf"),
        ],
    )
    def test_config_refuses_what_no_solve_can_run(self, kwargs, match):
        # a NaN tolerance once ran every row to the cap without saying why,
        # and a fractional cap failed inside the solve with a bare TypeError
        with pytest.raises(ValueError, match=re.escape(match)):
            SolverConfig(**kwargs)

    def test_whole_float_and_numpy_caps_become_ints(self):
        for cap in (5.0, np.int64(5), np.float32(5.0)):
            max_iters = SolverConfig(max_iters=cap).max_iters
            assert type(max_iters) is int and max_iters == 5
        assert SolverConfig(tol=np.float32(1e-3)).tol == np.float32(1e-3)

    def test_solve_leaves_the_errstate_as_it_found_it(self):
        # the iteration loop enters one errstate of its own; it must be
        # undone on return and when the solve raises
        s = RepresentationStructure(((8, 4), (3, 2)))
        rng = np.random.default_rng(3)
        prior = random_subspace_prior(s, 3, rng)
        truth = decompose(prior.basis @ rng.standard_normal(3), s)
        bad = reconstruct(random_signal(s, rng))
        bad[5] = np.nan
        handler = lambda err, flag: None  # noqa: E731
        with np.errstate(over="raise", under="warn", divide="ignore", call=handler):
            before = np.geterr(), np.geterrcall()
            for algorithm in ("alternating_projection", "rrr"):
                solve(gram_tuple(truth), prior, SolverConfig(algorithm=algorithm, max_iters=30),
                      truth=truth)
                assert (np.geterr(), np.geterrcall()) == before
                with pytest.raises(FloatingPointError, match="entering iteration 0"):
                    solve(gram_tuple(truth), prior, SolverConfig(algorithm=algorithm),
                          init=decompose(bad, s))
                assert (np.geterr(), np.geterrcall()) == before


def _batch_instances(field, kind, rows, seed, k=3):
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
            basis = np.linalg.qr(draw(d, k))[0]
            prior, truth = LinearSubspacePrior(basis), basis @ draw(k)
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

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_mixed_prior_types_and_shapes_equal_single_solves(self, field):
        rows = _batch_instances(field, "subspace", 3, seed=5)
        rows += _batch_instances(field, "subspace", 3, seed=6, k=5)
        rows += _batch_instances(field, "sparsity", 3, seed=7)
        rows += _batch_instances(field, "support", 3, seed=8)
        if field == "complex":  # a real basis stacks apart from the complex ones
            m, prior, init, truth = _batch_instances(field, "subspace", 1, seed=9)[0]
            real = random_subspace_prior(
                RepresentationStructure(m.structure.blocks), 3, np.random.default_rng(9))
            t = decompose(real.basis @ np.array([1.0, -0.5, 2.0]) + 0j, m.structure)
            rows.append((gram_tuple(t), real, init, t))
        order = np.random.default_rng(1).permutation(len(rows))
        rows = [rows[j] for j in order]
        for config in (SolverConfig(max_iters=150),
                       SolverConfig(algorithm="rrr", max_iters=150, stop_on="oracle")):
            singles = [solve(m, p, config, init=i, truth=t) for m, p, i, t in rows]
            measured, priors, inits, truths = zip(*rows)
            for report, single in zip(solve_batch(measured, priors, config, inits, truths),
                                      singles):
                _assert_same_report(report, single)

    def test_rows_on_blocks_of_16_or_more_rows_equal_single_solves(self):
        # such blocks once took numpy's syrk for one row and the C-order
        # product for a stack, whose sums differ
        s = RepresentationStructure(((20, 3), (17, 2)))
        rng = np.random.default_rng(13)
        rows = []
        for _ in range(4):
            prior = random_subspace_prior(s, 6, rng)
            t = decompose(prior.basis @ rng.standard_normal(6), s)
            rows.append((gram_tuple(t), prior, random_signal(s, rng), t))
        for config in (SolverConfig(max_iters=60), SolverConfig(algorithm="rrr", max_iters=60)):
            measured, priors, inits, truths = zip(*rows)
            batched = solve_batch(measured, priors, config, inits, truths)
            for (m, p, i, t), report in zip(rows, batched):
                _assert_same_report(report, solve(m, p, config, init=i, truth=t))

    def test_rows_on_one_column_blocks_equal_single_solves(self):
        s = RepresentationStructure(((1, 1), (2, 1), (2, 1), (3, 2), (1, 1), (2, 1)))
        rng = np.random.default_rng(12)
        rows = []
        for _ in range(6):
            prior = random_subspace_prior(s, 3, rng)
            t = decompose(prior.basis @ rng.standard_normal(3), s)
            rows.append((gram_tuple(t), prior, random_signal(s, rng), t))
        config = SolverConfig(max_iters=200)
        measured, priors, inits, truths = zip(*rows)
        batched = solve_batch(measured, priors, config, inits, truths)
        for (m, p, i, t), report in zip(rows, batched):
            _assert_same_report(report, solve(m, p, config, init=i, truth=t))
        assert len({r.iterations_used for r in batched}) > 1


class TestScaleRobustness:
    def test_norms_match_the_plain_formula_in_range_and_scale_outside(self):
        rng = np.random.default_rng(9)
        eps = np.finfo(float).eps
        for _ in range(2000):
            mats = [
                rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-8, 8),
                rng.standard_normal((2, 3)),
            ]
            if rng.random() < 0.5:
                mats = [m + 1j * rng.standard_normal(m.shape) for m in mats]
            plain = np.sqrt(sum(np.linalg.norm(m) ** 2 for m in mats))
            entries = np.concatenate([m.ravel() for m in mats])
            exact = math.sqrt(math.fsum((np.abs(entries) ** 2).tolist()))
            norm = frobenius_norms([m[None] for m in mats])[0]
            assert abs(norm / exact - 1.0) <= entries.size * eps
            assert frobenius_norms([mats[0][None]])[0] == np.linalg.norm(mats[0])
            for c in (1e-200, 1e200):
                scaled = frobenius_norms([c * m[None] for m in mats])[0]
                assert abs(scaled / (c * plain) - 1.0) < 1e-14

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_each_row_norm_is_independent_of_its_stack(self, field):
        # the solver stacks rows of different instances, and a row's
        # residual and oracle error must not depend on its neighbours
        rng = np.random.default_rng(13)
        s = RepresentationStructure(((2, 1), (1, 1), (3, 2), (2, 1), (3, 2), (1, 1), (2, 1)))

        def draw(*shape):
            a = rng.standard_normal(shape)
            return a + 1j * rng.standard_normal(shape) if field == "complex" else a

        for rows in (1, 5, 60):
            for c in (1.0, 1e-170, 1e170):
                # rows at 1, c and 1 / c in turn: rows that need the
                # power-of-two rescue sit among rows that do not, and
                # among rows rescued with a far other scale
                size = np.array([1.0, c, 1.0 / c])[np.arange(rows) % 3]
                size = size * 10.0 ** rng.uniform(-3, 3, rows)
                groups = [(rows, len(idx), n, r) for (n, r), idx in s.shape_groups]
                for shapes in ([(rows, s.ambient_dim)], groups):
                    stacks = [size.reshape(-1, *[1] * (len(sh) - 1)) * draw(*sh)
                              for sh in shapes]
                    stacked = frobenius_norms(stacks)
                    for t in range(rows):
                        assert stacked[t] == frobenius_norms([a[t : t + 1] for a in stacks])[0]

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
