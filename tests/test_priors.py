import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramphase import (
    LinearSubspacePrior,
    RankDeficiencyError,
    RepresentationStructure,
    SparsityPrior,
    SolverConfig,
    SupportPrior,
    gram_tuple,
    project_prior,
    random_signal,
    random_subspace_prior,
    solve,
)
from gramphase.priors import _check_orthonormal, _subspace_stack, stack_priors
from tests._oracles import brute_sparse_project

vectors = st.integers(0, 2**32 - 1).map(
    lambda seed: np.random.default_rng(seed).standard_normal(8)
)


class TestExamples:
    def test_support(self):
        p = SupportPrior(np.array([True, True, False, False]))
        np.testing.assert_array_equal(
            project_prior(np.array([1.0, 2.0, 3.0, 4.0]), p), [1.0, 2.0, 0.0, 0.0]
        )

    def test_sparsity_keeps_largest_magnitude(self):
        p = SparsityPrior(1)
        np.testing.assert_array_equal(
            project_prior(np.array([3.0, -5.0, 1.0]), p), [0.0, -5.0, 0.0]
        )

    def test_subspace_coordinate_projection(self):
        p = LinearSubspacePrior(np.eye(4)[:, :2])
        np.testing.assert_array_equal(
            project_prior(np.array([1.0, 2.0, 3.0, 4.0]), p), [1.0, 2.0, 0.0, 0.0]
        )


class TestProjectorContracts:
    @given(vectors, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_sparsity_idempotent_and_optimal(self, v, k):
        p = SparsityPrior(k)
        out = project_prior(v, p)
        assert np.count_nonzero(out) <= k
        np.testing.assert_array_equal(project_prior(out, p), out)
        if k <= 3:
            best = brute_sparse_project(v, k)
            assert np.linalg.norm(v - out) <= np.linalg.norm(v - best) + 1e-12

    def test_sparsity_tie_break_lowest_index(self):
        out = project_prior(np.array([1.0, -1.0, 1.0]), SparsityPrior(2))
        np.testing.assert_array_equal(out, [1.0, -1.0, 0.0])

    @given(vectors)
    @settings(max_examples=30, deadline=None)
    def test_support_and_subspace_idempotent_nonexpanding(self, v):
        rng = np.random.default_rng(0)
        mask = np.zeros(8, dtype=bool)
        mask[:3] = True
        basis = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        for p in (SupportPrior(mask), LinearSubspacePrior(basis)):
            out = project_prior(v, p)
            assert np.linalg.norm(project_prior(out, p) - out) < 1e-12
            assert np.linalg.norm(out) <= np.linalg.norm(v) + 1e-12

    def test_subspace_projector_symmetric(self):
        basis = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 2)))[0]
        p = LinearSubspacePrior(basis)
        mat = np.stack([project_prior(e, p) for e in np.eye(6)], axis=1)
        assert np.max(np.abs(mat - mat.T)) < 1e-12
        assert np.max(np.abs(mat @ mat - mat)) < 1e-12

    def test_orthonormal_dictionary_projection(self):
        rng = np.random.default_rng(2)
        d = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        v = rng.standard_normal(6)
        out = project_prior(v, SparsityPrior(2, dictionary=d))
        # brute force over coefficient supports
        coeffs = d.T @ v
        best = np.inf
        for i in range(6):
            for j in range(i + 1, 6):
                c = np.zeros(6)
                c[[i, j]] = coeffs[[i, j]]
                best = min(best, np.linalg.norm(v - d @ c))
        assert abs(np.linalg.norm(v - out) - best) < 1e-12

    def test_general_dictionary_rejected(self):
        d = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="orthonormal"):
            SparsityPrior(1, dictionary=d)

    def test_validation(self):
        with pytest.raises(ValueError):
            SupportPrior(np.zeros(3, dtype=bool))
        with pytest.raises(ValueError):
            SparsityPrior(0)
        with pytest.raises(ValueError, match="orthonormal"):
            LinearSubspacePrior(np.ones((4, 2)))
        with pytest.raises(ValueError, match="orthonormal"):  # NaN deviation
            LinearSubspacePrior(np.array([[np.nan], [0.0]]))
        p = LinearSubspacePrior(np.eye(4)[:, :1])
        with pytest.raises(Exception, match="3"):
            project_prior(np.zeros(3), p)

    def test_an_object_of_another_type_is_refused(self):
        # a duck-typed projector does not stand in for the three prior types
        class Halving:
            def project(self, v):
                return v / 2

        s = RepresentationStructure(((2, 1),))
        measured = gram_tuple(random_signal(s, np.random.default_rng(0)))
        with pytest.raises(TypeError, match="unknown prior type Halving"):
            project_prior(np.ones(2), Halving())
        with pytest.raises(TypeError, match="unknown prior type Halving"):
            solve(measured, Halving(), SolverConfig(max_iters=5))

    @pytest.mark.parametrize("k", [2.5, float("nan"), float("inf"), True, np.True_, "3"],
                             ids=["fraction", "nan", "inf", "bool", "numpy-bool", "string"])
    def test_sparsity_level_must_be_whole(self, k):
        with pytest.raises(ValueError, match=f"sparsity level k must be a whole number .*got .*{k}"):
            SparsityPrior(k)

    @pytest.mark.parametrize("k", [3, 3.0, np.int64(3), np.float32(3.0)])
    def test_integral_sparsity_levels_are_kept(self, k):
        p = SparsityPrior(k)
        assert p.k == 3 and type(p.k) is int
        np.testing.assert_array_equal(
            project_prior(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), p), [5.0, 4.0, 3.0, 0.0, 0.0]
        )


def _orthonormal(rng, dim, m, field="real"):
    a = rng.standard_normal((dim, m))
    if field == "complex":
        a = a + 1j * rng.standard_normal((dim, m))
    return np.linalg.qr(a)[0]


class TestSingleVectorPath:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: LinearSubspacePrior(_orthonormal(rng, 9, 4)),
            lambda rng: LinearSubspacePrior(np.asfortranarray(_orthonormal(rng, 9, 4))),
            lambda rng: LinearSubspacePrior(_orthonormal(rng, 9, 4, "complex")),
            lambda rng: SparsityPrior(3),
            lambda rng: SparsityPrior(3, dictionary=np.asfortranarray(_orthonormal(rng, 9, 9))),
            lambda rng: SupportPrior(rng.random(9) < 0.5),
        ],
        ids=["subspace", "subspace-fortran", "subspace-complex", "sparsity",
             "sparsity-dictionary-fortran", "support"],
    )
    def test_equals_its_stacked_row(self, make):
        rng = np.random.default_rng(12)
        priors = [make(rng) for _ in range(3)]
        real = rng.standard_normal((3, 9))
        for v in (real, real + 1j * rng.standard_normal((3, 9))):
            stacked = project_prior(v, stack_priors(priors))
            for t, p in enumerate(priors):
                assert np.array_equal(project_prior(v[t], p), stacked[t])


class TestRandomSubspace:
    def test_full_dimension_is_identity(self):
        s = RepresentationStructure(((3, 2),))
        p = random_subspace_prior(s, 6, np.random.default_rng(0))
        v = np.random.default_rng(1).standard_normal(6)
        assert np.linalg.norm(project_prior(v, p) - v) < 1e-12

    def test_deterministic_and_orthonormal(self):
        s = RepresentationStructure(((8, 4),), "complex")
        a = random_subspace_prior(s, 5, np.random.default_rng(3))
        b = random_subspace_prior(s, 5, np.random.default_rng(3))
        np.testing.assert_array_equal(a.basis, b.basis)
        gram = a.basis.conj().T @ a.basis
        assert np.max(np.abs(gram - np.eye(5))) < 1e-10

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stacked_qr_rows_are_numpys(self, field):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 12, 3))
        if field == "complex":
            a = a + 1j * rng.standard_normal((5, 12, 3))
        stack = _subspace_stack(a.copy())
        assert stack.kind is LinearSubspacePrior and stack.dim == 12
        for row, b in zip(stack.basis, a):
            assert row.tobytes() == np.linalg.qr(b)[0].tobytes()

    def test_rank_deficient_basis_in_a_stack_raises(self):
        a = np.random.default_rng(5).standard_normal((3, 6, 2))
        a[1, :, 1] = 2.0 * a[1, :, 0]
        with pytest.raises(RankDeficiencyError, match="rank deficient"):
            _subspace_stack(a)

    def test_one_basis_off_orthonormal_in_a_stack_is_refused(self):
        q = np.array([np.eye(4)[:, :2]] * 3)
        q[2, 0, 0] = 1.5
        with pytest.raises(ValueError, match=r"orthonormal columns \(max \|B\*B - I\| = 1\.250e\+00"):
            _check_orthonormal(q, "subspace basis")

    def test_bad_dimension(self):
        s = RepresentationStructure(((2, 2),))
        with pytest.raises(ValueError):
            random_subspace_prior(s, 5, np.random.default_rng(0))
