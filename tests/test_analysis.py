import numpy as np
import pytest
from scipy.linalg import sqrtm

from gramphase import (
    BlockSignal,
    GroupElement,
    IntractableGridError,
    LinearSubspacePrior,
    RepresentationStructure,
    apply,
    cyclic_structure,
    decompose,
    distortion_estimate,
    distortion_ratios,
    effective_dimension,
    full_ambiguity_action,
    haar_sample,
    intersecting_subspace_prior,
    random_signal,
    random_subspace_prior,
    reconstruct,
    sqrt_gram_map,
    transversality_check,
)
from gramphase.analysis import _brute_grid_max, _build_menus, _hull_grid_max, _rebased_subspace
from tests._oracles import brute_transversality_margin, fd_orbit_dimension


class TestEffectiveDimension:
    def test_cryo_em_style_structure(self):
        # odd-dimensional blocks 1, 3, 5 each with multiplicity 5
        s = RepresentationStructure(((1, 5), (3, 5), (5, 5)))
        k, kh = effective_dimension(s)
        assert kh == 0 + 3 + 10
        assert k == 45 - 13

    def test_single_tall_block(self):
        k, kh = effective_dimension(RepresentationStructure(((8, 4),)))
        assert (k, kh) == (10, 22)

    def test_scalar(self):
        assert effective_dimension(RepresentationStructure(((1, 1),))) == (1, 0)

    def test_complex_cyclic(self):
        s = cyclic_structure(16, "complex")
        k, kh = effective_dimension(s)
        assert kh == 16
        assert k == 16

    def test_full_orbit_binomial_sum(self):
        # whenever multiplicity >= block dimension the per-block orbit
        # dimension is the whole rotation group
        import math

        for bandlimit in (1, 2, 3):
            r = 2 * bandlimit + 1
            blocks = tuple((2 * l + 1, r) for l in range(bandlimit + 1))
            s = RepresentationStructure(blocks)
            _, kh = effective_dimension(s)
            assert kh == sum(math.comb(2 * l + 1, 2) for l in range(bandlimit + 1))

    @pytest.mark.parametrize(
        "blocks,field",
        [
            (((1, 1),), "real"),
            (((2, 1),), "real"),
            (((3, 2), (2, 2)), "real"),
            (((8, 4),), "real"),
            (((2, 1), (1, 2)), "complex"),
        ],
    )
    def test_matches_finite_difference_rank(self, blocks, field):
        s = RepresentationStructure(blocks, field)
        _, kh = effective_dimension(s)
        assert kh == fd_orbit_dimension(s, np.random.default_rng(0))


class TestSqrtGramMap:
    def test_orthonormal_columns(self):
        s = RepresentationStructure(((3, 2),))
        x = BlockSignal(s, (np.linalg.qr(np.random.default_rng(0).standard_normal((3, 2)))[0],))
        np.testing.assert_allclose(sqrt_gram_map(x)[0], np.eye(2), atol=1e-12)

    def test_embedded_diagonal(self):
        s = RepresentationStructure(((3, 2),))
        x = BlockSignal(s, (np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]]),))
        np.testing.assert_allclose(sqrt_gram_map(x)[0], np.diag([2.0, 3.0]), atol=1e-12)

    def test_invariance(self):
        s = RepresentationStructure(((4, 2), (2, 1)))
        rng = np.random.default_rng(1)
        x = random_signal(s, rng)
        g = haar_sample(full_ambiguity_action(s), rng)
        for a, b in zip(sqrt_gram_map(apply(g, x)), sqrt_gram_map(x)):
            assert np.max(np.abs(a - b)) < 1e-10


class TestGridEngines:
    @pytest.mark.parametrize("n,seed", [(6, 0), (6, 1), (8, 2)])
    def test_hull_engine_matches_brute_enumeration(self, n, seed):
        s = cyclic_structure(n, "real")
        rng = np.random.default_rng(seed)
        prior = random_subspace_prior(s, 2, rng)
        x_amb = prior.basis @ rng.standard_normal(2)
        x_amb /= np.linalg.norm(x_amb)
        res = 32
        tau = 1.0 - 0.5**2 / 2.0
        basis = _rebased_subspace(prior.basis, x_amb)
        menus = _build_menus(decompose(x_amb, s), basis, res)
        fb, _ = _brute_grid_max(menus, tau)
        fh, _ = _hull_grid_max(menus, tau, 65536, 4_200_000)
        assert abs(fb - fh) < 1e-12
        # and both agree with the fully independent enumeration oracle
        oracle = brute_transversality_margin(s, prior.basis, x_amb, res, 0.5)
        assert abs(np.sqrt(max(1.0 - fb, 0.0)) - oracle) < 1e-10

    def test_check_against_oracle_margins(self):
        s = RepresentationStructure(((1, 1), (2, 1), (2, 1)))
        rng = np.random.default_rng(3)
        prior = random_subspace_prior(s, 2, rng)
        pts_rng = np.random.default_rng(4)
        pts = [prior.basis @ pts_rng.standard_normal(2) for _ in range(3)]
        report = transversality_check(s, prior, 3, 16, pts_rng, points=pts)
        for margin, p in zip(report.point_margins, pts):
            oracle = brute_transversality_margin(
                s, prior.basis, p / np.linalg.norm(p), 16, 0.5
            )
            assert abs(margin - oracle) < 1e-10


class TestTransversalityCheck:
    def test_designed_intersection_reports_violation(self):
        s = cyclic_structure(8, "real")
        rng = np.random.default_rng(3)
        x = random_signal(s, rng)
        x_amb = reconstruct(x) / x.norm()
        mats = [np.eye(n) for n, _ in s.blocks]
        mats[1] = np.array([[0.0, -1.0], [1.0, 0.0]])  # grid rotation, pi/2
        h0 = GroupElement(tuple(mats))
        prior = intersecting_subspace_prior(decompose(x_amb, s), h0)
        report = transversality_check(s, prior, 1, 256, rng, points=[x_amb])
        assert len(report.violations) == 1
        assert report.worst_margin < 1e-6
        # the planted element is what gets reported
        assert report.violations[0].description[1] == ("rotation", 64)

    def test_compliant_configuration_clean(self):
        # ambient dimension 8 with a 2-dim subspace: every-point uniqueness regime
        s = cyclic_structure(8, "real")
        rng = np.random.default_rng(11)
        prior = random_subspace_prior(s, 2, rng)
        report = transversality_check(s, prior, 3, 512, rng)
        assert report.worst_margin > report.threshold
        assert report.violations == ()
        assert report.k_effective == effective_dimension(s)[0]

    def test_sign_only_structure_margin_is_inf(self):
        s = RepresentationStructure(((1, 1),))
        prior = LinearSubspacePrior(np.array([[1.0]]))
        report = transversality_check(s, prior, 3, 16, np.random.default_rng(0))
        assert report.worst_margin == np.inf
        assert report.violations == ()

    def test_guards(self):
        s = RepresentationStructure(((3, 1),))
        prior = LinearSubspacePrior(np.eye(3)[:, :1])
        with pytest.raises(IntractableGridError):
            transversality_check(s, prior, 1, 16, np.random.default_rng(0))
        s2 = cyclic_structure(4, "complex")
        p2 = LinearSubspacePrior(np.eye(4, dtype=complex)[:, :1])
        with pytest.raises(ValueError, match="real"):
            transversality_check(s2, p2, 1, 16, np.random.default_rng(0))
        s3 = cyclic_structure(8, "real")
        with pytest.raises(TypeError, match="linear subspace"):
            transversality_check(
                s3,
                np.eye(8),
                1,
                16,
                np.random.default_rng(0),
            )


class TestDistortion:
    def test_scalar_ratio_is_one(self):
        s = RepresentationStructure(((1, 1),))
        prior = LinearSubspacePrior(np.array([[1.0]]))
        with pytest.warns(UserWarning, match="injective"):
            report = distortion_estimate(s, prior, 2000, np.random.default_rng(0))
        assert abs(report.alpha_lower - 1.0) < 1e-12
        assert abs(report.beta_upper - 1.0) < 1e-12

    def test_sign_flipped_pairs_skipped(self):
        s = RepresentationStructure(((4, 2),))
        x = reconstruct(random_signal(s, np.random.default_rng(1)))
        ratios, used = distortion_ratios(x[None, :], -x[None, :], s)
        assert ratios.size == 0
        assert not used[0]

    def test_phase_rotated_complex_pairs_skipped(self):
        s = RepresentationStructure(((8, 4), (3, 2)), "complex")
        rng = np.random.default_rng(12)
        x = np.stack([reconstruct(random_signal(s, rng)) for _ in range(200)])
        phases = np.exp(2j * np.pi * rng.random(200))
        ratios, used = distortion_ratios(x, phases[:, None] * x, s)
        assert ratios.size == 0
        assert not used.any()

    def test_local_complex_pairs_match_phase_aligned_reference(self):
        s = RepresentationStructure(((8, 4), (3, 2)), "complex")
        rng = np.random.default_rng(13)
        basis = random_subspace_prior(s, 3, rng).basis

        def coeffs(count):
            return rng.standard_normal((count, 3)) + 1j * rng.standard_normal((count, 3))

        base = coeffs(400)
        x = base @ basis.T
        y = (base + 1e-3 * coeffs(400)) @ basis.T
        ratios, used = distortion_ratios(x, y, s)
        assert used.all()

        def sqrt_grams(v):
            return [sqrtm(m.conj().T @ m) for m in decompose(v, s).matrices]

        reference, sign_only = [], []
        for a, b in zip(x, y):
            num = np.sqrt(sum(
                np.linalg.norm(p - q) ** 2 for p, q in zip(sqrt_grams(a), sqrt_grams(b))
            ))
            aligned = np.exp(1j * np.angle(np.vdot(b, a))) * b
            reference.append(num / np.linalg.norm(a - aligned))
            sign_only.append(num / min(np.linalg.norm(a - b), np.linalg.norm(a + b)))
        np.testing.assert_allclose(ratios, reference, rtol=1e-6)
        assert abs(ratios.min() / min(reference) - 1.0) < 1e-6
        # the sign-only distance would put the lower bound well below
        assert min(sign_only) < 0.8 * min(reference)

    def test_ratios_invariant_under_sign_and_group(self):
        s = RepresentationStructure(((8, 4),))
        rng = np.random.default_rng(2)
        x = reconstruct(random_signal(s, rng))
        y = reconstruct(random_signal(s, rng))
        base, _ = distortion_ratios(x[None], y[None], s)
        flip, _ = distortion_ratios(-x[None], y[None], s)
        g = haar_sample(full_ambiguity_action(s), rng)
        gx = reconstruct(apply(g, decompose(x, s)))
        gy = reconstruct(apply(g, decompose(y, s)))
        moved, _ = distortion_ratios(gx[None], gy[None], s)
        assert abs(base[0] - flip[0]) < 1e-10
        assert abs(base[0] - moved[0]) < 1e-10

    def test_positive_bounds_in_injective_regime(self):
        s = RepresentationStructure(((8, 4),))
        prior = random_subspace_prior(s, 4, np.random.default_rng(3))
        report = distortion_estimate(s, prior, 5000, np.random.default_rng(4))
        assert 0.0 < report.alpha_lower <= report.beta_upper < np.inf
        assert report.histogram_counts.sum() == report.pairs_sampled

    def test_warns_outside_regime(self):
        s = RepresentationStructure(((2, 2),))  # effective dimension 7
        prior = random_subspace_prior(s, 4, np.random.default_rng(5))
        with pytest.warns(UserWarning):
            distortion_estimate(s, prior, 100, np.random.default_rng(6))
