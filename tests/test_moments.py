import numpy as np
import pytest

from gramphase import (
    BlockSignal,
    GramTuple,
    RepresentationStructure,
    analytic_second_moment,
    apply,
    cyclic_action,
    cyclic_shift_element,
    decompose_cyclic,
    empirical_second_moment,
    extract_gram,
    full_ambiguity_action,
    gram_tuple,
    haar_sample,
    random_signal,
    reconstruct,
    sample_observations,
)
from gramphase.moments import MraSampleSet
from tests._oracles import cyclic_average_outer


class TestGramTuple:
    def test_orthonormal_columns_give_identity(self):
        s = RepresentationStructure(((2, 2),))
        g = gram_tuple(BlockSignal(s, (np.eye(2),)))
        np.testing.assert_allclose(g.grams[0], np.eye(2), atol=0)

    def test_direct_multiplication(self):
        s = RepresentationStructure(((2, 2),))
        x = BlockSignal(s, (np.array([[1.0, 2.0], [0.0, 1.0]]),))
        np.testing.assert_allclose(gram_tuple(x).grams[0], [[1.0, 2.0], [2.0, 5.0]])

    def test_complex_cyclic_is_power_spectrum(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        sig = decompose_cyclic(x)
        spectrum = np.abs(np.fft.fft(x) / np.sqrt(8)) ** 2
        for k, g in enumerate(gram_tuple(sig).grams):
            assert abs(g[0, 0] - spectrum[k]) < 1e-12

    def test_invariance_under_group(self):
        rng = np.random.default_rng(9)
        for s in (
            RepresentationStructure(((8, 4),)),
            RepresentationStructure(((3, 2), (2, 3)), "complex"),
        ):
            action = full_ambiguity_action(s)
            for _ in range(100):
                x = random_signal(s, rng)
                g = haar_sample(action, rng)
                ga = gram_tuple(apply(g, x))
                gb = gram_tuple(x)
                err = max(
                    np.max(np.abs(a - b)) for a, b in zip(ga.grams, gb.grams)
                )
                assert err < 1e-10 * max(x.norm() ** 2, 1.0)

    def test_rejects_non_psd(self):
        s = RepresentationStructure(((1, 2),))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            GramTuple(s, (np.array([[1.0, 2.0], [2.0, 1.0]]),))


class TestAnalyticMoment:
    def test_scalar(self):
        s = RepresentationStructure(((1, 1),), "complex")
        x = BlockSignal(s, (np.array([[1.0 + 2.0j]]),))
        m = analytic_second_moment(x)
        assert m.shape == (1, 1)
        assert abs(m[0, 0] - 5.0) < 1e-14

    def test_two_dim_single_copy(self):
        s = RepresentationStructure(((2, 1),))
        x = BlockSignal(s, (np.array([[1.0], [0.0]]),))
        np.testing.assert_allclose(analytic_second_moment(x), np.eye(2) / 2, atol=1e-15)

    @pytest.mark.parametrize("n,field", [(4, "complex"), (4, "real"), (5, "real"), (16, "complex")])
    def test_matches_exact_cyclic_average(self, n, field):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        if field == "complex":
            x = x + 1j * rng.standard_normal(n)
        sig = decompose_cyclic(x, field)
        action = cyclic_action(n, field)
        exact = cyclic_average_outer(sig, action, cyclic_shift_element)
        np.testing.assert_allclose(analytic_second_moment(sig), exact, atol=1e-12)

    def test_schur_block_structure(self):
        rng = np.random.default_rng(1)
        for s in (
            RepresentationStructure(((8, 4),)),
            RepresentationStructure(((1, 1), (4, 2))),
            RepresentationStructure(((3, 2), (2, 3)), "complex"),
        ):
            x = random_signal(s, rng)
            m = analytic_second_moment(x)
            scale = max(np.max(np.abs(m)), 1.0)
            for li, sli in enumerate(s.block_slices):
                for lj, slj in enumerate(s.block_slices):
                    if li != lj:
                        assert np.max(np.abs(m[sli, slj])) == 0.0
                n, r = s.blocks[li]
                sub = m[sli, sli].reshape(r, n, r, n)
                for i in range(r):
                    for j in range(r):
                        block = sub[i, :, j, :]
                        dev = block - np.eye(n) * block[0, 0]
                        assert np.max(np.abs(dev)) < 1e-12 * scale


class TestSampling:
    def test_noiseless_cyclic_shifts(self):
        n = 6
        rng = np.random.default_rng(0)
        x = rng.standard_normal(n)
        sig = decompose_cyclic(x)
        action = cyclic_action(n)
        samples = sample_observations(sig, action, 0.0, 20, seed=4)
        from gramphase import decompose, reconstruct_cyclic

        for row in samples.observations:
            t = reconstruct_cyclic(decompose(row, sig.structure))
            best = min(np.linalg.norm(t - np.roll(x, k)) for k in range(n))
            assert best < 1e-12

    def test_trivial_group(self):
        sig = decompose_cyclic(np.array([2.5]))
        samples = sample_observations(sig, cyclic_action(1), 0.0, 5, seed=1)
        np.testing.assert_allclose(samples.observations, 2.5 * np.ones((5, 1)), atol=1e-14)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_full_ambiguity_draw_is_haar_sample_on_the_same_stream(self, field):
        s = RepresentationStructure(((4, 2), (3, 3), (1, 2)), field)
        action = full_ambiguity_action(s)
        x = random_signal(s, np.random.default_rng(2))
        for seed in range(5):
            obs = sample_observations(x, action, 0.0, 1, seed).observations[0]
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            ref = reconstruct(apply(haar_sample(action, rng), x))
            assert np.max(np.abs(obs - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_deterministic(self):
        s = RepresentationStructure(((4, 2),))
        x = random_signal(s, np.random.default_rng(0))
        a = sample_observations(x, full_ambiguity_action(s), 0.3, 50, seed=8)
        b = sample_observations(x, full_ambiguity_action(s), 0.3, 50, seed=8)
        np.testing.assert_array_equal(a.observations, b.observations)

    def test_complex_noise_variance(self):
        s = RepresentationStructure(((2, 1),), "complex")
        x = BlockSignal(s, (np.zeros((2, 1), dtype=complex),))
        samples = sample_observations(x, full_ambiguity_action(s), 1.0, 20_000, seed=3)
        # each part has unit variance, so E|y_j|^2 == 2
        second = np.mean(np.abs(samples.observations) ** 2)
        assert abs(second - 2.0) < 0.05


class TestEmpiricalMoment:
    def test_enumerated_shifts_match_analytic(self):
        n = 5
        x = np.random.default_rng(2).standard_normal(n)
        sig = decompose_cyclic(x)
        action = cyclic_action(n)
        obs = np.stack(
            [
                reconstruct(apply(cyclic_shift_element(action, k), sig))
                for k in range(n)
            ]
        )
        samples = MraSampleSet(sig.structure, obs, 0.0, 0)
        np.testing.assert_allclose(
            empirical_second_moment(samples), analytic_second_moment(sig), atol=1e-12
        )

    def test_single_noiseless_sample(self):
        sig = decompose_cyclic(np.array([1.5 + 0.5j]), "complex")
        samples = sample_observations(sig, cyclic_action(1, "complex"), 0.0, 1, seed=0)
        y = samples.observations[0]
        np.testing.assert_allclose(
            empirical_second_moment(samples), np.outer(y, y.conj()), atol=1e-14
        )

    def test_debiasing_and_convergence(self):
        s = RepresentationStructure(((8, 4),))
        x = random_signal(s, np.random.default_rng(10))
        target = analytic_second_moment(x)
        action = full_ambiguity_action(s)
        errs = {100: [], 10_000: []}
        for seed in range(20):
            for n in errs:
                samples = sample_observations(x, action, 0.5, n, seed=seed)
                errs[n].append(
                    np.linalg.norm(empirical_second_moment(samples) - target)
                )
        assert np.median(errs[10_000]) < np.median(errs[100])


class TestExtractGram:
    def test_inverse_pair(self):
        s = RepresentationStructure(((8, 4),))
        for seed in range(5):
            x = random_signal(s, np.random.default_rng(seed))
            got = extract_gram(analytic_second_moment(x), s)
            want = gram_tuple(x)
            err = max(np.max(np.abs(a - b)) for a, b in zip(got.grams, want.grams))
            assert err < 1e-12

    def test_trace_of_half_identity(self):
        s = RepresentationStructure(((2, 1),))
        g = extract_gram(np.eye(2) / 2, s)
        np.testing.assert_allclose(g.grams[0], [[1.0]], atol=1e-15)

    def test_noisy_moment_clamped_psd(self):
        s = RepresentationStructure(((2, 2),))
        rng = np.random.default_rng(4)
        x = random_signal(s, rng)
        moment = analytic_second_moment(x) + 0.3 * rng.standard_normal((4, 4))
        g = extract_gram(moment, s).grams[0]
        assert np.max(np.abs(g - g.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(g).min() >= -1e-12

    def test_dimension_check(self):
        s = RepresentationStructure(((2, 2),))
        with pytest.raises(Exception, match="4"):
            extract_gram(np.eye(3), s)
