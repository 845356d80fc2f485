import hashlib
import sys
import tracemalloc

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
from gramphase import blocks
from gramphase.blocks import cyclic_shift_stack, haar_stack
from gramphase.moments import MraSampleSet, _check_grams, clamp_psd
from tests._oracles import cyclic_average_outer


def _noisy(rows, sigma, rng):
    """Rows plus the sampler's noise, drawn after the rotations."""
    noise = sigma * rng.standard_normal(rows.shape)
    if np.iscomplexobj(rows):
        noise = noise + 1j * sigma * rng.standard_normal(rows.shape)
    return rows + noise


def _unsliced_haar_stack(n, count, field, rng):
    """Haar draws with one np.linalg.qr call over the whole stack."""
    a = rng.standard_normal((count, n, n))
    if field == "complex":
        a = (a + 1j * rng.standard_normal((count, n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=1, axis2=2)
    q *= np.where(np.abs(d) > 0, d / np.abs(np.where(d == 0, 1.0, d)), 1.0)[:, None, :]
    return q


def _traced_sampling_peak(action, n):
    """Traced peak bytes of drawing ``n`` observations of a random
    signal, above what was held before, and the observations."""
    x = random_signal(action.structure, np.random.default_rng(0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        obs = sample_observations(x, action, 0.1, n, 1).observations
        return tracemalloc.get_traced_memory()[1] - before, obs
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("blocks_, field", [
        (((1, 1), (2, 1), (2, 1), (2, 1), (1, 1)), "real"),  # cyclic:8's blocks
        (((1, 1),) * 16, "complex"),  # cyclic:16:complex
        (((8, 4), (3, 2), (1, 1)), "real"),
        (((8, 4), (3, 2), (1, 1)), "complex"),
        (((20, 3), (17, 2), (16, 4)), "real"),
        (((8, 4), (8, 4), (3, 2), (8, 4)), "real"),
        (((8, 4), (8, 4), (3, 2), (8, 4)), "complex"),
    ])
    def test_one_call_per_shape_group_is_the_per_block_product(
            self, monkeypatch, blocks_, field):
        """``gram_tuple`` forms each shape group's Grams in one ``_gram``
        call; each Gram has the bits of ``_gram`` on its block alone, for
        a drawn signal's block views and for C-order copies of them."""
        s = RepresentationStructure(blocks_, field)
        calls = []
        monkeypatch.setattr("gramphase.moments._gram",
                            lambda x: calls.append(x.shape) or blocks._gram(x))
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = random_signal(s, rng)
            for sig in (x, BlockSignal(s, tuple(np.ascontiguousarray(m) for m in x.matrices))):
                calls.clear()
                grams = gram_tuple(sig).grams
                assert len(calls) == len(s.shape_groups)
                for m, g in zip(sig.matrices, grams):
                    assert g.tobytes() == blocks._gram(m).tobytes()

    @pytest.mark.parametrize("n, field", [(17, "real"), (1024, "real"), (16, "complex")])
    def test_cyclic_grams_are_the_per_block_products(self, n, field):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        if field == "complex":
            x = x + 1j * rng.standard_normal(n)
        sig = decompose_cyclic(x)
        for m, g in zip(sig.matrices, gram_tuple(sig).grams):
            assert g.tobytes() == blocks._gram(m).tobytes()

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

    @pytest.mark.parametrize("bad,message", [
        ({1: "skew", 2: "indefinite"}, "block 1: Gram matrix is not Hermitian"),
        ({2: "indefinite", 3: "skew"}, r"block 2: .* negative eigenvalue -1\.000e\+00"),
        ({3: "skew", 4: "indefinite"}, "block 3: Gram matrix is not Hermitian"),
        ({4: "indefinite"}, r"block 4: .* negative eigenvalue -1\.000e\+00"),
    ])
    def test_error_names_the_first_bad_block(self, bad, message):
        # blocks 0, 2, 4 share one shape and 1, 3 another
        s = RepresentationStructure(((2, 2), (3, 2), (2, 2), (3, 2), (2, 2)))
        kinds = {"skew": np.array([[1.0, 1.0], [0.0, 1.0]]), "indefinite": np.diag([-1.0, 1.0])}
        grams = [kinds[bad[l]] if l in bad else np.eye(2) for l in range(s.num_blocks)]
        with pytest.raises(ValueError, match=message):
            GramTuple(s, tuple(grams))


    @pytest.mark.parametrize("kind", ["skew", "indefinite"])
    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_a_stack_raises_what_the_tuple_raises(self, kind, block):
        # row 2 of four tuples holds one bad Gram; blocks 0 and 2 share a shape
        s = RepresentationStructure(((3, 2), (4, 3), (2, 2)), "complex")
        bad = {"skew": np.array([[1.0, 1j], [0.0, 1.0]]), "indefinite": np.diag([-1.0, 1.0])}
        rows = [[np.eye(r, dtype=complex) for _, r in s.blocks] for _ in range(4)]
        rows[2][block] = np.eye(s.blocks[block][1], dtype=complex)
        rows[2][block][:2, :2] = bad[kind]
        with pytest.raises(ValueError) as single:
            GramTuple(s, tuple(rows[2]))
        stacks = [np.array([[row[l] for l in idx] for row in rows]) for _, idx in s.shape_groups]
        with pytest.raises(ValueError) as stacked:
            _check_grams(s, stacks)
        assert str(stacked.value) == str(single.value)
        assert str(single.value).startswith(f"block {block}: ")

    def test_a_stack_names_its_first_bad_row(self):
        s = RepresentationStructure(((2, 2),))
        g = np.array([np.eye(2), np.diag([-1.0, 1.0]), np.diag([1.0, -2.0])])[:, None]
        with pytest.raises(ValueError, match=r"block 0: .* negative eigenvalue -1\.000e\+00"):
            _check_grams(s, [g])


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

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "n_cyc,n_obs", [(1, 1), (1, 30), (2, 1), (2, 60), (3, 2), (3, 90), (8, 5),
                        (8, 400), (17, 9), (17, 700), (1024, 12), (1024, 100)])
    def test_cyclic_draw_is_per_row_shift_on_the_same_stream(self, field, n_cyc, n_obs):
        rng = np.random.default_rng(n_cyc)
        x = rng.standard_normal(n_cyc)
        if field == "complex":
            x = x + 1j * rng.standard_normal(n_cyc)
        sig = decompose_cyclic(x, field)
        action = cyclic_action(n_cyc, field)
        got = sample_observations(sig, action, 0.2, n_obs, seed=n_obs).observations
        ref_rng = np.random.default_rng(np.random.SeedSequence(n_obs))
        shifts = [int(ref_rng.integers(n_cyc)) for _ in range(n_obs)]
        rows = {k: reconstruct(apply(cyclic_shift_element(action, k), sig)) for k in set(shifts)}
        want = _noisy(np.stack([rows[k] for k in shifts]), 0.2, ref_rng)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_haar_stack_slices_equal_one_qr_call(self, field, offset):
        count = blocks.CHUNK_ENTRIES // 3**2 + offset
        got = haar_stack(3, count, field, np.random.default_rng(count))
        want = _unsliced_haar_stack(3, count, field, np.random.default_rng(count))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_full_ambiguity_draw_across_slices_equals_one_qr_call(self, field):
        s = RepresentationStructure(((3, 2), (2, 1)), field)
        x = random_signal(s, np.random.default_rng(5))
        # two chunks and one draw of the 2x2 block, the larger count per chunk
        n = 2 * (blocks.CHUNK_ENTRIES // 2**2) + 1
        got = sample_observations(x, full_ambiguity_action(s), 0.1, n, seed=6).observations
        rng = np.random.default_rng(np.random.SeedSequence(6))
        rows = np.empty_like(got)
        for (dim, _), y, m in zip(s.blocks, blocks.block_stacks(rows, s), x.matrices):
            y[...] = np.einsum("kab,br->kar", _unsliced_haar_stack(dim, n, field, rng), m)
        assert np.array_equal(got, _noisy(rows, 0.1, rng))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind", ["full", "cyclic"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_noise_blocks_equal_one_whole_array_draw(self, kind, field, offset):
        if kind == "full":
            action = full_ambiguity_action(RepresentationStructure(((3, 2), (2, 1)), field))
        else:
            action = cyclic_action(16 if field == "real" else 7, field)
        s = action.structure
        n = 2 * (blocks.CHUNK_ENTRIES // s.ambient_dim) + offset
        x = random_signal(s, np.random.default_rng(n))
        got = sample_observations(x, action, 0.3, n, seed=n).observations
        # the rotations drawn unchunked, then all the noise in one draw
        rng = np.random.default_rng(np.random.SeedSequence(n))
        if kind == "full":
            rows = np.empty_like(got)
            for (dim, _), y, m in zip(s.blocks, blocks.block_stacks(rows, s), x.matrices):
                y[...] = np.einsum("kab,br->kar", _unsliced_haar_stack(dim, n, field, rng), m)
        else:
            shifts = rng.integers(action.cyclic_n, size=n)
            shifted = [reconstruct(apply(cyclic_shift_element(action, k), x))
                       for k in range(action.cyclic_n)]
            rows = np.stack([shifted[k] for k in shifts])
        assert np.array_equal(got, _noisy(rows, 0.3, rng))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_traced_peak_is_about_the_output(self, field):
        # the output plus one chunk; a complex draw also holds the real
        # parts of one block's Haar stack
        action = full_ambiguity_action(RepresentationStructure(((8, 4), (3, 2)), field))
        peak, obs = _traced_sampling_peak(action, 100_000)
        assert peak <= {"real": 1.1, "complex": 2.0}[field] * obs.nbytes

    def test_traced_peak_does_not_grow_with_the_block_size(self):
        # 200 draws of 64x64 matrices would be 6.5 MB in one QR call;
        # a chunk and the QR's working copies stay within 8 chunks of
        # float64 entries (2 MB) whatever the block size
        action = full_ambiguity_action(RepresentationStructure(((64, 1),)))
        peak, obs = _traced_sampling_peak(action, 200)
        assert peak <= obs.nbytes + 8 * 8 * blocks.CHUNK_ENTRIES

    def test_cyclic_traced_peak_is_about_the_output(self):
        # the output, one row per distinct shift and one slice of shift
        # elements, not the elements of every distinct shift at once
        peak, obs = _traced_sampling_peak(cyclic_action(1024), 2000)
        assert peak <= 1.75 * obs.nbytes

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_traced_peaks_hold_at_every_worker_count(self, monkeypatch, workers):
        monkeypatch.setattr(blocks, "_workers", lambda: workers)
        for field in ("real", "complex"):
            self.test_traced_peak_is_about_the_output(field)
        self.test_traced_peak_does_not_grow_with_the_block_size()
        self.test_cyclic_traced_peak_is_about_the_output()

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, blocks.CHUNK_ENTRIES // 8**2,
                                   blocks.CHUNK_ENTRIES // 8**2 + 1,
                                   blocks.CHUNK_ENTRIES // 38 + 1, 10_001])
    def test_draws_do_not_depend_on_the_worker_count(self, monkeypatch, field, n):
        # one draw, a Haar chunk of the 8x8 block at one worker and one
        # draw more, a noise block of the 38 coordinates and one row more,
        # and 10,001 draws that cross the chunks of every worker count; the
        # short switch interval interleaves the threads' writes as often as
        # it can
        s = RepresentationStructure(((8, 4), (3, 2)), field)
        x = random_signal(s, np.random.default_rng(8))
        digests, stacks = set(), []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for workers in (1, 2, 3):
                monkeypatch.setattr(blocks, "_workers", lambda: workers)
                obs = sample_observations(x, full_ambiguity_action(s), 0.1, n, seed=9)
                digests.add(hashlib.sha256(obs.observations.tobytes()).hexdigest())
                stacks.append(haar_stack(3, n, field, np.random.default_rng(10)))
        finally:
            sys.setswitchinterval(interval)
        assert len(digests) == 1
        assert all(np.array_equal(q, stacks[0]) for q in stacks[1:])

    @pytest.mark.parametrize("n", [True, np.True_, 2.5, float("nan"), float("inf"), 0, "3"])
    def test_rejects_a_count_that_is_not_whole(self, n):
        s = RepresentationStructure(((2, 1),))
        x = random_signal(s, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"n must be a whole number >= 1, got "):
            sample_observations(x, full_ambiguity_action(s), 0.1, n, seed=1)

    @pytest.mark.parametrize("n", [3.0, np.int64(3), np.float32(3.0)])
    def test_integral_counts_are_kept(self, n):
        s = RepresentationStructure(((2, 1),))
        x = random_signal(s, np.random.default_rng(0))
        want = sample_observations(x, full_ambiguity_action(s), 0.1, 3, seed=1).observations
        got = sample_observations(x, full_ambiguity_action(s), 0.1, n, seed=1).observations
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_rejects_bad_sigma(self, sigma):
        s = RepresentationStructure(((2, 1),))
        x = random_signal(s, np.random.default_rng(0))
        with pytest.raises(ValueError, match="sigma"):
            sample_observations(x, full_ambiguity_action(s), sigma, 5, seed=1)

    def test_sampling_builds_no_group_element(self, monkeypatch):
        def refuse(self):
            raise AssertionError("GroupElement built while sampling")

        monkeypatch.setattr(blocks.GroupElement, "__post_init__", refuse)
        full = full_ambiguity_action(RepresentationStructure(((3, 2),)))
        for action in (cyclic_action(8), full):
            x = random_signal(action.structure, np.random.default_rng(0))
            sample_observations(x, action, 0.1, 50, seed=1)

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


class TestShiftStack:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64])
    def test_element_is_row_of_stack(self, field, n):
        action = cyclic_action(n, field)
        stack = cyclic_shift_stack(action, np.arange(n))
        assert [d.shape for d in stack] == [(n, k, k) for k, _ in action.structure.blocks]
        for shift in range(-n, 2 * n):
            element = cyclic_shift_element(action, shift)
            for d, rows in zip(element.blocks, stack):
                assert np.array_equal(d, rows[shift % n])

    def test_rejects_full_ambiguity(self):
        action = full_ambiguity_action(RepresentationStructure(((2, 1),)))
        with pytest.raises(ValueError, match="cyclic"):
            cyclic_shift_stack(action, [0])


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

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_traced_peak_is_the_moment(self, field):
        # the noise bias comes off the diagonal in place, with no d x d eye
        action = cyclic_action(1024, field)
        x = random_signal(action.structure, np.random.default_rng(4))
        samples = sample_observations(x, action, 0.3, 10, seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            m = empirical_second_moment(samples)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * m.nbytes
        assert m.nbytes == 1024**2 * np.dtype(action.structure.dtype).itemsize

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

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_grouped_clamp_equals_per_block_clamp(self, field):
        s = RepresentationStructure(((2, 2), (1, 3), (2, 2), (3, 1), (1, 3)), field)
        rng = np.random.default_rng(8)
        d = s.ambient_dim
        moment = analytic_second_moment(random_signal(s, rng)) + 0.5 * rng.standard_normal((d, d))
        got = extract_gram(moment, s).grams
        for (n, r), sl, g in zip(s.blocks, s.block_slices, got):
            want = clamp_psd(np.einsum("iaja->ji", moment[sl, sl].reshape(r, n, r, n)))
            assert np.array_equal(g, want)

    def test_dimension_check(self):
        s = RepresentationStructure(((2, 2),))
        with pytest.raises(Exception, match="4"):
            extract_gram(np.eye(3), s)
