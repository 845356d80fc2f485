import hashlib
import sys
import threading
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
    decompose,
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
from gramphase import blocks, moments
from gramphase.blocks import cyclic_shift_stack, haar_stack
from gramphase.moments import MraSampleSet, _check_grams, clamp_psd
from tests._oracles import cyclic_average_outer, householder_rotation


def _noisy(rows, sigma, rng):
    """Rows plus the sampler's noise, drawn after the rotations."""
    noise = sigma * rng.standard_normal(rows.shape)
    if np.iscomplexobj(rows):
        noise = noise + 1j * sigma * rng.standard_normal(rows.shape)
    return rows + noise


def _gaussians(rng, n, count, field, width=None):
    """The Gaussians of ``count`` Haar draws of ``n x n`` matrices as one
    draw, laid out as ``blocks.haar_chunks`` yields them for blocks of
    ``width`` columns: the vectors of the first ``min(n, width)``
    reflectors (all ``n`` for the identity)."""
    c = n if width is None else min(n, width)
    k = sum(n - j for j in range(c))
    return rng.standard_normal((count, k) if field == "real" else (count, 2, k))


def _unchunked_haar_stack(n, count, field, rng):
    """Haar draws with one ``blocks.haar_rotate`` call over the whole stack."""
    out = np.empty((count, n, n), dtype=np.complex128 if field == "complex" else np.float64)
    blocks.haar_rotate(_gaussians(rng, n, count, field), np.eye(n), out)
    return out


def _unchunked_rotations(x, n, rng):
    """``n`` rotated copies of ``x``, each block's by one
    ``blocks.haar_rotate`` call over all ``n`` draws on the R of its QR,
    blocks in order."""
    s = x.structure
    rows = np.empty((n, s.ambient_dim), dtype=s.dtype)
    for (dim, r), y, m in zip(s.blocks, blocks.block_stacks(rows, s), x.matrices):
        blocks.haar_rotate(_gaussians(rng, dim, n, s.field, r), np.linalg.qr(m, mode="r"), y)
    return rows


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


    @pytest.mark.parametrize("kind", ["skew", "indefinite", "nan", "inf"])
    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_a_stack_raises_what_the_tuple_raises(self, kind, block):
        # row 2 of four tuples holds one bad Gram; blocks 0 and 2 share a shape
        s = RepresentationStructure(((3, 2), (4, 3), (2, 2)), "complex")
        bad = {"skew": np.array([[1.0, 1j], [0.0, 1.0]]), "indefinite": np.diag([-1.0, 1.0]),
               "nan": np.diag([1.0, np.nan]), "inf": np.diag([np.inf, 1.0])}
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


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteGrams:
    """A NaN or an infinity in a Gram or a moment is refused by block,
    wherever it sits, before it reaches LAPACK."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 3)])
    def test_a_4x4_gram_is_refused_by_block(self, bad, entry):
        s = RepresentationStructure(((5, 4), (6, 4)))
        g = np.eye(4)
        g[entry] = bad
        with pytest.raises(ValueError, match="^block 1: Gram matrix must be finite"):
            GramTuple(s, (np.eye(4), g))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_a_1x1_gram_is_refused_by_block(self, bad):
        s = RepresentationStructure(((3, 1), (2, 1)))
        with pytest.raises(ValueError, match="^block 0: Gram matrix must be finite"):
            GramTuple(s, (np.array([[bad]]), np.eye(1)))

    def test_a_complex_gram_with_a_nan_part_is_refused(self):
        s = RepresentationStructure(((3, 2),), "complex")
        g = np.eye(2, dtype=complex)
        g[0, 1] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match="^block 0: Gram matrix must be finite"):
            GramTuple(s, (g,))

    def test_a_non_finite_block_before_a_skew_one_is_named_first(self):
        s = RepresentationStructure(((2, 2), (3, 2)))
        with pytest.raises(ValueError, match="^block 0: Gram matrix must be finite"):
            GramTuple(s, (np.diag([np.nan, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]])))
        with pytest.raises(ValueError, match="^block 0: Gram matrix is not Hermitian"):
            GramTuple(s, (np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([np.nan, 1.0])))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("r", [4, 1])
    def test_extract_gram_refuses_a_non_finite_moment_by_block(self, bad, r):
        s = RepresentationStructure(((5, r), (6, r)))
        moment = np.eye(s.ambient_dim)
        i = s.block_slices[1].start
        moment[i, i] = bad  # an entry of block 1's Gram (0, 0)
        with pytest.raises(ValueError, match="^block 1: the moment must be finite"):
            extract_gram(moment, s)

    def test_extract_gram_names_the_first_block_across_shape_groups(self):
        # blocks 0 and 2 share a shape; block 1 holds the first bad entry
        s = RepresentationStructure(((2, 2), (3, 1), (2, 2)))
        moment = np.eye(s.ambient_dim)
        for l in (1, 2):
            i = s.block_slices[l].start
            moment[i, i] = np.nan
        with pytest.raises(ValueError, match="^block 1: the moment must be finite"):
            extract_gram(moment, s)


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
    def test_full_ambiguity_draw_is_the_per_draw_oracle_on_the_same_stream(self, field):
        """Each block, tall, square or wide, is the per-draw oracle on its
        draw of the stream."""
        s = RepresentationStructure(((4, 2), (3, 3), (1, 2), (5, 1), (2, 5), (1, 1)), field)
        action = full_ambiguity_action(s)
        x = random_signal(s, np.random.default_rng(2))
        for seed in range(5):
            obs = sample_observations(x, action, 0.0, 1, seed).observations
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            for (n, r), y, m in zip(s.blocks, blocks.block_stacks(obs, s), x.matrices):
                want = householder_rotation(_gaussians(rng, n, 1, field, r)[0], m)
                assert np.max(np.abs(y[0] - want)) <= 1e-14 * np.max(np.abs(want))

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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_haar_stack_chunks_equal_one_kernel_call(self, monkeypatch, field, offset, workers):
        # two chunks less one draw, two chunks, and a one-row tail
        monkeypatch.setattr(blocks, "_workers", lambda: workers)
        count = 2 * (blocks.CHUNK_ENTRIES // (6 + 3 * 3)) + offset
        got = haar_stack(3, count, field, np.random.default_rng(count))
        want = _unchunked_haar_stack(3, count, field, np.random.default_rng(count))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_full_ambiguity_draw_across_chunks_equals_one_kernel_call(
            self, monkeypatch, field, offset, workers):
        monkeypatch.setattr(blocks, "_workers", lambda: workers)
        s = RepresentationStructure(((3, 2), (2, 1)), field)
        x = random_signal(s, np.random.default_rng(5))
        # two chunks of the real 2x1 block, whose draws take 2 Gaussians
        # each (a one-row tail at offset 1), and more of the 3x2 block and
        # of the complex blocks
        n = 2 * (blocks.CHUNK_ENTRIES // 2) + offset
        assert len(blocks.haar_chunks(2, n, 1, "real")) == 2 + (offset > 0)
        got = sample_observations(x, full_ambiguity_action(s), 0.1, n, seed=6).observations
        rng = np.random.default_rng(np.random.SeedSequence(6))
        rows = _unchunked_rotations(x, n, rng)
        assert np.array_equal(got, _noisy(rows, 0.1, rng))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_noiseless_observations_keep_each_block_gram(self, field):
        s = RepresentationStructure(((8, 4), (3, 2), (1, 3), (5, 5)), field)
        x = random_signal(s, np.random.default_rng(11))
        obs = sample_observations(x, full_ambiguity_action(s), 0.0, 5000, seed=12).observations
        for y, m in zip(blocks.block_stacks(obs, s), x.matrices):
            want = m.conj().T @ m
            got = y.conj().mT @ y
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

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
        # the rotations drawn unchunked, then all the noise in one draw
        rng = np.random.default_rng(np.random.SeedSequence(n))
        if kind == "full":
            rows = _unchunked_rotations(x, n, rng)
        else:
            shifts = rng.integers(action.cyclic_n, size=n)
            shifted = [reconstruct(apply(cyclic_shift_element(action, k), x))
                       for k in range(action.cyclic_n)]
            rows = np.stack([shifted[k] for k in shifts])
        want = _noisy(rows, 0.3, rng)
        for workers in (1, 2, 3) if kind == "full" else (blocks._workers(),):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(blocks, "_workers", lambda: workers)
                got = sample_observations(x, action, 0.3, n, seed=n).observations
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_traced_peak_is_about_the_output(self, field):
        # the output plus one chunk and its work arrays, on either field
        action = full_ambiguity_action(RepresentationStructure(((8, 4), (3, 2)), field))
        peak, obs = _traced_sampling_peak(action, 100_000)
        assert peak <= 1.1 * obs.nbytes

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


def _moments(rows, structure):
    """``(name, mean, standard error)`` over ``(T, d)`` ambient rows: each
    entry's mean, the ambient second moment ``E[y y*]`` and each block's
    ``E |y_00|^4``, the errors from the rows' own spread."""
    count = len(rows)
    sq = np.abs(rows) ** 2
    second = rows.T @ rows.conj() / count
    fourth = sq[:, [sl.start for sl in structure.block_slices]] ** 2
    return [
        ("E y", rows.mean(axis=0), rows.std(axis=0) / np.sqrt(count)),
        ("E y y*", second,
         np.sqrt(np.maximum(sq.T @ sq / count - np.abs(second) ** 2, 0.0) / count)),
        ("E |y_00|^4", fourth.mean(axis=0), fourth.std(axis=0) / np.sqrt(count)),
    ]


class TestBlockLaw:
    """The noiseless Gram ``Y* Y = m* m`` holds for any orthogonal or
    unitary ``Q``, so no Gram check sees a wrong law: the draws' moments
    are checked here, on tall, square, wide and one-entry blocks, against
    their exact values and against those of ``haar_stack(n) @ m``, whose
    draws are the Haar matrices themselves."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_every_block_shape_has_the_moments_of_a_haar_rotation(self, field):
        s = RepresentationStructure(((8, 4), (3, 2), (4, 1), (2, 1), (3, 3), (2, 5), (1, 1)),
                                    field)
        x = random_signal(s, np.random.default_rng(21))
        count = 20_000
        got = sample_observations(x, full_ambiguity_action(s), 0.0, count, 22).observations
        rng = np.random.default_rng(23)
        ref = np.concatenate([blocks.flat_block(haar_stack(n, count, field, rng) @ m)
                              for (n, _), m in zip(s.blocks, x.matrices)], axis=1)
        # E y = 0, E y y* = kron(G^T, I_n) / n per block, and the first
        # entry of a Haar rotation of a column c has E |y|^4 = 3 |c|^4 /
        # (n (n + 2)) (real) or 2 |c|^4 / (n (n + 1)) (complex)
        first = [np.linalg.norm(m[:, 0]) ** 4 / (n * (n + 2) if field == "real" else n * (n + 1))
                 for (n, _), m in zip(s.blocks, x.matrices)]
        exact = [0.0, analytic_second_moment(x),
                 np.array(first) * (3.0 if field == "real" else 2.0)]
        for (name, mean, error), (_, ref_mean, ref_error), want in zip(
                _moments(got, s), _moments(ref, s), exact):
            assert np.all(np.abs(mean - want) <= 6.0 * error + 1e-12), name
            apart = 6.0 * np.hypot(error, ref_error) + 1e-12
            assert np.all(np.abs(mean - ref_mean) <= apart), name


def _structure(text):
    """``"8x4,3x2"`` or ``"8x4,3x2:complex"`` as a structure."""
    blocks_text, _, field = text.partition(":")
    pairs = tuple(tuple(int(v) for v in b.split("x")) for b in blocks_text.split(","))
    return RepresentationStructure(pairs, field or "real")


def _sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# SHA-256 of 200 haar_sample draws per action (seed 2026), each draw's
# blocks in order
HAAR_DIGESTS = {
    ("full", "8x4,3x2,1x1"):
        "1737498227f0da18f72994436e2b1c98ec47b6868a8e470a137f2e504f4d61cf",
    ("full", "8x4,3x2,1x1:complex"):
        "7d9b7293c120a23e1744b4fd9e138577804ccf32a941723b3bc69facd6ba8090",
    ("cyclic", 8, "real"):
        "a51daee282e06191a3fa2bce8e86fe29e24f803f0bc7fe96d6ebad92e1f4f19f",
    ("cyclic", 6, "complex"):
        "7622c99df5f568688107c15c17a124cb66a4f7d1ed0d238db78e19f803f32351",
}

# SHA-256 of the observations of sample_observations(x, action, 0.3, n,
# 2026), x a random_signal of the seed 2026: full draws that cross the
# Haar chunks and the noise blocks (on 8x4,3x2, and on a tall, a square
# and a wide block), cyclic ones that cross the noise blocks
OBSERVATION_DIGESTS = {
    ("full", "8x4,3x2", 10_001):
        "4ffe8a675dcb835661376cacf143e28aaa18d57c40f37133aeecd0a71b789902",
    ("full", "8x4,3x2:complex", 10_001):
        "3126ee06fc6654b1547eed707041298a8d44c7374bc12410466b524ca9e06b85",
    ("full", "4x2,3x3,1x2", 10_001):
        "83d65a1ed089465ef95c8eea8a702831c44f5fbcd37426992a74269bc069f0e3",
    ("full", "4x2,3x3,1x2:complex", 10_001):
        "7f8d63dab47c93342a3e5e4d6b095bc342fed7c39c2c546bdeaa3b132ace12a1",
    ("cyclic", 16, "real", 2000):
        "c1f723ad22d48d4790b7b3f8bcffea1bc427bcd6f0f6050ff44443443bdf9e70",
    ("cyclic", 1024, "real", 10):
        "337b3f8459c8afa585b6f817e183e38175ea992f61eabeb5804c4bcb64602748",
    ("cyclic", 7, "complex", 500):
        "fae47fce378186e55c0c2f4a4d5a992548dc860dd994495daf306be840d8bc07",
    ("cyclic", 16, "real", 20_000):
        "244fa41b0a7af78e11476e8ab13ac58c17247c8f5856877e0e331b60a9316e54",
    ("cyclic", 7, "complex", 30_000):
        "874e0d993691314053eb210c6df772c09049d15d61f0a497991abcc1eceec8d8",
}


def _action(key):
    if key[0] == "full":
        return full_ambiguity_action(_structure(key[1]))
    return cyclic_action(key[1], key[2])


class TestReferenceDigests:
    """The sampler's bits, pinned by digest at every worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_haar_draws_keep_their_digests(self, monkeypatch, workers):
        monkeypatch.setattr(blocks, "_workers", lambda: workers)
        for key, want in HAAR_DIGESTS.items():
            action, rng = _action(key), np.random.default_rng(2026)
            draws = [d for _ in range(200) for d in haar_sample(action, rng).blocks]
            assert _sha256(draws) == want, key

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_observations_keep_their_digests(self, monkeypatch, workers):
        monkeypatch.setattr(blocks, "_workers", lambda: workers)
        for key, want in OBSERVATION_DIGESTS.items():
            action = _action(key[:-1])
            x = random_signal(action.structure, np.random.default_rng(2026))
            obs = sample_observations(x, action, 0.3, key[-1], 2026).observations
            assert _sha256([obs]) == want, key


class TestDrawThread:
    """The sampler's draws run on a pool thread and leave none behind."""

    @pytest.fixture(params=[2, 3])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(blocks, "_workers", lambda: request.param)
        return request.param

    @staticmethod
    def _draws():
        """A full-ambiguity draw across the Haar chunks and noise blocks, a
        cyclic one across the noise blocks, and a Haar stack."""
        full = full_ambiguity_action(_structure("8x4,3x2"))
        x = random_signal(full.structure, np.random.default_rng(0))
        cyc = cyclic_action(16)
        y = random_signal(cyc.structure, np.random.default_rng(0))
        sample_observations(x, full, 0.1, 10_001, 1)
        sample_observations(y, cyc, 0.1, 20_000, 1)
        haar_stack(3, 30_000, "complex", np.random.default_rng(1))

    def test_a_normal_return_leaves_no_thread(self, workers, started_pool):
        threads = started_pool(workers)
        self._draws()
        assert threading.active_count() == threads
        assert started_pool(workers) == threads

    def test_a_failing_rotation_reaches_the_caller_and_leaves_no_thread(
            self, workers, started_pool, monkeypatch):
        threads = started_pool(workers)
        rotate, chunks = blocks.haar_rotate, []

        def failing(g, r, out):
            chunks.append(len(out))
            if len(chunks) == 2:
                raise RuntimeError("chunk 2")
            rotate(g, r, out)

        monkeypatch.setattr(moments, "haar_rotate", failing)
        monkeypatch.setattr(blocks, "haar_rotate", failing)
        s = _structure("8x4,3x2")
        x = random_signal(s, np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="chunk 2"):
            sample_observations(x, full_ambiguity_action(s), 0.1, 10_001, 1)
        chunks.clear()
        with pytest.raises(RuntimeError, match="chunk 2"):
            haar_stack(3, 30_000, "real", np.random.default_rng(1))
        assert threading.active_count() == threads
        assert started_pool(workers) == threads

    def test_a_failing_draw_reaches_the_caller_and_leaves_no_thread(
            self, workers, started_pool, monkeypatch):
        threads = started_pool(workers)
        make = np.random.default_rng

        class Failing:
            def __init__(self, *args):
                self.rng, self.calls = make(*args), 0

            def standard_normal(self, *args, **kwargs):
                self.calls += 1
                if self.calls == 3:
                    raise RuntimeError("draw 3")
                return self.rng.standard_normal(*args, **kwargs)

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", Failing)
        for action in (full_ambiguity_action(_structure("8x4,3x2")), cyclic_action(16)):
            x = random_signal(action.structure, make(0))
            with pytest.raises(RuntimeError, match="draw 3"):
                sample_observations(x, action, 0.1, 20_000, 1)
        with pytest.raises(RuntimeError, match="draw 3"):
            haar_stack(3, 30_000, "real", Failing(1))
        assert threading.active_count() == threads
        assert started_pool(workers) == threads

    def test_one_worker_starts_no_thread(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a thread pool was used at one worker")

        monkeypatch.setattr(blocks, "_workers", lambda: 1)
        monkeypatch.setattr(blocks, "_pool", refuse)
        threads = threading.active_count()
        self._draws()
        assert threading.active_count() == threads


class TestFiniteSignal:
    """A signal is refused by block when it is built with a NaN or an
    infinity, and neither a signal nor a Gram tuple can change after."""

    def test_a_built_signal_or_gram_tuple_cannot_change(self):
        s = _structure("8x4,3x2,8x4,1x1")
        v = np.arange(s.ambient_dim, dtype=float)
        x = decompose(v, s)
        g = gram_tuple(x)
        for l in range(s.num_blocks):
            with pytest.raises(ValueError, match="read-only"):
                x.matrices[l][0, 0] = np.nan
            with pytest.raises(ValueError, match="read-only"):
                g.grams[l][0, 0] = np.nan
        v[:] = np.nan  # the caller's arrays are not the signal's or the tuple's
        assert np.array_equal(reconstruct(x), np.arange(s.ambient_dim))
        grams = [a.copy() for a in g.grams]
        h = GramTuple(s, grams)
        grams[0][0, 0] = np.nan
        assert np.array_equal(h.grams[0], g.grams[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("text, block", [
        ("8x4,3x2,1x1", 1), ("8x4,3x2,8x4,1x1", 2), ("8x4,3x2,8x4,3x2", 3)])
    def test_a_non_finite_block_is_refused_when_the_signal_is_built(self, text, block, bad):
        """The first non-finite block is named, across shape groups; so
        ``gram_tuple``, ``rho`` and ``solve_batch`` never see one."""
        field = "complex" if isinstance(bad, complex) else "real"
        s = _structure(f"{text}:{field}")
        mats = [m.copy() for m in random_signal(s, np.random.default_rng(0)).matrices]
        for l in range(block, s.num_blocks):  # this block and every later one
            mats[l][-1, 0] = bad
        with pytest.raises(ValueError, match=f"^block {block}: the signal must be finite"):
            BlockSignal(s, mats)
        with pytest.raises(ValueError, match=f"^block {block}: the signal must be finite"):
            decompose(np.concatenate([m.T.ravel() for m in mats]), s)
