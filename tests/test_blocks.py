import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramphase import (
    BlockSignal,
    DimensionMismatch,
    GroupAction,
    GroupElement,
    LinearSubspacePrior,
    RepresentationStructure,
    StructureMismatch,
    apply,
    compose,
    cyclic_action,
    cyclic_shift_element,
    cyclic_structure,
    decompose,
    decompose_cyclic,
    distortion_estimate,
    distortion_ratios,
    full_ambiguity_action,
    haar_sample,
    identity_element,
    random_signal,
    reconstruct,
    reconstruct_cyclic,
    sample_observations,
)
from gramphase import blocks, moments, serialize
from gramphase.blocks import _chunk_map, block_stacks, cyclic_shift_stack, flat_block
from tests._oracles import brute_dft, dense_householder_haar, mezzadri_haar

structures = st.builds(
    lambda blocks, field: RepresentationStructure(tuple(blocks), field),
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)), min_size=1, max_size=4),
    st.sampled_from(["real", "complex"]),
)
multi_block_structures = structures.filter(lambda s: s.num_blocks > 1)


def _stack(s, rows, seed):
    rng = np.random.default_rng(seed)
    return np.stack([reconstruct(random_signal(s, rng)) for _ in range(rows)])


class TestLayout:
    def test_scalar_identity(self):
        s = RepresentationStructure(((1, 1),))
        x = decompose(np.array([3.0]), s)
        assert x.matrices[0][0, 0] == 3.0

    def test_column_major_block(self):
        s = RepresentationStructure(((2, 2),))
        x = decompose(np.array([1.0, 2.0, 3.0, 4.0]), s)
        np.testing.assert_array_equal(x.matrices[0], [[1.0, 3.0], [2.0, 4.0]])

    def test_roundtrip_seeded(self):
        s = RepresentationStructure(((8, 4),))
        v = np.random.default_rng(1).standard_normal(32)
        err = np.linalg.norm(reconstruct(decompose(v, s)) - v) / np.linalg.norm(v)
        assert err < 1e-12

    def test_dimension_mismatch_names_both_lengths(self):
        s = RepresentationStructure(((8, 4),))
        with pytest.raises(DimensionMismatch, match="31.*32"):
            decompose(np.zeros(31), s)

    def test_bad_shapes_rejected(self):
        s = RepresentationStructure(((2, 2),))
        with pytest.raises(StructureMismatch):
            BlockSignal(s, (np.zeros((2, 3)),))
        with pytest.raises(ValueError):
            RepresentationStructure(((0, 1),))
        with pytest.raises(ValueError):
            RepresentationStructure((), "real")

    @pytest.mark.parametrize("blocks, pair", [
        (((8.7, 4),), r"\[8.7, 4\]"), (((8, 4), (3, 2.5)), r"\[3, 2.5\]"),
        (((8, np.float64(4.5)),), r"\[8, 4.5\]"), (((8, float("inf")),), r"\[8, inf\]"),
        (((True, 1),), r"\[True, 1\]"), (((8, np.True_),), r"\[8, True\]"),
        (((8, float("nan")),), r"\[8, nan\]")])
    def test_non_integral_sizes_rejected(self, blocks, pair):
        with pytest.raises(ValueError, match="block sizes must be whole numbers, got " + pair):
            RepresentationStructure(blocks)

    def test_integral_sizes_of_any_type_accepted(self):
        for blocks in (((8.0, 4),), ((np.int64(8), np.float64(4.0)),), (("8", "4"),)):
            assert RepresentationStructure(blocks).blocks == ((8, 4),)

    @given(structures, st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, s, seed):
        x = random_signal(s, np.random.default_rng(seed))
        v = reconstruct(x)
        back = reconstruct(decompose(v, s))
        assert np.linalg.norm(back - v) <= 1e-12 * max(np.linalg.norm(v), 1.0)

    @given(structures, st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_block_stack_rows_are_decompose(self, s, rows, seed):
        p = _stack(s, rows, seed)
        stacks = block_stacks(p, s)
        for t in range(rows):
            for y, m in zip(stacks, decompose(p[t], s).matrices):
                assert y[t].shape == m.shape and np.array_equal(y[t], m)

    @given(multi_block_structures, st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_flat_block_inverts_block_stacks(self, s, rows, seed):
        p = _stack(s, rows, seed)
        flat = np.concatenate([flat_block(y) for y in block_stacks(p, s)], axis=1)
        assert np.array_equal(flat, p)
        # the stacks are views: writing through them fills the ambient rows
        out = np.zeros_like(p)
        for y, x in zip(block_stacks(out, s), block_stacks(p, s)):
            y[...] = x
        assert np.array_equal(out, p)


class TestCyclic:
    def test_complex_delta_moduli(self):
        x = np.array([1.0, 0, 0, 0], dtype=complex)
        sig = decompose_cyclic(x)
        assert sig.structure.num_blocks == 4
        expected = brute_dft(x)
        for k, m in enumerate(sig.matrices):
            assert abs(m[0, 0] - expected[k]) < 1e-12
            assert abs(abs(m[0, 0]) - 0.5) < 1e-12

    def test_constant_signal_only_dc(self):
        x = np.full(6, 2.5)
        sig = decompose_cyclic(x)
        assert abs(sig.matrices[0][0, 0]) > 1.0
        for m in sig.matrices[1:]:
            assert np.max(np.abs(m)) < 1e-12

    def test_real_block_shapes(self):
        # conjugate-pair counting: one DC block, one 2-dim block per pair,
        # one Nyquist block when the length is even
        for n in range(1, 17):
            pairs = (n - 1) // 2
            expected = [1] + [2] * pairs + ([1] if n % 2 == 0 and n > 1 else [])
            got = [b[0] for b in cyclic_structure(n, "real").blocks]
            assert got == expected

    @pytest.mark.parametrize("field", ["complx", "", "Complex"])
    def test_unknown_field_is_refused(self, field):
        with pytest.raises(ValueError, match=f"got {field!r}"):
            cyclic_structure(8, field)
        with pytest.raises(ValueError, match=f"got {field!r}"):
            decompose_cyclic(np.ones(8), field)
        with pytest.raises(ValueError, match=f"got {field!r}"):
            cyclic_action(8, field)

    @pytest.mark.parametrize("n", [True, np.True_, 2.5, float("nan"), float("inf"), 0, "8"])
    def test_cyclic_order_must_be_whole(self, n):
        for make in (cyclic_structure, cyclic_action):
            with pytest.raises(ValueError, match="cyclic order must be a whole number >= 1, got "):
                make(n)

    def test_integral_cyclic_orders_are_kept(self):
        for n in (8.0, np.int64(8)):
            for action in (cyclic_action(n), GroupAction(cyclic_structure(8), "cyclic", n)):
                assert action.cyclic_n == 8 and type(action.cyclic_n) is int
                assert action.structure == cyclic_structure(8)
                assert len(cyclic_shift_stack(action, [3])) == 5

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 8, 16])
    def test_roundtrip_real_and_complex(self, n):
        rng = np.random.default_rng(n)
        xr = rng.standard_normal(n)
        assert np.abs(reconstruct_cyclic(decompose_cyclic(xr)) - xr).max() < 1e-12
        xc = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.abs(reconstruct_cyclic(decompose_cyclic(xc)) - xc).max() < 1e-12

    def test_isometry(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(9)
        assert abs(decompose_cyclic(x).norm() - np.linalg.norm(x)) < 1e-12

    @pytest.mark.parametrize("n", [4, 7, 8, 16])
    def test_shift_equals_block_rotation(self, n):
        rng = np.random.default_rng(n)
        for field in ("real", "complex"):
            x = rng.standard_normal(n)
            if field == "complex":
                x = x + 1j * rng.standard_normal(n)
            action = cyclic_action(n, field)
            sig = decompose_cyclic(x, field)
            for shift in (1, 2, n - 1):
                lhs = decompose_cyclic(np.roll(x, shift), field)
                rhs = apply(cyclic_shift_element(action, shift), sig)
                err = max(
                    np.max(np.abs(a - b)) for a, b in zip(lhs.matrices, rhs.matrices)
                )
                assert err < 1e-10


class TestGroupAction:
    def test_identity_and_negation(self):
        s = RepresentationStructure(((3, 2),))
        x = random_signal(s, np.random.default_rng(0))
        same = apply(identity_element(s), x)
        np.testing.assert_allclose(same.matrices[0], x.matrices[0], rtol=0, atol=0)
        neg = apply(GroupElement((-np.eye(3),)), x)
        np.testing.assert_allclose(neg.matrices[0], -x.matrices[0])

    def test_quarter_turn(self):
        s = RepresentationStructure(((2, 1),))
        x = BlockSignal(s, (np.array([[1.0], [0.0]]),))
        g = GroupElement((np.array([[0.0, -1.0], [1.0, 0.0]]),))
        y = apply(g, x)
        np.testing.assert_allclose(y.matrices[0], [[0.0], [1.0]], atol=1e-15)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            GroupElement((np.array([[1.0, 0.2], [0.0, 1.0]]),))
        with pytest.raises(ValueError, match=r"block 1: .*orthogonal.*= 2\.000e-01"):
            GroupElement((np.eye(3), np.array([[1.0, 0.2], [0.0, 1.0]])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_element_rejected(self, bad):
        # a NaN deviation once passed the tolerance test
        with pytest.raises(ValueError, match="block 0: .*orthogonal"):
            GroupElement((np.array([[bad]]),))

    @given(structures, st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved_and_associative(self, s, seed):
        rng = np.random.default_rng(seed)
        action = full_ambiguity_action(s)
        x = random_signal(s, rng)
        g = haar_sample(action, rng)
        h = haar_sample(action, rng)
        assert abs(apply(g, x).norm() - x.norm()) < 1e-10 * max(x.norm(), 1.0)
        lhs = apply(g, apply(h, x))
        rhs = apply(compose(g, h), x)
        err = max(np.max(np.abs(a - b)) for a, b in zip(lhs.matrices, rhs.matrices))
        assert err < 1e-10 * max(x.norm(), 1.0)

    def test_structure_mismatch(self):
        s = RepresentationStructure(((2, 1),))
        x = random_signal(RepresentationStructure(((3, 1),)), np.random.default_rng(0))
        with pytest.raises(StructureMismatch):
            apply(identity_element(s), x)

    def test_cyclic_action_requires_dft_structure(self):
        from gramphase import GroupAction

        with pytest.raises(StructureMismatch):
            GroupAction(RepresentationStructure(((8, 4),)), "cyclic", 32)


class TestHaar:
    def test_cyclic_average_kills_nonzero_frequencies(self):
        # averaging the 4th roots of unity gives zero on every non-DC block
        action = cyclic_action(4, "complex")
        avg = sum(
            np.hstack([b.ravel() for b in cyclic_shift_element(action, s).blocks])
            for s in range(4)
        ) / 4
        assert abs(avg[0] - 1.0) < 1e-12
        assert np.max(np.abs(avg[1:])) < 1e-12

    def test_full_ambiguity_mean_zero(self):
        s = RepresentationStructure(((2, 1),))
        action = full_ambiguity_action(s)
        rng = np.random.default_rng(123)
        total = np.zeros((2, 2))
        n = 10_000
        for _ in range(n):
            total += haar_sample(action, rng).blocks[0]
        assert np.max(np.abs(total / n)) < 3.0 / np.sqrt(n)

    def test_every_sample_orthogonal(self):
        s = RepresentationStructure(((3, 1), (2, 2)), "complex")
        action = full_ambiguity_action(s)
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = haar_sample(action, rng)  # constructor validates D* D == I
            for d in g.blocks:
                assert np.max(np.abs(d.conj().T @ d - np.eye(d.shape[0]))) < 1e-10

    def test_translation_invariance_statistics(self):
        s = RepresentationStructure(((2, 1),))
        action = full_ambiguity_action(s)
        rng = np.random.default_rng(99)
        g0 = haar_sample(action, rng)
        plain = np.zeros((2, 2))
        translated = np.zeros((2, 2))
        n = 10_000
        for _ in range(n):
            d = haar_sample(action, rng).blocks[0]
            plain += d
            translated += g0.blocks[0] @ d
        assert np.max(np.abs(plain - translated)) / n < 0.05


class TestRandomSignal:
    def test_deterministic(self):
        s = RepresentationStructure(((4, 3), (2, 1)), "complex")
        a = random_signal(s, np.random.default_rng(11))
        b = random_signal(s, np.random.default_rng(11))
        for ma, mb in zip(a.matrices, b.matrices):
            np.testing.assert_array_equal(ma, mb)

    def test_shapes_conform(self):
        s = RepresentationStructure(((5, 2), (1, 4)))
        x = random_signal(s, np.random.default_rng(0))
        assert [m.shape for m in x.matrices] == [(5, 2), (1, 4)]

    def test_entry_variance(self):
        s = RepresentationStructure(((100, 100),))
        rng = np.random.default_rng(2)
        entries = np.concatenate(
            [random_signal(s, rng).matrices[0].ravel() for _ in range(10)]
        )
        assert entries.size >= 100_000
        assert abs(entries.var() - 1.0) < 0.05


REAL_2X2 = RepresentationStructure(((2, 2),))
COMPLEX_GRAM = np.array([[2.0, 1j], [-1j, 2.0]])


@pytest.mark.parametrize("build", [
    lambda: decompose(np.ones(4) + 1j, REAL_2X2),
    lambda: BlockSignal(REAL_2X2, (np.eye(2) + 1j,)),
    lambda: moments.GramTuple(REAL_2X2, (COMPLEX_GRAM,)),
    lambda: moments.MraSampleSet(REAL_2X2, np.ones((3, 4)) + 1j, 0.0, 0),
    lambda: apply(GroupElement((1j * np.eye(2),)), BlockSignal(REAL_2X2, (np.eye(2),))),
    lambda: moments.extract_gram(np.kron(COMPLEX_GRAM.T, np.eye(2)) / 2, REAL_2X2),
    lambda: serialize.gram_from_dict({"structure": serialize.structure_to_dict(REAL_2X2),
                                      "grams": [serialize.array_to_json(COMPLEX_GRAM)]}),
    lambda: serialize.signal_from_dict({"structure": serialize.structure_to_dict(REAL_2X2),
                                        "matrices": [serialize.array_to_json(np.eye(2) + 1j)]}),
], ids=["decompose", "BlockSignal", "GramTuple", "MraSampleSet", "apply", "extract_gram",
        "gram_from_dict", "signal_from_dict"])
def test_complex_data_on_a_real_structure_is_refused(build):
    # each of these once cast the data to float64, dropping the imaginary
    # parts with only a ComplexWarning
    with pytest.raises(ValueError, match="complex data passed to a real-field structure"):
        build()


class TestGaussian:
    """The stream rule of every random array, against plain numpy draws."""

    @pytest.mark.parametrize("shape", [5, (8, 4), (3, 8, 4)])
    def test_real_is_one_draw_and_complex_is_real_parts_then_imaginary_parts(self, shape):
        rng, plain = np.random.default_rng(27), np.random.default_rng(27)
        real = blocks._gaussian(rng, shape, "real")
        z = blocks._gaussian(rng, shape, "complex")
        expected = [plain.standard_normal(shape) for _ in range(3)]
        assert real.dtype == np.float64 and z.dtype == np.complex128
        assert real.shape == z.shape == np.shape(expected[0])
        assert real.tobytes() == expected[0].tobytes()
        assert z.real.tobytes() == expected[1].tobytes()
        assert z.imag.tobytes() == expected[2].tobytes()
        # the stream goes on where two plain draws leave it
        assert rng.standard_normal(4).tobytes() == plain.standard_normal(4).tobytes()


@pytest.fixture(params=[2, 3])
def workers(request, monkeypatch):
    """A worker count above one, whatever CPUs the machine has."""
    monkeypatch.setattr(blocks, "_workers", lambda: request.param)
    return request.param


class TestChunkMap:
    def test_chunks_are_drawn_on_the_calling_thread(self, workers):
        drawn, ran = [], []

        def chunks():
            for i in range(20):
                drawn.append(threading.get_ident())
                yield (i,)

        _chunk_map(lambda i: ran.append((i, threading.get_ident())), list(chunks()))
        assert drawn == [threading.get_ident()] * 20
        assert sorted(i for i, _ in ran) == list(range(20))
        assert any(t != threading.get_ident() for _, t in ran)

    def test_a_map_inside_a_chunk_runs_inline_and_completes(self, workers):
        ran = [[] for _ in range(workers + 1)]

        def outer(i):
            _chunk_map(lambda j: ran[i].append((j, threading.get_ident())),
                       [(j,) for j in range(4)])

        # run on a thread of its own so that a deadlock fails the test
        # rather than hang it
        runner = threading.Thread(
            target=_chunk_map, args=(outer, [(i,) for i in range(workers + 1)]), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        for inner in ran:
            assert [j for j, _ in inner] == list(range(4))
            assert len({t for _, t in inner}) == 1  # on the chunk's own thread
        assert runner.ident not in {t for inner in ran for _, t in inner}

    def test_at_most_workers_chunks_run_at_once(self, workers):
        lock = threading.Lock()
        running, most = [0], [0]

        def work(i):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.002)
            with lock:
                running[0] -= 1

        _chunk_map(work, [(i,) for i in range(30)])
        assert running[0] == 0 and 1 <= most[0] <= workers

    def test_a_failing_chunk_reaches_the_caller_and_leaves_no_thread(self, workers,
                                                                     started_pool):
        threads = started_pool(workers)

        def work(i):
            if i in (3, 7):
                raise ValueError(f"chunk {i}")

        with pytest.raises(ValueError, match="chunk 3"):
            _chunk_map(work, [(i,) for i in range(20)])
        assert threading.active_count() == threads
        assert started_pool(workers) == threads  # every pool thread is free again

    def test_every_map_runs_on_the_same_pool_threads(self, workers):
        ran = set()
        for _ in range(3):
            _chunk_map(lambda i: ran.add(threading.current_thread()), [(i,) for i in range(8)])
        assert threading.current_thread() not in ran and len(ran) <= workers

    def test_chunks_run_under_the_callers_errstate(self, workers):
        seen = []
        with np.errstate(over="raise"):
            caller = np.geterr()
            _chunk_map(lambda i: seen.append(np.geterr()), [(i,) for i in range(10)])
            with pytest.raises(FloatingPointError):
                _chunk_map(lambda i: np.float64(1e300) * 1e300, [(i,) for i in range(10)])
        assert seen == [caller] * 10 and caller["over"] == "raise"

    def test_one_chunk_starts_no_thread(self, workers, monkeypatch):
        def refuse(*args):
            raise AssertionError("a thread pool was used for one chunk")

        monkeypatch.setattr(blocks, "_pool", refuse)
        ran = []
        _chunk_map(lambda i: ran.append(threading.get_ident()), [(0,)])
        assert ran == [threading.get_ident()]
        s = RepresentationStructure(((64, 2), (8, 4)))
        haar_sample(full_ambiguity_action(s), np.random.default_rng(0))
        x, y = (reconstruct(random_signal(s, np.random.default_rng(i)))[None] for i in (1, 2))
        distortion_ratios(x, y, s)
        scalar = RepresentationStructure(((1, 1),))
        with pytest.warns(UserWarning, match="injective"):
            distortion_estimate(scalar, LinearSubspacePrior(np.array([[1.0]])), 2000,
                                np.random.default_rng(3))

    def test_chunks_hold_a_share_of_the_budget(self, workers):
        assert blocks._chunk_rows(4) == blocks.CHUNK_ENTRIES // workers // 4
        assert blocks._chunk_rows(blocks.CHUNK_ENTRIES) == 1


class _RecordingRng:
    """A generator that records the thread of each ``standard_normal`` call."""

    def __init__(self, seed):
        self.rng, self.threads = np.random.default_rng(seed), []

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        return self.rng.standard_normal(*args, **kwargs)


SHAPES = [(3,), (2, 4), (5, 2, 3), (1,), (7,), (2, 2)]


class TestDrawAhead:
    def test_draws_are_the_plain_streams_on_a_pool_thread(self, workers):
        rng, got = _RecordingRng(4), []
        blocks._draw_ahead(rng, [(shape, lambda g: got.append(g.copy())) for shape in SHAPES])
        plain = np.random.default_rng(4)
        assert [g.tobytes() for g in got] == [plain.standard_normal(s).tobytes() for s in SHAPES]
        assert [g.shape for g in got] == SHAPES
        assert len(rng.threads) == len(SHAPES)
        assert threading.get_ident() not in rng.threads

    def test_the_draws_stay_at_most_the_ring_ahead_of_the_uses(self, workers):
        rng, ahead = _RecordingRng(0), []

        def use(g):
            time.sleep(0.002)  # let the draws run ahead
            ahead.append(len(rng.threads) - len(ahead))

        blocks._draw_ahead(rng, [((4,), use)] * 20)
        assert max(ahead) <= blocks.DRAWS_AHEAD

    def test_one_draw_one_worker_or_a_pool_thread_runs_inline(self, workers, monkeypatch):
        rng = _RecordingRng(0)
        with monkeypatch.context() as mp:
            mp.setattr(blocks, "_pool", None)  # a call that reached the pool would fail
            blocks._draw_ahead(rng, [((4,), lambda g: None)])
            mp.setattr(blocks, "_workers", lambda: 1)
            blocks._draw_ahead(rng, [(shape, lambda g: None) for shape in SHAPES])
        assert rng.threads == [threading.get_ident()] * (1 + len(SHAPES))
        # a draw made on a pool thread runs there, rather than wait on a
        # pool its caller fills; run on a thread of its own so that a
        # deadlock fails the test rather than hang it
        want = blocks.haar_stack(3, 30_000, "real", np.random.default_rng(1))
        got = [None] * (workers + 1)

        def stack(i):
            got[i] = blocks.haar_stack(3, 30_000, "real", np.random.default_rng(1))

        runner = threading.Thread(
            target=_chunk_map, args=(stack, [(i,) for i in range(workers + 1)]), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert all(np.array_equal(g, want) for g in got)


needs_openblas = pytest.mark.skipif(
    blocks._openblas_threads() is None, reason="numpy is not on its bundled OpenBLAS")


@pytest.fixture
def two_blas_threads():
    """The BLAS thread count at 2 for the test, the caller's after it."""
    get, set_ = blocks._openblas_threads()
    count = get()
    set_(2)
    try:
        yield get
    finally:
        set_(count)


@needs_openblas
class TestOneBlasThread:
    def test_the_count_is_1_inside_and_restored_after_a_return(self, two_blas_threads):
        seen = []
        blocks._one_blas_thread(lambda: seen.append(two_blas_threads()))()
        assert seen == [1] and two_blas_threads() == 2

    def test_the_count_is_restored_after_a_raise(self, two_blas_threads):
        def fail():
            raise ValueError("inside")

        with pytest.raises(ValueError, match="inside"):
            blocks._one_blas_thread(fail)()
        assert two_blas_threads() == 2

    def test_a_nested_call_and_a_chunk_map_thread_read_1(self, two_blas_threads, workers):
        seen = []
        inner = blocks._one_blas_thread(lambda: seen.append(("nested", two_blas_threads())))

        def outer():
            inner()
            _chunk_map(lambda i: seen.append((threading.get_ident(), two_blas_threads())),
                       [(i,) for i in range(8)])
            seen.append(("after nested", two_blas_threads()))

        blocks._one_blas_thread(outer)()
        assert {count for _, count in seen} == {1}
        assert any(t != threading.get_ident() for t, _ in seen[1:-1])
        assert two_blas_threads() == 2

    def test_two_python_threads_read_1_until_both_have_returned(self, two_blas_threads):
        # A enters, then B; A returns while B is still inside
        a_inside, b_inside, a_returned, b_may_return = (threading.Event() for _ in range(4))
        seen = {}

        def a():
            a_inside.set()
            b_inside.wait(10)
            seen["a"] = two_blas_threads()

        def b():
            b_inside.set()
            a_returned.wait(10)
            seen["b"] = two_blas_threads()
            b_may_return.wait(10)

        def run_a():
            blocks._one_blas_thread(a)()
            a_returned.set()

        threads = [threading.Thread(target=run_a),
                   threading.Thread(target=blocks._one_blas_thread(b))]
        threads[0].start()
        assert a_inside.wait(10)
        threads[1].start()
        assert a_returned.wait(10)
        threads[0].join(10)
        seen["between"] = two_blas_threads()
        b_may_return.set()
        threads[1].join(10)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"a": 1, "b": 1, "between": 1}
        assert two_blas_threads() == 2

    def test_many_threads_entering_and_leaving_read_1_and_restore(self, two_blas_threads):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        counts = []
        pinned = blocks._one_blas_thread(lambda: counts.append(two_blas_threads()))
        nested = blocks._one_blas_thread(lambda: [pinned() for _ in range(3)])
        try:
            threads = [threading.Thread(target=lambda: [nested() for _ in range(200)])
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(counts) == 8 * 200 * 3 and set(counts) == {1}
        assert two_blas_threads() == 2

    def test_nothing_is_pinned_without_the_symbols(self, two_blas_threads, monkeypatch):
        monkeypatch.setattr(blocks, "_openblas_threads", lambda: None)
        seen = []
        blocks._one_blas_thread(lambda: seen.append(two_blas_threads()))()
        assert seen == [2]

    def test_the_sampler_rotates_its_chunks_on_one_blas_thread(self, two_blas_threads,
                                                               monkeypatch):
        seen = []

        def spy(g, m, out):
            seen.append(two_blas_threads())
            blocks.haar_rotate(g, m, out)

        monkeypatch.setattr(moments, "haar_rotate", spy)
        s = RepresentationStructure(((8, 4),))
        x = random_signal(s, np.random.default_rng(0))
        sample_observations(x, full_ambiguity_action(s), 0.1, 50, 1)
        assert seen == [1] and two_blas_threads() == 2


def _draws(rng, n, count, field):
    """The Gaussians of ``count`` Haar draws of ``n x n`` matrices, as
    :func:`blocks.haar_chunks` lays them out."""
    k = n * (n + 1) // 2
    return rng.standard_normal((count, k) if field == "real" else (count, 2, k))


def _rotate(g, n, field, m=None):
    """:func:`blocks.haar_rotate` of ``g`` into a new array: the Haar
    matrices, or their products with ``m``."""
    out = np.empty((len(g), n, n if m is None else m.shape[1]),
                   dtype=np.complex128 if field == "complex" else np.float64)
    blocks.haar_rotate(g, m, out)
    return out


def _crafted(n, field):
    """Draws whose vectors hit every branch of ``larfg``: a zero tail under
    a positive, a negative and (complex) a non-real alpha, a zero alpha
    over a nonzero tail, an all-zero vector and a zero last entry."""
    rng = np.random.default_rng(n)
    g = _draws(rng, n, 7, field)
    re = g if field == "real" else g[:, 0]
    starts = np.cumsum([0] + [n - k for k in range(n)])
    if n > 1:
        first, second = slice(starts[0] + 1, starts[1]), slice(starts[1] + 1, starts[2])
        re[0, first] = 0.0  # a zero tail under a positive alpha
        re[0, starts[0]] = 1.5
        re[1, first] = 0.0  # ... under a negative alpha
        re[1, starts[0]] = -0.5
        re[2, starts[0]] = 0.0  # a zero alpha over a nonzero tail
        re[3, starts[1] : starts[2]] = 0.0  # an all-zero vector
        if field == "complex":
            g[0, 1, starts[0] : starts[1]] = 0.0  # alpha real: no reflection
            g[1, 1, first] = 0.0  # alpha not real: a reflection all the same
            g[2, 1, starts[0]] = 0.0
            g[3, 1, starts[1] : starts[2]] = 0.0
        re[4, second] = 0.0
    re[5, -1] = 0.0  # the last entry zero, its sign or phase 1
    if field == "complex":
        g[5, 1, -1] = 0.0
    return g


class TestHaarKernel:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
    def test_each_draw_is_the_dense_product_of_its_reflectors(self, field, n):
        g = _draws(np.random.default_rng(n), n, 40, field)
        got = _rotate(g, n, field)
        for q, draw in zip(got, g):
            assert np.max(np.abs(q - dense_householder_haar(draw, n))) <= 1e-14

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_crafted_draws_are_orthonormal(self, field, n):
        g = _crafted(n, field)
        got = _rotate(g, n, field)
        assert np.isfinite(got).all()
        assert np.max(np.abs(got.conj().mT @ got - np.eye(n))) <= 1e-14
        for q, draw in zip(got, g):
            assert np.max(np.abs(q - dense_householder_haar(draw, n))) <= 1e-14

    def test_one_entry_draws_are_their_signs_and_phases(self):
        real = _rotate(np.array([[2.0], [-0.5], [0.0]]), 1, "real")
        assert real.ravel().tolist() == [1.0, -1.0, 1.0]
        z = _rotate(np.array([[[3.0], [4.0]], [[0.0], [-2.0]], [[0.0], [0.0]]]), 1, "complex")
        assert np.allclose(z.ravel(), [0.6 + 0.8j, -1j, 1.0], rtol=0, atol=1e-16)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n, r", [(1, 3), (2, 1), (3, 2), (8, 4), (5, 9)])
    def test_a_block_gets_the_draw_times_the_block(self, field, n, r):
        rng = np.random.default_rng(10 * n + r)
        g = _draws(rng, n, 30, field)
        m = rng.standard_normal((n, r))
        if field == "complex":
            m = m + 1j * rng.standard_normal((n, r))
        got = _rotate(g, n, field, m)
        want = _rotate(g, n, field) @ m
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(m)) * n


def _check_haar_moments(q, field):
    """The Diaconis-Shahshahani moments of Haar measure, each sample mean
    within 6 of its standard errors (from the sample's own spread) of
    the exact value: ``E tr Q = 0``, ``E |tr Q|^2 = 1``, ``E tr(Q)^4 = 3``
    (real, n >= 4), ``E |tr Q|^4 = 2`` (complex, n >= 2), ``E |Q_1n|^4 =
    3 / (n (n + 2))`` (real) or ``2 / (n (n + 1))`` (complex), and a
    uniform sign (phase) of the determinant: ``E det Q = 0``, and
    ``E det(Q)^2 = 0`` on the complex field."""
    count, n, _ = q.shape
    tr = np.trace(q, axis1=1, axis2=2)
    det = np.linalg.det(q)
    real = field == "real"
    stats = [("E tr", tr, 0.0), ("E |tr|^2", np.abs(tr) ** 2, 1.0),
             ("E |Q_1n|^4", np.abs(q[:, 0, -1]) ** 4,
              3.0 / (n * (n + 2)) if real else 2.0 / (n * (n + 1))),
             ("E det", det, 0.0)]
    if real and n >= 4:
        stats.append(("E tr^4", tr**4, 3.0))
    if not real:
        stats.append(("E det^2", det**2, 0.0))
        if n >= 2:
            stats.append(("E |tr|^4", np.abs(tr) ** 4, 2.0))
    for name, s, want in stats:
        error = np.sqrt(np.mean(np.abs(s - s.mean()) ** 2) / count)
        assert abs(s.mean() - want) <= 6.0 * error + 1e-12, (name, s.mean(), want, error)
    assert np.max(np.abs(np.abs(det) - 1.0)) <= 1e-12


class TestHaarLaw:
    """The draws against the moments of Haar measure, and Mezzadri's QR
    sampler against the same values."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_haar_stack_has_the_haar_moments(self, field, n):
        _check_haar_moments(blocks.haar_stack(n, 20_000, field, np.random.default_rng(n)), field)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_the_qr_oracle_has_the_haar_moments(self, field, n):
        _check_haar_moments(mezzadri_haar(np.random.default_rng(n), n, 20_000, field), field)
