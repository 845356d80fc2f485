import tracemalloc

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
from gramphase.analysis import (
    _Menu,
    _base_bins,
    _bin_box,
    _binned,
    _brute_grid_max,
    _build_menus,
    _hull_grid_max,
    _pair_terms,
    _product_sums,
    _rebased_subspace,
)
from gramphase import analysis, blocks
from gramphase.blocks import CHUNK_ENTRIES
from tests._oracles import (
    brute_transversality_margin,
    fd_orbit_dimension,
    svd_distortion_ratio,
)


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


TAU = 1.0 - 0.5**2 / 2.0  # the slab half-width at exclude_tol 0.5


def _engine_order_max(menus, tau):
    """What ``_hull_grid_max`` returns, by enumerating its whole product:
    base the two largest menus, queries the rest, the same sums in the same
    order, ties to the lowest row-major (rest, base) index."""
    ids = sorted(range(len(menus)), key=lambda i: -menus[i].size)
    base, rest = ids[:2], ids[2:]

    def sums(sel):
        a, b = np.zeros(1), np.zeros(1)
        for i in sel:
            a = (a[:, None] + menus[i].a).ravel()
            b = (b[:, None] + menus[i].b[:, 0]).ravel()
        return a, b

    (a, b), (c, d) = sums(base), sums(rest)
    c, d = c[:, None], d[:, None]
    f = (a + c) ** 2 + (b + d) ** 2
    f[(a <= -tau - c) | (a >= tau - c)] = -np.inf
    k = int(np.argmax(f))
    if f.flat[k] == -np.inf:
        return None
    combo = np.unravel_index(k, tuple(menus[i].size for i in rest + base))
    return float(f.flat[k]), {i: int(j) for i, j in zip(rest + base, combo)}


def _check_engine(menus, tau):
    """``_hull_grid_max`` equals the enumeration of its own sums bitwise,
    combo included, and the brute engine, which sums in menu order, to
    rounding."""
    hit = _hull_grid_max(menus, tau)
    assert hit == _engine_order_max(menus, tau)
    fb, _ = _brute_grid_max(menus, tau)
    assert abs(fb - hit[0]) <= 4 * np.finfo(float).eps
    return hit


def _apply_labels(labels, x_amb, structure, res):
    """The image of ``x_amb`` under the grid element the labels describe."""
    out = []
    for (kind, t), (n, r), sl in zip(labels, structure.blocks, structure.block_slices):
        xl = x_amb[sl].reshape((n, r), order="F")
        th = 2.0 * np.pi * t / res
        c, s = np.cos(th), np.sin(th)
        g = {"sign": np.array([[float(t)]]),
             "rotation": np.array([[c, -s], [s, c]]),
             "reflection": np.array([[c, s], [s, -c]])}[kind]
        out.append((g @ xl).flatten(order="F"))
    return np.concatenate(out)


def _unit_point(basis, rng):
    x = basis @ rng.standard_normal(basis.shape[1])
    return x / np.linalg.norm(x)


class TestGridEngines:
    @pytest.mark.parametrize("n,seed", [(6, 0), (6, 1), (8, 2)])
    def test_hull_engine_matches_brute_enumeration(self, n, seed):
        s = cyclic_structure(n, "real")
        rng = np.random.default_rng(seed)
        prior = random_subspace_prior(s, 2, rng)
        x_amb = _unit_point(prior.basis, rng)
        res = 32
        basis = _rebased_subspace(prior.basis, x_amb)
        menus = _build_menus(decompose(x_amb, s), basis, res)
        fh, _ = _check_engine(menus, TAU)
        # and the fully independent enumeration oracle agrees
        oracle = brute_transversality_margin(s, prior.basis, x_amb, res, 0.5)
        assert abs(np.sqrt(max(1.0 - fh, 0.0)) - oracle) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_several_rest_menus(self, seed):
        # cyclic:10 leaves two O(2) and two sign menus to the queries
        s = cyclic_structure(10, "real")
        rng = np.random.default_rng(seed)
        prior = random_subspace_prior(s, 2, rng)
        x_amb = _unit_point(prior.basis, rng)
        menus = _build_menus(decompose(x_amb, s), _rebased_subspace(prior.basis, x_amb), 16)
        _check_engine(menus, TAU)

    def test_one_dimensional_prior(self):
        s = cyclic_structure(8, "real")
        rng = np.random.default_rng(7)
        basis = np.linalg.qr(rng.standard_normal((8, 1)))[0]
        x_amb = basis[:, 0]
        menus = _build_menus(decompose(x_amb, s), _rebased_subspace(basis, x_amb), 32)
        assert all(not menu.b.any() for menu in menus)
        fh, _ = _check_engine(menus, TAU)
        oracle = brute_transversality_margin(s, basis, x_amb, 32, 0.5)
        assert abs(np.sqrt(max(1.0 - fh, 0.0)) - oracle) < 1e-10

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_prior_vanishing_on_one_block(self, block):
        # every element of the vanishing block ties; the lowest index wins
        s = cyclic_structure(8, "real")
        rng = np.random.default_rng(20 + block)
        basis = rng.standard_normal((8, 2))
        basis[s.block_slices[block]] = 0.0
        basis = np.linalg.qr(basis)[0]
        x_amb = _unit_point(basis, rng)
        res = 32
        menus = _build_menus(decompose(x_amb, s), _rebased_subspace(basis, x_amb), res)
        assert not menus[block].a.any() and not menus[block].b.any()
        fh, combo = _check_engine(menus, TAU)
        assert combo[block] == 0
        labels = [menus[i].labels[combo[i]] for i in range(len(menus))]
        y = _apply_labels(labels, x_amb, s, res)
        assert min(np.linalg.norm(y - x_amb), np.linalg.norm(y + x_amb)) > 0.5
        dist = np.linalg.norm(y - basis @ (basis.T @ y))
        assert abs(dist - np.sqrt(max(1.0 - fh, 0.0))) < 1e-12

    def test_nothing_feasible(self):
        # exclude_tol 1.9 leaves an empty slab: every image is excluded
        s = cyclic_structure(8, "real")
        rng = np.random.default_rng(5)
        prior = random_subspace_prior(s, 2, rng)
        x_amb = _unit_point(prior.basis, rng)
        menus = _build_menus(decompose(x_amb, s), _rebased_subspace(prior.basis, x_amb), 32)
        tau = 1.0 - 1.9**2 / 2.0
        assert _hull_grid_max(menus, tau) is None
        assert _brute_grid_max(menus, tau) is None
        report = transversality_check(s, prior, 1, 64, rng, exclude_tol=1.9, points=[x_amb])
        assert report.worst_margin == np.inf

    @pytest.mark.parametrize("band", [1, 2])
    @pytest.mark.parametrize("case", ["random", "several_rest", "vanishing_block"])
    def test_small_bands_give_the_same_max(self, monkeypatch, band, case):
        # bands of 1 or 2 pairs make many bands, and the grids' symmetries
        # give runs of equal bounds, which band edges split (a block the
        # prior vanishes on ties every element of it)
        n, seed = {"random": (8, 2), "several_rest": (10, 0), "vanishing_block": (8, 22)}[case]
        s = cyclic_structure(n, "real")
        rng = np.random.default_rng(seed)
        basis = rng.standard_normal((n, 2))
        if case == "vanishing_block":
            basis[s.block_slices[2]] = 0.0
        basis = np.linalg.qr(basis)[0]
        x_amb = _unit_point(basis, rng)
        menus = _build_menus(decompose(x_amb, s), _rebased_subspace(basis, x_amb), 32)
        want = _hull_grid_max(menus, TAU)
        monkeypatch.setattr(analysis, "WALK_BAND", band)
        assert _check_engine(menus, TAU) == want

    @pytest.mark.parametrize("band", [1, 2])
    def test_nothing_feasible_walks_every_band(self, monkeypatch, band):
        # a slab just below zero width: boxes wider than it still meet it,
        # but no entry falls inside, so the walk never stops early
        s = cyclic_structure(8, "real")
        rng = np.random.default_rng(5)
        prior = random_subspace_prior(s, 2, rng)
        x_amb = _unit_point(prior.basis, rng)
        menus = _build_menus(decompose(x_amb, s), _rebased_subspace(prior.basis, x_amb), 32)
        tau = -1e-9
        monkeypatch.setattr(analysis, "WALK_BAND", band)
        seen = {"pairs": 0, "walked": 0, "bands": 0}
        pair_bounds, next_band = analysis._pair_bounds, analysis._next_band

        def counted_pairs(*args):
            bound, pairs = pair_bounds(*args)
            seen["pairs"] += pairs.shape[0]
            return bound, pairs

        def counted_band(*args):
            out = next_band(*args)
            seen["walked"] += out[1].shape[0]
            seen["bands"] += 1
            return out

        monkeypatch.setattr(analysis, "_pair_bounds", counted_pairs)
        monkeypatch.setattr(analysis, "_next_band", counted_band)
        assert _hull_grid_max(menus, tau) is None
        assert _brute_grid_max(menus, tau) is None
        assert _engine_order_max(menus, tau) is None
        assert seen["walked"] == seen["pairs"]
        assert seen["bands"] >= 3

    @pytest.mark.parametrize("base_bins", [1, 2, 4096])
    @pytest.mark.parametrize("offset", [0.0, 1e8], ids=["plain", "offset"])
    @pytest.mark.parametrize("n,res", [(8, 32), (6, 64)])
    def test_edge_boxes_give_the_same_max(self, monkeypatch, n, res, offset, base_bins):
        # few bins make wide edge boxes; a large common offset in a with a
        # small spread makes the edges' widening a large part of each bin
        s = cyclic_structure(n, "real")
        rng = np.random.default_rng(40 + n)
        prior = random_subspace_prior(s, 2, rng)
        x_amb = _unit_point(prior.basis, rng)
        menus = _build_menus(decompose(x_amb, s), _rebased_subspace(prior.basis, x_amb), res)
        if offset:
            # the base is menus 1 and 2, the queries hold the offset back
            menus[1].a = offset / 2 + 1e-6 * menus[1].a
            menus[2].a = offset / 2 + 1e-6 * menus[2].a
            menus[0].a = menus[0].a - offset
        want = _hull_grid_max(menus, TAU)
        monkeypatch.setattr(analysis, "BASE_BINS", base_bins)
        hit = _hull_grid_max(menus, TAU)
        assert hit == want == _engine_order_max(menus, TAU)
        fb, _ = _brute_grid_max(menus, TAU)
        if offset:
            # the brute engine sums in menu order, which rounds at ulps of 1e8
            assert abs(fb - hit[0]) <= 1e-6
        else:
            assert abs(fb - hit[0]) <= 4 * np.finfo(float).eps
            oracle = brute_transversality_margin(s, prior.basis, x_amb, res, 0.5)
            assert abs(np.sqrt(max(1.0 - hit[0], 0.0)) - oracle) < 1e-10

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


def _tied_values(rng, n):
    """Coarsely rounded normals, so that values repeat, with signed zeros."""
    v = np.round(rng.standard_normal(n), 1)
    v[::7], v[3::7] = -0.0, 0.0
    return v


def _plain_key(x, lo, span, count):
    """The bin key of ``x`` by the formula of ``_binned``, in Python floats,
    as ``test_binned_against_a_plain_loop`` computes it."""
    return min(int((x - lo) / span * count), max(count, 1) - 1) if span > 0 else 0


def _menu(a, rng):
    """A menu of first coordinates ``a``; its ``b`` is Gaussian."""
    a = np.asarray(a, float)
    return _Menu(a, rng.standard_normal((a.shape[0], 1)), None, None)


def _edge_case(case, rng):
    """The ``a`` of two base menus, for the edge-box cases."""
    signed = lambda n: rng.choice([-1.0, 1.0], n)  # noqa: E731
    if case == "magnitudes":  # sums from 1e-150 to 1e150
        return (signed(70) * 10.0 ** rng.uniform(-150, 150, 70),
                signed(60) * 10.0 ** rng.uniform(-150, 150, 60))
    if case in ("tiny", "huge"):
        scale = 1e-150 if case == "tiny" else 1e150
        return scale * rng.standard_normal(70), scale * rng.standard_normal(60)
    if case == "zero_span":
        z = np.zeros(64)
        z[::3] = -0.0
        return z, z[::-1].copy()
    if case == "one_bin":  # 200 entries, below 256
        return rng.standard_normal(10), rng.standard_normal(20)
    if case == "on_edges":  # 16 bins of width 1, every integer sum on an edge
        cols = np.zeros(64)
        cols[::2] = -0.0
        return np.arange(65) * 0.25, cols
    if case == "near_edges":  # sums within 32 ulps of edges that do not round exactly
        return 0.3 + 1.7 * np.arange(65) / 64, np.spacing(2.0) * np.arange(-32, 32)
    if case == "signed_zeros":
        return _tied_values(rng, 70), _tied_values(rng, 60)
    if case == "offset":  # a large common offset, a spread of about 1e-6
        return 1e8 + 1e-6 * rng.standard_normal(70), 1e8 + 1e-6 * rng.standard_normal(60)
    raise AssertionError(case)


def _check_edge_boxes(u, key, bins, box, lo, hi):
    """Every entry of ``u`` lies in its bin's box, and every box in ``[lo, hi]``."""
    at = {b: i for i, b in enumerate(bins.tolist())}
    lows, highs = box.tolist()
    for x, k in zip(u.tolist(), key.tolist()):
        assert lows[at[k]] <= x <= highs[at[k]]
    assert lo <= min(lows) and max(highs) <= hi


class TestBinning:
    @pytest.mark.parametrize("n, count", [
        (1, 4), (50, 0), (1000, 16), (2 * CHUNK_ENTRIES + 5, 4096)])
    def test_binned_against_a_plain_loop(self, n, count):
        rng = np.random.default_rng(n)
        u, w = _tied_values(rng, n), _tied_values(rng, n)
        key, bins, starts, sizes, _ = _binned(u, count, u.min(), u.max())
        lo = min(u.tolist())
        span = max(u.tolist()) - lo
        top = max(count, 1) - 1
        members = {}
        for i, x in enumerate(u.tolist()):
            k = min(int((x - lo) / span * count), top) if span > 0 else 0
            assert key[i] == k
            members.setdefault(k, []).append(i)
        order = np.argsort(key, kind="stable")
        assert np.all(np.diff(key[order]) >= 0)
        counts = np.bincount(key, minlength=top + 1)
        assert np.array_equal(bins, np.flatnonzero(counts))
        assert np.array_equal(sizes, counts[bins])
        for b, start, size in zip(bins, starts, sizes):
            assert order[start : start + size].tolist() == members[b]
        for v in (u, w):
            box = _bin_box(key, bins, v)
            for b, lo_hi in zip(bins, box.T):
                vals = v[members[b]].tolist()
                assert lo_hi.tolist() == [min(vals), max(vals)]

    def test_constant_values_fill_one_bin(self):
        key, bins, starts, sizes, box = _binned(np.full(300, 0.7), 64, 0.7, 0.7)
        assert not key.any()
        assert (bins.tolist(), starts.tolist(), sizes.tolist()) == ([0], [0], [300])
        assert box.tolist() == [[0.7], [0.7]]

    @pytest.mark.parametrize("case", [
        "magnitudes", "tiny", "huge", "zero_span", "one_bin", "on_edges", "near_edges",
        "signed_zeros", "offset"])
    def test_base_entries_lie_in_their_edge_boxes(self, case):
        rng = np.random.default_rng(len(case))
        rows, cols = _edge_case(case, rng)
        menus = [_menu(rows, rng), _menu(cols, rng)]
        terms = _pair_terms(menus)
        (a_rows, a_cols), _ = terms
        a, b = _product_sums(menus)
        # the menus give the range of the product, but for the sign of a zero
        lo, hi = a_rows.min() + a_cols.min(), a_rows.max() + a_cols.max()
        assert (lo, hi) == (a.min(), a.max())
        n_base = a.shape[0]
        key, bins, sizes, a_box, b_box = _base_bins(terms, n_base)
        count = min(analysis.BASE_BINS, n_base // 256)
        lo_, span = min(a.tolist()), max(a.tolist()) - min(a.tolist())
        for i, x in enumerate(a.tolist()):
            assert key[i] == _plain_key(x, lo_, span, count)
        assert np.array_equal(sizes, np.bincount(key)[bins])
        _check_edge_boxes(a, key, bins, a_box, lo, hi)
        assert np.array_equal(b_box, _bin_box(key, bins, b[:, 0]))
        # and at the most bins the base takes
        key, bins, _, _, box = _binned(a, analysis.BASE_BINS, lo, hi)
        assert all(k == _plain_key(x, lo_, span, analysis.BASE_BINS)
                   for x, k in zip(a.tolist(), key.tolist()))
        _check_edge_boxes(a, key, bins, box, lo, hi)

    def test_edge_boxes_hold_on_random_menus(self):
        # random scales and offsets, from 1e-150 to 1e150, some with ties;
        # every other case puts the sums within 8 ulps of the bins' edges
        rng = np.random.default_rng(2026)
        for t in range(600):
            scale, offset = 10.0 ** rng.uniform(-150, 150, 2)
            count = int(rng.choice([1, 2, 7, 64, 100, 4096]))
            if t % 2:
                rows = offset * rng.uniform(-1, 1) + scale * np.arange(count + 1) / count
                cols = np.spacing(np.abs(rows).max()) * np.arange(-8, 9)
            else:
                rows, cols = (offset * rng.choice([-1.0, 0.0, 1.0])
                              + scale * np.round(rng.standard_normal(n), rng.integers(0, 4))
                              for n in rng.integers(1, 80, 2))
            lo, hi = rows.min() + cols.min(), rows.max() + cols.max()
            a = (rows[:, None] + cols).ravel()
            key, bins, _, _, box = _binned(a, count, lo, hi)
            at = np.searchsorted(bins, key)
            assert np.all((box[0, at] <= a) & (a <= box[1, at]))

    @pytest.mark.parametrize("res", [16, 64])
    def test_pair_terms_rebuild_the_product_sums(self, res):
        # a prior vanishing on block 1 gives that menu zero sums; some are
        # set to -0.0, as the leading 0.0 + of both sums must normalize
        s = cyclic_structure(8, "real")
        rng = np.random.default_rng(res)
        basis = rng.standard_normal((8, 2))
        basis[s.block_slices[1]] = 0.0
        basis = np.linalg.qr(basis)[0]
        x_amb = _unit_point(basis, rng)
        menus = _build_menus(decompose(x_amb, s), _rebased_subspace(basis, x_amb), res)
        menus[1].a[::3], menus[1].b[::5] = -0.0, -0.0
        pairs = [menus[1], menus[2]], [menus[1], menus[1]], [menus[3], menus[0]]
        for base in pairs + ([menus[1]], [menus[4]]):
            (a_rows, a_cols), (b_rows, b_cols) = _pair_terms(base)
            a, b = _product_sums(base)
            pos = rng.integers(0, a.shape[0], 200)
            i, j = np.divmod(pos, a_cols.shape[0])
            assert np.array_equal((a_rows[i] + a_cols[j]).view(np.int64), a[pos].view(np.int64))
            assert np.array_equal(
                (b_rows[i] + b_cols[j]).view(np.int64), b[pos, 0].view(np.int64))


class TestTransversalityCheck:
    @pytest.mark.parametrize(
        "points,reason",
        [
            ([np.zeros(8)], "nonzero"),
            ([np.full(8, np.nan)], "finite"),
            ([np.ones(8)], "span"),
            ([], "at least one point"),
        ],
        ids=["zero", "nan", "off_span", "none"],
    )
    def test_bad_points_rejected(self, points, reason):
        s = cyclic_structure(8, "real")
        rng = np.random.default_rng(0)
        prior = random_subspace_prior(s, 2, rng)
        with pytest.raises(ValueError, match=reason):
            transversality_check(s, prior, 1, 64, rng, points=points)

    def test_point_scale_does_not_change_the_margin(self):
        s = cyclic_structure(8, "real")
        rng = np.random.default_rng(0)
        prior = random_subspace_prior(s, 2, rng)
        x = prior.basis @ np.array([1.0, 2.0])
        points = [c * x for c in (1e-160, 1.0, 1e160)]
        report = transversality_check(s, prior, 1, 64, rng, points=points)
        assert len(set(report.point_margins)) == 1

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

    def test_traced_peak_is_a_few_words_per_base_entry(self):
        # grid 512 on cyclic:8: two 1024-element O(2) menus make 1,048,576
        # base entries, held as int16 keys, with one float64 coordinate at
        # a time while the bins are built and then the int32 order of one
        # band's bins at a time (44-47 MB when the sums and sorted copies
        # of them were kept)
        s = cyclic_structure(8, "real")
        prior = random_subspace_prior(s, 2, np.random.default_rng(11))
        rng = np.random.default_rng(16)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = transversality_check(s, prior, 1, 512, rng)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert report.samples_checked == 1
        assert peak <= 3.5 * 8 * 1024**2

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


    @pytest.mark.parametrize("caps, m, match", [
        ({"MAX_MENU_STORAGE": 99}, 2, "grid storage 100 exceeds 99"),
        ({"BRUTE_CAP": 0, "MAX_BASE_COMBOS": 1023}, 2,
         r"base product 1024, remaining product 128 \(caps 1023, 65536\)"),
        ({"BRUTE_CAP": 0, "MAX_ITER_COMBOS": 127}, 2,
         r"base product 1024, remaining product 128 \(caps 4200000, 127\)"),
        ({"BRUTE_CAP": 0}, 3, "1.31e\\+05 elements with a 3-dimensional subspace"),
    ], ids=["menu-storage", "base-product", "rest-product", "subspace-above-2"])
    def test_grid_caps(self, monkeypatch, caps, m, match):
        # cyclic:8 at grid 16: menus of 2, 32, 32, 32 and 2 elements, a
        # product of 131,072; each cap lowered just below what it guards
        for name, value in caps.items():
            monkeypatch.setattr(analysis, name, value)
        s = cyclic_structure(8, "real")
        prior = random_subspace_prior(s, m, np.random.default_rng(0))
        with pytest.raises(IntractableGridError, match=match):
            transversality_check(s, prior, 1, 16, np.random.default_rng(1))


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

    @pytest.mark.parametrize("blocks, field", [
        (((8, 4), (3, 2), (1, 1)), "real"), (((6, 2), (3, 3)), "complex"),
        (cyclic_structure(16).blocks, "real")], ids=["8x4,3x2,1x1", "6x2,3x3:complex", "cyclic:16"])
    def test_ratios_match_the_svd_oracle(self, blocks, field):
        s = RepresentationStructure(blocks, field)
        rng = np.random.default_rng(16)
        x = np.stack([reconstruct(random_signal(s, rng)) for _ in range(400)])
        y = np.stack([reconstruct(random_signal(s, rng)) for _ in range(400)])
        y[::2] = x[::2] + 1e-5 * y[::2]  # local pairs
        ratios, used = distortion_ratios(x, y, s)
        assert used.all()
        oracle = [svd_distortion_ratio(a, b, blocks) for a, b in zip(x, y)]
        np.testing.assert_allclose(ratios, oracle, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("blocks, field", [
        (((8, 4),), "real"), (((8, 4), (3, 2), (1, 1)), "real"), (((6, 2), (3, 3)), "complex"),
        (cyclic_structure(16).blocks, "real")])
    def test_chunked_ratios_equal_one_row_calls(self, blocks, field):
        s = RepresentationStructure(blocks, field)
        rng = np.random.default_rng(14)
        count = 2 * (CHUNK_ENTRIES // s.ambient_dim) + 3
        x = np.stack([reconstruct(random_signal(s, rng)) for _ in range(count)])
        y = np.stack([reconstruct(random_signal(s, rng)) for _ in range(count)])
        y[1::7] = x[1::7] + 1e-6 * y[1::7]  # local pairs
        y[::5] = -x[::5]  # sign copies, skipped
        ratios, used = distortion_ratios(x, y, s)
        rows = [distortion_ratios(a[None], b[None], s) for a, b in zip(x, y)]
        assert np.array_equal(ratios, np.concatenate([r for r, _ in rows]))
        assert np.array_equal(used, np.concatenate([u for _, u in rows]))
        assert not used[::5].any() and used[1::5].all()

    def test_traced_peak_does_not_grow_with_the_pairs(self):
        # 100k pairs: the per-pair results (a few floats each, about 3 MB)
        # and one chunk of square roots, not the square roots of every
        # pair (82 MB before chunking)
        s = RepresentationStructure(((8, 4),))
        rng = np.random.default_rng(15)
        x = rng.standard_normal((100_000, s.ambient_dim))
        y = rng.standard_normal((100_000, s.ambient_dim))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ratios, _ = distortion_ratios(x, y, s)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert ratios.size == 100_000
        assert peak <= 8e6

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_traced_peak_holds_at_every_worker_count(self, monkeypatch, workers):
        monkeypatch.setattr(blocks, "_workers", lambda: workers)
        self.test_traced_peak_does_not_grow_with_the_pairs()

    @pytest.mark.parametrize("s, count", [
        (RepresentationStructure(((8, 4),)), 30_000),
        (RepresentationStructure(((6, 2), (3, 3)), "complex"), 10_000)],
        ids=["real-8x4", "complex-6x2,3x3"])
    def test_ratios_do_not_depend_on_the_worker_count(self, monkeypatch, s, count):
        rng = np.random.default_rng(17)
        x, y = (np.stack([reconstruct(random_signal(s, rng)) for _ in range(count)])
                for _ in range(2))
        y[::3] = x[::3] + 1e-5 * y[::3]  # local pairs
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(blocks, "_workers", lambda: workers)
            got.append(distortion_ratios(x, y, s))
        for ratios, used in got[1:]:
            assert np.array_equal(ratios, got[0][0]) and np.array_equal(used, got[0][1])

    @staticmethod
    def _whole_product_ratios(s, prior, num_pairs, rng):
        # the estimate's draws in their stream order, taken into the ambient
        # space as two whole products before the ratios
        def draw(count):
            c = rng.standard_normal((count, prior.dim))
            return c + 1j * rng.standard_normal((count, prior.dim)) if s.field == "complex" else c

        n_global = max(1, int(0.4 * num_pairs))
        split = [(num_pairs - n_global) // 3] * 3
        split[-1] += num_pairs - n_global - sum(split)
        cx, cy = [draw(n_global)], [draw(n_global)]
        for eps, count in zip((1e-1, 1e-3, 1e-5), split):
            base = draw(count)
            cx.append(base)
            cy.append(base + eps * draw(count))
        # the whole products on the one BLAS thread the estimate's chunks
        # run on: a threaded product may sum in another order
        whole = blocks._one_blas_thread(np.matmul)
        bt = prior.basis.T
        return distortion_ratios(whole(np.concatenate(cx), bt), whole(np.concatenate(cy), bt), s)

    def _assert_estimate_equals_the_whole_products(self, monkeypatch, s, prior, num_pairs):
        got = []

        def spy(*args, **kwargs):
            got.append(distortion_ratios(*args, **kwargs))
            return got[-1]

        monkeypatch.setattr(analysis, "distortion_ratios", spy)
        report = distortion_estimate(s, prior, num_pairs, np.random.default_rng(9))
        ratios, used = self._whole_product_ratios(s, prior, num_pairs, np.random.default_rng(9))
        assert np.array_equal(got[0][0], ratios) and np.array_equal(got[0][1], used)
        assert (report.alpha_lower, report.beta_upper) == (ratios.min(), ratios.max())

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("s, k", [
        (RepresentationStructure(((8, 4),)), 4),
        (RepresentationStructure(((8, 4), (3, 2), (1, 1))), 3),
        (RepresentationStructure(((6, 2), (3, 3)), "complex"), 3)],
        ids=["8x4", "8x4,3x2,1x1", "6x2,3x3:complex"])
    @pytest.mark.parametrize("tail", [1, 2, None], ids=["one-row-tail", "two-row-tail", "30000"])
    def test_estimate_equals_the_whole_products(self, monkeypatch, workers, s, k, tail):
        # chunked products of two or more rows are the whole product's rows
        # bit for bit; a one-row product is not, so the tail is folded
        monkeypatch.setattr(blocks, "_workers", lambda: workers)
        num_pairs = 30_000 if tail is None else 3 * blocks._chunk_rows(s.ambient_dim) + tail
        prior = random_subspace_prior(s, k, np.random.default_rng(8))
        self._assert_estimate_equals_the_whole_products(monkeypatch, s, prior, num_pairs)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_estimate_on_a_block_wider_than_a_chunk(self, monkeypatch, workers):
        # one worker's share of the budget is under one row here, and the
        # chunks still hold two rows, so no product is a one-row product
        monkeypatch.setattr(blocks, "_workers", lambda: workers)
        s = RepresentationStructure(((8_000, 3),))
        assert blocks._chunk_rows(s.ambient_dim) == 1
        prior = random_subspace_prior(s, 2, np.random.default_rng(8))
        self._assert_estimate_equals_the_whole_products(monkeypatch, s, prior, 7)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_estimate_holds_no_ambient_stack_of_the_pairs(self, monkeypatch, workers):
        # 100k 8x4 pairs at K=4: the coefficient draws (about 13 MB while
        # they are joined) and the per-pair results, not the two (pairs, d)
        # ambient stacks (61 MB with them)
        monkeypatch.setattr(blocks, "_workers", lambda: workers)
        s = RepresentationStructure(((8, 4),))
        prior = random_subspace_prior(s, 4, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = distortion_estimate(s, prior, 100_000, rng)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert report.pairs_sampled == 100_000
        assert peak <= 24e6

    @pytest.mark.parametrize("num_pairs", [True, np.True_, 2.5, float("nan"), float("inf"), 0])
    def test_rejects_a_pair_count_that_is_not_whole(self, num_pairs):
        s = RepresentationStructure(((8, 4),))
        prior = random_subspace_prior(s, 4, np.random.default_rng(3))
        with pytest.raises(ValueError, match="num_pairs must be a whole number >= 1, got "):
            distortion_estimate(s, prior, num_pairs, np.random.default_rng(4))

    @pytest.mark.parametrize("num_pairs", [300.0, np.int64(300)])
    def test_integral_pair_counts_are_kept(self, num_pairs):
        s = RepresentationStructure(((8, 4),))
        prior = random_subspace_prior(s, 4, np.random.default_rng(3))
        want = distortion_estimate(s, prior, 300, np.random.default_rng(4))
        got = distortion_estimate(s, prior, num_pairs, np.random.default_rng(4))
        assert (got.alpha_lower, got.beta_upper, got.pairs_sampled) == (
            want.alpha_lower, want.beta_upper, want.pairs_sampled)

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
