"""Empirical checks of identifiability and stability.

Three questions about a block structure and a linear prior:

* How many effective degrees of freedom survive the per-block
  rotation ambiguity?  (:func:`effective_dimension`)
* Does the ambiguity-group orbit of a subspace point re-enter the
  subspace anywhere besides the trivial sign flip?
  (:func:`transversality_check`, a dense grid search over the product
  of per-block O(1)/O(2) grids)
* How much does the Gram-square-root measurement map distort
  distances, modulo the global sign or phase?  (:func:`distortion_estimate`,
  on the solver's square roots, one LAPACK call per shape group of blocks
  and chunk of pairs, the chunks run on the CPUs' threads, each taking
  its own pairs into the ambient space)

The grid search never materializes the full product grid.  With the
subspace rebased so its first basis vector is the checked point, the
distance from a rotated copy to the subspace depends only on the sums
of per-block coordinate pairs, and the exclusion of near-sign-flips
becomes a slab constraint on the first coordinate.  The product of the
two largest menus (the base) is binned by that coordinate and the other
grid assignments (the queries) are grouped the same way.  Per point the
engine holds one int16 bin key per base entry and each bin's box of
sums.  The base sums are built one coordinate at a time, only to key and
box them, and dropped; every entry the search evaluates is rebuilt from
the two base menus, bit for bit.  The box of the binned coordinate is
read off the bin's edges, widened by a few ulps to cover the rounding of
the key, and the base's range off the ranges of its two menus; only the
box of the second coordinate is taken exactly, by scanning.  A box only
prunes, and a wider one that still holds every value it stands for
changes no result.  Rounding is monotone, so the value at
the largest corner of the box of sums a (group, bin) or (query, bin)
pair spans bounds every value computed inside it; pairs are evaluated
exactly in order of descending bound until the next bound falls below
the best value, which is then the exact maximum of the same
floating-point sums.  Ties go to the lowest row-major index into the
query menus, then into the base menus, whatever the evaluation order.
So the (group, bin) pairs are ranked only in bands, each taken by a
partition when the walk reaches it, and only the entries of a band's
bins are put in order, as int32 indices: at grid 512 on cyclic:8 the
walk stops within the first three bands of 60,000-260,000 pairs, and no
order of the whole base is built.  The traced peak there is 11-16 MB per point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blocks import (
    CHUNK_ENTRIES,
    BlockSignal,
    GroupElement,
    RepresentationStructure,
    _chunk_map,
    _chunk_rows,
    _gaussian,
    _gram,
    _one_blas_thread,
    _whole_number,
    apply,
    decompose,
    flat_block,
    frobenius_norms,
    group_stacks,
    reconstruct,
)
from .moments import gram_tuple
from .priors import LinearSubspacePrior
from .solvers import _psd_root, _unit_vectors, matrix_sqrt_psd

__all__ = [
    "TransversalityReport",
    "TransversalityViolation",
    "DistortionReport",
    "IntractableGridError",
    "effective_dimension",
    "sqrt_gram_map",
    "transversality_check",
    "intersecting_subspace_prior",
    "distortion_ratios",
    "distortion_estimate",
]


# grid search limits: product grids up to BRUTE_CAP elements are
# enumerated outright, larger ones go through the bound-and-prune engine
# within its two caps, with its bins, query groups, evaluation chunk and
# the first band of pairs its walk ranks, each band WALK_GROWTH times the last;
# margins below VIOLATION_STEPS grid steps are violations
BRUTE_CAP = 2_000_000
MAX_BASE_COMBOS = 4_200_000
MAX_ITER_COMBOS = 65_536
MAX_MENU_STORAGE = 10_000_000
BASE_BINS = 4096
QUERY_GROUPS = 64
EVAL_CHUNK = 2**16
WALK_BAND = 256
WALK_GROWTH = 4
VIOLATION_STEPS = 10.0
# bins of the distortion-ratio histogram
HISTOGRAM_BINS = 50


class IntractableGridError(ValueError):
    """The requested ambiguity-group grid is too large to enumerate."""


def effective_dimension(structure: RepresentationStructure) -> tuple[int, int]:
    """Degrees of freedom left after the per-block rotation ambiguity.

    Returns ``(K, k_H)`` where ``k_H`` is the generic orbit dimension
    of the product of O(n_l) (or U(n_l)) groups and ``K`` is the
    ambient real dimension minus ``k_H``.  Per block the stabilizer of
    a generic full-rank coefficient matrix is the orthogonal (unitary)
    group of the orthogonal complement of its column span, which gives
    the binomial (squared-dimension) correction below.
    """
    k_h = 0
    dim_v = 0
    for n, r in structure.blocks:
        if structure.field == "real":
            k_h += math.comb(n, 2) - math.comb(max(n - r, 0), 2)
            dim_v += n * r
        else:
            k_h += n * n - max(n - r, 0) ** 2
            dim_v += 2 * n * r
    return dim_v - k_h, k_h


def sqrt_gram_map(x: BlockSignal) -> tuple[np.ndarray, ...]:
    """Blockwise PSD square root of the Gram tuple; invariant under the
    ambiguity action."""
    return tuple(matrix_sqrt_psd(g) for g in gram_tuple(x).grams)


# ---------------------------------------------------------------------------
# orbit-intersection grid check
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransversalityViolation:
    point_index: int
    margin: float
    x_ambient: np.ndarray
    element: GroupElement
    description: tuple


@dataclass(frozen=True, eq=False)
class TransversalityReport:
    k_effective: int
    m_dim: int
    samples_checked: int
    worst_margin: float
    violations: tuple[TransversalityViolation, ...]
    threshold: float
    grid_resolution: int
    exclude_tol: float
    point_margins: tuple[float, ...]


class _Menu:
    """All grid images of one block, with their two subspace coordinates."""

    def __init__(self, a, b, mats, labels):
        self.a = a  # (g,) inner products with the checked point
        self.b = b  # (g, m-1) inner products with the rest of the basis
        self.mats = mats  # (g, n, n) the group-element blocks themselves
        self.labels = labels

    @property
    def size(self) -> int:
        return self.a.shape[0]


def _build_menus(
    x: BlockSignal, basis: np.ndarray, grid_resolution: int
) -> list[_Menu]:
    s = x.structure
    menus = []
    theta = 2.0 * np.pi * np.arange(grid_resolution) / grid_resolution
    c, sn = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -sn], axis=1), np.stack([sn, c], axis=1)], axis=1)
    ref = np.stack([np.stack([c, sn], axis=1), np.stack([sn, -c], axis=1)], axis=1)
    o2 = np.concatenate([rot, ref])  # (2g, 2, 2): rotations first
    o2_labels = [("rotation", int(t)) for t in range(grid_resolution)] + [
        ("reflection", int(t)) for t in range(grid_resolution)
    ]
    signs = np.array([[[1.0]], [[-1.0]]])
    x_amb = reconstruct(x)
    for (n, _), sl, m in zip(s.blocks, s.block_slices, x.matrices):
        if n == 1:
            mats, labels = signs, [("sign", 1), ("sign", -1)]
        else:
            mats, labels = o2, o2_labels
        flat = flat_block(np.einsum("gij,jr->gir", mats, m))
        a = flat @ x_amb[sl]
        b = flat @ basis[sl, 1:]
        if b.shape[1] == 0:
            # one-dimensional subspace: no coordinates besides the point itself
            b = np.zeros((flat.shape[0], 1))
        menus.append(_Menu(a, b, mats, labels))
    return menus


def _product_sums(menus):
    """Subspace coordinates summed over the row-major product of ``menus``,
    shapes ``(N,)`` and ``(N, m - 1)``; one zero entry for no menus."""
    a, b = np.zeros(1), np.zeros((1, menus[0].b.shape[1] if menus else 1))
    for menu in menus:
        a = (a[:, None] + menu.a).ravel()
        b = (b[:, None] + menu.b).reshape(a.shape[0], -1)
    return a, b


def _pair_terms(menus):
    """Row and column terms of the product of one or two menus: its entry
    ``i * len(cols) + j`` is ``rows[i] + cols[j]``, bit for bit as
    ``_product_sums`` sums it, for ``a`` and for the first coordinate of
    ``b``; one menu gets a single zero column."""
    rows, *cols = menus
    a_cols, b_cols = (cols[0].a, cols[0].b[:, 0]) if cols else (np.zeros(1), np.zeros(1))
    return (0.0 + rows.a, a_cols), (0.0 + rows.b[:, 0], b_cols)


def _brute_grid_max(menus, tau):
    """Exact max of the squared subspace alignment over the feasible grid,
    by materializing the whole product (small grids only)."""
    a_tot, b_tot = _product_sums(menus)
    feasible = np.abs(a_tot) < tau
    if not feasible.any():
        return None
    f = a_tot**2 + np.einsum("pj,pj->p", b_tot, b_tot)
    f = np.where(feasible, f, -np.inf)
    best = int(np.argmax(f))
    combo = np.unravel_index(best, tuple(menu.size for menu in menus))
    return float(f[best]), {i: int(j) for i, j in enumerate(combo)}


def _binned(u, count, lo, hi):
    """Entries of ``u`` in ``count`` equal-width bins of ``[lo, hi]`` (one
    bin for ``count`` below 1), the caller's exact ``u.min()`` and
    ``u.max()``, without a copy of ``u``: the int16 bin key of each entry,
    computed CHUNK_ENTRIES entries at a time, then the keys of the nonempty
    bins, their starts and sizes in the stable order of the keys
    (``np.argsort(key, kind="stable")``, which the caller takes when it
    needs it) and each one's box of ``u``, stacked on the first axis.

    The box is read off the bin's edges, not off its entries: each edge is
    moved out by 16 ulps of ``|lo| + |hi|``, which covers the 3 roundings
    of the key formula and the 4 of the edge, each at most one such ulp,
    and clipped to ``[lo, hi]``.  So it may be wider than the exact box,
    never narrower."""
    span, n = hi - lo, max(count, 1)
    key = np.empty(u.shape, np.int16)
    sizes = np.zeros(n, np.int64)
    for s in range(0, u.shape[0], CHUNK_ENTRIES):
        k = u[s : s + CHUNK_ENTRIES] - lo
        if span > 0:
            k /= span
            k *= count
        k = np.minimum(k.astype(np.int16), n - 1, out=key[s : s + CHUNK_ENTRIES])
        sizes += np.bincount(k, minlength=n)
    bins = np.flatnonzero(sizes)
    sizes = sizes[bins]
    pad = 16 * np.spacing(abs(lo) + abs(hi))
    box = lo + span / n * np.stack([bins, bins + 1]) + [[-pad], [pad]]
    return key, bins, np.cumsum(sizes) - sizes, sizes, np.clip(box, lo, hi)


def _bin_box(key, bins, v):
    """The exact (min, max) of ``v`` over the entries keyed to each of
    ``bins``, stacked on the first axis: the box of the second coordinate,
    which the bins do not order."""
    box = np.full((2, bins[-1] + 1), np.inf)
    box[1] = -np.inf
    np.minimum.at(box[0], key, v)
    np.maximum.at(box[1], key, v)
    return box[:, bins]


def _corner_bound(x, y):
    """Largest ``x**2 + y**2`` over the corners of boxes whose (min, max)
    of ``x`` and of ``y`` are stacked on the first axis."""
    return np.maximum(x[0] ** 2, x[1] ** 2) + np.maximum(y[0] ** 2, y[1] ** 2)


def _ranges(starts, sizes):
    """``starts[k] + arange(sizes[k])`` for every ``k``, concatenated."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) - np.repeat(ends - sizes - starts, sizes)


def _base_bins(terms, n_base):
    """The int16 bin key of every base entry, the nonempty bins and their
    sizes, and each bin's box of ``a`` and of ``b``, from the base's
    ``_pair_terms``.  Rounding is monotone, so the base's range is the sum
    of the two menus' ranges, equal to its ``min()`` and ``max()`` but for
    the sign of a zero, which no key sees.  The ``a`` box is read off the
    bins' edges (``_binned``), the ``b`` box is exact (``_bin_box``); each
    coordinate's sums are built only to key or box them, and dropped."""
    (a_rows, a_cols), (b_rows, b_cols) = terms
    key, bins, _, sizes, a_box = _binned(
        (a_rows[:, None] + a_cols).ravel(), min(BASE_BINS, n_base // 256),
        a_rows.min() + a_cols.min(), a_rows.max() + a_cols.max())
    b_box = _bin_box(key, bins, (b_rows[:, None] + b_cols).ravel())
    return key, bins, sizes, a_box, b_box


def _pair_bounds(a_box, b_box, c_box, d_box, tau):
    """The corner bounds of the (group, bin) pairs whose boxes meet the
    slab, and the pairs as flat int32 indices ``group * len(bins) + bin``."""
    meets = (a_box[1] > -tau - c_box[1][:, None]) & (a_box[0] < tau - c_box[0][:, None])
    bound = np.empty(meets.shape)
    for g in range(meets.shape[0]):
        bound[g] = _corner_bound(a_box + c_box[:, g, None], b_box + d_box[:, g, None])
    return bound[meets], np.flatnonzero(meets).astype(np.int32)


def _next_band(bound, pairs, size):
    """The ``size`` largest ``bound`` (all if fewer) in descending order
    with their ``pairs``, then the rest of both in no set order: no bound
    left is larger than one taken, ties at the edge going either way."""
    if bound.shape[0] <= size:
        by_bound = np.argsort(-bound)
        return bound[by_bound], pairs[by_bound], bound[:0], pairs[:0]
    part = np.argpartition(bound, bound.shape[0] - size)
    top, rest = part[-size:], part[:-size]
    top = top[np.argsort(-bound[top])]
    return bound[top], pairs[top], bound[rest], pairs[rest]


def _band_order(key, bins, sizes, wanted):
    """The base entries of the bins ``bins[wanted]`` as int32 indices, in
    the stable order of their keys, and the start in it of each such bin,
    by position in ``bins`` (other positions are left unset).  The keys
    are read CHUNK_ENTRIES at a time, so only the band's entries are held
    and sorted."""
    table = np.zeros(bins[-1] + 1, bool)
    table[bins[wanted]] = True
    entries = np.concatenate([
        np.flatnonzero(table.take(key[s : s + CHUNK_ENTRIES])).astype(np.int32) + s
        for s in range(0, key.shape[0], CHUNK_ENTRIES)])
    order = entries[np.argsort(key[entries], kind="stable")]  # a radix sort on int16 keys
    wanted = np.flatnonzero(table[bins])
    start = np.empty(bins.shape[0], np.int64)
    start[wanted] = np.cumsum(sizes[wanted]) - sizes[wanted]
    return order, start


def _hull_grid_max(menus, tau):
    """Exact feasible max for two-dimensional subspaces on large grids.

    The two largest menus (the lower index first among equal sizes) make
    the base product of first-coordinate pairs ``(a, b)``, the other menus
    the queries ``(c, d)``.  Returns the max of ``(a + c)**2 + (b + d)**2``
    over entries with ``-tau - c < a < tau - c`` and the combo attaining
    it, ties going to the lowest row-major index into the query menus and
    then the base menus, or ``None`` if nothing is feasible.  Queries with
    equal ``(c, d)`` are kept once, under the lowest index.  Base entries
    are binned by ``a`` into BASE_BINS bins and queries by ``c`` into
    QUERY_GROUPS groups (fewer for small products); (group, bin) and then
    (query, bin) pairs are evaluated in order of descending corner bound,
    EVAL_CHUNK entries at a time.

    The (group, bin) pairs are ranked in bands, WALK_BAND pairs first and
    each later band WALK_GROWTH times larger, each taken by a partition
    only when the walk reaches it, so a walk over every pair takes a
    logarithmic number of bands.  The base keeps its int16 bin keys and
    per-bin boxes (``a`` and ``c`` read off the bins' edges, ``b`` and
    ``d`` exact); the ``a`` sums are dropped before the ``b`` sums are
    built.  For each band the int32 stable order of the entries of its
    bins alone is built from the keys, and evaluated entries are rebuilt
    from the two base menus (``_pair_terms``) at the positions it gives.
    No order of the whole base is built, so the traced peak per point is
    at most about 2 float64 words per base entry (11-16 MB at 1,048,576,
    also when every band is walked).
    """
    by_size = sorted(range(len(menus)), key=lambda i: menus[i].size, reverse=True)
    base_ids, rest_ids = by_size[:2], by_size[2:]
    base_shape = tuple(menus[i].size for i in base_ids)
    rest_shape = tuple(menus[i].size for i in rest_ids)
    n_base, n_rest = math.prod(base_shape), math.prod(rest_shape)
    if n_base > MAX_BASE_COMBOS or n_rest > MAX_ITER_COMBOS:
        raise IntractableGridError(
            f"grid too large: base product {n_base}, remaining product "
            f"{n_rest} (caps {MAX_BASE_COMBOS}, {MAX_ITER_COMBOS}); "
            "lower the resolution or the block count"
        )
    terms = _pair_terms([menus[i] for i in base_ids])
    key, bins, bin_size, a_box, b_box = _base_bins(terms, n_base)
    (a_rows, a_cols), (b_rows, b_cols) = terms
    n2 = a_cols.shape[0]
    c, d = _product_sums([menus[i] for i in rest_ids])
    d = d[:, 0]
    # queries with equal sums tie everywhere: keep the lowest index of each
    order = np.lexsort((d, c))  # stable, so each run of equals starts lowest
    cs, ds = c[order], d[order]
    first = np.sort(order[np.r_[True, (cs[1:] != cs[:-1]) | (ds[1:] != ds[:-1])]])
    c, d = c[first], d[first]
    q_key, groups, group_start, group_size, c_box = _binned(
        c, min(QUERY_GROUPS, len(first) // 64), c.min(), c.max())
    d_box = _bin_box(q_key, groups, d)
    by_key = np.argsort(q_key, kind="stable")
    c_order, c, d = first[by_key], c[by_key], d[by_key]
    lo, hi = -tau - c, tau - c
    bound, pairs = _pair_bounds(a_box, b_box, c_box, d_box, tau)

    best, best_key = -np.inf, -1
    size = WALK_BAND
    while pairs.shape[0]:
        band_bound, band_pairs, bound, pairs = _next_band(bound, pairs, size)
        size *= WALK_GROWTH
        if band_bound[0] < best:
            break
        g_all, bn_all = np.divmod(band_pairs, np.int32(bins.shape[0]))
        a_order, bin_start = _band_order(key, bins, bin_size, bn_all)
        walked = np.zeros(band_bound.shape[0] + 1, np.int64)
        np.cumsum(group_size[g_all], out=walked[1:])
        s = 0
        while s < band_bound.shape[0] and band_bound[s] >= best:
            # (query, bin) pairs of the next (group, bin) pairs, EVAL_CHUNK at most
            e = max(s + 1, int(np.searchsorted(walked, walked[s] + EVAL_CHUNK, "right")) - 1)
            g, bn = g_all[s:e], bn_all[s:e]
            s = e
            q, bn = _ranges(group_start[g], group_size[g]), np.repeat(bn, group_size[g])
            qa = np.take(a_box, bn, axis=1)
            qb = _corner_bound(qa + c[q], np.take(b_box, bn, axis=1) + d[q])
            keep = np.flatnonzero((qb >= best) & (qa[1] > lo[q]) & (qa[0] < hi[q]))
            keep = keep[np.argsort(-qb[keep])]
            q, bn, qb = q[keep], bn[keep], qb[keep]
            # their entries as one stream, EVAL_CHUNK at a time, rebuilt from the menus
            ends = np.cumsum(bin_size[bn])
            starts = ends - bin_size[bn]
            for e0 in range(0, int(ends[-1]) if keep.size else 0, EVAL_CHUNK):
                k0 = int(np.searchsorted(ends, e0, "right"))
                if qb[k0] < best:
                    break
                ks = slice(k0, int(np.searchsorted(starts, e0 + EVAL_CHUNK)))
                first = np.maximum(starts[ks], e0)
                take = np.minimum(ends[ks], e0 + EVAL_CHUNK) - first
                entry = a_order[_ranges(bin_start[bn[ks]] + first - starts[ks], take)]
                i, j = np.divmod(entry, n2)
                qi = np.repeat(q[ks], take)
                ap = a_rows[i] + a_cols[j]
                f = (ap + c[qi]) ** 2 + (b_rows[i] + b_cols[j] + d[qi]) ** 2
                f[(ap <= lo[qi]) | (ap >= hi[qi])] = -np.inf
                top = f.max()
                if top > -np.inf and top >= best:
                    hit = np.flatnonzero(f == top)
                    index = int((c_order[qi[hit]] * n_base + entry[hit]).min())
                    if top > best or index < best_key:
                        best, best_key = top, index
        if s < band_bound.shape[0]:
            break  # the next bound fell below the best value
    if best_key < 0:
        return None
    combo = np.unravel_index(best_key, rest_shape + base_shape)
    return float(best), {i: int(j) for i, j in zip(rest_ids + base_ids, combo)}


def _element_from_combo(menus, combo) -> tuple[GroupElement, tuple]:
    mats = tuple(menus[i].mats[combo[i]].copy() for i in range(len(menus)))
    desc = tuple(menus[i].labels[combo[i]] for i in range(len(menus)))
    return GroupElement(mats), desc


def _rebased_subspace(basis: np.ndarray, x_amb: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the same span with ``x_amb`` as first column."""
    m = basis.shape[1]
    out = np.empty_like(basis)
    out[:, 0] = x_amb
    if m > 1:
        residual = basis - np.outer(x_amb, x_amb @ basis)
        u, s, _ = np.linalg.svd(residual, full_matrices=False)
        out[:, 1:] = u[:, : m - 1]
    return out


def _unit_subspace_point(point, idx: int, basis: np.ndarray) -> np.ndarray:
    """A point scaled to unit norm, checked to be finite, nonzero and in
    the span of ``basis`` (distance from it at most 1e-8 times its norm)."""
    x = np.asarray(point, dtype=float)
    if x.shape != (basis.shape[0],):
        raise ValueError(f"point {idx} has shape {x.shape}")
    # an exact power-of-two rescale keeps the squares in the norm in range
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
    nrm = np.linalg.norm(x)
    off = np.linalg.norm(x - basis @ (basis.T @ x))
    if not (np.isfinite(nrm) and nrm > 0 and off <= 1e-8 * nrm):
        raise ValueError(
            f"point {idx} must be finite, nonzero and in the prior's span: "
            f"norm {nrm:.3e}, distance from the span {off:.3e}"
        )
    return x / nrm


@_one_blas_thread
def transversality_check(
    structure: RepresentationStructure,
    prior: LinearSubspacePrior,
    num_points: int,
    grid_resolution: int,
    rng: np.random.Generator,
    *,
    exclude_tol: float = 0.5,
    points: list[np.ndarray] | None = None,
) -> TransversalityReport:
    """Grid search for non-sign orbit returns into a linear subspace.

    For each of ``num_points`` random unit-norm subspace points the
    whole product grid of per-block elements (O(1) signs; O(2)
    rotations and reflections at ``2 pi / grid_resolution`` spacing) is
    searched for the element, not within ``exclude_tol`` of a global
    sign flip, whose image lies nearest the subspace.  Margins below
    ten grid steps (``VIOLATION_STEPS``) are reported as violations:
    at this resolution they are indistinguishable from an actual orbit
    intersection, which is exactly what a transversal configuration
    must not produce.

    ``points`` overrides the random sampling with explicit ambient
    vectors (normalized here), e.g. to probe a suspected intersection;
    each must be finite, nonzero and in the prior's span.
    """
    if not isinstance(prior, LinearSubspacePrior):
        raise TypeError("the grid check needs a linear subspace prior")
    if structure.field != "real":
        raise ValueError("the grid check covers real structures only")
    if any(n > 2 for n, _ in structure.blocks):
        raise IntractableGridError(
            "grids are tractable only for blocks of dimension 1 or 2"
        )
    if prior.basis.shape[0] != structure.ambient_dim:
        raise ValueError(
            f"subspace lives in dimension {prior.basis.shape[0]}, structure has "
            f"{structure.ambient_dim}"
        )
    if points is not None:
        num_points = len(points)
    num_points = _whole_number(num_points, "num_points", None)
    grid_resolution = _whole_number(grid_resolution, "grid_resolution", None)
    if num_points < 1 or grid_resolution < 4:
        raise ValueError("need at least one point and grid_resolution >= 4")
    if not 0.0 < exclude_tol < 2.0:
        raise ValueError("exclude_tol must be in (0, 2)")
    storage = sum(
        2 if n == 1 else 2 * grid_resolution for n, _ in structure.blocks
    )
    if storage > MAX_MENU_STORAGE:
        raise IntractableGridError(f"grid storage {storage} exceeds {MAX_MENU_STORAGE}")

    threshold = VIOLATION_STEPS * (2.0 * np.pi / grid_resolution)
    m = prior.dim
    k_eff, _ = effective_dimension(structure)
    # excluded iff min ||y -+ x|| <= exclude_tol, i.e. |<y, x>| >= tau
    tau = 1.0 - exclude_tol**2 / 2.0

    if points is None:
        points = [prior.basis @ rng.standard_normal(m) for _ in range(num_points)]
    points = [_unit_subspace_point(x, i, prior.basis) for i, x in enumerate(points)]
    margins = []
    violations = []
    for idx, x_amb in enumerate(points):
        basis = _rebased_subspace(prior.basis, x_amb)
        menus = _build_menus(decompose(x_amb, structure), basis, grid_resolution)
        total = np.prod([menu.size for menu in menus], dtype=np.float64)
        if total <= BRUTE_CAP:
            hit = _brute_grid_max(menus, tau)
        elif m <= 2:
            hit = _hull_grid_max(menus, tau)
        else:
            raise IntractableGridError(
                f"product grid of {total:.2e} elements with a {m}-dimensional "
                "subspace: only 1- or 2-dimensional subspaces are supported "
                "beyond the brute-force cap"
            )
        if hit is None:
            margins.append(math.inf)
            continue
        best_f, combo = hit
        margin = math.sqrt(max(1.0 - best_f, 0.0))
        margins.append(margin)
        if margin < threshold:
            element, desc = _element_from_combo(menus, combo)
            violations.append(
                TransversalityViolation(idx, margin, x_amb, element, desc)
            )

    return TransversalityReport(
        k_effective=k_eff,
        m_dim=m,
        samples_checked=num_points,
        worst_margin=min(margins),
        violations=tuple(violations),
        threshold=float(threshold),
        grid_resolution=int(grid_resolution),
        exclude_tol=float(exclude_tol),
        point_margins=tuple(margins),
    )


@_one_blas_thread
def intersecting_subspace_prior(
    x: BlockSignal, element: GroupElement
) -> LinearSubspacePrior:
    """Two-dimensional subspace spanned by a signal and a rotated copy of
    it: a designed transversality failure, since the orbit of ``x``
    meets the span at the rotated copy by construction."""
    x_amb = reconstruct(x)
    y_amb = reconstruct(apply(element, x))
    q, r = np.linalg.qr(np.column_stack([x_amb, y_amb]))
    if abs(r[1, 1]) < 1e-10 * abs(r[0, 0]):
        raise ValueError(
            "rotated copy is (anti)parallel to the signal; pick an element "
            "that moves it"
        )
    return LinearSubspacePrior(q[:, :2])


# ---------------------------------------------------------------------------
# distortion of the Gram-square-root map
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DistortionReport:
    alpha_lower: float
    beta_upper: float
    pairs_sampled: int
    pairs_skipped: int
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray


@_one_blas_thread
def distortion_ratios(
    x_amb: np.ndarray,
    y_amb: np.ndarray,
    structure: RepresentationStructure,
    basis: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement-to-signal distance ratios for a batch of pairs.

    The signal distance is taken modulo the global phase the Grams cannot
    see: ``||x - u y||`` with ``u`` the phase of ``<y, x>`` (``1`` when
    that product is 0), which minimizes it over unit ``u``.  For real
    data ``u`` is a sign.  Returns ``(ratios, used)`` where ``used`` flags
    pairs whose distance exceeds 1e-12 (the rest are sign or phase copies
    of each other, where both distances vanish).

    With a ``(d, m)`` ``basis``, ``x_amb`` and ``y_amb`` are ``(pairs, m)``
    coefficient rows, and each chunk takes its own ambient rows as
    ``rows @ basis.T``: no ``(pairs, d)`` array is made.  The chunks
    hold at least two rows (a one-row tail joins the chunk before it), as
    a one-row product takes the matrix-vector path and can differ in the
    last bit, so the ratios equal those of the whole products
    ``x_amb @ basis.T`` and ``y_amb @ basis.T`` bit for bit.

    The numerator is the distance between the tuples of the solver's
    square-root Grams (``solvers._psd_root`` of ``blocks._gram``), one
    ``eigh`` call per shape group of blocks, chunk and side; both
    distances are :func:`gramphase.blocks.frobenius_norms`.  The pairs
    go in row chunks of ``CHUNK_ENTRIES // workers`` ambient entries, run
    on the CPUs' threads by the chunk map of :mod:`gramphase.blocks`, at
    most ``workers`` at once and none drawn ahead, so memory is the inputs
    plus one budget of chunks and their roots; each row is computed on its
    own, whatever the chunking or the number of threads."""
    x_amb, y_amb = np.atleast_2d(x_amb, y_amb)
    count = len(x_amb)
    num, denom = np.empty((2, count))

    def ratio_chunk(i, j):
        x, y = x_amb[i:j], y_amb[i:j]
        if basis is not None:
            x, y = x @ basis.T, y @ basis.T
        roots = [[_psd_root(_gram(g))[0] for g in group_stacks(v, structure)] for v in (x, y)]
        num[i:j] = frobenius_norms([a - b for a, b in zip(*roots)])
        phase = _unit_vectors(np.vecdot(y, x)[:, None])  # 1 for a zero product
        denom[i:j] = frobenius_norms([x - phase * y])

    step = max(2, _chunk_rows(structure.ambient_dim))
    starts = list(range(0, count, step))
    if count % step == 1 and len(starts) > 1:
        starts.pop()  # a one-row tail joins the chunk before it
    _chunk_map(ratio_chunk, list(zip(starts, [*starts[1:], count])))
    used = denom >= 1e-12
    return num[used] / denom[used], used


@_one_blas_thread
def distortion_estimate(
    structure: RepresentationStructure,
    prior: LinearSubspacePrior,
    num_pairs: int,
    rng: np.random.Generator,
) -> DistortionReport:
    """Monte Carlo bounds on the distance distortion of the measurement.

    Pairs are drawn in the subspace: independent Gaussian pairs probe
    global behavior, and perturbation pairs at relative scales 1e-1,
    1e-3, 1e-5 probe local behavior near rank-deficient points, where
    a lower Lipschitz bound would fail first.  Their ``(pairs, m)``
    coefficient rows are drawn whole and go to :func:`distortion_ratios`
    with ``prior.basis``, so each chunk of pairs enters the ambient space
    on its own thread; the ratios are those of the whole products, bit
    for bit.
    """
    num_pairs = _whole_number(num_pairs, "num_pairs")
    m = prior.dim
    k_eff, _ = effective_dimension(structure)
    if k_eff <= 2 * m:
        warnings.warn(
            f"effective dimension {k_eff} <= 2 * {m}: outside the everywhere-"
            "injective regime, ratios may degenerate",
            stacklevel=2,
        )

    n_global = max(1, int(0.4 * num_pairs))
    n_local = num_pairs - n_global
    eps_levels = (1e-1, 1e-3, 1e-5)
    split = [n_local // len(eps_levels)] * len(eps_levels)
    split[-1] += n_local - sum(split)

    cx = [_gaussian(rng, (n_global, m), structure.field)]
    cy = [_gaussian(rng, (n_global, m), structure.field)]
    for eps, cnt in zip(eps_levels, split):
        base = _gaussian(rng, (cnt, m), structure.field)  # a zero count draws nothing
        cx.append(base)
        cy.append(base + eps * _gaussian(rng, (cnt, m), structure.field))
    ratios, _ = distortion_ratios(np.concatenate(cx), np.concatenate(cy), structure, prior.basis)
    if ratios.size == 0:
        raise ValueError("all sampled pairs were sign- or phase-degenerate; widen the sampling")
    counts, edges = np.histogram(ratios, bins=HISTOGRAM_BINS)
    return DistortionReport(
        alpha_lower=float(ratios.min()),
        beta_upper=float(ratios.max()),
        pairs_sampled=int(ratios.size),
        pairs_skipped=int(num_pairs - ratios.size),
        histogram_counts=counts,
        histogram_edges=edges,
    )
