"""Empirical checks of identifiability and stability.

Three questions about a block structure and a linear prior:

* How many effective degrees of freedom survive the per-block
  rotation ambiguity?  (:func:`effective_dimension`)
* Does the ambiguity-group orbit of a subspace point re-enter the
  subspace anywhere besides the trivial sign flip?
  (:func:`transversality_check`, a dense grid search over the product
  of per-block O(1)/O(2) grids)
* How much does the Gram-square-root measurement map distort
  distances, modulo the global sign or phase?  (:func:`distortion_estimate`)

The grid search never materializes the full product grid.  With the
subspace rebased so its first basis vector is the checked point, the
distance from a rotated copy to the subspace depends only on the sums
of per-block coordinate pairs, and the exclusion of near-sign-flips
becomes a slab constraint on the first coordinate.  One large partial
product is binned by that coordinate and the other grid assignments
(the queries) are grouped the same way.  Rounding is monotone, so the
value at the largest corner of the box of sums a (group, bin) or
(query, bin) pair spans bounds every value computed inside it; pairs
are evaluated exactly in order of descending bound until the next bound
falls below the best value, which is then the exact maximum of the same
floating-point sums.  Ties go to the lowest row-major index into the
query menus, then into the base menus, whatever the evaluation order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blocks import (
    BlockSignal,
    GroupElement,
    RepresentationStructure,
    apply,
    block_stacks,
    decompose,
    flat_block,
    reconstruct,
)
from .moments import gram_tuple
from .priors import LinearSubspacePrior
from .solvers import matrix_sqrt_psd

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
# within its two caps, with its bins, query groups and evaluation chunk;
# margins below VIOLATION_STEPS grid steps are violations
BRUTE_CAP = 2_000_000
MAX_BASE_COMBOS = 4_200_000
MAX_ITER_COMBOS = 65_536
MAX_MENU_STORAGE = 10_000_000
BASE_BINS = 4096
QUERY_GROUPS = 64
EVAL_CHUNK = 2**16
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

    def __init__(self, kind, a, b, mats, labels):
        self.kind = kind  # "sign" | "o2"
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
            mats, labels, kind = signs, [("sign", 1), ("sign", -1)], "sign"
        else:
            mats, labels, kind = o2, o2_labels, "o2"
        flat = flat_block(np.einsum("gij,jr->gir", mats, m))
        a = flat @ x_amb[sl]
        b = flat @ basis[sl, 1:]
        if b.shape[1] == 0:
            # one-dimensional subspace: no coordinates besides the point itself
            b = np.zeros((flat.shape[0], 1))
        menus.append(_Menu(kind, a, b, mats, labels))
    return menus


def _product_sums(menus):
    """Subspace coordinates summed over the row-major product of ``menus``,
    shapes ``(N,)`` and ``(N, m - 1)``; one zero entry for no menus."""
    a, b = np.zeros(1), np.zeros((1, menus[0].b.shape[1] if menus else 1))
    for menu in menus:
        a = (a[:, None] + menu.a).ravel()
        b = (b[:, None] + menu.b).reshape(a.shape[0], -1)
    return a, b


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


def _binned(u, w, count):
    """Entries ``(u, w)`` sorted stably into ``count`` equal-width bins of
    ``u``: the order, the nonempty bins' starts and sizes, the sorted ``u``
    and ``w``, and each bin's stacked (min, max) of ``u`` and of ``w``."""
    key = u - u.min()
    span = key.max()
    if span > 0:
        key /= span
        key *= count
    key = np.minimum(key.astype(np.int16), max(count, 1) - 1)
    order = np.argsort(key, kind="stable")  # a radix sort on int16 keys
    sizes = np.bincount(key)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    u, w = u[order], w[order]
    boxes = [np.stack([f.reduceat(v, starts) for f in (np.minimum, np.maximum)]) for v in (u, w)]
    return order, starts, sizes, u, w, boxes


def _corner_bound(x, y):
    """Largest ``x**2 + y**2`` over the corners of boxes whose (min, max)
    of ``x`` and of ``y`` are stacked on the first axis."""
    return np.maximum(x[0] ** 2, x[1] ** 2) + np.maximum(y[0] ** 2, y[1] ** 2)


def _ranges(starts, sizes):
    """``starts[k] + arange(sizes[k])`` for every ``k``, concatenated."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) - np.repeat(ends - sizes - starts, sizes)


def _hull_grid_max(menus, tau, max_iter_combos, max_base_combos):
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
    """
    by_size = sorted(range(len(menus)), key=lambda i: menus[i].size, reverse=True)
    base_ids, rest_ids = by_size[:2], by_size[2:]
    base_shape = tuple(menus[i].size for i in base_ids)
    rest_shape = tuple(menus[i].size for i in rest_ids)
    n_base, n_rest = math.prod(base_shape), math.prod(rest_shape)
    if n_base > max_base_combos or n_rest > max_iter_combos:
        raise IntractableGridError(
            f"grid too large: base product {n_base}, remaining product "
            f"{n_rest} (caps {max_base_combos}, {max_iter_combos}); "
            "lower the resolution or the block count"
        )
    a, b = _product_sums([menus[i] for i in base_ids])
    a_order, bin_start, bin_size, a, b, (a_box, b_box) = _binned(
        a, b[:, 0], min(BASE_BINS, n_base // 256))
    c, d = _product_sums([menus[i] for i in rest_ids])
    d = d[:, 0]
    # queries with equal sums tie everywhere: keep the lowest index of each
    order = np.lexsort((d, c))  # stable, so each run of equals starts lowest
    cs, ds = c[order], d[order]
    first = np.sort(order[np.r_[True, (cs[1:] != cs[:-1]) | (ds[1:] != ds[:-1])]])
    c_order, group_start, group_size, c, d, (c_box, d_box) = _binned(
        c[first], d[first], min(QUERY_GROUPS, len(first) // 64))
    c_order = first[c_order]
    lo, hi = -tau - c, tau - c

    # (group, bin) pairs whose boxes meet the slab, by descending bound
    bound = _corner_bound(a_box[:, None] + c_box[..., None], b_box[:, None] + d_box[..., None])
    meets = (a_box[1] > -tau - c_box[1][:, None]) & (a_box[0] < tau - c_box[0][:, None])
    walk = np.flatnonzero(meets)
    walk = walk[np.argsort(-bound.ravel()[walk])]
    groups, bins = np.divmod(walk, bin_start.shape[0])
    walked = np.concatenate([[0], np.cumsum(group_size[groups])])
    best, best_key = -np.inf, -1
    s = 0
    while s < walk.shape[0] and bound.flat[walk[s]] >= best:
        # (query, bin) pairs of the next (group, bin) pairs, EVAL_CHUNK at most
        e = max(s + 1, int(np.searchsorted(walked, walked[s] + EVAL_CHUNK, "right")) - 1)
        g, bn = groups[s:e], bins[s:e]
        s = e
        q, bn = _ranges(group_start[g], group_size[g]), np.repeat(bn, group_size[g])
        qa = np.take(a_box, bn, axis=1)
        qb = _corner_bound(qa + c[q], np.take(b_box, bn, axis=1) + d[q])
        keep = np.flatnonzero((qb >= best) & (qa[1] > lo[q]) & (qa[0] < hi[q]))
        keep = keep[np.argsort(-qb[keep])]
        q, bn, qb = q[keep], bn[keep], qb[keep]
        # their entries as one stream, EVAL_CHUNK at a time
        ends = np.cumsum(bin_size[bn])
        starts = ends - bin_size[bn]
        for e0 in range(0, int(ends[-1]) if keep.size else 0, EVAL_CHUNK):
            k0 = int(np.searchsorted(ends, e0, "right"))
            if qb[k0] < best:
                break
            ks = slice(k0, int(np.searchsorted(starts, e0 + EVAL_CHUNK)))
            first = np.maximum(starts[ks], e0)
            take = np.minimum(ends[ks], e0 + EVAL_CHUNK) - first
            pos = _ranges(bin_start[bn[ks]] + first - starts[ks], take)
            qi = np.repeat(q[ks], take)
            ap = a[pos]
            f = (ap + c[qi]) ** 2 + (b[pos] + d[qi]) ** 2
            f[(ap <= lo[qi]) | (ap >= hi[qi])] = -np.inf
            top = f.max()
            if top > -np.inf and top >= best:
                hit = np.flatnonzero(f == top)
                key = int((c_order[qi[hit]] * n_base + a_order[pos[hit]]).min())
                if top > best or key < best_key:
                    best, best_key = top, key
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
            hit = _hull_grid_max(menus, tau, MAX_ITER_COMBOS, MAX_BASE_COMBOS)
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


def _batched_sqrt_grams(amb: np.ndarray, structure: RepresentationStructure):
    """Per-block PSD square roots of the Gram matrices for a batch of
    ambient row vectors."""
    out = []
    for xl in block_stacks(amb, structure):
        g = np.einsum("pni,pnj->pij", xl.conj(), xl)
        w, v = np.linalg.eigh(g)
        w = np.clip(w, 0.0, None)
        out.append(np.einsum("pij,pj,pkj->pik", v, np.sqrt(w), v.conj()))
    return out


def distortion_ratios(
    x_amb: np.ndarray, y_amb: np.ndarray, structure: RepresentationStructure
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement-to-signal distance ratios for a batch of pairs.

    The signal distance is taken modulo the global phase the Grams cannot
    see: ``||x - u y||`` with ``u`` the phase of ``<y, x>`` (``1`` when
    that product is 0), which minimizes it over unit ``u``.  For real
    data ``u`` is a sign.  Returns ``(ratios, used)`` where ``used`` flags
    pairs whose distance exceeds 1e-12 (the rest are sign or phase copies
    of each other, where both distances vanish)."""
    x_amb = np.atleast_2d(x_amb)
    y_amb = np.atleast_2d(y_amb)
    sx = _batched_sqrt_grams(x_amb, structure)
    sy = _batched_sqrt_grams(y_amb, structure)
    num_sq = np.zeros(x_amb.shape[0])
    for a, b in zip(sx, sy):
        num_sq += np.linalg.norm((a - b).reshape(a.shape[0], -1), axis=1) ** 2
    inner = np.vecdot(y_amb, x_amb)
    size = np.abs(inner)
    phase = np.where(size > 0, inner / np.where(size > 0, size, 1.0), 1.0)
    denom = np.linalg.norm(x_amb - phase[:, None] * y_amb, axis=1)
    used = denom >= 1e-12
    ratios = np.sqrt(num_sq[used]) / denom[used]
    return ratios, used


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
    a lower Lipschitz bound would fail first.
    """
    if num_pairs < 1:
        raise ValueError("need at least one pair")
    m = prior.dim
    k_eff, _ = effective_dimension(structure)
    if k_eff <= 2 * m:
        warnings.warn(
            f"effective dimension {k_eff} <= 2 * {m}: outside the everywhere-"
            "injective regime, ratios may degenerate",
            stacklevel=2,
        )

    def draw_coeffs(count):
        c = rng.standard_normal((count, m))
        if structure.field == "complex":
            c = c + 1j * rng.standard_normal((count, m))
        return c

    n_global = max(1, int(0.4 * num_pairs))
    n_local = num_pairs - n_global
    eps_levels = (1e-1, 1e-3, 1e-5)
    split = [n_local // len(eps_levels)] * len(eps_levels)
    split[-1] += n_local - sum(split)

    cx = [draw_coeffs(n_global)]
    cy = [draw_coeffs(n_global)]
    for eps, cnt in zip(eps_levels, split):
        if cnt == 0:
            continue
        base = draw_coeffs(cnt)
        cx.append(base)
        cy.append(base + eps * draw_coeffs(cnt))
    cx = np.concatenate(cx)
    cy = np.concatenate(cy)
    bt = prior.basis.T
    ratios, used = distortion_ratios(cx @ bt, cy @ bt, structure)
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
