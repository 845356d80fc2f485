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
becomes an interval constraint on the first coordinate.  Sorting one
large partial product by that coordinate and pre-reducing buckets of
it to their planar convex hulls turns each remaining grid assignment
into a farthest-point query over a few thousand hull vertices, which
is exact: the farthest point of a set from any query is attained at a
hull vertex, and bucket boundaries are handled element-wise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .blocks import (
    BlockSignal,
    GroupElement,
    RepresentationStructure,
    apply,
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


def _flatten_cols(y: np.ndarray) -> np.ndarray:
    # (g, n, r) stacks -> (g, n*r) in the column-major ambient layout
    return y.transpose(0, 2, 1).reshape(y.shape[0], -1)


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
    x_amb = reconstruct(x)
    for (n, r), sl, m in zip(s.blocks, s.block_slices, x.matrices):
        if n == 1:
            mats = np.array([[[1.0]], [[-1.0]]])
            flat = np.stack([m.flatten(order="F"), -m.flatten(order="F")])
            labels = [("sign", 1), ("sign", -1)]
            kind = "sign"
        else:
            mats = o2
            flat = _flatten_cols(np.einsum("gij,jr->gir", o2, m))
            labels = o2_labels
            kind = "o2"
        a = flat @ x_amb[sl]
        b = flat @ basis[sl, 1:]
        if b.shape[1] == 0:
            # one-dimensional subspace: no coordinates besides the point itself
            b = np.zeros((flat.shape[0], 1))
        menus.append(_Menu(kind, a, b, mats, labels))
    return menus


def _brute_grid_max(menus, tau):
    """Exact max of the squared subspace alignment over the feasible grid,
    by materializing the whole product (small grids only)."""
    a_tot = np.zeros(1)
    b_tot = np.zeros((1, menus[0].b.shape[1]))
    for menu in menus:
        a_tot = (a_tot[:, None] + menu.a[None, :]).ravel()
        b_tot = (b_tot[:, None, :] + menu.b[None, :, :]).reshape(-1, b_tot.shape[1])
    feasible = np.abs(a_tot) < tau
    if not feasible.any():
        return None
    f = a_tot**2 + np.einsum("pj,pj->p", b_tot, b_tot)
    f = np.where(feasible, f, -np.inf)
    best = int(np.argmax(f))
    combo = np.unravel_index(best, tuple(menu.size for menu in menus))
    return float(f[best]), {i: int(j) for i, j in enumerate(combo)}


class _SortedBase:
    """Two-menu partial product, sorted by the exclusion coordinate and
    pre-reduced to per-bucket convex hulls for farthest-point queries."""

    def __init__(self, menu_i, menu_j, bucket_size=4096):
        self.sizes = (menu_i.size, menu_j.size)
        a = (menu_i.a[:, None] + menu_j.a[None, :]).ravel()
        b = (menu_i.b[:, None, 0] + menu_j.b[None, :, 0]).ravel()
        order = np.argsort(a, kind="stable")
        self.order = order
        self.a = a[order]
        self.b = b[order]
        n = self.a.shape[0]
        nb = max(1, min(512, n // bucket_size))
        self.bounds = np.linspace(0, n, nb + 1).astype(np.intp)
        va, vb, vidx, vbucket = [], [], [], []
        for j in range(nb):
            lo, hi = self.bounds[j], self.bounds[j + 1]
            pts_a, pts_b = self.a[lo:hi], self.b[lo:hi]
            local = None
            if hi - lo >= 8:
                try:
                    hull = ConvexHull(np.column_stack([pts_a, pts_b]))
                    local = hull.vertices
                except QhullError:
                    local = None
            if local is None:
                local = np.arange(hi - lo)
            va.append(pts_a[local])
            vb.append(pts_b[local])
            vidx.append(local + lo)
            vbucket.append(np.full(local.shape[0], j, dtype=np.intp))
        self.va = np.concatenate(va)
        self.vb = np.concatenate(vb)
        self.vidx = np.concatenate(vidx)
        self.vbucket = np.concatenate(vbucket)

    def query(self, c, d, tau):
        """Max of (a+c)^2 + (b+d)^2 over entries with |a + c| < tau.

        Returns (value, sorted_index) or None if nothing is feasible.
        Full buckets inside the feasible interval are answered from
        their hull vertices (exact for this convex objective); the two
        partial buckets at the interval ends are scanned directly.
        """
        lo, hi = -tau - c, tau - c
        i_lo = int(np.searchsorted(self.a, lo, side="right"))
        i_hi = int(np.searchsorted(self.a, hi, side="left"))
        if i_lo >= i_hi:
            return None
        b_lo = int(np.searchsorted(self.bounds, i_lo, side="left"))
        b_hi = int(np.searchsorted(self.bounds, i_hi, side="right")) - 1
        best_val, best_idx = -np.inf, -1
        if b_lo < b_hi:
            f = (self.va + c) ** 2 + (self.vb + d) ** 2
            f = np.where((self.vbucket >= b_lo) & (self.vbucket < b_hi), f, -np.inf)
            k = int(np.argmax(f))
            if f[k] > best_val:
                best_val, best_idx = float(f[k]), int(self.vidx[k])
            edges = [
                (i_lo, int(self.bounds[b_lo])),
                (int(self.bounds[b_hi]), i_hi),
            ]
        else:
            edges = [(i_lo, i_hi)]
        for st, en in edges:
            st, en = max(st, i_lo), min(en, i_hi)
            if st >= en:
                continue
            f = (self.a[st:en] + c) ** 2 + (self.b[st:en] + d) ** 2
            k = int(np.argmax(f))
            if f[k] > best_val:
                best_val, best_idx = float(f[k]), st + k
        if best_idx < 0:
            return None
        return best_val, best_idx

    def decode(self, sorted_index):
        flat = int(self.order[sorted_index])
        return divmod(flat, self.sizes[1])


def _hull_grid_max(menus, tau, max_iter_combos, max_base_combos):
    """Exact feasible max for two-dimensional subspaces on large grids."""
    by_size = sorted(range(len(menus)), key=lambda i: menus[i].size, reverse=True)
    base_ids = by_size[:2] if len(menus) >= 2 else by_size[:1]
    rest_ids = [i for i in by_size[len(base_ids):]]
    base_combos = int(np.prod([menus[i].size for i in base_ids]))
    iter_combos = int(np.prod([menus[i].size for i in rest_ids], dtype=np.int64)) if rest_ids else 1
    if base_combos > max_base_combos or iter_combos > max_iter_combos:
        raise IntractableGridError(
            f"grid too large: base product {base_combos}, remaining product "
            f"{iter_combos} (caps {max_base_combos}, {max_iter_combos}); "
            "lower the resolution or the block count"
        )
    if len(base_ids) == 1:
        menu = menus[base_ids[0]]
        base = _SortedBase(menu, _Menu("sign", np.zeros(1), np.zeros((1, 1)), None, [None]))
    else:
        base = _SortedBase(menus[base_ids[0]], menus[base_ids[1]])

    rest_shape = tuple(menus[i].size for i in rest_ids)
    rest_a = np.zeros(1)
    rest_b = np.zeros(1)
    for i in rest_ids:
        rest_a = (rest_a[:, None] + menus[i].a[None, :]).ravel()
        rest_b = (rest_b[:, None] + menus[i].b[None, :, 0]).ravel()

    best = None
    for p in range(rest_a.shape[0]):
        hit = base.query(rest_a[p], rest_b[p], tau)
        if hit is not None and (best is None or hit[0] > best[0]):
            best = (hit[0], hit[1], p)
    if best is None:
        return None
    i1, i2 = base.decode(best[1])
    combo = {base_ids[0]: int(i1)}
    if len(base_ids) == 2:
        combo[base_ids[1]] = int(i2)
    if rest_ids:
        rest_combo = np.unravel_index(best[2], rest_shape)
        combo.update({i: int(j) for i, j in zip(rest_ids, rest_combo)})
    return best[0], combo


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


def transversality_check(
    structure: RepresentationStructure,
    prior: LinearSubspacePrior,
    num_points: int,
    grid_resolution: int,
    rng: np.random.Generator,
    *,
    exclude_tol: float = 0.5,
    threshold: float | None = None,
    brute_cap: int = 2_000_000,
    max_base_combos: int = 4_200_000,
    max_iter_combos: int = 65_536,
    max_menu_storage: int = 10_000_000,
    points: list[np.ndarray] | None = None,
) -> TransversalityReport:
    """Grid search for non-sign orbit returns into a linear subspace.

    For each of ``num_points`` random unit-norm subspace points the
    whole product grid of per-block elements (O(1) signs; O(2)
    rotations and reflections at ``2 pi / grid_resolution`` spacing) is
    searched for the element, not within ``exclude_tol`` of a global
    sign flip, whose image lies nearest the subspace.  Margins below
    ``threshold`` (default ten grid steps) are reported as violations:
    at this resolution they are indistinguishable from an actual orbit
    intersection, which is exactly what a transversal configuration
    must not produce.

    ``points`` overrides the random sampling with explicit ambient
    vectors (normalized here), e.g. to probe a suspected intersection.
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
    if num_points < 1 or grid_resolution < 4:
        raise ValueError("need num_points >= 1 and grid_resolution >= 4")
    if not 0.0 < exclude_tol < 2.0:
        raise ValueError("exclude_tol must be in (0, 2)")
    storage = sum(
        2 if n == 1 else 2 * grid_resolution for n, _ in structure.blocks
    )
    if storage > max_menu_storage:
        raise IntractableGridError(f"grid storage {storage} exceeds {max_menu_storage}")

    step = 2.0 * np.pi / grid_resolution
    if threshold is None:
        threshold = 10.0 * step
    m = prior.dim
    k_eff, _ = effective_dimension(structure)
    # excluded iff min ||y -+ x|| <= exclude_tol, i.e. |<y, x>| >= tau
    tau = 1.0 - exclude_tol**2 / 2.0

    if points is not None:
        num_points = len(points)

    margins = []
    violations = []
    for idx in range(num_points):
        if points is not None:
            x_amb = np.asarray(points[idx], dtype=float)
            if x_amb.shape != (structure.ambient_dim,):
                raise ValueError(f"point {idx} has shape {x_amb.shape}")
        else:
            x_amb = prior.basis @ rng.standard_normal(m)
        nrm = np.linalg.norm(x_amb)
        while nrm < 1e-12:
            x_amb = prior.basis @ rng.standard_normal(m)
            nrm = np.linalg.norm(x_amb)
        x_amb = x_amb / nrm
        basis = _rebased_subspace(prior.basis, x_amb)
        x_sig = BlockSignal(
            structure,
            tuple(
                x_amb[sl].reshape((n, r), order="F")
                for (n, r), sl in zip(structure.blocks, structure.block_slices)
            ),
        )
        menus = _build_menus(x_sig, basis, grid_resolution)
        total = np.prod([menu.size for menu in menus], dtype=np.float64)
        if total <= brute_cap:
            hit = _brute_grid_max(menus, tau)
        elif m <= 2:
            hit = _hull_grid_max(menus, tau, max_iter_combos, max_base_combos)
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
    for (n, r), sl in zip(structure.blocks, structure.block_slices):
        xl = amb[:, sl].reshape(-1, r, n).transpose(0, 2, 1)
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
    *,
    bins: int = 50,
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
    counts, edges = np.histogram(ratios, bins=bins)
    return DistortionReport(
        alpha_lower=float(ratios.min()),
        beta_upper=float(ratios.max()),
        pairs_sampled=int(ratios.size),
        pairs_skipped=int(num_pairs - ratios.size),
        histogram_counts=counts,
        histogram_edges=edges,
    )
