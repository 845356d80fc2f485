"""Independent reference computations the tests check the library against.

Everything here is deliberately brute force: direct transform sums,
explicit enumeration of finite groups, supports, and grids, and
finite-difference geometry.  None of it shares code paths with the
package.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import expm

from gramphase import RepresentationStructure, apply, reconstruct


def brute_dft(x: np.ndarray) -> np.ndarray:
    """O(N^2) unitary DFT sum."""
    n = len(x)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for t in range(n):
            out[k] += x[t] * np.exp(-2j * np.pi * k * t / n)
    return out / np.sqrt(n)


def cyclic_average_outer(sig, action, shift_element) -> np.ndarray:
    """Exact average of rotated outer products over every cyclic shift."""
    n = action.cyclic_n
    dim = sig.structure.ambient_dim
    acc = np.zeros((dim, dim), dtype=sig.structure.dtype)
    for s in range(n):
        y = reconstruct(apply(shift_element(action, s), sig))
        acc += np.outer(y, y.conj())
    return acc / n


def _skew_generators(n: int, field: str):
    """Basis of the Lie algebra of O(n) (skew) or U(n) (anti-Hermitian)."""
    gens = []
    for a in range(n):
        for b in range(a + 1, n):
            g = np.zeros((n, n), dtype=complex if field == "complex" else float)
            g[a, b] = 1.0
            g[b, a] = -1.0
            gens.append(g)
    if field == "complex":
        for a in range(n):
            g = np.zeros((n, n), dtype=complex)
            g[a, a] = 1j
            gens.append(g)
        for a in range(n):
            for b in range(a + 1, n):
                g = np.zeros((n, n), dtype=complex)
                g[a, b] = 1j
                g[b, a] = 1j
                gens.append(g)
    return gens


def fd_orbit_dimension(
    structure: RepresentationStructure,
    rng: np.random.Generator,
    num_points: int = 3,
    step: float = 1e-5,
) -> int:
    """Orbit dimension of the per-block rotation group at generic points,
    as the numerical rank of central finite differences of the action
    along a Lie-algebra basis."""
    best = 0
    for _ in range(num_points):
        tangents = []
        mats = []
        for n, r in structure.blocks:
            m = rng.standard_normal((n, r))
            if structure.field == "complex":
                m = m + 1j * rng.standard_normal((n, r))
            mats.append(m)
        for bi, (n, r) in enumerate(structure.blocks):
            for gen in _skew_generators(n, structure.field):
                plus = expm(step * gen) @ mats[bi]
                minus = expm(-step * gen) @ mats[bi]
                diff = (plus - minus) / (2.0 * step)
                vec = np.zeros(structure.ambient_dim, dtype=structure.dtype)
                sl = structure.block_slices[bi]
                vec[sl] = diff.flatten(order="F")
                if structure.field == "complex":
                    tangents.append(np.concatenate([vec.real, vec.imag]))
                else:
                    tangents.append(vec.real)
        if not tangents:
            return 0  # discrete group, zero-dimensional orbits
        a = np.stack(tangents)
        s = np.linalg.svd(a, compute_uv=False)
        rank = int(np.sum(s > 1e-6 * max(s[0], 1.0)))
        best = max(best, rank)
    return best


def procrustes_grid_best(g: np.ndarray, xt: np.ndarray, step: float = 1e-3) -> float:
    """Min distance from ``xt`` to the set {Y : Y^T Y = g} by an angle grid.

    Handles 2x2 blocks (O(2) parametrization) and 2x1 blocks (circle).
    """
    w, v = np.linalg.eig((g + g.T) / 2.0)
    s = (v * np.sqrt(np.clip(w.real, 0.0, None))) @ v.T
    thetas = np.arange(0.0, 2.0 * np.pi, step)
    c, sn = np.cos(thetas), np.sin(thetas)
    if xt.shape == (2, 1):
        q = np.stack([c, sn], axis=1)[:, :, None]  # unit vectors
        ys = q * s[0, 0]
        d = np.linalg.norm(ys - xt[None, :, :], axis=(1, 2))
        return float(d.min())
    rots = np.stack(
        [np.stack([c, -sn], axis=1), np.stack([sn, c], axis=1)], axis=1
    )
    refls = np.stack(
        [np.stack([c, sn], axis=1), np.stack([sn, -c], axis=1)], axis=1
    )
    qs = np.concatenate([rots, refls])
    ys = np.einsum("gij,jk->gik", qs, s)
    d = np.linalg.norm(ys - xt[None, :, :], axis=(1, 2))
    return float(d.min())


def svd_procrustes(g: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Nearest ``Y`` to ``xt`` with ``Y* Y = g``, by the textbook recipe:
    ``S`` the PSD square root of ``g`` from its eigendecomposition, then
    ``U V* S`` from the thin SVD ``U diag(s) V*`` of ``xt S``."""
    w, v = np.linalg.eigh((g + g.conj().T) / 2.0)
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    u, _, vh = np.linalg.svd(xt @ s, full_matrices=False)
    return u @ vh @ s


def svd_distortion_ratio(x: np.ndarray, y: np.ndarray, blocks) -> float:
    """``||(G_l(x)^1/2)_l - (G_l(y)^1/2)_l|| / min_|u|=1 ||x - u y||`` for one
    pair of ambient vectors, with no eigendecomposition: block ``l`` is read
    column-major out of the vector, and its root is ``V diag(s) V*`` from
    the SVD ``X = U diag(s) V*``, since ``X* X = V diag(s)**2 V*``."""
    num_sq, start = 0.0, 0
    for n, r in blocks:
        roots = []
        for v in (x, y):
            _, sv, vh = np.linalg.svd(v[start : start + n * r].reshape(r, n).T,
                                      full_matrices=False)
            roots.append(vh.conj().T @ np.diag(sv) @ vh)
        num_sq += np.linalg.norm(roots[0] - roots[1]) ** 2
        start += n * r
    inner = np.vdot(y, x)
    u = inner / abs(inner) if inner != 0 else 1.0
    return math.sqrt(num_sq) / np.linalg.norm(x - u * y)


def brute_sparse_project(v: np.ndarray, k: int) -> np.ndarray:
    """Best k-sparse approximation by trying every support."""
    n = len(v)
    best, best_d = None, np.inf
    for support in itertools.combinations(range(n), k):
        w = np.zeros_like(v)
        for i in support:
            w[i] = v[i]
        d = np.linalg.norm(v - w)
        if d < best_d - 1e-15:
            best, best_d = w, d
    return best


def brute_transversality_margin(
    structure: RepresentationStructure,
    basis: np.ndarray,
    x_amb: np.ndarray,
    resolution: int,
    exclude_tol: float,
):
    """Direct enumeration of the whole product grid: min distance to the
    subspace over images not within ``exclude_tol`` of a sign flip.
    Returns ``inf`` if everything is excluded.  Tiny grids only; the
    product is walked in row-major chunks of 2**16 images."""
    proj = basis @ basis.T
    per_block = []
    for (n, r), sl in zip(structure.blocks, structure.block_slices):
        xl = x_amb[sl].reshape((n, r), order="F")
        if n == 1:
            cands = [xl.flatten(order="F"), -xl.flatten(order="F")]
        else:
            cands = []
            for t in range(resolution):
                th = 2.0 * np.pi * t / resolution
                c, s = math.cos(th), math.sin(th)
                for d in (np.array([[c, -s], [s, c]]), np.array([[c, s], [s, -c]])):
                    cands.append((d @ xl).flatten(order="F"))
        per_block.append(np.array(cands))
    sizes = tuple(len(cands) for cands in per_block)
    total = math.prod(sizes)
    best = np.inf
    for start in range(0, total, 2**16):
        combo = np.unravel_index(np.arange(start, min(start + 2**16, total)), sizes)
        y = np.concatenate([cands[i] for cands, i in zip(per_block, combo)], axis=1)
        near = np.minimum(
            np.linalg.norm(y - x_amb, axis=1), np.linalg.norm(y + x_amb, axis=1)
        )
        dist = np.linalg.norm(y - y @ proj.T, axis=1)[near > exclude_tol]
        if dist.size:
            best = min(best, float(dist.min()))
    return best


def mezzadri_haar(rng: np.random.Generator, n: int, count: int, field: str) -> np.ndarray:
    """``count`` Haar draws by Mezzadri's recipe ("How to generate random
    matrices from the classical compact groups", 2007): the Q of
    ``np.linalg.qr`` of a Gaussian matrix, each column times the sign
    (phase) of R's matching diagonal entry."""
    z = rng.standard_normal((count, n, n))
    if field == "complex":
        z = (z + 1j * rng.standard_normal((count, n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def dense_householder_haar(g: np.ndarray, n: int) -> np.ndarray:
    """The Haar matrix of one draw's Gaussians ``g`` (``(K,)`` real parts,
    or ``(2, K)`` real then imaginary parts, ``K = n (n + 1) / 2``) by
    Stewart's construction, written out with dense matrices.

    The draw holds vectors of lengths ``n, ..., 1``.  Vector ``k``,
    ``(alpha, x)``, gives LAPACK ``larfg``'s reflector ``H_k = I - tau v
    v*`` on coordinates ``k..n-1``, with ``beta = -sign(Re alpha)
    |(alpha, x)|``, ``tau = (beta - alpha) / beta``, ``v = (1, x / (alpha
    - beta))``, or ``H_k = I`` and ``beta = alpha`` where ``x = 0`` and
    ``alpha`` is real.  The result is ``H_0 ... H_{n-2}`` times the diagonal
    of the betas' signs and the phase of the last, one-entry vector."""
    z = g if g.ndim == 1 else g[0] + 1j * g[1]
    q = np.eye(n, dtype=z.dtype)
    signs = []
    start = 0
    for k in range(n - 1):
        alpha, x = z[start], z[start + 1 : start + n - k]
        start += n - k
        h = np.eye(n, dtype=z.dtype)
        if np.linalg.norm(x) == 0 and np.imag(alpha) == 0:
            beta = np.real(alpha)
        else:
            beta = -math.copysign(math.sqrt(abs(alpha) ** 2 + np.linalg.norm(x) ** 2),
                                  np.real(alpha))
            v = np.concatenate([[1.0], x / (alpha - beta)])
            h[k:, k:] -= (beta - alpha) / beta * np.outer(v, v.conj())
        q = q @ h
        signs.append(-1.0 if beta < 0 else 1.0)
    last = z[-1]
    signs.append(last / abs(last) if last != 0 else 1.0)
    return q * np.array(signs)
