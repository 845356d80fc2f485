"""Second moments of group-orbit observations and their Gram-tuple content.

An observation is a uniformly rotated copy of the signal plus Gaussian
noise.  Averaging outer products over the group wipes out everything
except one number per multiplicity pair within each block: the ambient
second moment is block diagonal with each ``(l, i, j)`` sub-block equal
to ``<x_l[i], x_l[j]> / n_l`` times the identity.  Equivalently, the
second moment carries exactly the tuple of Gram matrices
``G_l = X_l* X_l``, which is what :func:`extract_gram` reads off.

Sampling works on stacks and builds no validated group elements.  A
cyclic action draws all shifts in one call, shifts the signal once per
distinct shift with the stacked elements of
:func:`~gramphase.blocks.cyclic_shift_stack`, and gathers the rows into
observation order; a full-ambiguity action rotates each block of every
observation by one :func:`~gramphase.blocks.haar_stack`.  Cyclic
observations are bitwise those of one :func:`~gramphase.blocks.haar_sample`
per observation applied with :func:`~gramphase.blocks.apply`, on the same
random stream.  The Gram checks of :class:`GramTuple` and the PSD clamp
of :func:`extract_gram` run once per block shape on stacked matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    BlockSignal,
    DimensionMismatch,
    GroupAction,
    RepresentationStructure,
    StructureMismatch,
    # apply and haar_sample are no longer called here; bench/measure.py
    # still traces them under these names
    apply,  # noqa: F401
    block_stacks,
    cyclic_shift_stack,
    frobenius_norms,
    haar_sample,  # noqa: F401
    haar_stack,
)

__all__ = [
    "GramTuple",
    "MraSampleSet",
    "gram_tuple",
    "analytic_second_moment",
    "sample_observations",
    "empirical_second_moment",
    "extract_gram",
    "clamp_psd",
]

HERMITIAN_TOL = 1e-10
# Eigenvalues above -PSD_TOL * trace count as nonnegative.
PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GramTuple:
    """The tuple of ``r_l x r_l`` Hermitian PSD Gram matrices, one per block."""

    structure: RepresentationStructure
    grams: tuple[np.ndarray, ...]

    def __post_init__(self):
        s = self.structure
        mats = tuple(np.asarray(g, dtype=s.dtype) for g in self.grams)
        if len(mats) != s.num_blocks:
            raise StructureMismatch(
                f"expected {s.num_blocks} Gram matrices, got {len(mats)}"
            )
        for l, (g, (_, r)) in enumerate(zip(mats, s.blocks)):
            if g.shape != (r, r):
                raise StructureMismatch(
                    f"block {l}: expected Gram shape ({r}, {r}), got {g.shape}"
                )
        skew = np.empty(s.num_blocks, dtype=bool)
        lowest = np.empty(s.num_blocks)
        floor = np.empty(s.num_blocks)
        for _, idx in s.shape_groups:
            g = np.stack([mats[l] for l in idx])
            gh = np.swapaxes(g.conj(), 1, 2)
            scale = np.fmax(1.0, np.abs(g).max(axis=(1, 2)))
            skew[idx] = np.abs(g - gh).max(axis=(1, 2)) > HERMITIAN_TOL * scale
            lowest[idx] = np.linalg.eigvalsh((g + gh) / 2.0).min(axis=1)
            trace = np.real(np.trace(g, axis1=1, axis2=2))
            floor[idx] = -PSD_TOL * np.maximum(trace, np.finfo(float).tiny)
        bad = np.flatnonzero(skew | (lowest < floor))
        if bad.size:
            l = int(bad[0])
            if skew[l]:
                raise ValueError(f"block {l}: Gram matrix is not Hermitian")
            raise ValueError(
                f"block {l}: Gram matrix has negative eigenvalue {lowest[l]:.3e}"
            )
        object.__setattr__(self, "grams", mats)

    def total_norm(self) -> float:
        """Frobenius norm of the concatenated tuple."""
        return float(frobenius_norms([g[None] for g in self.grams])[0])


@dataclass(frozen=True, eq=False)
class MraSampleSet:
    """Noisy rotated observations, one ambient vector per row."""

    structure: RepresentationStructure
    observations: np.ndarray  # (n, ambient_dim)
    sigma: float
    master_seed: int

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=self.structure.dtype)
        if obs.ndim != 2 or obs.shape[1] != self.structure.ambient_dim:
            raise DimensionMismatch(
                f"observations must be (n, {self.structure.ambient_dim}), "
                f"got {obs.shape}"
            )
        if obs.shape[0] < 1:
            raise ValueError("need at least one observation")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        object.__setattr__(self, "observations", obs)

    @property
    def n(self) -> int:
        return self.observations.shape[0]


def gram_tuple(x: BlockSignal) -> GramTuple:
    """``G_l = X_l* X_l`` per block."""
    return GramTuple(x.structure, tuple(m.conj().T @ m for m in x.matrices))


def analytic_second_moment(x: BlockSignal) -> np.ndarray:
    """Exact group average of the observation outer product, noiselessly.

    Block ``l`` contributes ``kron(G_l^T, I_{n_l}) / n_l`` on its
    diagonal slot of the ambient layout; all inter-block coupling is
    identically zero.
    """
    s = x.structure
    out = np.zeros((s.ambient_dim, s.ambient_dim), dtype=s.dtype)
    for (n, _), sl, m in zip(s.blocks, s.block_slices, x.matrices):
        g = m.conj().T @ m
        out[sl, sl] = np.kron(g.T, np.eye(n, dtype=s.dtype)) / n
    return out


def sample_observations(
    x: BlockSignal,
    action: GroupAction,
    sigma: float,
    n: int,
    seed: int,
) -> MraSampleSet:
    """Draw ``n`` observations: a Haar-rotated copy of ``x`` plus i.i.d.
    ``N(0, sigma^2)`` noise per real coordinate (per real and imaginary
    part for the complex field)."""
    if n < 1:
        raise ValueError("need n >= 1 observations")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if action.structure != x.structure:
        raise StructureMismatch("action and signal use different structures")
    s = x.structure
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if action.kind == "full_ambiguity":
        # one Haar stack per block, rotating that block of every observation
        obs = np.empty((n, s.ambient_dim), dtype=s.dtype)
        for (dim, _), y, m in zip(s.blocks, block_stacks(obs, s), x.matrices):
            y[...] = np.einsum("kab,br->kar", haar_stack(dim, n, s.field, rng), m)
    else:
        # one shifted copy per distinct shift, gathered into observation order
        shifts, inverse = np.unique(rng.integers(action.cyclic_n, size=n), return_inverse=True)
        rows = np.empty((len(shifts), s.ambient_dim), dtype=s.dtype)
        for d, y, m in zip(cyclic_shift_stack(action, shifts), block_stacks(rows, s), x.matrices):
            np.matmul(d, m, out=y)
        obs = rows[inverse]
    noise = sigma * rng.standard_normal(obs.shape)
    if s.field == "complex":
        noise = noise + 1j * sigma * rng.standard_normal(obs.shape)
    return MraSampleSet(s, obs + noise, float(sigma), int(seed))


def empirical_second_moment(samples: MraSampleSet) -> np.ndarray:
    """Debiased sample average of observation outer products.

    Subtracts the noise covariance ``sigma^2 I`` (real field) or
    ``2 sigma^2 I`` (complex field, variance ``sigma^2`` per part), so
    the estimate converges to :func:`analytic_second_moment`.
    """
    y = samples.observations
    m = (y.T @ y.conj()) / samples.n
    bias = samples.sigma**2
    if samples.structure.field == "complex":
        bias = 2.0 * bias
    return m - bias * np.eye(y.shape[1], dtype=m.dtype)


def clamp_psd(g: np.ndarray) -> np.ndarray:
    """Hermitian-symmetrize, then zero out negative eigenvalues if any.

    Takes one matrix or a ``(T, r, r)`` stack, treated matrix by matrix.
    """
    g = (g + np.swapaxes(g.conj(), -1, -2)) / 2.0
    w, v = np.linalg.eigh(g)
    neg = ~(w.min(axis=-1) >= 0.0)
    if not neg.any():
        return g
    v, w = v[neg], w[neg]
    g[neg] = (v * np.clip(w, 0.0, None)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    return g


def extract_gram(moment: np.ndarray, structure: RepresentationStructure) -> GramTuple:
    """Read the Gram tuple out of an ambient second moment.

    Each Gram entry is the trace down the diagonal of the matching
    ``(l, i, j)`` sub-block: averaging the ``n_l`` diagonal entries
    instead of picking one reduces estimator variance for free.  The
    result is symmetrized and eigenvalue-clamped so noisy estimates stay
    PSD; on an exact moment this changes nothing and the composition
    with :func:`analytic_second_moment` inverts :func:`gram_tuple`.
    """
    moment = np.asarray(moment)
    d = structure.ambient_dim
    if moment.shape != (d, d):
        raise DimensionMismatch(
            f"moment must be ({d}, {d}) for this structure, got {moment.shape}"
        )
    grams = []
    for (n, r), sl in zip(structure.blocks, structure.block_slices):
        sub = moment[sl, sl].reshape(r, n, r, n)
        # (i, j) sub-block of the moment is G[j, i] / n * I
        grams.append(np.einsum("iaja->ji", sub))
    for _, idx in structure.shape_groups:
        for l, g in zip(idx, clamp_psd(np.stack([grams[l] for l in idx]))):
            grams[l] = g
    return GramTuple(structure, tuple(grams))
