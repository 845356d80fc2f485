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
:func:`~gramphase.blocks.cyclic_shift_stack`, built over slices of at
most ``CHUNK_ENTRIES // d`` shifts, and gathers the rows into observation
order; a full-ambiguity action rotates each block of every observation
by the Haar draws of :func:`~gramphase.blocks.haar_chunks`, one stream
of draws block after block, in observation order: each chunk's
Householder reflectors go straight onto the block matrix by
:func:`~gramphase.blocks.haar_rotate`, written into the observation
array, with no Haar matrix and no rotation product formed.  The noise
is then added in place in row blocks.  The Gaussians of both (a
full-ambiguity action's Haar chunks, then the noise blocks of either
action) come from one ``blocks._draw_ahead`` call: a pool thread draws
them in stream order into a small ring of buffers, ahead of the
rotations and additions on the calling thread.  Each chunk (a chunk of
Haar draws, a noise block, a slice of shifts) is sized by the one entry
budget :data:`~gramphase.blocks.CHUNK_ENTRIES`, not by the block size or
the number of observations, so the sampler holds the ``(n, d)`` output
plus a few budgets: for a full-ambiguity action, the ring and one
chunk's kernel work arrays, whichever the field; for a cyclic action,
the ring, one row per distinct shift and the elements of one slice of
shifts.  Neither the chunking nor the number of CPUs changes a bit:
every observation is that of one unchunked draw, a full-ambiguity one is
that of :func:`~gramphase.blocks.haar_sample` applied with
:func:`~gramphase.blocks.apply` to rounding, and cyclic observations are
bitwise those of one ``haar_sample`` per observation applied with
``apply``, on the same random stream.  The Gram checks of
:class:`GramTuple` and the PSD clamp of :func:`extract_gram` run once
per block shape on stacked matrices.

The sampler, the moment, :func:`gram_tuple` and :func:`extract_gram`
run with numpy's OpenBLAS on one thread (``blocks._one_blas_thread``):
the moment's product then sums in one order whatever the CPU count, and
leaves no OpenBLAS worker spinning on a CPU that the next call needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import (
    CHUNK_ENTRIES,
    BlockSignal,
    DimensionMismatch,
    GroupAction,
    RepresentationStructure,
    StructureMismatch,
    _block_arrays,
    _draw_ahead,
    _field_array,
    _gram,
    _one_blas_thread,
    _whole_number,
    # apply and haar_sample are no longer called here; bench/measure.py
    # still traces them under these names
    apply,  # noqa: F401
    block_stacks,
    cyclic_shift_stack,
    group_stacks,
    haar_chunks,
    haar_rotate,
    haar_sample,  # noqa: F401
    reconstruct,
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
        mats = _block_arrays(self.grams, s, [(r, r) for _, r in s.blocks], "Gram")
        _check_grams(s, [np.stack([mats[l] for l in idx])[None] for _, idx in s.shape_groups])
        object.__setattr__(self, "grams", mats)


def _check_grams(structure: RepresentationStructure, grams: list[np.ndarray]) -> None:
    """Refuse a stack of Gram tuples unless each Gram is finite, Hermitian
    and PSD.

    ``grams`` holds a ``(T, G, r, r)`` stack per entry of
    ``structure.shape_groups``: row ``t`` of every stack is one tuple.
    The error is the one :class:`GramTuple` raises for the first failing
    block of the first failing row; the checks run once per shape group,
    and a NaN fails each of them.  No non-finite Gram reaches ``eigvalsh``.
    """
    s = structure
    shape = (len(grams[0]), s.num_blocks)
    finite = np.empty(shape, dtype=bool)
    skew = np.empty(shape, dtype=bool)
    lowest = np.empty(shape)
    floor = np.empty(shape)
    for (_, idx), g in zip(s.shape_groups, grams):
        finite[:, idx] = ok = np.isfinite(g).all(axis=(-2, -1))
        if not ok.all():  # checked on zeros: LAPACK does not converge on a NaN
            g = np.where(ok[..., None, None], g, 0.0)
        gh = g.conj().mT
        scale = np.fmax(1.0, np.abs(g).max(axis=(-2, -1)))
        skew[:, idx] = ~(np.abs(g - gh).max(axis=(-2, -1)) <= HERMITIAN_TOL * scale)
        lowest[:, idx] = np.linalg.eigvalsh((g + gh) / 2.0).min(axis=-1)
        trace = np.real(np.trace(g, axis1=-2, axis2=-1))
        floor[:, idx] = -PSD_TOL * np.maximum(trace, np.finfo(float).tiny)
    bad = ~finite | skew | ~(lowest >= floor)
    if bad.any():
        t, l = np.argwhere(bad)[0].tolist()
        if not finite[t, l]:
            raise ValueError(f"block {l}: Gram matrix must be finite, got a NaN or an infinity")
        if skew[t, l]:
            raise ValueError(f"block {l}: Gram matrix is not Hermitian")
        raise ValueError(
            f"block {l}: Gram matrix has negative eigenvalue {lowest[t, l]:.3e}"
        )


@dataclass(frozen=True, eq=False)
class MraSampleSet:
    """Noisy rotated observations, one ambient vector per row."""

    structure: RepresentationStructure
    observations: np.ndarray  # (n, ambient_dim)
    sigma: float
    master_seed: int

    def __post_init__(self):
        obs = _field_array(self.observations, self.structure)
        if obs.ndim != 2 or obs.shape[1] != self.structure.ambient_dim:
            raise DimensionMismatch(
                f"observations must be (n, {self.structure.ambient_dim}), "
                f"got {obs.shape}"
            )
        if obs.shape[0] < 1:
            raise ValueError("need at least one observation")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        object.__setattr__(self, "observations", obs)

    @property
    def n(self) -> int:
        return self.observations.shape[0]


@_one_blas_thread
def gram_tuple(x: BlockSignal) -> GramTuple:
    """``G_l = X_l* X_l`` per block: one ``_gram`` call per shape group, on
    the signal's ambient row, as the sweeps' trial stack forms it."""
    s = x.structure
    grams = [None] * s.num_blocks
    for (_, idx), g in zip(s.shape_groups, group_stacks(reconstruct(x)[None], s)):
        for l, gram in zip(idx, _gram(g)[0]):
            grams[l] = gram
    return GramTuple(s, tuple(grams))


def analytic_second_moment(x: BlockSignal) -> np.ndarray:
    """Exact group average of the observation outer product, noiselessly.

    Block ``l`` contributes ``kron(G_l^T, I_{n_l}) / n_l`` on its
    diagonal slot of the ambient layout; all inter-block coupling is
    identically zero.
    """
    s = x.structure
    out = np.zeros((s.ambient_dim, s.ambient_dim), dtype=s.dtype)
    for (n, _), sl, m in zip(s.blocks, s.block_slices, x.matrices):
        out[sl, sl] = np.kron(_gram(m).T, np.eye(n, dtype=s.dtype)) / n
    return out


def _noise_draws(obs: np.ndarray, sigma: float) -> list[tuple]:
    """The draws that add ``sigma`` times a ``blocks._gaussian`` draw of
    ``obs``'s shape and field to ``obs`` in place, in its chunked form, as
    ``(shape, use)`` pairs for ``blocks._draw_ahead``: each part (real,
    then imaginary on the complex field) in row blocks of at most
    CHUNK_ENTRIES entries (one row where that is larger)."""

    def add(noise, part):
        noise *= sigma
        part += noise

    rows = max(1, CHUNK_ENTRIES // obs.shape[1])
    return [(part[i : i + rows].shape, lambda g, y=part[i : i + rows]: add(g, y))
            for part in ((obs.real, obs.imag) if np.iscomplexobj(obs) else (obs,))
            for i in range(0, len(part), rows)]


def _refuse_non_finite(x: BlockSignal) -> None:
    """Refuse a signal with a NaN or an infinity, naming its first such block."""
    for l, m in enumerate(x.matrices):
        if not np.isfinite(m).all():
            raise ValueError(f"block {l}: the signal must be finite, got a NaN or an infinity")


@_one_blas_thread
def sample_observations(
    x: BlockSignal,
    action: GroupAction,
    sigma: float,
    n: int,
    seed: int,
) -> MraSampleSet:
    """Draw ``n`` observations: a Haar-rotated copy of ``x`` plus i.i.d.
    ``N(0, sigma^2)`` noise per real coordinate (per real and imaginary
    part for the complex field).

    A signal with a NaN or an infinity is refused by block, before any
    Gaussian is drawn.  The Gaussians (a full-ambiguity action's Haar
    chunks, then the noise blocks of either action) come from one
    ``blocks._draw_ahead`` call, which makes them on a pool thread in
    stream order while this thread rotates and adds, so no bit depends on
    the CPU count."""
    n = _whole_number(n, "n")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if action.structure != x.structure:
        raise StructureMismatch("action and signal use different structures")
    s = x.structure
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = []
    if action.kind == "full_ambiguity":
        _refuse_non_finite(x)
        # one stream of chunked Haar draws, block after block, each chunk's
        # reflectors applied to the block and written into its rows
        obs = np.empty((n, s.ambient_dim), dtype=s.dtype)
        for (dim, r), y, m in zip(s.blocks, block_stacks(obs, s), x.matrices):
            draws += [(shape, lambda g, m=m, y=y[i:j]: haar_rotate(g, m, y))
                      for i, j, shape in haar_chunks(dim, n, r, s.field)]
    else:
        # one shifted copy per distinct shift, built over slices of the
        # shifts and gathered into observation order
        shifts, inverse = np.unique(rng.integers(action.cyclic_n, size=n), return_inverse=True)
        rows = np.empty((len(shifts), s.ambient_dim), dtype=s.dtype)
        step = max(1, CHUNK_ENTRIES // s.ambient_dim)
        with np.errstate(invalid="ignore"):  # the rows of a non-finite signal are refused
            for i in range(0, len(shifts), step):
                for d, y, m in zip(
                    cyclic_shift_stack(action, shifts[i : i + step]),
                    block_stacks(rows[i : i + step], s),
                    x.matrices,
                ):
                    np.matmul(d, m, out=y)
        # a non-finite block makes its shifted rows non-finite: one check
        # of the rows, where one per block cost 0.7 ms on cyclic:1024
        if not np.isfinite(rows).all():
            _refuse_non_finite(x)
        obs = rows[inverse]
    _draw_ahead(rng, draws + _noise_draws(obs, sigma))
    return MraSampleSet(s, obs, float(sigma), int(seed))


@_one_blas_thread
def empirical_second_moment(samples: MraSampleSet) -> np.ndarray:
    """Debiased sample average of observation outer products.

    Subtracts the noise covariance ``sigma^2 I`` (real field) or
    ``2 sigma^2 I`` (complex field, variance ``sigma^2`` per part), so
    the estimate converges to :func:`analytic_second_moment`.
    """
    y = samples.observations
    m = y.T @ y.conj()
    m /= samples.n
    bias = samples.sigma**2
    if samples.structure.field == "complex":
        bias = 2.0 * bias
    m.flat[:: m.shape[0] + 1] -= bias  # the diagonal, in place
    return m


def clamp_psd(g: np.ndarray) -> np.ndarray:
    """Hermitian-symmetrize, then zero out negative eigenvalues if any.

    Takes one matrix or a ``(..., r, r)`` stack, treated matrix by matrix.
    """
    g = (g + np.swapaxes(g.conj(), -1, -2)) / 2.0
    w, v = np.linalg.eigh(g)
    neg = ~(w.min(axis=-1) >= 0.0)
    if not neg.any():
        return g
    v, w = v[neg], w[neg]
    g[neg] = (v * np.clip(w, 0.0, None)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    return g


@_one_blas_thread
def extract_gram(moment: np.ndarray, structure: RepresentationStructure) -> GramTuple:
    """Read the Gram tuple out of an ambient second moment.

    Each Gram entry is the trace down the diagonal of the matching
    ``(l, i, j)`` sub-block: averaging the ``n_l`` diagonal entries
    instead of picking one reduces estimator variance for free.  The
    result is symmetrized and eigenvalue-clamped so noisy estimates stay
    PSD; on an exact moment this changes nothing and the composition
    with :func:`analytic_second_moment` inverts :func:`gram_tuple`.  A
    NaN or an infinity in the entries a block reads is refused, naming
    the first such block, before any eigendecomposition.
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
    stacks = [np.stack([grams[l] for l in idx]) for _, idx in structure.shape_groups]
    bad = [idx[i] for (_, idx), g in zip(structure.shape_groups, stacks)
           for i in np.flatnonzero(~np.isfinite(g).all(axis=(-2, -1)))]
    if bad:
        raise ValueError(f"block {min(bad)}: the moment must be finite, "
                         "got a NaN or an infinity")
    for (_, idx), g in zip(structure.shape_groups, stacks):
        for l, c in zip(idx, clamp_psd(g)):
            grams[l] = c
    return GramTuple(structure, tuple(grams))
