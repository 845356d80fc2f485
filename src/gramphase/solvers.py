"""Projection-based recovery of a signal from its Gram tuple.

Two projectors drive everything.  The prior projector maps onto the
signal model (see :mod:`gramphase.priors`).  The measurement projector
maps a block matrix onto the set of matrices with a prescribed Gram
matrix by solving an orthogonal Procrustes problem per block: with
``S`` the PSD square root of ``G``, the nearest ``Y`` with ``Y* Y = G``
is ``Q S``, where ``Q`` is the unitary polar factor of ``A = Xtilde S``.
For one column (``r = 1``) that is the closed form ``sqrt(g) x / ||x||``
(Fienup's Fourier-magnitude projection), with a zero column sent to
``sqrt(g) e_1``.  For ``r > 1``, ``Q`` is ``A V diag(w)^-1/2 V*`` from
the eigendecomposition ``V diag(w) V*`` of the r x r ``A* A``, which is
cheaper than an SVD of ``A``.  Forming ``A* A`` squares the condition
number, so a block whose ``w_min / w_max`` falls below ``POLAR_RCOND``,
or whose Gram does, takes the thin SVD ``U diag(s) V*`` of ``A`` and
``Q = U V*`` instead: rank-deficient blocks, such as sparsity and
support priors make, land there, and a block that fails the test once
takes the SVD from then on.  Each Gram is decomposed once, at set-up:
the eigendecomposition of ``(G + G*) / 2`` gives both ``S`` and the
Gram's own ``w_min / w_max`` test, and :func:`matrix_sqrt_psd` is that
root behind input checks.

Alternating projection composes measurement after prior; a relaxed
reflect-and-average variant with step ``beta`` is available for
problems where plain alternation stagnates.  Both iterate in ambient
coordinates.  Convergence for these non-convex constraint sets is not
guaranteed and the residual may oscillate; the solver simply reports
whether the stopping criterion was met.

One engine, ``_solve_stack``, iterates a ``(T, d)`` stack of
instances on one structure, with priors of any types and shapes, held as
arrays; :func:`solve_batch` is its object front, which checks the
objects and stacks them, and the experiment runners build their trial
stacks as arrays and call the engine directly.  Each
iteration is one stacked prior projection per stack of priors of one
type and shape, and one measurement projection and one residual per
group of blocks of one shape (``RepresentationStructure.shape_groups``).
Rows that stop are written out and dropped from the stack.
:func:`solve` is the same engine on a stack of one.  Stacked ``matmul``,
``eigh`` and ``svd`` call BLAS and LAPACK once per matrix, with the same
memory layout as a single call, elementwise steps treat each entry
alone, and every block chooses between the eigendecomposition and the
SVD by its own values, so each row's result is bitwise independent of
the batch it was solved in.  Every norm comes from
:func:`gramphase.blocks.frobenius_norms` or its unguarded inner, and
:func:`rho` and the oracle error share one sign distance, so
``oracle_error`` is bitwise ``rho(estimate, truth) / ||truth||``.

Each iteration is cheap and a solve runs hundreds of them, so what numpy
charges per call, rather than per entry, sets the solver's speed.  Two
places avoid it:

- ``eigh`` and the thin ``svd`` go through :func:`_eigh` and
  :func:`_svd`.  On float64 and complex128 stacks, the only types an
  iteration makes, they call numpy's LAPACK gufuncs directly, under the
  same ``errstate`` as ``np.linalg.eigh`` and ``np.linalg.svd``, so
  non-convergence still raises ``LinAlgError`` and the bits are the
  wrapper's.  They skip its type resolution, shape checks and result
  casts, which on a small stack cost about as much as LAPACK itself.
  Other types go through the wrapper, which computes in double precision
  and casts the results back.
- The iteration loop of :func:`solve_batch` runs under one
  ``np.errstate`` that ignores overflow and underflow.  Inside it, the
  norms come from :func:`gramphase.blocks._frobenius_norms`, which still
  redoes the rows whose sums left the safe range but enters no
  ``errstate`` of its own.

The SVD's sign (phase) freedom is left unpinned: ``U V*`` is the sum of
``u_i v_i*`` over singular pairs, and each term is unchanged when its
pair is multiplied by a sign or a phase, so pinning them would not
change the projection; ``V diag(w)^-1/2 V*`` is likewise unchanged by
the signs of the eigenvectors.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .blocks import (
    BlockSignal,
    RepresentationStructure,
    StructureMismatch,
    _LAPACK_ERRSTATE,
    _frobenius_norms,
    _one_blas_thread,
    _whole_number,
    decompose,
    frobenius_norms,
    group_stacks,
    random_signal,
    reconstruct,
    ungroup_stacks,
)
from .moments import GramTuple
from .priors import PriorSpec, PriorStack, group_priors, project_prior

__all__ = [
    "SolverConfig",
    "SolveReport",
    "matrix_sqrt_psd",
    "procrustes_project",
    "rho",
    "solve",
    "solve_batch",
]

HERMITIAN_INPUT_TOL = 1e-8
# w_min / w_max of A* A below which the polar factor of A comes from the
# SVD.  Above it the eigendecomposition keeps Y* Y - G within about
# 20 eps / (w_min / w_max) of ||G|| (4e-10 here) when A is ill-conditioned
# through Xtilde, and within a few eps when through S; the blocks of the
# experiment sweeps stay above 1e-4.
POLAR_RCOND = 1e-5
_SMALLEST = np.finfo(float).smallest_subnormal


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm choice and stopping rule.

    ``stop_on="residual"`` uses the blind normalized measurement
    residual of the prior-projected iterate; ``stop_on="oracle"``
    stops on ``rho(estimate, truth) / ||truth||``, the distance to a
    supplied ground truth up to the sign, not yet the complex phase (for
    benchmarking only, since a deployed solver has no truth).
    """

    algorithm: str = "alternating_projection"  # or "rrr"
    beta: float = 0.5
    max_iters: int = 1000
    tol: float = 1e-6
    seed: int | None = None
    track_trajectory: bool = False
    stop_on: str = "residual"  # or "oracle"

    def __post_init__(self):
        if self.algorithm not in ("alternating_projection", "rrr"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "rrr" and not 0.0 < self.beta <= 1.0:
            raise ValueError(f"rrr needs 0 < beta <= 1, got {self.beta}")
        object.__setattr__(self, "max_iters", _whole_number(self.max_iters, "max_iters"))
        tol = self.tol
        if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool)
                and math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol must be a finite positive number, got {tol!r}")
        if self.stop_on not in ("residual", "oracle"):
            raise ValueError(f"unknown stopping rule {self.stop_on!r}")


@dataclass
class SolveReport:
    estimate: BlockSignal
    iterations_used: int
    converged: bool
    residual_final: float
    residual_trajectory: list[float] | None = None
    oracle_error: float | None = None


def matrix_sqrt_psd(g: np.ndarray) -> np.ndarray:
    """Unique Hermitian PSD square root via eigendecomposition, of one
    matrix or of each matrix in a ``(..., r, r)`` stack.

    Eigenvalues pushed slightly negative by noise are clamped to zero;
    genuinely non-Hermitian input is rejected, each matrix measured
    against its own largest entry.  The root is :func:`_psd_root`'s.
    """
    return _psd_root(_checked_hermitian(g))[0]


def _checked_hermitian(g) -> np.ndarray:
    """``g`` as an array, refused unless its matrices are square and Hermitian."""
    g = np.asarray(g)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {g.shape}")
    scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))
    if np.any(np.max(np.abs(g - g.conj().mT), axis=(-2, -1)) > HERMITIAN_INPUT_TOL * scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    return g


def _psd_root(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The PSD square root of ``(G + G*) / 2`` for each matrix ``G`` of a
    ``(..., r, r)`` stack, from one ``eigh`` call, and its eigenvalues in
    ascending order (negative ones clamped to zero in the root only).
    The product ``V diag(sqrt(w)) V*`` goes through :func:`_matmul`, which
    copies ``V*``, a ``.mT`` view, to C order for a real stack."""
    w, v = _eigh((g + g.conj().mT) / 2.0)
    return _matmul(v * np.sqrt(np.clip(w, 0.0, None))[..., None, :], v.conj().mT), w


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` on stacks of small matrices, real ones taken in C order.

    The product keeps the bits of matmul on the operands as given (tested
    for both layouts the callers pass, n = 1-9, r = 1-8).  But with the
    matrices of an operand transposed in memory (a ``.mT`` view, or the blocks of
    ``blocks.group_stacks``), on 15,000 real ``8x4`` stacks (one BLAS
    thread) the Gram ``X* X`` took 1.8 times as long alone and 10 times
    as long when two threads ran it at once, and the ``4x4`` product of
    :func:`_psd_root` 2.1 and 16 times; the chunk threads of
    ``analysis.distortion_ratios`` run both at once.  Complex operands go
    as given: in C order they took longer alone and contended alike."""
    if "c" in (a.dtype.kind, b.dtype.kind):
        return a @ b
    return np.ascontiguousarray(a) @ np.ascontiguousarray(b)


def _eigh_failed(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _svd_failed(err, flag):
    raise LinAlgError("SVD did not converge")


def _eigh(a: np.ndarray):
    """``np.linalg.eigh(a)`` bit for bit: ``(w, v)`` of a stack."""
    if a.dtype.char not in "dD":  # the wrapper casts other types
        return np.linalg.eigh(a)
    with np.errstate(call=_eigh_failed, **_LAPACK_ERRSTATE):
        return _umath_linalg.eigh_lo(a)


def _svd(a: np.ndarray):
    """``np.linalg.svd(a, full_matrices=False)`` bit for bit: ``(u, s, vh)``."""
    if a.dtype.char not in "dD":
        return np.linalg.svd(a, full_matrices=False)
    with np.errstate(call=_svd_failed, **_LAPACK_ERRSTATE):
        return _umath_linalg.svd_s(a)


def _gram(x: np.ndarray) -> np.ndarray:
    """``X* X`` of each matrix of a ``(..., n, r)`` stack (for one column,
    the same sum as ``matmul``'s, without a call per matrix).

    Stacks of two or more matrices go through :func:`_matmul`.  A single
    matrix (the solver's residual at T = 1) does not: there the C-order
    copy cost more than it saved (``8x4``, one BLAS thread: 1.03 against
    0.99 us, about 1.4% of a T = 1 solve), while two matrices already
    took 1.09 against 1.13 us."""
    shape = x.shape
    if shape[-1] == 1:
        return np.vecdot(x[..., 0], x[..., 0])[..., None, None]
    if x.size == shape[-2] * shape[-1]:
        return x.conj().mT @ x
    return _matmul(x.conj().mT, x)


def _unit_vectors(x: np.ndarray) -> np.ndarray:
    """``x / ||x||`` for each vector of a ``(..., n)`` stack; a zero vector
    maps to ``e_1``."""
    # an exact power of two per vector keeps its squares in range
    peak = np.abs(x).max(axis=-1, keepdims=True)
    x = x * np.ldexp(1.0, -np.maximum(np.frexp(peak)[1], -1000))
    norm = np.sqrt(np.vecdot(x, x).real)[..., None]
    q = x / np.where(norm > 0.0, norm, 1.0)
    q[..., 0] = np.where(norm[..., 0] > 0.0, q[..., 0], 1.0)
    return q


def _eigh_polar(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A V diag(w)^-1/2 V*`` from ``A* A = V diag(w) V*`` for each matrix
    of a ``(..., n, r)`` stack, and whether ``w_min / w_max`` reaches
    ``POLAR_RCOND``, below which the result is not to be used.

    ``A* A`` of a stack of rows comes from :func:`_gram`, the Gram of the
    residual and the distortion, in C order.  One row (a T = 1 solve)
    takes the plain product, without the call: through :func:`_gram` a
    loop of T = 1 solves took about 1.5% longer (the call and its shape
    tests), while the experiment sweeps gained about 0.5%."""
    w, v = _eigh(a.conj().mT @ a if len(a) == 1 else _gram(a))
    # the floor only keeps the matrices that fail the test free of 1 / 0
    root = np.sqrt(np.maximum(w, _SMALLEST))
    q = (a @ (v / root[..., None, :])) @ v.conj().mT
    return q, w[..., 0] > POLAR_RCOND * w[..., -1]


def _all(mask: np.ndarray) -> bool:
    # scanning the list beats a numpy reduction on the few entries of the
    # small stacks, where such per-call costs dominate
    return all(mask.ravel().tolist())


def _svd_polar(a: np.ndarray) -> np.ndarray:
    u, _, vh = _svd(a)
    return u @ vh


def _mask_or_bool(mask: np.ndarray) -> np.ndarray | bool:
    """``mask``, or one bool when all its entries agree."""
    if _all(mask) or not mask.any():
        return bool(mask.all())
    return mask


def _unit_scale(size: np.ndarray) -> np.ndarray:
    """The power of two nearest ``1 / size``."""
    return np.ldexp(1.0, -np.clip(np.frexp(size)[1], -1000, 1000))


class _Shape(NamedTuple):
    """Constants of the measurement projection of one shape group of
    blocks, over a stack of rows."""

    gram: np.ndarray  # (T, G, r, r)
    sqrt: np.ndarray  # their PSD square roots
    # the roots times a power of two per row that brings X S near unit
    # size for the row's iterates X (the polar factor does not change)
    scaled: np.ndarray
    # (T, G): whether the polar factor may come from the eigendecomposition;
    # one bool if the same for all
    try_eigh: np.ndarray | bool

    def take(self, keep: np.ndarray) -> _Shape:
        return _Shape(*(a if isinstance(a, bool) else a[keep] for a in self))


def _shape_constants(gram: np.ndarray, unit: np.ndarray) -> _Shape:
    # the root and eigenvalues of (G + G*) / 2; the callers have refused any skew
    sqrt, w = _psd_root(gram)
    # near a solution A* A = S X* X S is about G**2, so a Gram whose
    # w_min / w_max is below sqrt(POLAR_RCOND) would send its block to the
    # SVD at every iteration: it goes there at once
    try_eigh = _mask_or_bool(w[..., 0] > np.sqrt(POLAR_RCOND) * w[..., -1])
    return _Shape(gram, sqrt, sqrt * unit, try_eigh)


def _procrustes(c: _Shape, xtilde: np.ndarray) -> tuple[np.ndarray, _Shape]:
    """Measurement projection of a ``(..., n, r)`` stack of blocks, and the
    constants for the next one.

    The unitary polar factor of ``A = Xtilde S`` comes from the
    eigendecomposition of the r x r ``A* A`` for the blocks marked in
    ``c.try_eigh``.  Forming ``A* A`` squares the condition number, so the
    rest, and those whose ``w_min / w_max`` falls below ``POLAR_RCOND``
    (rank deficient, or nearly), take the thin SVD.  Each block takes its
    path by its own values, so a row's result does not depend on the
    stack.  A block that once failed the eigendecomposition's test (a
    sparse iterate can keep a zero column while its Gram has full rank)
    takes the SVD from then on, rather than paying for both at every
    iteration.
    """
    if xtilde.shape[-1] == 1:
        return _unit_vectors(xtilde[..., 0])[..., None] * c.sqrt, c
    a = xtilde @ c.scaled
    try_eigh = c.try_eigh
    if try_eigh is False:
        return _svd_polar(a) @ c.sqrt, c
    if try_eigh is True:
        q, ok = _eigh_polar(a)
        if _all(ok):  # the common case: no mask to keep
            return q @ c.sqrt, c
    else:
        q, ok = np.empty_like(a), np.zeros(try_eigh.shape, dtype=bool)
        if try_eigh.any():
            q[try_eigh], ok[try_eigh] = _eigh_polar(a[try_eigh])
    bad = ~ok
    if bad.any():
        q[bad] = _svd_polar(a[bad])
    return q @ c.sqrt, c._replace(try_eigh=_mask_or_bool(ok))


def procrustes_project(g: np.ndarray, xtilde: np.ndarray) -> np.ndarray:
    """Nearest matrix to ``xtilde`` with Gram matrix exactly ``g``.

    Requires a tall or square block (rows >= columns).  With ``S`` the
    PSD square root of ``g``, the answer is ``Q S`` where ``Q`` is the
    unitary polar factor of ``xtilde @ S``: in closed form
    ``xtilde / ||xtilde||`` for one column (``e_1`` for a zero column),
    otherwise from the eigendecomposition of ``(xtilde S)* (xtilde S)``,
    or from the thin SVD when that matrix is ill-conditioned.  The
    constraint ``Y* Y = g`` holds to machine precision even for
    rank-deficient ``g``; optimality is exact whenever ``xtilde @ S`` has
    full rank (otherwise the SVD's null-space convention picks one
    minimizer deterministically).
    """
    g = np.asarray(g)
    xtilde = np.asarray(xtilde)
    if xtilde.ndim != 2:
        raise ValueError(f"expected a block matrix, got shape {xtilde.shape}")
    n, r = xtilde.shape
    if n < r:
        raise ValueError(
            f"wide blocks are not supported: got shape ({n}, {r}) with rows < columns"
        )
    if g.shape != (r, r):
        raise ValueError(f"Gram must be ({r}, {r}) for this block, got {g.shape}")
    c = _shape_constants(_checked_hermitian(g)[None], 1.0)
    unit = _unit_scale(np.abs(xtilde @ c.sqrt[0]).max(initial=0.0))
    return _procrustes(c._replace(scaled=c.sqrt * unit), xtilde[None])[0][0]


def _sign_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``min(||p - q||, ||p + q||)`` of each row of two ``(T, d)`` stacks,
    under the caller's ``errstate``, which must ignore overflow and
    underflow."""
    both = _frobenius_norms([np.concatenate([p - q, p + q])])
    return np.minimum(both[: len(p)], both[len(p):])


def rho(x: BlockSignal, y: BlockSignal) -> float:
    """Sign-invariant pseudo-metric: ``min(||x - y||, ||x + y||)`` over the
    concatenated blocks.  Zero iff ``y == x`` or ``y == -x``."""
    if x.structure != y.structure:
        raise StructureMismatch("signals live on different structures")
    with np.errstate(over="ignore", under="ignore"):
        return float(_sign_distances(reconstruct(x)[None], reconstruct(y)[None])[0])


def solve(
    measured: GramTuple,
    prior: PriorSpec,
    config: SolverConfig,
    init: BlockSignal | None = None,
    truth: BlockSignal | None = None,
) -> SolveReport:
    """Recover a signal whose Gram tuple matches ``measured`` under ``prior``.

    Iterates measurement-after-prior from ``init`` (default: a random
    signal drawn with ``config.seed``).  The reported estimate is the
    prior projection of the final iterate, so it satisfies the prior
    exactly; its residual is the normalized Gram mismatch.  When
    ``truth`` is given the report carries the sign-resolved relative
    error ``rho(estimate, truth) / ||truth||``.  This is
    :func:`solve_batch` on a stack of one.
    """
    if init is None:
        init = random_signal(measured.structure, np.random.default_rng(config.seed))
    truths = None if truth is None else [truth]
    return solve_batch([measured], [prior], config, [init], truths)[0]


def _rows_of(index: np.ndarray) -> slice | np.ndarray:
    """Ascending row positions, as a slice when they are a contiguous run
    (a view of the stack, where an index array copies it)."""
    if index[-1] - index[0] + 1 == len(index):
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


@dataclass(frozen=True)
class _Rows:
    """Per-row constants of the rows still iterating in a stacked solve.

    The Grams are held per shape group of the structure; the priors as
    one stack per type and shape, with the rows it holds.
    """

    index: np.ndarray  # position of each row in the caller's batch
    priors: list[tuple[slice | np.ndarray, PriorStack]]
    shapes: list[_Shape]
    gram_scale: np.ndarray
    truth: np.ndarray | None
    truth_scale: np.ndarray | None

    def take(self, keep: np.ndarray) -> _Rows:
        """The rows of a boolean mask."""
        has_truth = self.truth is not None
        position = np.cumsum(keep) - 1
        priors = [
            (_rows_of(position[rows][sel]), stack.take(sel))
            for rows, stack in self.priors
            for sel in [keep[rows]]
            if sel.any()
        ]
        return _Rows(
            self.index[keep],
            priors,
            [c.take(keep) for c in self.shapes],
            self.gram_scale[keep],
            self.truth[keep] if has_truth else None,
            self.truth_scale[keep] if has_truth else None,
        )

    def prior_projection(self, v: np.ndarray) -> np.ndarray:
        """Each row projected onto its own prior, one call per stack."""
        if len(self.priors) == 1:
            return project_prior(v, self.priors[0][1])
        parts = [(rows, project_prior(v[rows], stack)) for rows, stack in self.priors]
        p = np.empty(v.shape, np.result_type(*(q for _, q in parts)))
        for rows, q in parts:
            p[rows] = q
        return p

    def residuals(self, xs: list[np.ndarray]) -> np.ndarray:
        """Normalized Gram mismatch ``||X* X - G|| / ||G||`` of each row,
        from the shape groups ``xs`` of its blocks (under the iteration
        loop's ``errstate``, as :func:`_sign_distances`)."""
        errs = [_gram(x) - c.gram for x, c in zip(xs, self.shapes)]
        return _frobenius_norms(errs) / self.gram_scale

    def oracle_errors(self, p: np.ndarray) -> np.ndarray:
        """Sign-resolved distance to the truth over the truth's norm."""
        return _sign_distances(p, self.truth) / self.truth_scale


def _project_measurement(
    xs: list[np.ndarray], rows: _Rows, structure: RepresentationStructure
) -> np.ndarray:
    """The ambient rows of the measurement projection of shape groups
    ``xs``; ``rows`` takes the constants for the next projection."""
    projected = [_procrustes(c, x) for c, x in zip(rows.shapes, xs)]
    rows.shapes[:] = [c for _, c in projected]
    return ungroup_stacks([y for y, _ in projected], structure)


def _nonzero(scale: np.ndarray) -> np.ndarray:
    return np.where(scale > 0, scale, 1.0)


class _Solved(NamedTuple):
    """What :func:`_solve_stack` returns, one entry per row of the stack."""

    iterations: np.ndarray  # (T,) ints
    converged: np.ndarray  # (T,) bools
    residual: np.ndarray  # (T,)
    oracle_error: np.ndarray | None  # (T,), with a truth
    estimate: np.ndarray  # (T, d) ambient rows
    trajectories: list[list[float]] | None


def _solve_stack(
    s: RepresentationStructure,
    config: SolverConfig,
    grams: list[np.ndarray],
    priors: list[tuple[np.ndarray, PriorStack]],
    v: np.ndarray,
    truth: np.ndarray | None = None,
) -> _Solved:
    """The stack engine of :func:`solve_batch`, on arrays.

    ``grams`` holds a checked ``(T, G, r, r)`` stack per entry of
    ``s.shape_groups``; ``priors`` the ``(rows, stack)`` pairs of
    :func:`~gramphase.priors.group_priors`; ``v`` and ``truth`` the
    ``(T, d)`` ambient rows of the inits and truths.  The caller pins the
    BLAS to one thread.
    """
    count = len(v)
    if config.stop_on == "oracle" and truth is None:
        raise ValueError("stop_on='oracle' requires a ground-truth signal")
    for (n, r) in s.blocks:
        if n < r:
            raise ValueError(
                f"wide block ({n}, {r}): the measurement projector needs rows >= columns"
            )
    gram_scale = _nonzero(frobenius_norms(grams))
    # the blocks of an iterate have about the norms of the Grams' roots
    unit = _unit_scale(gram_scale)[:, None, None, None]
    truth_scale = None if truth is None else _nonzero(frobenius_norms([truth]))
    rows = _Rows(
        index=np.arange(count),
        priors=[(_rows_of(rows), stack) for rows, stack in priors],
        shapes=[_shape_constants(stack, unit) for stack in grams],
        gram_scale=gram_scale,
        truth=truth,
        truth_scale=truth_scale,
    )
    iterations = np.empty(count, dtype=int)
    converged_at = np.empty(count, dtype=bool)
    residual_at = np.empty(count)
    error_at = None if truth is None else np.empty(count)
    estimates = []
    trajectories = [[] for _ in range(count)] if config.track_trajectory else None
    # The residual is needed every iteration only to stop on it or to
    # track it; otherwise each row's is computed once, when it stops.
    every_residual = config.stop_on == "residual" or config.track_trajectory

    # one errstate for the whole loop: the norms' overflowed and
    # underflowed rows are redone, and a non-finite iterate raises below
    with np.errstate(over="ignore", under="ignore"):
        for k in range(config.max_iters + 1):
            if not np.isfinite(v).all():
                row = int(rows.index[np.argmin(np.isfinite(v).all(axis=1))])
                raise FloatingPointError(
                    f"iterate of row {row} became non-finite entering iteration {k}; "
                    "check the measurement and prior for scale problems"
                )
            p = rows.prior_projection(v)
            xs = group_stacks(p, s)
            residual = rows.residuals(xs) if every_residual else None
            if trajectories is not None:
                for t, value in zip(rows.index, residual.tolist()):
                    trajectories[t].append(value)
            crit = residual if config.stop_on == "residual" else rows.oracle_errors(p)
            converged = crit < config.tol
            stop = converged if k < config.max_iters else np.ones(len(p), dtype=bool)
            if any(stop.tolist()):
                done = rows.take(stop)
                p_done = p[stop]
                iterations[done.index] = k
                converged_at[done.index] = converged[stop]
                residual_at[done.index] = (
                    residual[stop] if every_residual else done.residuals(group_stacks(p_done, s))
                )
                if truth is not None:
                    error_at[done.index] = (
                        crit[stop] if config.stop_on == "oracle" else done.oracle_errors(p_done)
                    )
                estimates.append((done.index, p_done))
                if stop.all():
                    break
                keep = ~stop
                rows, v, p = rows.take(keep), v[keep], p[keep]
                xs = group_stacks(p, s)
            if config.algorithm == "alternating_projection":
                v = _project_measurement(xs, rows, s)
            else:
                # relaxed reflect-and-average step
                reflected = _project_measurement(group_stacks(2.0 * p - v, s), rows, s)
                v = v + config.beta * (reflected - p)
    estimate = np.empty((count, s.ambient_dim), np.result_type(*(q for _, q in estimates)))
    for index, q in estimates:
        estimate[index] = q
    return _Solved(iterations, converged_at, residual_at, error_at, estimate, trajectories)


def _reports(s: RepresentationStructure, solved: _Solved) -> list[SolveReport]:
    """One :class:`SolveReport` per row of a solved stack."""
    err, paths = solved.oracle_error, solved.trajectories
    return [
        SolveReport(
            estimate=decompose(solved.estimate[t], s),
            iterations_used=k,
            converged=ok,
            residual_final=res,
            residual_trajectory=None if paths is None else paths[t],
            oracle_error=None if err is None else float(err[t]),
        )
        for t, (k, ok, res) in enumerate(zip(solved.iterations.tolist(),
                                             solved.converged.tolist(),
                                             solved.residual.tolist()))
    ]


@_one_blas_thread
def solve_batch(
    measured: Sequence[GramTuple],
    priors: Sequence[PriorSpec],
    config: SolverConfig,
    inits: Sequence[BlockSignal],
    truths: Sequence[BlockSignal] | None = None,
) -> list[SolveReport]:
    """Solve ``T`` instances on one structure together, as one stack.

    Row ``t`` recovers a signal with Gram tuple ``measured[t]`` under
    ``priors[t]`` from ``inits[t]`` (and measures its error against
    ``truths[t]``); the priors may differ in type and shape.  Each
    iteration projects the whole stack at once: one prior projection per
    type and shape of prior, one measurement projection per shape of
    block.  A row leaves the stack when it
    meets the stopping rule or the iteration cap, and its report is
    bitwise the report of solving it alone with :func:`solve`.  This is
    the object front of the stack engine :func:`_solve_stack`: it checks
    the objects and stacks them into arrays.
    """
    count = len(measured)
    if count == 0:
        raise ValueError("need at least one instance")
    if len(priors) != count or len(inits) != count or (
        truths is not None and len(truths) != count
    ):
        raise ValueError("need exactly one prior, init and truth per measurement")
    s = measured[0].structure
    if any(m.structure != s for m in measured):
        raise StructureMismatch("measurements in one stack use different structures")
    if any(x.structure != s for x in inits):
        raise StructureMismatch("init uses a different structure than the measurement")
    if truths is not None and any(x.structure != s for x in truths):
        raise StructureMismatch("truth uses a different structure than the measurement")
    grams = [np.array([[m.grams[l] for l in idx] for m in measured]) for _, idx in s.shape_groups]
    truth = None if truths is None else np.stack([reconstruct(x) for x in truths])
    v = np.stack([reconstruct(x) for x in inits])
    return _reports(s, _solve_stack(s, config, grams, group_priors(list(priors)), v, truth))
