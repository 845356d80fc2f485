"""Projection-based recovery of a signal from its Gram tuple.

Two projectors drive everything.  The prior projector maps onto the
signal model (see :mod:`gramphase.priors`).  The measurement projector
maps a block matrix onto the set of matrices with a prescribed Gram
matrix by solving an orthogonal Procrustes problem per block: with
``S`` the PSD square root of ``G``, the nearest ``Y`` with
``Y* Y = G`` is ``U V* S`` where ``U diag(s) V*`` is the thin SVD of
``Xtilde S``.

Alternating projection composes measurement after prior; a relaxed
reflect-and-average variant with step ``beta`` is available for
problems where plain alternation stagnates.  Both iterate in ambient
coordinates.  Convergence for these non-convex constraint sets is not
guaranteed and the residual may oscillate; the solver simply reports
whether the stopping criterion was met.

One engine, :func:`solve_batch`, iterates a ``(T, d)`` stack of
instances on one structure: each iteration is one stacked prior
projection and, per block, one stacked product, one batched SVD and one
product back.  Rows that stop are written out and dropped from the
stack.  :func:`solve` is the same engine on a stack of one.  Stacked
``matmul`` and ``svd`` call LAPACK and BLAS once per matrix, with the
same memory layout as a single call, so each row's result is bitwise
independent of the batch it was solved in.

The SVD's sign (phase) freedom is left unpinned: ``U V*`` is the sum of
``u_i v_i*`` over singular pairs, and each term is unchanged when its
pair is multiplied by a sign or a phase, so pinning them would not
change the projection.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .blocks import (
    BlockSignal,
    RepresentationStructure,
    StructureMismatch,
    block_stacks,
    decompose,
    frobenius_norms,
    random_signal,
    reconstruct,
)
from .moments import GramTuple
from .priors import PriorSpec, PriorStack, project_prior, stack_priors

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


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm choice and stopping rule.

    ``stop_on="residual"`` uses the blind normalized measurement
    residual of the prior-projected iterate; ``stop_on="oracle"``
    stops on the sign-invariant distance to a supplied ground truth
    (for benchmarking only, since a deployed solver has no truth).
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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
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
    against its own largest entry.
    """
    g = np.asarray(g)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {g.shape}")
    gh = np.swapaxes(g, -1, -2).conj()
    scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))
    if np.any(np.max(np.abs(g - gh), axis=(-2, -1)) > HERMITIAN_INPUT_TOL * scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((g + gh) / 2.0)
    vh = np.swapaxes(v, -1, -2).conj()
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ vh


def _procrustes_from_sqrt(sqrt_g: np.ndarray, xtilde: np.ndarray) -> np.ndarray:
    """Measurement projection of a stack of blocks ``(T, n, r)`` given the
    stacked square roots ``(T, r, r)`` of their target Grams."""
    u, _, vh = np.linalg.svd(xtilde @ sqrt_g, full_matrices=False)
    return (u @ vh) @ sqrt_g


def procrustes_project(g: np.ndarray, xtilde: np.ndarray) -> np.ndarray:
    """Nearest matrix to ``xtilde`` with Gram matrix exactly ``g``.

    Requires a tall or square block (rows >= columns).  The constraint
    ``Y* Y = g`` holds to machine precision even for rank-deficient
    ``g``; optimality is exact whenever ``xtilde @ sqrt(g)`` has full
    rank (otherwise the SVD's null-space convention picks one minimizer
    deterministically).
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
    return _procrustes_from_sqrt(matrix_sqrt_psd(g), xtilde)


def rho(x: BlockSignal, y: BlockSignal) -> float:
    """Sign-invariant pseudo-metric: ``min(||x - y||, ||x + y||)`` over the
    concatenated blocks.  Zero iff ``y == x`` or ``y == -x``."""
    if x.structure != y.structure:
        raise StructureMismatch("signals live on different structures")
    minus = 0.0
    plus = 0.0
    for a, b in zip(x.matrices, y.matrices):
        minus += np.linalg.norm(a - b) ** 2
        plus += np.linalg.norm(a + b) ** 2
    return float(np.sqrt(min(minus, plus)))


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


@dataclass(frozen=True)
class _Rows:
    """Per-row constants of the rows still iterating in a stacked solve."""

    index: np.ndarray  # position of each row in the caller's batch
    prior: PriorStack
    sqrt_grams: list[np.ndarray]  # per block, (T, r, r)
    grams: list[np.ndarray]  # per block, (T, r, r)
    gram_scale: np.ndarray
    truth: np.ndarray | None
    truth_scale: np.ndarray | None

    def take(self, keep: np.ndarray) -> _Rows:
        has_truth = self.truth is not None
        return _Rows(
            self.index[keep],
            self.prior.take(keep),
            [a[keep] for a in self.sqrt_grams],
            [a[keep] for a in self.grams],
            self.gram_scale[keep],
            self.truth[keep] if has_truth else None,
            self.truth_scale[keep] if has_truth else None,
        )

    def residuals(self, p: np.ndarray, structure: RepresentationStructure) -> np.ndarray:
        """Normalized Gram mismatch ``||X* X - G|| / ||G||`` of each row."""
        errs = [
            x.conj().transpose(0, 2, 1) @ x - g
            for x, g in zip(block_stacks(p, structure), self.grams)
        ]
        return frobenius_norms(errs) / self.gram_scale

    def oracle_errors(self, p: np.ndarray) -> np.ndarray:
        """Sign-resolved distance to the truth over the truth's norm."""
        minus = frobenius_norms([p - self.truth])
        plus = frobenius_norms([p + self.truth])
        return np.minimum(minus, plus) / self.truth_scale


def _project_measurement(
    p: np.ndarray, sqrt_grams: list[np.ndarray], structure: RepresentationStructure
) -> np.ndarray:
    out = np.empty_like(p)
    for x, y, sq in zip(block_stacks(p, structure), block_stacks(out, structure), sqrt_grams):
        y[...] = _procrustes_from_sqrt(sq, x)
    return out


def _nonzero(scale: np.ndarray) -> np.ndarray:
    return np.where(scale > 0, scale, 1.0)


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
    ``truths[t]``); the priors share one type and shape.  Each iteration
    projects the whole stack at once.  A row leaves the stack when it
    meets the stopping rule or the iteration cap, and its report is
    bitwise the report of solving it alone with :func:`solve`.
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
    if config.stop_on == "oracle" and truths is None:
        raise ValueError("stop_on='oracle' requires a ground-truth signal")
    for (n, r) in s.blocks:
        if n < r:
            raise ValueError(
                f"wide block ({n}, {r}): the measurement projector needs rows >= columns"
            )

    grams = [np.stack(g) for g in zip(*(m.grams for m in measured))]
    truth = truth_scale = None
    if truths is not None:
        truth = np.stack([reconstruct(x) for x in truths])
        truth_scale = _nonzero(frobenius_norms([truth]))
    rows = _Rows(
        index=np.arange(count),
        prior=stack_priors(list(priors)),
        sqrt_grams=[matrix_sqrt_psd(stack) for stack in grams],
        grams=grams,
        gram_scale=_nonzero(frobenius_norms(grams)),
        truth=truth,
        truth_scale=truth_scale,
    )
    v = np.stack([reconstruct(x) for x in inits])
    reports: list[SolveReport | None] = [None] * count
    trajectories = [[] for _ in range(count)] if config.track_trajectory else None
    # The residual is needed every iteration only to stop on it or to
    # track it; otherwise each row's is computed once, when it stops.
    every_residual = config.stop_on == "residual" or config.track_trajectory

    for k in range(config.max_iters + 1):
        if not np.isfinite(v).all():
            row = int(rows.index[np.argmin(np.isfinite(v).all(axis=1))])
            raise FloatingPointError(
                f"iterate of row {row} became non-finite entering iteration {k}; "
                "check the measurement and prior for scale problems"
            )
        p = project_prior(v, rows.prior)
        residual = rows.residuals(p, s) if every_residual else None
        if trajectories is not None:
            for t, value in zip(rows.index, residual.tolist()):
                trajectories[t].append(value)
        crit = residual if config.stop_on == "residual" else rows.oracle_errors(p)
        converged = crit < config.tol
        stop = converged if k < config.max_iters else np.ones(len(p), dtype=bool)
        if stop.any():
            done = rows.take(stop)
            p_done = p[stop]
            res = residual[stop] if every_residual else done.residuals(p_done, s)
            err = None
            if truth is not None:
                err = crit[stop] if config.stop_on == "oracle" else done.oracle_errors(p_done)
            for j, (t, ok) in enumerate(zip(done.index, converged[stop])):
                reports[t] = SolveReport(
                    estimate=decompose(p_done[j], s),
                    iterations_used=k,
                    converged=bool(ok),
                    residual_final=float(res[j]),
                    residual_trajectory=None if trajectories is None else trajectories[t],
                    oracle_error=None if err is None else float(err[j]),
                )
            if stop.all():
                break
            keep = ~stop
            rows, v, p = rows.take(keep), v[keep], p[keep]
        if config.algorithm == "alternating_projection":
            v = _project_measurement(p, rows.sqrt_grams, s)
        else:
            # relaxed reflect-and-average step
            reflected = _project_measurement(2.0 * p - v, rows.sqrt_grams, s)
            v = v + config.beta * (reflected - p)
    return reports
