"""Prior projectors: linear subspace, sparsity, and known support.

Each prior is a set in ambient coordinates together with a Euclidean
nearest-point map.  The projectors are idempotent.  The solver only ever
calls :func:`project_prior`, which takes these three types alone: any
other object raises ``TypeError``.  The solver projects a whole stack of
iterates at once, one prior per row, through one :class:`PriorStack` per
type and shape of prior (:func:`group_priors`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .blocks import (
    DimensionMismatch,
    RepresentationStructure,
    _check_orthonormal,
    _gaussian,
    _one_blas_thread,
    _reduced_q,
    _whole_number,
)

__all__ = [
    "LinearSubspacePrior",
    "SparsityPrior",
    "SupportPrior",
    "PriorSpec",
    "PriorStack",
    "RankDeficiencyError",
    "group_priors",
    "project_prior",
    "random_subspace_prior",
    "stack_priors",
]


class RankDeficiencyError(RuntimeError):
    """A basis that should be full rank numerically is not."""


@dataclass(frozen=True, eq=False)
class LinearSubspacePrior:
    """Signal lies in the column span of ``basis`` (orthonormal columns)."""

    basis: np.ndarray  # (ambient_dim, m)

    def __post_init__(self):
        b = np.asarray(self.basis)
        if b.ndim != 2 or not 1 <= b.shape[1] <= b.shape[0]:
            raise ValueError(f"basis must be (dim, m) with 1 <= m <= dim, got {b.shape}")
        _check_orthonormal(b, "subspace basis")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class SparsityPrior:
    """At most ``k`` nonzero entries, optionally in an orthonormal dictionary.

    Exact nearest-point projection under a general overcomplete
    dictionary is NP-hard, so only orthonormal dictionaries (where hard
    thresholding of the coefficients is exact) are accepted.
    """

    k: int
    dictionary: np.ndarray | None = None  # (ambient_dim, d)

    def __post_init__(self):
        object.__setattr__(self, "k", _whole_number(self.k, "sparsity level k"))
        if self.dictionary is not None:
            d = np.asarray(self.dictionary)
            if d.ndim != 2:
                raise ValueError("dictionary must be a 2-d matrix")
            if self.k > d.shape[1]:
                raise ValueError(
                    f"sparsity level {self.k} exceeds dictionary size {d.shape[1]}"
                )
            _check_orthonormal(d, "sparsity dictionary")
            object.__setattr__(self, "dictionary", d)


@dataclass(frozen=True, eq=False)
class SupportPrior:
    """Signal vanishes outside a fixed coordinate mask."""

    mask: np.ndarray  # boolean, ambient length

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.ndim != 1:
            raise ValueError("support mask must be a 1-d boolean vector")
        if not m.any():
            raise ValueError("support mask must have at least one true entry")
        object.__setattr__(self, "mask", m)


PriorSpec = LinearSubspacePrior | SparsityPrior | SupportPrior


@dataclass(frozen=True, eq=False)
class PriorStack:
    """One prior per row of a ``(T, d)`` stack, all of one type, held as
    stacked arrays so that one :func:`project_prior` call projects every
    row.  :func:`stack_priors` builds it from prior objects."""

    kind: type
    dim: int  # ambient length the priors apply to; 0 for any length
    basis: np.ndarray | None = None  # (T, d, m) subspace bases or sparsity dictionaries
    k: np.ndarray | None = None  # (T,) sparsity levels
    mask: np.ndarray | None = None  # (T, d) supports

    def take(self, rows: np.ndarray) -> PriorStack:
        """The stack of the selected rows (an index array or boolean mask)."""
        fields = ("basis", "k", "mask")
        return replace(
            self, **{f: getattr(self, f)[rows] for f in fields if getattr(self, f) is not None}
        )

    @cached_property
    def adjoint(self) -> np.ndarray:
        """The conjugate transposes ``(T, m, d)`` of the bases, built once."""
        return self.basis.conj().transpose(0, 2, 1)


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    # one prior: a view, made C-contiguous as a copy would be, so that
    # matmul takes the same BLAS path
    if len(arrays) == 1:
        return np.ascontiguousarray(arrays[0])[None]
    try:
        return np.array(arrays)
    except ValueError:
        raise ValueError("priors in one stack must have the same shape") from None


def stack_priors(priors: list[PriorSpec]) -> PriorStack:
    """Stack priors of one type and one shape, one per row."""
    if not priors:
        raise ValueError("need at least one prior")
    kind = type(priors[0])
    if kind not in (LinearSubspacePrior, SparsityPrior, SupportPrior):
        raise TypeError(f"unknown prior type {kind.__name__}")
    if any(type(p) is not kind for p in priors):
        raise ValueError("priors in one stack must all have the same type")
    if kind is LinearSubspacePrior:
        basis = _stacked([p.basis for p in priors])
        return PriorStack(kind, basis.shape[1], basis=basis)
    if kind is SupportPrior:
        mask = _stacked([p.mask for p in priors])
        return PriorStack(kind, mask.shape[1], mask=mask)
    k = np.array([p.k for p in priors])
    if all(p.dictionary is None for p in priors):
        return PriorStack(kind, 0, k=k)
    basis = _stacked([p.dictionary for p in priors])
    return PriorStack(kind, basis.shape[1], basis=basis, k=k)


def _stack_key(prior: PriorSpec):
    # the array whose shape and dtype a stack of this type shares, if any
    array = getattr(prior, "basis", getattr(prior, "mask", getattr(prior, "dictionary", None)))
    return type(prior), None if array is None else (array.shape, array.dtype)


def group_priors(priors: list[PriorSpec]) -> list[tuple[np.ndarray, PriorStack]]:
    """Priors of any types and shapes, stacked by type and shape: one
    ``(rows, stack)`` pair per group, in order of first appearance, where
    ``rows`` are the positions in ``priors`` of the stack's rows."""
    groups: dict = {}
    for t, prior in enumerate(priors):
        groups.setdefault(_stack_key(prior), []).append(t)
    return [
        (np.array(rows), stack_priors([priors[t] for t in rows])) for rows in groups.values()
    ]


def _hard_threshold(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Keep the ``k[t]`` largest magnitudes of row ``t``; a stable sort on
    descending magnitude breaks ties toward the lowest index."""
    order = np.argsort(-np.abs(v), axis=1, kind="stable")
    rank = np.empty_like(order)
    rank[np.arange(len(v))[:, None], order] = np.arange(v.shape[1])
    return np.where(rank < k[:, None], v, 0.0)


def _apply(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.matmul(basis, v[..., None])[..., 0]


def project_prior(v: np.ndarray, prior: PriorSpec | PriorStack) -> np.ndarray:
    """Euclidean nearest point of the prior set (idempotent).

    ``v`` is one ambient vector with one prior, or a ``(T, d)`` stack
    with a :class:`PriorStack` of ``T`` priors, which projects row ``t``
    onto prior ``t``.  Each row's result is bitwise the same as its own
    single-vector projection.
    """
    v = np.asarray(v)
    if not isinstance(prior, PriorStack):
        return project_prior(v[None], stack_priors([prior]))[0]
    length = v.shape[1]
    if prior.kind is SparsityPrior and prior.basis is None:
        if prior.k.max() > length:
            raise DimensionMismatch(
                f"sparsity level {prior.k.max()} exceeds vector length {length}"
            )
        return _hard_threshold(v, prior.k)
    if length != prior.dim:
        raise DimensionMismatch(f"vector length {length} vs prior dimension {prior.dim}")
    if prior.kind is SupportPrior:
        return np.where(prior.mask, v, 0.0 * v)
    if prior.kind is LinearSubspacePrior:
        return _apply(prior.basis, _apply(prior.adjoint, v))
    return _apply(prior.basis, _hard_threshold(_apply(prior.adjoint, v), prior.k))


def _check_subspace_dim(dim: int, m: int) -> None:
    if not 1 <= m <= dim:
        raise ValueError(f"subspace dimension must be in [1, {dim}], got {m}")


def _subspace_stack(a: np.ndarray) -> PriorStack:
    """The subspace priors of a ``(T, dim, m)`` stack of Gaussian bases:
    their orthonormal ``Q`` factors, from one LAPACK QR call for the stack
    (``np.linalg.qr``'s bit for bit), each checked as
    :class:`LinearSubspacePrior` checks its basis.  A basis whose ``R``
    diagonal is numerically rank deficient raises.  ``a`` (float64 or
    complex128) is factored in place."""
    q = _reduced_q(a)
    # the factored a holds R on and above its diagonal
    diag = np.abs(np.diagonal(a, axis1=-2, axis2=-1))
    if np.any(diag.min(axis=-1) < 1e-10 * np.maximum(diag.max(axis=-1), 1.0)):
        raise RankDeficiencyError(
            "random basis is numerically rank deficient; check the RNG"
        )
    _check_orthonormal(q, "subspace basis")
    return PriorStack(LinearSubspacePrior, q.shape[1], basis=q)


@_one_blas_thread
def random_subspace_prior(
    structure: RepresentationStructure, m: int, rng: np.random.Generator
) -> LinearSubspacePrior:
    """Orthonormalized Gaussian random subspace of dimension ``m``.

    A Gaussian basis is full rank with probability one; a numerically
    rank-deficient draw signals RNG misuse and raises.  This is
    :func:`_subspace_stack` on a stack of one.
    """
    dim = structure.ambient_dim
    _check_subspace_dim(dim, m)
    a = _gaussian(rng, (1, dim, m), structure.field)
    return LinearSubspacePrior(_subspace_stack(a).basis[0])
