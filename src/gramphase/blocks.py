"""Block-structured signals and compact group actions on them.

The ambient space splits into an ordered list of irreducible blocks.
Block ``l`` holds a coefficient matrix of shape ``(n_l, r_l)``: an
irreducible subspace of dimension ``n_l`` repeated with multiplicity
``r_l``.  A group element acts through an orthogonal (real field) or
unitary (complex field) ``n_l x n_l`` matrix per block, multiplied on
the left of the coefficient matrix, so the same rotation hits every
multiplicity copy.

The ambient layout is fixed once: blocks in order, each flattened
column by column (multiplicity copies contiguous).  All conversions
between ambient vectors and block matrices go through ``block_stacks``
/ ``flat_block`` on ``(T, d)`` stacks of ambient rows, and through
their one-row forms ``decompose`` / ``reconstruct`` on signals, so the
bijection lives in one place.  Group elements likewise come in stacks,
one ``(T, n_l, n_l)`` array per block: ``haar_stack`` draws Haar
matrices and ``cyclic_shift_stack`` builds shift elements, and the
validated single elements of ``haar_sample`` / ``cyclic_shift_element``
are their one-row cases.

Cyclic shift structures use the unitary (1/sqrt(N)-scaled) DFT, which
makes the shift action exactly unitary on the blocks.  Real input is
packed into real irreducible blocks: one 1-dim block for frequency 0,
2-dim blocks for each conjugate frequency pair, and a trailing 1-dim
sign block for the Nyquist frequency when N is even.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "RepresentationStructure",
    "BlockSignal",
    "GroupElement",
    "GroupAction",
    "DimensionMismatch",
    "StructureMismatch",
    "cyclic_structure",
    "cyclic_action",
    "full_ambiguity_action",
    "decompose",
    "reconstruct",
    "block_stacks",
    "flat_block",
    "decompose_cyclic",
    "reconstruct_cyclic",
    "cyclic_shift_stack",
    "cyclic_shift_element",
    "identity_element",
    "apply",
    "compose",
    "haar_sample",
    "haar_stack",
    "random_signal",
    "frobenius_norms",
]

# Max-entry tolerance for D* D == I on group elements.
UNITARY_TOL = 1e-10
# Matrices per np.linalg.qr call in haar_stack.
HAAR_CHUNK = 4096


def _sums_of_squares(flat: list[np.ndarray]) -> np.ndarray:
    acc = 0.0
    for a in flat:
        if np.iscomplexobj(a):
            sq = np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag)
        else:
            sq = np.vecdot(a, a)
        # each block's norm squared with C pow, as ``np.linalg.norm(block)
        # ** 2`` is on a scalar; pow and x * x differ in the last bit on a
        # few inputs
        acc = acc + np.array([n**2 for n in np.sqrt(sq)])
    return acc


def frobenius_norms(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise Frobenius norm of several stacks taken together.

    Every array has the same leading length ``T``; entry ``t`` of the
    result is ``sqrt(sum_l ||stacks[l][t]||**2)``, summed exactly as
    ``np.linalg.norm`` of each block, squared and added, so it is bitwise
    that plain formula wherever the sum of squares is a normal number
    well inside the floating-point range.  Rows where it is not, because
    a square overflowed or underflowed, are summed again after scaling
    by the power of two nearest their largest magnitude, and the result
    is scaled back.
    """
    flat = [np.asarray(a).reshape(len(a), -1) for a in stacks]
    with np.errstate(over="ignore", under="ignore"):  # such rows are redone below
        acc = _sums_of_squares(flat)
    norms = np.sqrt(acc)
    odd = ~((acc >= 2.0**-960) & (acc <= 2.0**960))
    if odd.any():
        sub = [a[odd] for a in flat]
        peak = np.max([np.abs(a).max(axis=1, initial=0.0) for a in sub], axis=0)
        # clipped so that the scale of a subnormal peak stays finite
        exp = np.maximum(np.frexp(peak)[1], -1000)
        scale = np.ldexp(1.0, -exp)[:, None]
        norms[odd] = np.ldexp(np.sqrt(_sums_of_squares([a * scale for a in sub])), exp)
    return norms


class DimensionMismatch(ValueError):
    """Ambient vector length does not match the structure."""


class StructureMismatch(ValueError):
    """Objects built on incompatible block structures were combined."""


@dataclass(frozen=True)
class RepresentationStructure:
    """Ordered block shapes ``(irrep_dim, multiplicity)`` plus the field.

    The ambient dimension is ``sum(n_l * r_l)``.  Instances are
    immutable and compared by value, so signals built on two equal
    structures interoperate.
    """

    blocks: tuple[tuple[int, int], ...]
    field: str = "real"

    def __post_init__(self):
        blocks = tuple((int(n), int(r)) for n, r in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("structure needs at least one block")
        for n, r in blocks:
            if n < 1 or r < 1:
                raise ValueError(f"block dimensions must be positive, got ({n}, {r})")
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def ambient_dim(self) -> int:
        return sum(n * r for n, r in self.blocks)

    @property
    def dtype(self):
        return np.complex128 if self.field == "complex" else np.float64

    @cached_property
    def shape_groups(self) -> tuple[tuple[tuple[int, int], np.ndarray], ...]:
        """Blocks grouped by shape: ``((n, r), indices)`` per distinct
        shape, shapes in order of first appearance, indices ascending."""
        groups: dict[tuple[int, int], list[int]] = {}
        for l, shape in enumerate(self.blocks):
            groups.setdefault(shape, []).append(l)
        return tuple((shape, np.array(idx)) for shape, idx in groups.items())

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        out = []
        offset = 0
        for n, r in self.blocks:
            out.append(slice(offset, offset + n * r))
            offset += n * r
        return tuple(out)


@dataclass(frozen=True, eq=False)
class BlockSignal:
    """A signal as the tuple of per-block coefficient matrices.

    ``matrices[l]`` has shape ``(n_l, r_l)``; column ``i`` is the
    component in the ``i``-th multiplicity copy of block ``l``.
    Treated as immutable after construction.
    """

    structure: RepresentationStructure
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=self.structure.dtype) for m in self.matrices)
        if len(mats) != self.structure.num_blocks:
            raise StructureMismatch(
                f"expected {self.structure.num_blocks} block matrices, got {len(mats)}"
            )
        for l, (m, (n, r)) in enumerate(zip(mats, self.structure.blocks)):
            if m.shape != (n, r):
                raise StructureMismatch(
                    f"block {l}: expected shape ({n}, {r}), got {m.shape}"
                )
        object.__setattr__(self, "matrices", mats)

    def norm(self) -> float:
        """Euclidean norm of the ambient vector (= total Frobenius norm)."""
        return float(frobenius_norms([m[None] for m in self.matrices])[0])


@dataclass(frozen=True, eq=False)
class GroupElement:
    """One orthogonal/unitary matrix per block, validated on construction."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(d) for d in self.blocks)
        object.__setattr__(self, "blocks", mats)
        for l, d in enumerate(mats):
            if d.ndim != 2 or d.shape[0] != d.shape[1]:
                raise ValueError(f"block {l}: group element blocks must be square")
            gram = d.conj().T @ d
            err = np.max(np.abs(gram - np.eye(d.shape[0])))
            if err > UNITARY_TOL:
                raise ValueError(
                    f"block {l}: matrix is not orthogonal/unitary "
                    f"(max |D*D - I| = {err:.3e} > {UNITARY_TOL:.0e})"
                )

    def block_dims(self) -> tuple[int, ...]:
        return tuple(d.shape[0] for d in self.blocks)


@dataclass(frozen=True, eq=False)
class GroupAction:
    """Which group moves the signal: a cyclic shift group or the full
    product of orthogonal/unitary groups acting independently per block
    (the largest group leaving the per-block Gram matrices fixed)."""

    structure: RepresentationStructure
    kind: str  # "cyclic" | "full_ambiguity"
    cyclic_n: int = 0

    def __post_init__(self):
        if self.kind not in ("cyclic", "full_ambiguity"):
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind == "cyclic":
            expected = cyclic_structure(self.cyclic_n, self.structure.field)
            if expected != self.structure:
                raise StructureMismatch(
                    f"cyclic({self.cyclic_n}) requires the DFT block structure "
                    f"{expected.blocks}, got {self.structure.blocks}"
                )


def cyclic_structure(n: int, field: str = "real") -> RepresentationStructure:
    """Block structure of length-``n`` signals in the DFT domain."""
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    if field == "complex":
        return RepresentationStructure(((1, 1),) * n, "complex")
    blocks: list[tuple[int, int]] = [(1, 1)]
    blocks.extend([(2, 1)] * ((n - 1) // 2))
    if n % 2 == 0 and n >= 2:
        blocks.append((1, 1))
    return RepresentationStructure(tuple(blocks), "real")


def cyclic_action(n: int, field: str = "real") -> GroupAction:
    return GroupAction(cyclic_structure(n, field), "cyclic", n)


def full_ambiguity_action(structure: RepresentationStructure) -> GroupAction:
    return GroupAction(structure, "full_ambiguity")


def block_stacks(p: np.ndarray, structure: RepresentationStructure) -> list[np.ndarray]:
    """Every block of a ``(T, d)`` stack of ambient rows, as ``(T, n_l, r_l)``
    views into ``p`` (writing through a view writes into ``p``).

    Layout: blocks in order, each segment of length ``n_l * r_l`` read
    column-major, so copy ``i`` of block ``l`` occupies ``n_l``
    contiguous entries.
    """
    t = len(p)
    return [
        p[:, sl].reshape(t, r, n).transpose(0, 2, 1)
        for (n, r), sl in zip(structure.blocks, structure.block_slices)
    ]


def flat_block(y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`block_stacks` on one block: ``(T, n, r)`` stacked
    block matrices back to their ``(T, n * r)`` ambient segments."""
    return y.transpose(0, 2, 1).reshape(len(y), -1)


def decompose(v: np.ndarray, structure: RepresentationStructure) -> BlockSignal:
    """Split an ambient vector into its block coefficient matrices: the
    one-row case of :func:`block_stacks`."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d ambient vector, got shape {v.shape}")
    if v.shape[0] != structure.ambient_dim:
        raise DimensionMismatch(
            f"ambient vector has length {v.shape[0]}, structure expects "
            f"{structure.ambient_dim}"
        )
    if structure.field == "real" and np.iscomplexobj(v):
        raise ValueError("complex data passed to a real-field structure")
    v = v.astype(structure.dtype, copy=False)
    return BlockSignal(structure, tuple(m[0] for m in block_stacks(v[None], structure)))


def reconstruct(x: BlockSignal) -> np.ndarray:
    """Inverse of :func:`decompose`: flatten blocks back to the ambient
    vector, the one-row case of :func:`flat_block`."""
    return np.concatenate([flat_block(m[None])[0] for m in x.matrices])


def decompose_cyclic(x: np.ndarray, field: str | None = None) -> BlockSignal:
    """Map a length-N signal to its DFT-domain block decomposition.

    Complex field: N one-dimensional blocks holding the unitary DFT
    coefficients.  Real field: conjugate frequency pairs are packed as
    2-dim blocks holding ``sqrt(2) * (Re, Im)`` so the map is a linear
    isometry and cyclic shifts act as plane rotations.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DimensionMismatch(f"expected a 1-d signal, got shape {x.shape}")
    n = x.shape[0]
    if field is None:
        field = "complex" if np.iscomplexobj(x) else "real"
    f = np.fft.fft(x) / np.sqrt(n)
    structure = cyclic_structure(n, field)
    if field == "complex":
        mats = [np.array([[f[k]]]) for k in range(n)]
        return BlockSignal(structure, tuple(mats))
    if np.iscomplexobj(x):
        raise ValueError("complex data passed with field='real'")
    mats = [np.array([[f[0].real]])]
    for k in range(1, (n - 1) // 2 + 1):
        mats.append(np.sqrt(2.0) * np.array([[f[k].real], [f[k].imag]]))
    if n % 2 == 0 and n >= 2:
        mats.append(np.array([[f[n // 2].real]]))
    return BlockSignal(structure, tuple(mats))


def reconstruct_cyclic(x: BlockSignal) -> np.ndarray:
    """Inverse of :func:`decompose_cyclic`: back to the shift domain."""
    if x.structure.field == "complex":
        n = x.structure.num_blocks
        f = np.array([m[0, 0] for m in x.matrices])
        return np.fft.ifft(f) * np.sqrt(n)
    n = x.structure.ambient_dim
    f = np.zeros(n, dtype=np.complex128)
    f[0] = x.matrices[0][0, 0]
    for k in range(1, (n - 1) // 2 + 1):
        m = x.matrices[k]
        f[k] = (m[0, 0] + 1j * m[1, 0]) / np.sqrt(2.0)
        f[n - k] = np.conj(f[k])
    if n % 2 == 0 and n >= 2:
        f[n // 2] = x.matrices[-1][0, 0]
    return (np.fft.ifft(f) * np.sqrt(n)).real


def cyclic_shift_stack(action: GroupAction, shifts) -> list[np.ndarray]:
    """The DFT-diagonal group elements of cyclic shifts by each of
    ``shifts``, as one ``(T, n_l, n_l)`` stack per block.

    Row ``t`` applied to ``decompose_cyclic(x)`` equals
    ``decompose_cyclic(np.roll(x, shifts[t]))``.  The angles and phases
    are computed entrywise exactly as for a single shift, so every row is
    bitwise the element of that shift alone.
    """
    if action.kind != "cyclic":
        raise ValueError("shift elements exist only for cyclic actions")
    n = action.cyclic_n
    s = (np.asarray(shifts, dtype=np.int64) % n)[:, None]
    t = len(s)
    if action.structure.field == "complex":
        phases = np.exp(-2j * np.pi * np.arange(n) * s / n).reshape(t, n, 1, 1)
        return [phases[:, k] for k in range(n)]
    theta = -2.0 * np.pi * np.arange(1, (n - 1) // 2 + 1) * s / n
    c, sn = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -sn], axis=-1), np.stack([sn, c], axis=-1)], axis=-2)
    mats = [np.ones((t, 1, 1))] + [rot[:, k] for k in range(rot.shape[1])]
    if n % 2 == 0 and n >= 2:
        mats.append(np.where(s % 2 == 1, -1.0, 1.0).reshape(t, 1, 1))
    return mats


def cyclic_shift_element(action: GroupAction, shift: int) -> GroupElement:
    """The DFT-diagonal group element of a cyclic shift by ``shift``: the
    one-row case of :func:`cyclic_shift_stack`.

    Applying it to ``decompose_cyclic(x)`` equals
    ``decompose_cyclic(np.roll(x, shift))``.
    """
    if action.kind != "cyclic":
        raise ValueError("shift elements exist only for cyclic actions")
    rows = cyclic_shift_stack(action, [int(shift) % action.cyclic_n])
    return GroupElement(tuple(d[0] for d in rows))


def identity_element(structure: RepresentationStructure) -> GroupElement:
    return GroupElement(
        tuple(np.eye(n, dtype=structure.dtype) for n, _ in structure.blocks)
    )


def apply(g: GroupElement, x: BlockSignal) -> BlockSignal:
    """Act on a signal: left-multiply every block matrix, ``(g.x)_l = D_l X_l``."""
    if g.block_dims() != tuple(n for n, _ in x.structure.blocks):
        raise StructureMismatch(
            f"group element block dims {g.block_dims()} do not match structure "
            f"{tuple(n for n, _ in x.structure.blocks)}"
        )
    mats = tuple(d @ m for d, m in zip(g.blocks, x.matrices))
    return BlockSignal(x.structure, mats)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Blockwise product ``gh``; satisfies apply(g, apply(h, x)) == apply(gh, x)."""
    if g.block_dims() != h.block_dims():
        raise StructureMismatch("cannot compose elements with different block dims")
    return GroupElement(tuple(a @ b for a, b in zip(g.blocks, h.blocks)))


def haar_stack(n: int, count: int, field: str, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent Haar-distributed ``n x n`` orthogonal (real
    field) or unitary (complex field) matrices, as a ``(count, n, n)``
    stack.

    The Gaussian stack is drawn whole, then factored HAAR_CHUNK matrices
    at a time with each slice's result written back into it: LAPACK
    factors every matrix on its own, so the draws do not depend on the
    slicing, and memory stays at about one stack.
    """
    a = rng.standard_normal((count, n, n))
    if field == "complex":
        a = (a + 1j * rng.standard_normal((count, n, n))) / np.sqrt(2.0)
    for i in range(0, count, HAAR_CHUNK):
        q, r = np.linalg.qr(a[i : i + HAAR_CHUNK])
        # Plain QR of a Gaussian matrix is not Haar; correcting each column
        # by the sign (phase) of the R diagonal makes the distribution exact.
        d = np.diagonal(r, axis1=1, axis2=2)
        phases = np.where(np.abs(d) > 0, d / np.abs(np.where(d == 0, 1.0, d)), 1.0)
        q *= phases[:, None, :]
        a[i : i + HAAR_CHUNK] = q
    return a


def haar_sample(action: GroupAction, rng: np.random.Generator) -> GroupElement:
    """Draw a uniformly distributed element of the action's group: the
    one-row case of the stacked draws.

    Cyclic: a uniform shift index mapped to its DFT-diagonal element by
    :func:`cyclic_shift_stack`.  Full ambiguity: an independent Haar
    orthogonal/unitary matrix per block from :func:`haar_stack`.
    """
    s = action.structure
    if action.kind == "cyclic":
        stacks = cyclic_shift_stack(action, rng.integers(action.cyclic_n, size=1))
    else:
        stacks = [haar_stack(n, 1, s.field, rng) for n, _ in s.blocks]
    return GroupElement(tuple(d[0] for d in stacks))


def random_signal(
    structure: RepresentationStructure, rng: np.random.Generator
) -> BlockSignal:
    """Signal with i.i.d. standard normal entries (per real and imaginary
    part for the complex field)."""
    mats = []
    for n, r in structure.blocks:
        m = rng.standard_normal((n, r))
        if structure.field == "complex":
            m = m + 1j * rng.standard_normal((n, r))
        mats.append(m)
    return BlockSignal(structure, tuple(mats))
