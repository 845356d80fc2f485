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
/ ``flat_block`` on ``(T, d)`` stacks of ambient rows (``group_stacks``
/ ``ungroup_stacks`` gather the blocks of each shape into one
``(T, G, n, r)`` array), and through their one-row forms ``decompose`` /
``reconstruct`` on signals, so the bijection lives in one place.  Group
elements likewise come in stacks, one ``(T, n_l, n_l)`` array per block:
``haar_chunks`` draws the Gaussian matrices of Haar draws in chunks and
``haar_q`` turns each chunk into Haar matrices (``haar_stack`` joins
them), and ``cyclic_shift_stack`` builds shift elements, and the
validated single elements of ``haar_sample`` / ``cyclic_shift_element``
are their one-row cases.  Every random array follows the one stream
rule of ``_gaussian``: a real Haar draw holds the Gaussians of at most
``workers + 1`` chunks at a time, and a complex one also holds the real
parts of the whole stack, which that rule draws first.

``CHUNK_ENTRIES`` is the entry budget of every chunked stack.  The Haar
draws, the distortion ratios of :mod:`gramphase.analysis` and the shares
of a large real sweep stack run on the CPUs' threads through ``_chunk_map``,
which shares the budget among the threads and changes no bit of any
result.  The chunk map owns the CPUs, and the BLAS runs on one thread:
every public function that reaches a large BLAS or LAPACK call is
wrapped in ``_one_blas_thread``, which sets numpy's bundled OpenBLAS to
one thread for the call and restores the caller's count after it.  So
no OpenBLAS worker spins on a CPU a map needs, and no result depends on
how many threads the BLAS would have split a product over (a threaded
product or QR sums in another order).  Importing the package pins
nothing; on a BLAS other than numpy's bundled OpenBLAS the wrapper does
nothing.

Cyclic shift structures use the unitary (1/sqrt(N)-scaled) DFT, which
makes the shift action exactly unitary on the blocks.  Real input is
packed into real irreducible blocks: one 1-dim block for frequency 0,
2-dim blocks for each conjugate frequency pair, and a trailing 1-dim
sign block for the Nyquist frequency when N is even.  The coefficients
are laid out as an ambient vector and go through ``decompose`` /
``reconstruct`` like any other signal.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import itertools
import numbers
import os
import threading
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

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
    "group_stacks",
    "ungroup_stacks",
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
# Entries per chunk of every chunked stack: Haar draws, noise blocks,
# cyclic shift slices and distortion pairs.  Stacks mapped over threads
# by _chunk_map share it out: each chunk holds CHUNK_ENTRIES // workers.
CHUNK_ENTRIES = 1 << 15


def _workers() -> int:
    """The number of CPUs this process may run on: its affinity mask, or
    the CPU count where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """``(get, set)`` of the thread count of numpy's bundled OpenBLAS, as
    ctypes functions, or None where numpy was built on another BLAS.
    Looked up on the first pinned call, not on import."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


# shared by every pinned call on every thread, as the BLAS thread count is
_PIN_LOCK = threading.Lock()
_pin = {"depth": 0, "saved": 1}  # calls inside the pin, the count to restore


def _one_blas_thread(fn: Callable) -> Callable:
    """``fn`` with numpy's OpenBLAS on one thread while it runs.

    The pin is one counted section under a lock, shared by every thread:
    the first call to enter it saves the caller's thread count and sets
    1, and the last to leave, on return or raise, restores the count.
    Nested calls, chunk map threads and calls on other Python threads
    only count.  On a BLAS where the lookup found nothing, ``fn`` runs as
    it is."""

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        threads = _openblas_threads()
        if threads is None:
            return fn(*args, **kwargs)
        get, set_ = threads
        with _PIN_LOCK:
            if _pin["depth"] == 0:
                _pin["saved"] = get()
                set_(1)
            _pin["depth"] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _PIN_LOCK:
                _pin["depth"] -= 1
                if _pin["depth"] == 0:
                    set_(_pin["saved"])

    return pinned


def _chunk_rows(width: int) -> int:
    """Rows of ``width`` entries per chunk of a stack run by
    :func:`_chunk_map`: one worker's share of CHUNK_ENTRIES, at least one."""
    return max(1, CHUNK_ENTRIES // _workers() // width)


def _chunk_map(fn: Callable[..., None], chunks: Iterable[tuple]) -> None:
    """Call ``fn(*chunk)`` for every chunk of ``chunks`` on the CPUs' threads.

    The calling thread advances ``chunks``, so whatever draws them (a
    random stream) runs in order on one thread.  Each call runs on a
    thread of a pool made for this map, in a copy of the caller's context
    (so its ``np.errstate`` holds), and must write only its own chunk's
    output.  At most ``workers + 1`` chunks are drawn and not yet done.
    One chunk, or one CPU, runs on the calling thread.  The first
    exception, in chunk order, reaches the caller once the pool's threads
    have exited.  Numpy's LAPACK loops release the GIL, so they overlap.
    """
    workers = _workers()
    chunks = iter(chunks)
    head = list(itertools.islice(chunks, 2))
    chunks = itertools.chain(head, chunks)
    if workers == 1 or len(head) < 2:
        for chunk in chunks:
            fn(*chunk)
        return
    pool = ThreadPoolExecutor(workers)
    pending = deque()
    try:
        for chunk in chunks:
            pending.append(pool.submit(contextvars.copy_context().run, fn, *chunk))
            if len(pending) > workers:
                pending.popleft().result()
        while pending:
            pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _square_sums(flat: list[np.ndarray]) -> np.ndarray:
    """Sum of squared magnitudes of each row of ``(T, k)`` stacks, the
    stacks added in list order."""
    acc = None
    for a in flat:
        if np.iscomplexobj(a):
            sums = np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag)
        else:
            sums = np.vecdot(a, a)
        acc = sums if acc is None else acc + sums
    return acc


def frobenius_norms(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise Frobenius norm of several stacks taken together.

    Every array has the same leading length ``T``; entry ``t`` of the
    result is ``sqrt(sum_l ||stacks[l][t]||**2)``, one ``np.vecdot`` per
    stack and the stacks added in list order, so for one stack it is
    bitwise ``np.linalg.norm`` of the row wherever the sum of squares is
    a normal number well inside the floating-point range.  Rows where it
    is not, because a square overflowed or underflowed, are summed again
    after scaling by the power of two nearest their largest magnitude.
    Each row is computed on its own, whatever stack it sits in.

    This is :func:`_frobenius_norms` under an ``errstate`` that ignores
    overflow and underflow; a loop of many calls, such as the solver's
    iteration, enters that ``errstate`` once and calls the inner itself.
    """
    with np.errstate(over="ignore", under="ignore"):  # such rows are redone
        return _frobenius_norms(stacks)


def _frobenius_norms(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`frobenius_norms` without its ``errstate``: the caller must
    ignore overflow and underflow."""
    flat = [np.asarray(a).reshape(len(a), -1) for a in stacks]
    acc = _square_sums(flat)
    norms = np.sqrt(acc)
    # scanning the list beats numpy reductions on the short stacks of a solve
    odd = [t for t, a in enumerate(acc.tolist()) if not 2.0**-960 <= a <= 2.0**960]
    if odd:
        sub = [a[odd] for a in flat]
        peak = np.max([np.abs(a).max(axis=1, initial=0.0) for a in sub], axis=0)
        # clipped so that the scale of a subnormal peak stays finite
        exp = np.maximum(np.frexp(peak)[1], -1000)
        scale = np.ldexp(1.0, -exp)[:, None]
        norms[odd] = np.ldexp(np.sqrt(_square_sums([a * scale for a in sub])), exp)
    return norms


def _whole_number(v, what: str, least: int | None = 1) -> int:
    """``v`` as an int if it is a whole number of at least ``least``: an
    int, a numpy integer or an integral float.  A bool, a fraction, NaN,
    an infinity, a string or a value below ``least`` raises a ValueError
    that names ``what`` and ``v``."""
    size = None
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            size = int(v)
        except (ValueError, OverflowError):  # NaN and the infinities
            pass
    if size is None or size != v or (least is not None and size < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{what} must be a whole number{bound}, got {v!r}")
    return size


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
        try:
            pairs = tuple((n, r) for n, r in self.blocks)
        except (TypeError, ValueError):
            raise ValueError(f"structure blocks must be a list of [n, r] pairs, such as "
                             f"[[8, 4], [3, 2]], got {self.blocks!r}") from None
        blocks = []
        for n, r in pairs:
            try:  # the 8x4 spelling gives the digits of each size
                blocks.append(tuple(_whole_number(int(v) if isinstance(v, str) else v,
                                                  "block size", None) for v in (n, r)))
            except ValueError:
                raise ValueError(f"block sizes must be whole numbers, got [{n}, {r}]") from None
        blocks = tuple(blocks)
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

    @cached_property
    def group_positions(self) -> tuple[slice | np.ndarray, ...]:
        """Per entry of ``shape_groups``, the ambient positions of its
        blocks in block order: a slice when the blocks are adjacent,
        otherwise an index array."""
        out = []
        for _, idx in self.shape_groups:
            slices = [self.block_slices[l] for l in idx]
            if all(a.stop == b.start for a, b in zip(slices, slices[1:])):
                out.append(slice(slices[0].start, slices[-1].stop))
            else:
                out.append(np.concatenate([np.arange(sl.start, sl.stop) for sl in slices]))
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
            object.__setattr__(self, "cyclic_n", _whole_number(self.cyclic_n, "cyclic order"))
            expected = cyclic_structure(self.cyclic_n, self.structure.field)
            if expected != self.structure:
                raise StructureMismatch(
                    f"cyclic({self.cyclic_n}) requires the DFT block structure "
                    f"{expected.blocks}, got {self.structure.blocks}"
                )


def cyclic_structure(n: int, field: str = "real") -> RepresentationStructure:
    """Block structure of length-``n`` signals in the DFT domain; a field
    other than ``"real"`` or ``"complex"`` is refused."""
    n = _whole_number(n, "cyclic order")
    if field == "complex":
        return RepresentationStructure(((1, 1),) * n, "complex")
    blocks: list[tuple[int, int]] = [(1, 1)]
    blocks.extend([(2, 1)] * ((n - 1) // 2))
    if n % 2 == 0 and n >= 2:
        blocks.append((1, 1))
    return RepresentationStructure(tuple(blocks), field)


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


def group_stacks(p: np.ndarray, structure: RepresentationStructure) -> list[np.ndarray]:
    """Every shape group of a ``(T, d)`` stack of ambient rows, as
    ``(T, G, n, r)``: the group's ``G`` blocks of shape ``(n, r)`` in block
    order, groups in ``shape_groups`` order.  Views into ``p`` where the
    group's blocks are adjacent, copies otherwise; each matrix has the
    memory layout of its :func:`block_stacks` view."""
    t = len(p)
    return [
        p[:, pos].reshape(t, len(idx), r, n).mT
        for ((n, r), idx), pos in zip(structure.shape_groups, structure.group_positions)
    ]


def ungroup_stacks(ys: list[np.ndarray], structure: RepresentationStructure) -> np.ndarray:
    """Inverse of :func:`group_stacks`: the ``(T, d)`` ambient rows whose
    shape groups are ``ys``."""
    t = len(ys[0])
    if len(ys) == 1:  # one shape, in block order
        return ys[0].mT.reshape(t, -1)
    out = np.empty((t, structure.ambient_dim), dtype=np.result_type(*ys))
    for y, pos in zip(ys, structure.group_positions):
        out[:, pos] = y.mT.reshape(t, -1)
    return out


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
    isometry and cyclic shifts act as plane rotations.  Either way the
    coefficients are laid out as one ambient vector and split by
    :func:`decompose`.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DimensionMismatch(f"expected a 1-d signal, got shape {x.shape}")
    n = x.shape[0]
    if field is None:
        field = "complex" if np.iscomplexobj(x) else "real"
    f = np.fft.fft(x) / np.sqrt(n)
    if field == "real":
        if np.iscomplexobj(x):
            raise ValueError("complex data passed with field='real'")
        pair = f[1 : (n + 1) // 2]
        pairs = np.sqrt(2.0) * np.stack([pair.real, pair.imag], 1)
        nyquist = [f[n // 2].real] if n % 2 == 0 else []
        f = np.concatenate([[f[0].real], pairs.ravel(), nyquist])
    return decompose(f, cyclic_structure(n, field))


def reconstruct_cyclic(x: BlockSignal) -> np.ndarray:
    """Inverse of :func:`decompose_cyclic`: back to the shift domain, read
    from the ambient vector of :func:`reconstruct`."""
    v = reconstruct(x)
    n = len(v)
    if x.structure.field == "complex":
        return np.fft.ifft(v) * np.sqrt(n)
    h = (n - 1) // 2
    pair = (v[1 : 2 * h + 1 : 2] + 1j * v[2 : 2 * h + 1 : 2]) / np.sqrt(2.0)
    nyquist = v[-1:] if n % 2 == 0 else []
    f = np.concatenate([v[:1], pair, nyquist, pair[::-1].conj()])  # f[n - k] = conj(f[k])
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


def _gaussian(rng: np.random.Generator, shape: int | tuple[int, ...], field: str) -> np.ndarray:
    """I.i.d. standard normal entries, per real and imaginary part on the
    complex field: the one stream rule of every random array.  A complex
    array is one draw of all its real parts, then one of all its
    imaginary parts, taken as one ``(2, *shape)`` draw (the same stream);
    it is ``re + 1j * im`` bit for bit wherever ``re`` is nonzero.
    :func:`haar_chunks` and ``moments._add_noise`` are its chunked forms."""
    if field == "real":
        return rng.standard_normal(shape)
    z = np.empty(shape, np.complex128)
    parts = rng.standard_normal((2, *z.shape))
    z.real, z.imag = parts[0], parts[1]  # not an unpacking of parts: that is slower
    return z


def haar_chunks(n: int, count: int, field: str, rng: np.random.Generator):
    """The Gaussian matrices of ``count`` Haar draws of ``n x n`` matrices,
    yielded as ``(start, stop, a)`` with ``a`` the ``(stop - start, n, n)``
    stack for draws ``start`` to ``stop``, ``_chunk_rows(n**2)`` at a time;
    :func:`haar_q` turns each chunk into its Haar matrices.

    The Gaussians are ``_gaussian(rng, (count, n, n), field)`` (over
    sqrt 2 on the complex field) in chunks, and LAPACK factors every
    matrix on its own, so the draws do not depend on the chunking.  A
    real draw holds one chunk at a time.  That rule draws every real part
    first, so a complex draw holds its real parts whole (a float64
    ``(count, n, n)`` array) and draws the imaginary parts chunk by chunk.
    The draws are taken from ``rng`` lazily, as the generator is
    iterated, so the caller must exhaust it before drawing anything else
    from ``rng``.
    """
    re = rng.standard_normal((count, n, n)) if field == "complex" else None
    step = _chunk_rows(n**2)
    for i in range(0, count, step):
        j = min(i + step, count)
        a = rng.standard_normal((j - i, n, n))
        if re is not None:
            a = (re[i:j] + 1j * a) / np.sqrt(2.0)
        yield i, j, a


# numpy's own errstate around its LAPACK gufuncs: a failed matrix sets
# the invalid flag, which calls the handler
_LAPACK_ERRSTATE = dict(invalid="call", over="ignore", divide="ignore", under="ignore")


def _qr_failed(err, flag):
    raise LinAlgError("QR factorization failed")


def _reduced_q(a: np.ndarray) -> np.ndarray:
    """The reduced ``Q`` of each matrix of a float64 or complex128
    ``(T, n, m)`` stack, ``m <= n``, factored in place by numpy's QR
    gufuncs under ``np.linalg.qr``'s ``errstate``: ``Q``, and ``R`` on and
    above the diagonal of ``a``, are that wrapper's bit for bit, without
    its copy of ``a``.  A failed LAPACK call raises ``LinAlgError``."""
    with np.errstate(call=_qr_failed, **_LAPACK_ERRSTATE):
        return _umath_linalg.qr_reduced(a, _umath_linalg.qr_r_raw(a))


def haar_q(a: np.ndarray) -> np.ndarray:
    """The Haar matrices of a ``(T, n, n)`` stack of Gaussian matrices
    from :func:`haar_chunks`, one LAPACK QR call for the stack.

    ``a`` is factored in place by :func:`_reduced_q`, so the Q and the
    diagonal of R are ``np.linalg.qr``'s bit for bit.  A failed LAPACK
    call, or an R diagonal that is not finite (a NaN or an infinity in
    ``a``), raises ``LinAlgError``.  ``a`` must be float64 or complex128,
    as :func:`haar_chunks` draws it."""
    q = _reduced_q(a)
    # the factored a holds R on and above its diagonal
    d = np.diagonal(a, axis1=1, axis2=2)
    if not np.isfinite(d).all():
        raise LinAlgError("QR factorization of a non-finite matrix")
    # Plain QR of a Gaussian matrix is not Haar; correcting each column
    # by the sign (phase) of the R diagonal makes the distribution exact.
    phases = np.where(np.abs(d) > 0, d / np.abs(np.where(d == 0, 1.0, d)), 1.0)
    q *= phases[:, None, :]
    return q


def haar_stack(n: int, count: int, field: str, rng: np.random.Generator) -> np.ndarray:
    """The draws of :func:`haar_chunks` as one ``(count, n, n)`` stack,
    their QR chunks run by :func:`_chunk_map`."""
    out = np.empty((count, n, n), dtype=np.complex128 if field == "complex" else np.float64)

    def fill(i, j, a):
        out[i:j] = haar_q(a)

    _chunk_map(fill, haar_chunks(n, count, field, rng))
    return out


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
    part for the complex field), drawn block by block by :func:`_gaussian`."""
    return BlockSignal(structure, [_gaussian(rng, b, structure.field) for b in structure.blocks])
