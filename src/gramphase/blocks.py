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
``haar_chunks`` splits Haar draws into chunks of Gaussians and
``haar_rotate`` applies each chunk's Householder reflectors to one kind
of matrix, the upper trapezoidal R of a QR: a block's (the sampler's
rotations, a tall block taking only the reflectors it uses) or the
identity (``haar_stack``),
``cyclic_shift_stack`` builds shift elements, and the validated single
elements of ``haar_sample`` / ``cyclic_shift_element`` are their one-row
cases.  Every random array follows the one stream rule of ``_gaussian``,
a Haar draw one ``_gaussian`` call of its own: a Haar draw holds the
Gaussians of a few chunks at a time (the ring of ``_draw_ahead``),
whichever the field.

``CHUNK_ENTRIES`` is the entry budget of every chunked stack.  The
distortion ratios of :mod:`gramphase.analysis` and the shares of a large
real sweep stack run on the CPUs' threads through ``_chunk_map``, at
most one chunk per thread at a time and none drawn ahead, so the chunks
in flight hold one budget; no bit of any result changes.  The Haar
chunks run on the calling thread: their kernel is many short elementwise
ufunc calls, which on two threads contend for the GIL and took longer
than on one.  Their Gaussians, and the sampler's noise, are drawn ahead
on a second thread by ``_draw_ahead``, in stream order: numpy's
generator fills release the GIL, so they overlap the kernel.  Both run
on ``_pool``, one thread pool made on first use and kept for the
process, and both take it from ``_pool_for``, the one rule that runs
work inline or there.  The pool owns the CPUs, and the BLAS runs on one
thread: every public function that reaches a large BLAS or LAPACK call
is wrapped in ``_one_blas_thread``, which sets numpy's bundled OpenBLAS
to one thread for the call and restores the caller's count after it.  So
no OpenBLAS worker spins on a CPU a map needs, and no result depends on
how many threads the BLAS would have split a product over (a threaded
product or QR sums in another order).  Importing the package pins
nothing; on a BLAS other than numpy's bundled OpenBLAS the wrapper does
nothing.

The package's one Gram product ``X* X`` is ``_gram``, its one
orthonormality check ``_check_orthonormal``, and its only private LAPACK
calls ``_eigh``, ``_svd`` and ``_reduced_q``: on float64 and complex128
stacks they call numpy's LAPACK gufuncs under the wrappers' ``errstate``,
with the wrappers' bits and errors but without their type resolution,
shape checks and result casts, which on a small stack cost about as much
as LAPACK itself.

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
import math
import numbers
import os
import queue
import threading
from collections.abc import Callable, Sequence
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

# Max-entry tolerance of every orthonormality check, max |B* B - I|.
ORTHONORMAL_TOL = 1e-10
# Entries per chunk of every chunked stack: Haar draws, noise blocks,
# cyclic shift slices and distortion pairs.  Stacks mapped over threads
# by _chunk_map share it out: each chunk holds CHUNK_ENTRIES // workers.
# A Haar chunk's Gaussians, like a noise block, hold at most one budget,
# and so does each buffer of the ring that _draw_ahead draws them into.
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


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's thread pool for ``workers`` CPUs, made on first use and
    kept: ``_chunk_map`` runs its chunks there, at most ``workers`` at
    once, and ``_draw_ahead`` its draws.  Its threads mark themselves, so
    that :func:`_pool_for` runs a map or a draw made on one of them inline
    rather than wait on a pool that its caller fills."""
    return ThreadPoolExecutor(workers, initializer=setattr, initargs=(_IN_POOL, "on", True))


_IN_POOL = threading.local()  # "on" is set on the pool's threads
os.register_at_fork(after_in_child=_pool.cache_clear)  # a child has none of the threads


def _pool_for(tasks: int) -> ThreadPoolExecutor | None:
    """The pool to run ``tasks`` tasks on, or None to run them inline on the
    calling thread: for fewer than two tasks, on a pool thread (whose
    caller may be waiting on the pool), or on one CPU."""
    if tasks < 2 or getattr(_IN_POOL, "on", False):
        return None
    workers = _workers()
    return None if workers == 1 else _pool(workers)


def _chunk_map(fn: Callable[..., None], chunks: Sequence[tuple]) -> None:
    """Call ``fn(*chunk)`` for every chunk of ``chunks``, a list built on
    the calling thread, on the CPUs' threads.

    Every chunk is submitted at once to the pool of :func:`_pool_for`,
    which runs at most ``workers`` of them at a time; none is drawn ahead.
    Each call runs in a copy of the caller's context (so its
    ``np.errstate`` holds) and must write only its own chunk's output.
    The results are awaited in chunk order, and the first exception in
    that order reaches the caller once the chunks not started are
    cancelled and the running ones have finished.  One chunk, one CPU, or
    a map made on a pool thread runs inline.  Numpy's LAPACK loops release
    the GIL, so they overlap; chunks of many short ufunc calls contend for
    it instead, which is why the Haar chunks do not come here.
    """
    pool = _pool_for(len(chunks))
    if pool is None:
        for chunk in chunks:
            fn(*chunk)
        return
    futures = [pool.submit(contextvars.copy_context().run, fn, *chunk) for chunk in chunks]
    try:
        for future in futures:
            future.result()
    finally:
        for future in futures:
            if not future.cancel():  # running or done: wait for it
                future.exception()


# Buffers in the ring of _draw_ahead: one in use, the others drawn ahead
DRAWS_AHEAD = 3


def _draw_ahead(rng: np.random.Generator, draws: Sequence[tuple]) -> None:
    """Call ``use(rng.standard_normal(shape))`` for each ``(shape, use)`` of
    ``draws``, in order, on the calling thread, with the draws made ahead
    on a thread of :func:`_pool`.

    The pool thread makes every ``rng`` call, in order and with the same
    shapes, so the stream and every bit are those of the plain loop.  It
    writes each draw into a ring of DRAWS_AHEAD preallocated float64
    buffers, each the size of the largest draw, and waits while the ring
    is full; a buffer goes back to the ring once its ``use`` has returned,
    so ``use`` must not keep its array.  Generator fills release the GIL,
    so the draws overlap the uses.  One draw, one CPU, or a call made on a
    pool thread runs inline.  The pool thread has stopped before this
    returns or raises, and the first error, of a draw or of a use,
    reaches the caller.
    """
    pool = _pool_for(len(draws))
    if pool is None:
        for shape, use in draws:
            use(rng.standard_normal(shape))
        return
    sizes = [math.prod(shape) for shape, _ in draws]
    ring, drawn = queue.SimpleQueue(), queue.SimpleQueue()
    largest = max(sizes)
    for _ in range(min(DRAWS_AHEAD, len(draws))):
        ring.put(np.empty(largest))

    def draw():
        try:
            for (shape, _), size in zip(draws, sizes):
                buf = ring.get()
                if buf is None:  # the uses have stopped
                    return
                rng.standard_normal(out=buf[:size].reshape(shape))
                drawn.put(buf)
        finally:
            drawn.put(None)

    task = pool.submit(draw)
    try:
        for (shape, use), size in zip(draws, sizes):
            buf = drawn.get()
            if buf is None:  # a draw failed
                task.result()
            use(buf[:size].reshape(shape))
            ring.put(buf)
    finally:
        ring.put(None)
        task.exception()  # wait for the draws to stop, without raising


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


def _field_array(a, structure: RepresentationStructure) -> np.ndarray:
    """``a`` in the structure's dtype; complex data on a real one is refused."""
    a = np.asarray(a)
    if a.dtype.kind == "c" and structure.field == "real":
        raise ValueError("complex data passed to a real-field structure")
    return a.astype(structure.dtype, copy=False)


def _block_arrays(arrays, structure: RepresentationStructure, shapes, what: str):
    """The blocks of ``arrays`` as :func:`_field_array` makes them, refused
    unless block ``l`` has the shape ``shapes[l]``; ``what`` names the
    matrices in the errors.

    Returns ``(mats, stacks)``: each shape group of the structure copied
    once into a read-only ``(G, ...)`` stack, in ``shape_groups`` order,
    and the blocks as views of those stacks, so that nothing the caller
    holds can change them."""
    mats = [np.asarray(m) for m in arrays]
    if len(mats) != structure.num_blocks:
        raise StructureMismatch(f"expected {structure.num_blocks} {what} matrices, got {len(mats)}")
    for l, (m, shape) in enumerate(zip(mats, shapes)):
        if m.shape != shape:
            raise StructureMismatch(f"block {l}: expected {what} shape {shape}, got {m.shape}")
    # a list of arrays stacks into a new array
    stacks = [_field_array([mats[l] for l in idx.tolist()], structure)
              for _, idx in structure.shape_groups]
    views = [None] * len(mats)
    for (_, idx), stack in zip(structure.shape_groups, stacks):
        stack.flags.writeable = False
        for l, view in zip(idx.tolist(), stack):
            views[l] = view
    return tuple(views), stacks


def _refuse_non_finite(structure: RepresentationStructure, stacks) -> None:
    """Refuse a signal's shape-group stacks (of :func:`_block_arrays`) if
    any block holds a NaN or an infinity, naming the first such block: one
    ``isfinite`` per shape group."""
    bad = [idx[np.isfinite(g).all(axis=(1, 2)).argmin()]
           for (_, idx), g in zip(structure.shape_groups, stacks) if not np.isfinite(g).all()]
    if bad:
        raise ValueError(f"block {min(bad)}: the signal must be finite, "
                         "got a NaN or an infinity")


@dataclass(frozen=True, eq=False)
class BlockSignal:
    """A signal as the tuple of per-block coefficient matrices.

    ``matrices[l]`` has shape ``(n_l, r_l)``; column ``i`` is the
    component in the ``i``-th multiplicity copy of block ``l``.  A block
    with a NaN or an infinity is refused by its index.  The blocks are
    copied once, by shape group, into read-only arrays, so the signal is
    checked when it is built and cannot change after: writing into
    ``matrices[l]`` raises ``ValueError``.
    """

    structure: RepresentationStructure
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        s = self.structure
        mats, stacks = _block_arrays(self.matrices, s, s.blocks, "block")
        _refuse_non_finite(s, stacks)
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
            _check_orthonormal(d, f"block {l}: an orthogonal/unitary group element")

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
    :func:`haar_chunks` takes a chunk's per-draw calls as one draw, and
    ``moments._noise_draws`` is its chunked form."""
    if field == "real":
        return rng.standard_normal(shape)
    z = np.empty(shape, np.complex128)
    parts = rng.standard_normal((2, *z.shape))
    z.real, z.imag = parts[0], parts[1]  # not an unpacking of parts: that is slower
    return z


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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` on stacks of small matrices, real ones taken in C order.

    The product keeps the bits of matmul on the operands as given (tested
    for the layouts the callers pass, n = 1-9, r = 1-8).  But with the
    matrices of an operand transposed in memory (a ``.mT`` view, or the
    blocks of :func:`group_stacks`), on 15,000 real ``8x4`` stacks (one BLAS
    thread) the Gram ``X* X`` took 1.8 times as long alone and 10 times
    as long when two threads ran it at once, and the ``4x4`` product of
    ``solvers._psd_root`` 2.1 and 16 times; the chunk threads of
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
    """``X* X`` of each matrix of a ``(..., n, r)`` stack by the rule of
    :func:`_matmul`, written out to save a call per iteration of a solve
    (for one column, the same sum as ``matmul``'s, without a call per
    matrix).

    One matrix takes the same path as a stack, so each matrix's Gram has
    the same bits whatever stack it sits in.  The plain ``X.mT @ X`` of a
    real ``X`` is numpy's ``syrk`` call (both operands share a buffer),
    whose sums differ from those of the ``gemm`` on C-order copies from
    16 rows up (n = 16-39 with r = 2-4 in a probe; up to 15 rows they
    agree)."""
    if x.shape[-1] == 1:
        return np.vecdot(x[..., 0], x[..., 0])[..., None, None]
    xh = x.conj().mT
    if x.dtype.kind == "c":
        return xh @ x
    return np.ascontiguousarray(xh) @ np.ascontiguousarray(x)


def _check_orthonormal(b: np.ndarray, what: str) -> None:
    """Refuse a matrix, or a ``(T, d, m)`` stack, unless its columns are
    orthonormal; the error names ``what`` and gives ``max |B*B - I|``."""
    err = np.max(np.abs(_gram(b) - np.eye(b.shape[-1])))
    if not err <= ORTHONORMAL_TOL:  # a NaN or an infinity fails too
        raise ValueError(
            f"{what} must have orthonormal columns (max |B*B - I| = {err:.3e}); "
            "orthonormalize it first, e.g. with numpy.linalg.qr"
        )


def haar_chunks(n: int, count: int, width: int, field: str) -> list[tuple]:
    """The chunks of ``count`` Haar draws of ``n x n`` matrices, for
    :func:`haar_rotate` to apply to the ``R`` of ``(n, width)`` blocks:
    ``(start, stop, shape)`` per chunk, whose draws ``start`` to ``stop``
    take their Gaussians from one ``rng.standard_normal(shape)``.

    Draw ``t`` takes one ``_gaussian(rng, K, field)``: the first ``c =
    min(n, width)`` vectors of Stewart's construction, of lengths ``n, n
    - 1, ..., n - c + 1``, one after the other, as :func:`haar_rotate`
    uses them.  A square or wide block, or the identity, takes all ``n``
    (the ``n - 1`` reflectors and the one-entry ``z``), ``K = n (n + 1) /
    2``; a tall block takes its ``r`` reflectors, ``K = r n - r (r - 1) /
    2``: 26 for ``8x4``, 5 for ``3x2``.  So ``shape`` is ``(T, K)`` on the
    real field and ``(T, 2, K)``, each draw's real parts then its
    imaginary parts, on the complex field.  A chunk's Gaussians fill at
    most CHUNK_ENTRIES, as a noise block does, and its Gaussians and
    output entries, ``P K + n * width`` per draw (``P`` = 1 real, 2
    complex), at most twice that.  Once the draws are made ahead
    (:func:`_draw_ahead`), numpy's cost per call of the kernel sets the
    speed, and larger chunks make fewer calls; the Gaussians' cap keeps
    the ring of drawn chunks, and the kernel's work arrays, which grow
    like ``n**2`` per draw, within a few budgets for large blocks.
    """
    c = min(n, width)
    k = c * n - c * (c - 1) // 2
    shape = (k,) if field == "real" else (2, k)
    size = math.prod(shape)
    step = max(1, min(CHUNK_ENTRIES // size, 2 * CHUNK_ENTRIES // (size + n * width)))
    return [(i, min(i + step, count), (min(i + step, count) - i, *shape))
            for i in range(0, count, step)]


@functools.cache
def _reflector_slots(n: int, c: int) -> np.ndarray:
    """Where the first ``c`` vectors of a draw go in the flat ``(c, n)``
    reflector table: vector ``k``, of length ``n - k``, at the start of
    row ``k``."""
    return np.array([k * n + i for k in range(c) for i in range(n - k)], dtype=np.intp)


def _halving_sum(a: np.ndarray, m: int) -> None:
    """``a[..., 0, :] = a[..., :m, :].sum(axis=-2)`` in place, by adding the
    top half onto the bottom half until one row is left: a fixed order
    given ``m``."""
    while m > 1:
        h = m // 2
        np.add(a[..., :h, :], a[..., m - h : m, :], out=a[..., :h, :])
        m -= h


def _times(a: np.ndarray, b: np.ndarray, out=None, work=None) -> np.ndarray:
    """``a * b`` for numbers held as planes on the first axis, ``(1, ...)``
    real or ``(2, ...)`` real and imaginary parts, by float64 products and
    sums only: numpy's complex multiply may fuse them, and not alike in
    every loop.  ``work`` takes the four products of a complex one."""
    if len(a) == 1:
        return np.multiply(a, b, out=out)
    p = np.multiply(a[:, None], b[None], out=work)
    if out is None:
        out = np.empty(p.shape[1:])
    np.subtract(p[0, 0], p[1, 1], out=out[0])
    np.add(p[0, 1], p[1, 0], out=out[1])
    return out


def _reflectors(g: np.ndarray, n: int, c: int):
    """``(v*, tau v, signs)`` of the first ``c`` reflectors of a chunk's
    draws from their Gaussians ``g``, ``(P, K, T)`` planes (see
    :func:`haar_rotate`): ``v*`` (the planes of the conjugate) and ``tau
    v`` are ``(P, c, n, T)``, row ``k`` the zero-padded vector of reflector
    ``k`` (``v[0] = 1``), and ``signs`` the ``(c, T)`` signs of the betas."""
    planes, _, t = g.shape
    slots = _reflector_slots(n, c)
    v = np.zeros((planes, c * n, t))
    v[:, slots] = g[:, : len(slots)]
    v = v.reshape(planes, c, n, t)
    alpha = v[:, :, 0].copy()
    x = v[:, :, 1:]
    xnorm = x * x
    if planes == 2:
        xnorm[0] += xnorm[1]
    xnorm = xnorm[0]
    _halving_sum(xnorm, n - 1)
    xnorm = xnorm[:, 0].copy()  # and free the squares
    ar, ai = alpha[0], alpha[1] if planes == 2 else 0.0
    # larfg: no reflection (tau = 0, beta = alpha) where x is zero and
    # alpha real
    reflect = (xnorm > 0) | (ai != 0)
    norm = ar * ar
    norm += ai * ai
    norm += xnorm
    np.sqrt(norm, out=norm)
    beta = np.where(reflect, -np.copysign(norm, ar), ar)
    safe = np.where(reflect, beta, 1.0)
    tau = np.empty_like(alpha)
    np.divide(beta - ar, safe, out=tau[0])
    # x times the reciprocal of alpha - beta, as larfg scales it
    d = np.where(reflect, ar - beta, 1.0)
    inv = np.empty_like(alpha)
    if planes == 2:
        np.divide(-ai, safe, out=tau[1])
        d2 = d * d
        d2 += ai * ai
        np.divide(d, d2, out=inv[0])
        np.divide(-ai, d2, out=inv[1])
    else:
        np.divide(1.0, d, out=inv[0])
    _times(inv[:, :, None], x, out=x)
    v[0, :, 0] = 1.0
    if planes == 2:
        v[1, :, 0] = 0.0
    tv = _times(tau[:, :, None], v)
    if planes == 2:
        np.negative(v[1], out=v[1])
    return v, tv, np.where(beta < 0, -1.0, 1.0)


def haar_rotate(g: np.ndarray, r: np.ndarray, out: np.ndarray) -> None:
    """Write a draw of the law of ``Q_t @ m`` into ``out[t]``, for the Haar
    draw ``Q_t`` of each draw's Gaussians ``g[t]`` from :func:`haar_chunks`
    and an ``(n, width)`` block ``m`` given by ``r``, the upper trapezoidal
    ``(c, width)`` factor of a QR of ``m``, ``c = min(n, width)``; ``out``
    is a ``(T, n, width)`` array or view.  For ``r`` the identity,
    ``out[t]`` is ``Q_t`` itself.

    ``Q_t`` is Householder QR of a Gaussian matrix with the trailing
    update skipped (Stewart 1980).  Reflector ``k`` is built from vector
    ``k`` of the draw, ``(alpha, x)``, by LAPACK ``larfg``'s rule:
    ``H = I - tau v v*`` with ``v[0] = 1`` and ``H* (alpha, x) = (beta,
    0)``, ``beta = -sign(Re alpha) |(alpha, x)|``; where ``x`` is zero
    and ``alpha`` real, ``tau = 0`` and ``beta = alpha``.  Rotation
    invariance makes each updated trailing column of a Gaussian matrix
    again a fresh Gaussian vector, so the law is that of the sign-fixed
    QR, exactly Haar (Mezzadri 2007):
    ``Q = H_1 ... H_{n-1} D``, ``D = diag(sign beta_1, ..., sign
    beta_{n-1}, z/|z|)``, with ``z`` the last, one-entry vector and 1 for
    the sign or phase of 0.

    Every block goes through its ``R``.  Let ``m = U R`` be a QR, ``U``
    ``(n, c)`` with orthonormal columns.  Then ``Q m = (Q W) E R``, with
    ``W`` any orthogonal (unitary) completion of ``U`` and ``E = [I_c;
    0]``, and ``Q W`` is Haar by invariance.  For ``c < n`` the first ``c``
    columns of Stewart's ``Q`` are ``H_1 ... H_c E D_c``, since ``H_k E =
    E`` for ``k > c``.  So ``Q m`` has the law of ``H_1 ... H_c [D_c R;
    0]`` (of ``Q R`` for ``c = n``): the draw holds only the first ``c``
    vectors, of lengths ``n, ..., n - c + 1``, with ``z`` only when ``c =
    n``, and ``out[t]`` is that product.  Any ``R`` with ``R* R = m* m``
    gives the law.  The reflectors go onto ``D_c R``, the last first, and
    no ``n x n`` matrix is formed; as it is upper trapezoidal, each
    reflector skips the columns to its left, which are zero where it
    acts.

    Every work array holds its numbers as float64 planes, ``P = 1`` (real)
    or 2 (real and imaginary parts) on the first axis, and the draws on
    the last axis; every operation across the draws is an elementwise
    float64 ufunc, and the sums over a vector are :func:`_halving_sum`, so
    each draw's bits do not depend on the chunk it sits in.
    """
    t, n, width = out.shape
    g = g.reshape(t, -1, g.shape[-1]).transpose(1, 2, 0)  # (P, K, T)
    planes = len(g)
    c = len(r)  # the draw's vectors
    count = min(c, n - 1)  # its reflectors
    # the diagonal: the signs of the betas, then the sign or phase of z
    diag = np.zeros((planes, c, t))
    if c == n:
        z = g[:, -1]
        if planes == 2:
            size = np.sqrt(z[0] * z[0] + z[1] * z[1])
            zero = size == 0
            size[zero] = 1.0
            diag[0, -1] = np.where(zero, 1.0, z[0] / size)
            np.divide(z[1], size, out=diag[1, -1])
        else:
            diag[0, -1] = np.where(z[0] < 0, -1.0, 1.0)
    if count:
        v, tv, diag[0, :count] = _reflectors(g, n, count)
    # y[:, j, i] holds entry (i, j) of the output matrices, the draws last
    y = np.zeros((planes, width, n, t))
    rt = np.stack([r.T.real, r.T.imag]) if planes == 2 else r.T[None]
    _times(rt[..., None], diag[:, None], out=y[:, :, :c])
    dest = out[..., None].view(np.float64) if planes == 2 else out[..., None]
    dest = dest.transpose(3, 2, 1, 0)  # the planes of out, laid out as y
    if count == 0:
        dest[...] = y
        return
    b = np.empty_like(y)
    p = np.empty((2, *y.shape)) if planes == 2 else None
    for k in range(count - 1, -1, -1):
        mk = n - k
        yk, bk, pk = y[:, k:, k:], b[:, k:, :mk], None if p is None else p[:, :, k:, :mk]
        # w = v* y, then y - (tau v) w; the first reflector, applied last,
        # writes the output
        _times(v[:, None, k, :mk], yk, bk, pk)
        _halving_sum(bk, mk)
        _times(tv[:, None, k, :mk], bk[:, :, :1].copy(), bk, pk)
        np.subtract(yk, bk, out=dest if k == 0 else yk)


def haar_stack(n: int, count: int, field: str, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar draws as one ``(count, n, n)`` stack: the reflectors
    of :func:`haar_chunks` applied by :func:`haar_rotate` to the identity,
    as the ``R`` of a square block, chunk by chunk, with each chunk's
    Gaussians drawn ahead by :func:`_draw_ahead`."""
    out = np.empty((count, n, n), dtype=np.complex128 if field == "complex" else np.float64)
    _draw_ahead(rng, [(shape, lambda g, y=out[i:j]: haar_rotate(g, np.eye(n), y))
                      for i, j, shape in haar_chunks(n, count, n, field)])
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
