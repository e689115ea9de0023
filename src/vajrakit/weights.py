"""Named tensor bundles and the bit-exact binary weight format.

File layout: magic ``VJW1``, u32 little-endian tensor count, then per tensor
a u16 name length + UTF-8 name, u8 rank, rank x u32 dims, and the
dims-product of float32 little-endian values. Roundtrips are bit-exact.

Ownership: a WeightStore is the one owner of weight arrays, and every array
it holds is read-only. ``add`` adopts an array only when nothing else can
write it: read-only, float32, C-contiguous and owning its data; anything
else is copied. Bound models point at the store's arrays rather than
holding copies, so a stray in-place write raises instead of changing
weights. ``save`` writes each array's own buffer, copying none. ``load``
reads and checks every header first, then reads each tensor once, straight
into the array it keeps.

Bulk work runs in spans (``run_spans``): a job of n elements laid end to end
is cut into one contiguous span per usable CPU, each of at least 2^20
elements, so small jobs stay on the calling thread. ``init_weights`` cuts
its kernels' draws, ``reparam_graph`` the leaves of every block (by their
arrays' sizes) and ``load`` the tensor data of the file, read by
``os.preadv`` on its one descriptor. Each span's result depends on nothing
but the span, so the bytes do not depend on the split.
"""
from __future__ import annotations

import contextvars
import functools
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .tensor import DTYPE

MAGIC = b"VJW1"
_U32_MAX = 2**32 - 1


class WeightFormatError(ValueError):
    """Weight file violates the format."""


class WeightStore:
    """Ordered map of unique names to float32 arrays."""

    def __init__(self):
        self._data: dict[str, np.ndarray] = {}

    def add(self, name: str, arr: np.ndarray) -> None:
        if name in self._data:
            raise WeightFormatError(f"duplicate tensor name {name!r}")
        if not (isinstance(arr, np.ndarray) and arr.dtype == DTYPE and not arr.flags.writeable
                and arr.flags.c_contiguous and arr.flags.owndata):
            arr = np.array(arr, dtype=DTYPE, order="C", copy=True)
            arr.flags.writeable = False
        self._data[name] = arr

    def __contains__(self, name):
        return name in self._data

    def __getitem__(self, name) -> np.ndarray:
        return self._data[name]

    def __len__(self):
        return len(self._data)

    def names(self):
        return list(self._data)

    def items(self):
        return self._data.items()

    def save(self, path) -> None:
        """Write VJW1; a rejected tensor raises before the file is opened."""
        headers = []
        for name, arr in self._data.items():
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise WeightFormatError(f"name too long: {name[:32]!r}...")
            if any(d > _U32_MAX for d in arr.shape):
                raise WeightFormatError(f"dimension overflow in {name!r}: {arr.shape}")
            headers.append(struct.pack("<H", len(encoded)) + encoded
                           + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(self._data)))
            for header, arr in zip(headers, self._data.values()):
                f.write(header)
                f.write(arr.astype("<f4", copy=False).data)

    @classmethod
    def load(cls, path) -> "WeightStore":
        """Read VJW1. Every header is read and checked before any tensor
        data is read; the data is then read in spans, straight into the
        arrays the store keeps."""
        arrays, positions = {}, []
        with open(path, "rb") as f:
            magic = f.read(4)
            if magic != MAGIC:
                raise WeightFormatError(f"bad magic {magic!r}, want {MAGIC!r}")
            size = os.fstat(f.fileno()).st_size
            (count,) = _unpack(f, "<I")
            for _ in range(count):
                (name_len,) = _unpack(f, "<H")
                try:
                    name = _unpack(f, f"<{name_len}s")[0].decode("utf-8")
                except UnicodeDecodeError:
                    raise WeightFormatError(f"tensor name ending at byte {f.tell()} is not UTF-8") from None
                if name in arrays:
                    raise WeightFormatError(f"duplicate tensor name {name!r}")
                (rank,) = _unpack(f, "<B")
                dims = _unpack(f, f"<{rank}I")
                nbytes = 4 * math.prod(dims)
                if nbytes > size - f.tell():
                    raise WeightFormatError(f"truncated weight file: {name!r} needs {nbytes} bytes, "
                                            f"{size - f.tell()} left")
                try:
                    arrays[name] = np.empty(dims, "<f4")
                except ValueError as e:
                    raise WeightFormatError(f"{name!r}: bad dims {dims}: {e}") from None
                positions.append(f.tell())
                f.seek(nbytes, os.SEEK_CUR)
            if f.tell() != size:
                raise WeightFormatError(f"{size - f.tell()} trailing bytes after last tensor")
            flats = [arr.reshape(-1) for arr in arrays.values()]
            total = sum(flat.size for flat in flats)
            run_spans(functools.partial(_read_span, f.fileno(), flats, positions), total, span_count(total))
        store = cls()
        for name, arr in arrays.items():
            arr.flags.writeable = False  # filled, and held nowhere else: the store adopts it
            store.add(name, arr)
        return store


def _unpack(f, fmt: str) -> tuple:
    n = struct.calcsize(fmt)
    data = f.read(n)
    if len(data) != n:
        raise WeightFormatError(f"truncated weight file: {len(data)} of {n} bytes at the end")
    return struct.unpack(fmt, data)


# Draws per chunk: each chunk is drawn as float64 into one reused buffer and
# cast into its slice of the kernel, so no whole-kernel float64 temporary is made.
_CHUNK = 1 << 16
# Fewest elements worth a thread of their own; smaller jobs stay on the caller.
_MIN_SPAN = 1 << 20


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def span_count(total: int) -> int:
    """Spans for a job of `total` elements: one per usable CPU, each at
    least 2^20 elements, and at least one."""
    return max(1, min(_usable_cpus(), total // _MIN_SPAN))


def run_spans(work, total: int, parts: int) -> None:
    """Call ``work(start, stop)`` on each of `parts` contiguous spans that cut
    [0, total). One part runs on the calling thread. More run one thread
    each, in a copy of the caller's context (so an ``override_backend`` set
    by the caller holds there too); every worker is joined before return,
    and a worker's error is raised in the caller."""
    cuts = [total * i // parts for i in range(parts + 1)]
    if parts == 1:
        work(0, total)
        return
    with ThreadPoolExecutor(parts) as pool:  # joins every worker on exit
        spans = [pool.submit(contextvars.copy_context().run, work, a, b) for a, b in zip(cuts, cuts[1:])]
        for done in spans:
            done.result()  # re-raises a worker's error


def _pieces(arrays, start: int, stop: int):
    """(index, lo, hi) of each array's nonempty share [lo, hi) of elements
    [start, stop) of the arrays laid end to end."""
    offset = 0
    for i, arr in enumerate(arrays):
        lo, hi = max(start - offset, 0), min(stop - offset, arr.size)
        if lo < hi:
            yield i, lo, hi
        offset += arr.size
        if offset >= stop:
            return


def _read_span(fd: int, flats, positions, start: int, stop: int) -> None:
    """Fill elements [start, stop) of the flat float32 arrays laid end to end,
    the i-th read from file offset positions[i], by positional reads on fd."""
    for i, lo, hi in _pieces(flats, start, stop):
        buf, pos = flats[i][lo:hi].view(np.uint8), positions[i] + 4 * lo
        while buf.size:
            n = os.preadv(fd, [buf], pos)
            if n == 0:
                raise WeightFormatError(f"truncated weight file: no data at byte {pos}")
            buf, pos = buf[n:], pos + n


def _fill_span(kernels, seed: int, start: int, stop: int) -> None:
    """Fill draws [start, stop) of the kernels' one sequence, drawing from
    PCG64(seed) advanced to `start` (one 64-bit step per uniform draw).

    A chunk of ``random()`` draws u is scaled in place to u * 2b - b. That is
    bitwise ``uniform(-b, b)``, which computes -b + (b - (-b)) * u, since
    doubling b is exact and IEEE addition commutes."""
    rng = np.random.Generator(np.random.PCG64(seed).advance(start))
    chunk = np.empty(_CHUNK)
    for k, lo, hi in _pieces(kernels, start, stop):
        arr = kernels[k]
        bound = 1.0 / np.sqrt(math.prod(arr.shape[1:]))  # 1 / sqrt(fan-in)
        flat = arr.reshape(-1)
        for i in range(lo, hi, _CHUNK):
            j = min(i + _CHUNK, hi)
            draws = rng.random(out=chunk[:j - i])
            draws *= 2 * bound
            draws -= bound
            flat[i:j] = draws


def _fill_kernels(kernels, seed: int, parts: int) -> None:
    """Fill C-contiguous float32 kernels, in order, from one seeded stream
    cut into `parts` contiguous spans, each on its own thread."""
    run_spans(functools.partial(_fill_span, kernels, seed), sum(arr.size for arr in kernels), parts)


def init_weights(graph, seed: int) -> WeightStore:
    """Deterministic store for a graph: conv kernels drawn fan-in-scaled
    uniform from a seeded generator in parameter-site order; biases zero;
    batchnorm at identity statistics (gamma 1, beta 0, mean 0, var 1).

    The kernels' draws, in site order and one per element, form one sequence:
    the values of ``default_rng(seed)`` drawing each kernel in turn with
    ``uniform(-bound, bound, size).astype(float32)``. Each kernel is allocated
    as its final float32 array and filled 64K draws at a time. The sequence
    is cut into one contiguous span per usable CPU, each of at least 2^20
    draws, so small graphs stay on the calling thread. Each span is filled
    on its own thread from ``PCG64(seed)`` advanced to its first draw. A
    uniform draw is one 64-bit step of the generator and depends on nothing
    but that step, so the bytes do not depend on the split.
    """
    from .graph import Model  # local import: graph.py builds on blocks only

    names, arrays, kernels = [], [], []
    for name, arr, is_stat in Model(graph).named_arrays():
        if not is_stat and arr.ndim == 4:
            arr = np.empty(arr.shape, DTYPE)
            kernels.append(arr)
        names.append(name)
        arrays.append(arr)
    _fill_kernels(kernels, seed, span_count(sum(arr.size for arr in kernels)))
    for arr in kernels:
        arr.flags.writeable = False  # filled, and held nowhere else: the store adopts it
    store = WeightStore()
    for name, arr in zip(names, arrays):
        store.add(name, arr)
    return store
