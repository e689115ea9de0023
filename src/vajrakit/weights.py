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

Bulk work runs in spans (``run_spans``), whole arrays at a time: a list of
arrays laid end to end is cut into one contiguous run per usable CPU, each
of at least 2^20 elements, and each array goes whole to the run holding its
middle element, so small jobs stay on the calling thread. ``init_weights``
runs its kernels' draws this way, ``reparam_graph`` the leaves of every
block (by their arrays' sizes) and ``load`` the tensors of the file, read by
``os.preadv`` on its one descriptor. Each run's result depends on nothing
but its arrays, so the bytes do not depend on the split. A batched forward
pass runs its images this way too, with OpenBLAS held at one thread
(``one_blas_thread``). ``run_spans`` alone knows how many runs it made: it
sets that count as ``tensor.RUNS`` in each worker, where it splits dense
conv contractions into that many parts and divides the SiLU band. A pass
that must stay on one thread asks it to count the runs without starting
them, and walks the whole batch with that count, so its bytes are theirs.
"""
from __future__ import annotations

import bisect
import contextlib
import contextvars
import ctypes
import functools
import itertools
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .tensor import DTYPE, RUNS

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
        data is read; each tensor is then read whole, in spans, straight
        into the array the store keeps."""
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
            tensors = list(arrays.values())
            run_spans(functools.partial(_read_span, f.fileno(), tensors, positions),
                      [arr.size for arr in tensors])
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


def run_spans(work, sizes, threads: bool = True) -> None:
    """Call ``work(i, j)`` on contiguous runs [i, j) of items whose element
    counts are `sizes`, laid end to end: one run per usable CPU, each of at
    least 2^20 elements, with every item whole in the run that holds its
    middle element. A single run goes on the calling thread. More run one
    thread each, in a copy of the caller's context (so an
    ``override_backend`` set by the caller holds there too) with
    ``tensor.RUNS`` set to the number of runs; every worker is joined before
    return, and a worker's error is raised in the caller. With `threads`
    false they are counted but not started: one ``work(0, len(sizes))``
    goes on the calling thread, in a copy of its context with ``RUNS`` set
    to that count, so work whose items do not depend on each other computes
    what the runs would. A batched forward pass (``graph.Model._pass``)
    gives each image the weight of one whole span, so it gets one run per
    image up to the CPU count."""
    total = sum(sizes)
    parts = max(1, min(_usable_cpus(), total // _MIN_SPAN))
    starts = itertools.accumulate(sizes, initial=0)
    middles = [a + n // 2 for a, n in zip(starts, sizes)]
    cuts = [bisect.bisect_left(middles, total * p // parts) for p in range(parts)] + [len(sizes)]
    runs = [(i, j) for i, j in zip(cuts, cuts[1:]) if i < j]
    if len(runs) < 2:
        work(0, len(sizes))
        return

    def counted(i, j):
        RUNS.set(len(runs))  # in its own copy of the caller's context
        work(i, j)

    if not threads:
        contextvars.copy_context().run(counted, 0, len(sizes))
        return
    with ThreadPoolExecutor(len(runs)) as pool:  # joins every worker on exit
        futures = [pool.submit(contextvars.copy_context().run, counted, i, j) for i, j in runs]
        for done in futures:
            done.result()  # re-raises a worker's error


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, read
    from the libraries mapped into this process, or None where none has both
    (or there is no /proc). The only code that calls into the BLAS library."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


class _BlasHold:
    """Open holds of OpenBLAS at one thread, and the count to restore when
    the last one closes."""

    lock = threading.Lock()
    open = 0
    restore = 1


def one_blas_thread():
    """A context that holds numpy's OpenBLAS at one thread, or None when the
    loaded library has no thread setter. Holds are counted and thread-safe:
    the first to open saves the caller's count, the last to close restores
    it, so nested and concurrent holds leave it as they found it."""
    calls = _openblas()
    return None if calls is None else _hold_one_thread(*calls)


@contextlib.contextmanager
def _hold_one_thread(get, put):
    with _BlasHold.lock:
        if _BlasHold.open == 0:
            _BlasHold.restore = get()
            put(1)
        _BlasHold.open += 1
    try:
        yield
    finally:
        with _BlasHold.lock:
            _BlasHold.open -= 1
            if _BlasHold.open == 0:
                put(_BlasHold.restore)


def _read_span(fd: int, arrays, positions, i: int, j: int) -> None:
    """Fill arrays[i:j] whole, each from its file offset in `positions`, by
    positional reads on fd."""
    for arr, pos in zip(arrays[i:j], positions[i:j]):
        buf = arr.reshape(-1).view(np.uint8)
        while buf.size:
            n = os.preadv(fd, [buf], pos)
            if n == 0:
                raise WeightFormatError(f"truncated weight file: no data at byte {pos}")
            buf, pos = buf[n:], pos + n


def _fill_span(kernels, seed: int, i: int, j: int) -> None:
    """Fill kernels[i:j] whole with their draws of the kernels' one sequence,
    from PCG64(seed) advanced to kernel i's first draw (one 64-bit step per
    uniform draw).

    A chunk of ``random()`` draws u is scaled in place to u * 2b - b. That is
    bitwise ``uniform(-b, b)``, which computes -b + (b - (-b)) * u, since
    doubling b is exact and IEEE addition commutes."""
    rng = np.random.Generator(np.random.PCG64(seed).advance(sum(arr.size for arr in kernels[:i])))
    chunk = np.empty(_CHUNK)
    for arr in kernels[i:j]:
        bound = 1.0 / np.sqrt(math.prod(arr.shape[1:]))  # 1 / sqrt(fan-in)
        flat = arr.reshape(-1)
        for lo in range(0, flat.size, _CHUNK):
            draws = rng.random(out=chunk[:min(_CHUNK, flat.size - lo)])
            draws *= 2 * bound
            draws -= bound
            flat[lo:lo + draws.size] = draws


def init_weights(graph, seed: int) -> WeightStore:
    """Deterministic store for a graph: conv kernels drawn fan-in-scaled
    uniform from a seeded generator in parameter-site order; biases zero;
    batchnorm at identity statistics (gamma 1, beta 0, mean 0, var 1).

    The kernels' draws, in site order and one per element, form one sequence:
    the values of ``default_rng(seed)`` drawing each kernel in turn with
    ``uniform(-bound, bound, size).astype(float32)``. Each kernel is allocated
    as its final float32 array and filled 64K draws at a time. The kernels
    are cut into runs (``run_spans``), each kernel whole in one run, and each
    run is filled on its own thread from ``PCG64(seed)`` advanced to its
    first kernel's first draw. A uniform draw is one 64-bit step of the
    generator and depends on nothing but that step, so the bytes do not
    depend on the split.
    """
    from .graph import Model  # local import: graph.py builds on blocks only

    names, arrays, kernels = [], [], []
    for name, arr, is_stat in Model(graph).named_arrays():
        if not is_stat and arr.ndim == 4:
            arr = np.empty(arr.shape, DTYPE)
            kernels.append(arr)
        names.append(name)
        arrays.append(arr)
    run_spans(functools.partial(_fill_span, kernels, seed), [arr.size for arr in kernels])
    for arr in kernels:
        arr.flags.writeable = False  # filled, and held nowhere else: the store adopts it
    store = WeightStore()
    for name, arr in zip(names, arrays):
        store.add(name, arr)
    return store
