"""Named tensor bundles and the bit-exact binary weight format.

File layout: magic ``VJW1``, u32 little-endian tensor count, then per tensor
a u16 name length + UTF-8 name, u8 rank, rank x u32 dims, and the
dims-product of float32 little-endian values. Roundtrips are bit-exact.

Ownership: a WeightStore is the one owner of weight arrays, and every array
it holds is read-only. ``add`` adopts an array only when nothing else can
write it: read-only, float32, C-contiguous and owning its data; anything
else is copied. Bound models point at the store's arrays rather than
holding copies, so a stray in-place write raises instead of changing
weights. ``load`` reads each tensor once, straight into the array it keeps.
"""
from __future__ import annotations

import math
import os
import struct

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
                f.write(arr.astype("<f4", copy=False).tobytes())

    @classmethod
    def load(cls, path) -> "WeightStore":
        store = cls()
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
                (rank,) = _unpack(f, "<B")
                dims = _unpack(f, f"<{rank}I")
                nbytes = 4 * math.prod(dims)
                if nbytes > size - f.tell():
                    raise WeightFormatError(f"truncated weight file: {name!r} needs {nbytes} bytes, "
                                            f"{size - f.tell()} left")
                try:
                    arr = np.empty(dims, "<f4")
                except ValueError as e:
                    raise WeightFormatError(f"{name!r}: bad dims {dims}: {e}") from None
                if f.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                    raise WeightFormatError(f"truncated weight file: short data for {name!r}")
                arr.flags.writeable = False
                store.add(name, arr)
            if f.tell() != size:
                raise WeightFormatError(f"{size - f.tell()} trailing bytes after last tensor")
        return store


def _unpack(f, fmt: str) -> tuple:
    n = struct.calcsize(fmt)
    data = f.read(n)
    if len(data) != n:
        raise WeightFormatError(f"truncated weight file: {len(data)} of {n} bytes at the end")
    return struct.unpack(fmt, data)


def init_weights(graph, seed: int) -> WeightStore:
    """Deterministic store for a graph: conv kernels drawn fan-in-scaled
    uniform from a seeded generator in parameter-site order; biases zero;
    batchnorm at identity statistics (gamma 1, beta 0, mean 0, var 1)."""
    from .graph import Model  # local import: graph.py builds on blocks only

    rng = np.random.default_rng(seed)
    store = WeightStore()
    for name, arr, is_stat in Model(graph).named_arrays():
        if not is_stat and arr.ndim == 4:
            fan_in = arr.shape[1] * arr.shape[2] * arr.shape[3]
            bound = 1.0 / np.sqrt(fan_in)
            arr = rng.uniform(-bound, bound, size=arr.shape).astype(DTYPE)
            arr.flags.writeable = False
        store.add(name, arr)
    return store

