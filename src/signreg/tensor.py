"""Dense float tensors and a splittable, counter-based random source.

Every other module works in terms of these two types. A Tensor is an
immutable container, not an array type: the numpy buffer behind ``data``
is marked read-only, so tensors are safe to share across threads, and
all arithmetic happens on numpy arrays, in the tape's primitives
(``autodiff``) and the library's kernels, which never mutate their inputs.
Tensors have no ``==``; compare their ``data``.

A tensor holds float64 or float32. ``Tensor(...)`` makes float64, and
so do samples and the iterates of the transform: the test suite's
oracles lean on tight finite-difference tolerances. A model computes in
its parameters' dtype (``nn.Model``), float32 for BasicCNN, whose conv
GEMMs run about twice as fast in it, and float64 for SmallMLP, whose cost
is per-node Python work. Every kernel allocates in its inputs' dtype, so
a float64 input stays float64 all the way through, and a rerun is
byte-identical in either dtype.

Checkpoints and sample containers share one framing, written and read
here: an 8-byte little-endian header length, a JSON header, then raw
arrays that header records locate by dtype (``<f4`` or ``<f8``), shape,
byte offset and byte count. A record with no dtype, as written before
records carried one, holds float64.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised for invalid shapes or shape mismatches between operands."""


def _check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ShapeError("invalid shape: rank must be >= 1")
    if any(s < 1 for s in shape):
        raise ShapeError(f"invalid shape {shape}: extents must be >= 1")
    return shape


# numpy's native float32 dtype: one object, shared by the float32 arrays numpy makes
_FLOAT32 = np.dtype(np.float32)


class Tensor:
    """Immutable n-dimensional float array, row-major, rank >= 1.

    ``Tensor(values)`` is float64; ``_wrap`` keeps a float32 buffer as is.
    """

    __slots__ = ("_data",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim == 0:
            arr = arr.reshape(1)
        _check_shape(arr.shape)
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Wrap a buffer we own, without copying. Internal use only.
        float32 stays float32; any other dtype becomes float64."""
        f32 = getattr(arr, "dtype", None) is _FLOAT32
        arr = np.ascontiguousarray(arr, dtype=_FLOAT32 if f32 else np.float64)
        arr.setflags(write=False)
        t = object.__new__(cls)
        t._data = arr
        return t

    @property
    def data(self) -> np.ndarray:
        """Read-only numpy view of the buffer (row-major)."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self._data.reshape(-1)[0])


def _tag_to_int(tag) -> int:
    """Stable 64-bit integer for a child-stream tag (ints pass through)."""
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """Deterministic random source backed by the Philox counter-based generator.

    A stream is identified by (seed, path). ``child(*tags)`` derives an
    independent stream whose output depends only on the seed and the tag
    path, never on how many draws the parent has made. That keeps
    augmentation, initialization, and corruption streams reproducible
    regardless of call interleaving.

    The generator is built on the first draw: many streams only derive
    children, and a stream's draws depend on (seed, path) alone.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: Iterable = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.path = tuple(_tag_to_int(t) for t in path)
        self._gen = None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence((self.seed, *self.path))
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def child(self, *tags) -> "Rng":
        """Independent stream derived from this stream's identity plus tags."""
        return Rng(self.seed, (*self.path, *tags))

    def normal(self, shape: Sequence[int], mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        if sigma < 0:
            raise ValueError(f"negative sigma: {sigma}")
        return self._generator().normal(loc=mu, scale=sigma, size=_check_shape(shape))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._generator().uniform(low, high, size=size)

    def integers(self, low: int, high: int, size=None):
        return self._generator().integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._generator().permutation(n)

    def beta(self, a: float, b: float, size=None):
        return self._generator().beta(a, b, size=size)


# -- framed files -----------------------------------------------------------------


def write_framed(path: str, header: dict, arrays: list[tuple[dict, np.ndarray]]):
    """Write ``header`` and then each array's bytes in order. Each
    (record, array) pair names a record inside ``header``; it gets the
    array's dtype, shape, offset and nbytes before the header is written."""
    offset = 0
    for record, arr in arrays:
        record.update(dtype=arr.dtype.str, shape=list(arr.shape), offset=offset,
                      nbytes=arr.nbytes)
        offset += arr.nbytes
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(hjson)))
        fh.write(hjson)
        for _, arr in arrays:
            fh.write(arr.tobytes())


def require_fields(record, names: Sequence[str], path: str, where: str):
    """Reject a file whose ``where`` record lacks one of ``names``."""
    missing = [n for n in names if not isinstance(record, dict) or n not in record]
    if missing:
        raise ValueError(f"{path}: {where} lacks field {', '.join(missing)}")


def read_framed(path: str, version: str, kinds: dict[str, type]) -> tuple[dict, bytes]:
    """(header, payload) of a framed file whose header has ``version`` and
    a field of each name and JSON type in ``kinds``; a ValueError names the
    file and what is wrong."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise ValueError(f"{path}: {len(blob)} bytes, too short for the header length")
    (hlen,) = struct.unpack("<Q", blob[:8])
    if len(blob) < 8 + hlen:
        raise ValueError(f"{path}: header truncated, {len(blob) - 8} of {hlen} bytes")
    try:
        header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: header is not JSON: {exc}") from exc
    require_fields(header, ("version",), path, "header")
    if header["version"] != version:
        raise ValueError(f"{path}: unsupported version {header['version']!r}, "
                         f"expected {version!r}")
    require_fields(header, kinds, path, "header")
    for name, kind in kinds.items():
        if not isinstance(header[name], kind):
            raise ValueError(f"{path}: header field {name} is not a JSON {kind.__name__}")
    return header, blob[8 + hlen:]


def read_array(payload: bytes, record: dict, path: str, where: str) -> np.ndarray:
    """A copy of the array that ``record`` locates in ``payload``, float32
    for dtype ``<f4`` and float64 for ``<f8`` or no dtype; a ValueError
    names the file and ``where`` unless the array has rank >= 1, extents
    >= 1 and only finite values."""
    require_fields(record, ("shape", "offset", "nbytes"), path, where)
    dtype = record.get("dtype", "<f8")
    if dtype not in ("<f4", "<f8"):
        raise ValueError(f"{path}: {where} field dtype {dtype!r} is not <f4 or <f8")
    itemsize = np.dtype(dtype).itemsize
    try:
        shape = tuple(int(s) for s in record["shape"])
        start, nbytes = int(record["offset"]), int(record["nbytes"])
    except (TypeError, ValueError, OverflowError) as exc:  # 1e400 reads as inf
        raise ValueError(f"{path}: {where} has a malformed shape, offset or nbytes") from exc
    if not shape:
        raise ValueError(f"{path}: {where} field shape [] has rank 0")
    if min(shape) < 1:
        raise ValueError(f"{path}: {where} field shape {list(shape)}: extents must be >= 1")
    if nbytes != itemsize * math.prod(shape):
        raise ValueError(f"{path}: {where} nbytes {nbytes} does not fit shape {list(shape)} "
                         f"of {dtype}")
    if not 0 <= start <= len(payload) - nbytes:
        raise ValueError(f"{path}: {where} payload truncated: needs bytes {start} to "
                         f"{start + nbytes}, the payload has {len(payload)}")
    arr = np.frombuffer(payload, dtype, count=nbytes // itemsize,
                        offset=start).reshape(shape).copy()
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: {where} holds a non-finite value")
    return arr
