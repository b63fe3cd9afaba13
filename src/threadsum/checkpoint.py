"""Flat binary container for named tensors.

Layout: magic "TSUM", version, a canonical-JSON key-value header, then each
tensor as (name, dtype tag, shape, row-major little-endian data).  The
header carries the model configuration, training counters, rng state and
the vocabulary content hash; byte-identical state produces byte-identical
files.  A file is written under a temporary name beside its target and
renamed over it once complete, so a failed write never leaves a partial
file in its place.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

_MAGIC = b"TSUM"
_VERSION = 1
_DTYPE_TAGS = {0: "<f4", 1: "<f8", 2: "<i8"}
_TAG_OF = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.int64): 2}


class CheckpointError(ValueError):
    """Raised for unreadable, corrupt or mismatched checkpoint files."""


@contextlib.contextmanager
def replace_when_done(path, newline: str | None = None, binary: bool = False):
    """Write through <path>.tmp (UTF-8 text, or binary) and move it over path
    only when the block completes, so a failure leaves the previous file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the block raised before the rename
            os.remove(tmp)


def write_tensors(path, header: dict, tensors: dict[str, np.ndarray]) -> None:
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replace_when_done(path, binary=True) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(tensors)))
        for name, tensor in tensors.items():
            dtype = np.dtype(tensor.dtype)
            if dtype not in _TAG_OF:
                raise CheckpointError(f"unsupported tensor dtype {dtype} for '{name}'")
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<BB", _TAG_OF[dtype], tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            fh.write(np.ascontiguousarray(tensor, dtype=_DTYPE_TAGS[_TAG_OF[dtype]]).tobytes())


def read_tensors(path) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    try:
        return _parse(data)
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError, IndexError, ValueError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"corrupt checkpoint file: {exc}") from exc


def _parse(data: bytes):
    if data[:4] != _MAGIC:
        raise CheckpointError("corrupt checkpoint file: bad magic")
    offset = 4
    (version,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    header = json.loads(data[offset : offset + header_len].decode("utf-8"))
    offset += header_len
    (n_tensors,) = struct.unpack_from("<I", data, offset)
    offset += 4
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        name = data[offset : offset + name_len].decode("utf-8")
        offset += name_len
        if name in tensors:
            raise CheckpointError(f"corrupt checkpoint file: tensor '{name}' appears twice")
        tag, ndim = struct.unpack_from("<BB", data, offset)
        offset += 2
        if tag not in _DTYPE_TAGS:
            raise CheckpointError(f"unknown dtype tag {tag} for tensor '{name}'")
        shape = struct.unpack_from(f"<{ndim}I", data, offset)
        offset += 4 * ndim
        dtype = np.dtype(_DTYPE_TAGS[tag])
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if offset + nbytes > len(data):
            raise CheckpointError(f"corrupt checkpoint file: tensor '{name}' truncated")
        tensors[name] = np.frombuffer(data[offset : offset + nbytes], dtype=dtype).reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise CheckpointError("corrupt checkpoint file: trailing bytes")
    return header, tensors
