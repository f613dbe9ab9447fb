"""Binary checkpoint format.

Layout: magic b"CDML", u32 format version, then per parameter:
u32 name length, UTF-8 name, u32 rank, u32 dims, little-endian f64 payload.
Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import CheckpointError

MAGIC = b"CDML"
VERSION = 1


def save_checkpoint(path, params: dict[str, np.ndarray]):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name, arr in params.items():
            arr = np.asarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes(order="C"))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < 8:
        raise CheckpointError("truncated version at offset 4")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    params: dict[str, np.ndarray] = {}
    offset = 8
    total = len(blob)
    while offset < total:
        if offset + 4 > total:
            raise CheckpointError(f"truncated name length at offset {offset}")
        (name_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + name_len > total:
            raise CheckpointError(f"truncated name at offset {offset}")
        try:
            name = blob[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"name at offset {offset} is not UTF-8") from exc
        if name in params:
            raise CheckpointError(f"duplicate name {name!r} at offset {offset}")
        offset += name_len
        if offset + 4 > total:
            raise CheckpointError(f"truncated rank at offset {offset}")
        (rank,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + 4 * rank > total:
            raise CheckpointError(f"truncated dims at offset {offset}")
        dims = struct.unpack_from(f"<{rank}I", blob, offset)
        offset += 4 * rank
        count = math.prod(dims)
        nbytes = 8 * count
        if offset + nbytes > total:
            raise CheckpointError(f"truncated payload at offset {offset}")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(dims)
        params[name] = arr.astype(np.float64).copy()
        offset += nbytes
    return params
