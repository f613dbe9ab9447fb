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
    view, offset = memoryview(blob), 4

    def take(nbytes: int, what: str) -> memoryview:
        """The next ``nbytes`` bytes, which hold ``what``; past the end of the
        file they raise, naming ``what`` and the offset where it starts."""
        nonlocal offset
        if offset + nbytes > len(blob):
            raise CheckpointError(f"truncated {what} at offset {offset}")
        offset += nbytes
        return view[offset - nbytes:offset]

    (version,) = struct.unpack("<I", take(4, "version"))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    params: dict[str, np.ndarray] = {}
    while offset < len(blob):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        start = offset
        try:
            name = str(take(name_len, "name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"name at offset {start} is not UTF-8") from exc
        if name in params:
            raise CheckpointError(f"duplicate name {name!r} at offset {start}")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        payload = take(8 * math.prod(dims), "payload")
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
    return params
