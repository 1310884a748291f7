"""Binary checkpoint container.

Layout: 8-byte magic, 4-byte little-endian header length, UTF-8 JSON header
(config, metadata, ordered parameter manifest with name/shape/offset, data
length and SHA-256), then raw little-endian float32 arrays concatenated in
manifest order.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .model import ModelConfig
from .numerics import Tensor

__all__ = ["MAGIC", "save_checkpoint", "load_checkpoint", "read_header"]

MAGIC = b"TRAJLM01"


def save_checkpoint(
    path,
    params: dict[str, Tensor],
    config: ModelConfig,
    vocab_sha256: str,
    meta: dict | None = None,
) -> None:
    manifest = []
    blobs = []
    offset = 0
    for name, p in params.items():
        arr = np.ascontiguousarray(p.data, dtype="<f4")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    digest = hashlib.sha256()
    for b in blobs:
        digest.update(b)
    header = {
        "config": config.to_dict(),
        "vocab_sha256": vocab_sha256,
        "meta": meta or {},
        "data_bytes": offset,
        "data_sha256": digest.hexdigest(),
        "manifest": manifest,
    }
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(hbytes)))
        f.write(hbytes)
        for b in blobs:
            f.write(b)


def read_header(path) -> dict:
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != MAGIC:
            raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
        (hlen,) = struct.unpack("<I", f.read(4))
        return json.loads(f.read(hlen).decode("utf-8"))


def load_checkpoint(path):
    """Return (params, config, header); validates the data's length and SHA-256."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {raw[:8]!r}")
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    data = raw[12 + hlen :]
    if len(data) != header["data_bytes"]:
        raise ValueError(
            f"checkpoint truncated or padded: {len(data)} data bytes, expected {header['data_bytes']}"
        )
    digest = hashlib.sha256(data).hexdigest()
    if digest != header.get("data_sha256"):
        raise ValueError(
            f"checkpoint {path} is corrupt: data SHA-256 {digest} does not match the header's "
            f"data_sha256 {header.get('data_sha256')!r}"
        )
    config = ModelConfig.from_dict(header["config"])
    params: dict[str, Tensor] = {}
    for entry in header["manifest"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        arr = np.frombuffer(data, dtype="<f4", count=n, offset=start).reshape(shape)
        params[entry["name"]] = Tensor(arr.copy(), requires_grad=True)
    return params, config, header
