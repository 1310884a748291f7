"""Binary checkpoint container.

Layout: 8-byte magic, 4-byte little-endian header length, UTF-8 JSON header
(config, metadata, ordered parameter manifest with name/shape/offset, data
length and SHA-256), then raw little-endian float32 arrays concatenated in
manifest order.  That data section has the layout of a
`numerics.ParamStore`'s flat vector: loading reads it back as one vector whose
slices are the parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .model import ModelConfig, param_manifest
from .numerics import ParamStore, Tensor

__all__ = ["MAGIC", "save_checkpoint", "load_checkpoint", "read_header"]

MAGIC = b"TRAJLM01"


def save_checkpoint(
    path,
    params: dict[str, Tensor],
    config: ModelConfig,
    vocab_sha256: str,
    meta: dict | None = None,
) -> None:
    data = np.concatenate([p.data.ravel() for p in params.values()], dtype="<f4", casting="unsafe")
    manifest = []
    offset = 0
    for name, p in params.items():
        manifest.append({"name": name, "shape": list(p.data.shape), "offset": offset})
        offset += 4 * p.data.size
    header = {
        "config": config.to_dict(),
        "vocab_sha256": vocab_sha256,
        "meta": meta or {},
        "data_bytes": data.nbytes,
        "data_sha256": hashlib.sha256(data).hexdigest(),
        "manifest": manifest,
    }
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(hbytes)))
        f.write(hbytes)
        f.write(data)


def _read_header(f) -> dict:
    """Read the magic and the JSON header from an open checkpoint file, leaving
    it at the start of the data section."""
    magic = f.read(8)
    if magic != MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
    (hlen,) = struct.unpack("<I", f.read(4))
    return json.loads(f.read(hlen).decode("utf-8"))


def read_header(path) -> dict:
    with open(path, "rb") as f:
        return _read_header(f)


def _check_manifest(manifest, config: ModelConfig, data_bytes: int) -> None:
    """The manifest must list param_manifest(config) in order, each entry at
    the byte offset where the previous one ends, tiling the data section;
    else ValueError naming the first bad entry.  The header is outside
    data_sha256, so nothing else catches a damaged manifest."""
    if not isinstance(manifest, list):
        raise ValueError(f"checkpoint manifest is a {type(manifest).__name__}, not a list")
    expected = param_manifest(config)
    offset = 0
    for i, (name, shape) in enumerate(expected):
        if i >= len(manifest):
            raise ValueError(f"checkpoint manifest ends after {i} entries: parameter {name!r} is missing")
        entry = manifest[i] if isinstance(manifest[i], dict) else {"name": manifest[i]}
        for key, want in (("name", name), ("shape", list(shape)), ("offset", offset)):
            if entry.get(key) != want:
                raise ValueError(
                    f"checkpoint manifest entry {i} ({entry.get('name')!r}): {key} is {entry.get(key)!r}, "
                    f"expected {want!r}"
                )
        offset += 4 * math.prod(shape)
    if len(manifest) > len(expected):
        extra = manifest[len(expected)]
        raise ValueError(f"checkpoint manifest entry {len(expected)} is not a parameter of this model: {extra!r}")
    if offset != data_bytes:
        raise ValueError(f"checkpoint manifest covers {offset} bytes, the data section holds {data_bytes}")


def load_checkpoint(path):
    """Return (params, config, header); validates the data's length and
    SHA-256 and the manifest against the config.  The parameters are views of
    one flat vector (numerics.ParamStore)."""
    with open(path, "rb", buffering=0) as f:  # unbuffered: the data is read into one bytes, not joined from two
        header = _read_header(f)
        data = f.read()
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
    _check_manifest(header["manifest"], config, len(data))
    shapes = {entry["name"]: tuple(entry["shape"]) for entry in header["manifest"]}
    params = ParamStore(shapes, np.frombuffer(data, dtype="<f4").copy()).params
    return params, config, header
