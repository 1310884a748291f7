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
from .vocab import InputError, Key, Must, Table

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


# The header's table.  The header is outside data_sha256, so these checks
# and _check_manifest's are all that stand between a damaged header and a
# KeyError or TypeError deep in a reader.
_ENTRY = Table(
    name=Key((Must.string,)),
    shape=Key((("a list of whole numbers >= 0", Must.list_of(lambda shape: Must.whole[1](shape) and min(shape, default=0) >= 0)),)),
    offset=Key((Must.whole,)),
)
_HEADER = Table(
    config=Key((Must.object,), read=("a model config", ModelConfig.from_dict)),
    data_bytes=Key((Must.whole, Must.non_negative)),
    data_sha256=Key((Must.string,)),
    manifest=Key((Must.objects,), table=_ENTRY),
    meta=Key((Must.object,), {}),
    vocab_sha256=Key((Must.string,), ""),
)


def _read_header(f, path) -> dict:
    """Read the magic and the JSON header from the open checkpoint file at
    `path`, leaving it at the start of the data section.  A file that ends
    before its header does, or whose magic is wrong, is a ValueError naming
    `path`; a header that is not UTF-8 JSON or breaks its table is an
    InputError naming `path` and the key."""
    magic = f.read(len(MAGIC))
    if not MAGIC.startswith(magic):
        raise ValueError(f"{str(path)!r} is not a checkpoint file: bad magic {magic!r}")
    size = f.read(4)  # empty when the file ended inside the magic
    hlen = struct.unpack("<I", size)[0] if len(size) == 4 else -1
    text = f.read(hlen) if hlen >= 0 else b""
    if len(text) != hlen:
        raise ValueError(f"checkpoint {str(path)!r} is truncated: the file ends inside its header")
    where = f"checkpoint {str(path)!r}"
    try:
        header = Table.parse(text.decode("utf-8"), where)
    except UnicodeDecodeError as e:
        raise InputError(f"{where}: the header is not UTF-8: {e}") from None
    _HEADER.check(header, where)
    return header


def read_header(path) -> dict:
    with open(path, "rb") as f:
        return _read_header(f, path)


def _check_manifest(manifest: list, config: ModelConfig, data_bytes: int, path) -> None:
    """The manifest must list param_manifest(config) in order, each entry at
    the byte offset where the previous one ends, tiling the data section;
    else ValueError naming `path` and the first bad entry."""
    where = f"checkpoint {str(path)!r} manifest"
    expected = param_manifest(config)
    offset = 0
    for i, (name, shape) in enumerate(expected):
        if i >= len(manifest):
            raise ValueError(f"{where} ends after {i} entries: parameter {name!r} is missing")
        entry = manifest[i]
        for key, want in (("name", name), ("shape", list(shape)), ("offset", offset)):
            if entry[key] != want:
                raise ValueError(f"{where} entry {i} ({entry['name']!r}): {key} is {entry[key]!r}, expected {want!r}")
        offset += 4 * math.prod(shape)
    if len(manifest) > len(expected):
        extra = manifest[len(expected)]
        raise ValueError(f"{where} entry {len(expected)} is not a parameter of this model: {extra!r}")
    if offset != data_bytes:
        raise ValueError(f"{where} covers {offset} bytes, the data section holds {data_bytes}")


def load_checkpoint(path):
    """Return (params, config, header); validates the data's length and
    SHA-256 and the manifest against the config.  The parameters are views of
    one flat vector (numerics.ParamStore)."""
    with open(path, "rb", buffering=0) as f:  # unbuffered: the data is read into one bytes, not joined from two
        header = _read_header(f, path)
        data = f.read()
    if len(data) != header["data_bytes"]:
        raise ValueError(
            f"checkpoint {str(path)!r} truncated or padded: {len(data)} data bytes, expected {header['data_bytes']}"
        )
    digest = hashlib.sha256(data).hexdigest()
    if digest != header.get("data_sha256"):
        raise ValueError(
            f"checkpoint {path} is corrupt: data SHA-256 {digest} does not match the header's "
            f"data_sha256 {header.get('data_sha256')!r}"
        )
    config = ModelConfig.from_dict(header["config"])
    _check_manifest(header["manifest"], config, len(data), path)
    shapes = {entry["name"]: tuple(entry["shape"]) for entry in header["manifest"]}
    params = ParamStore(shapes, np.frombuffer(data, dtype="<f4").copy()).params
    return params, config, header
