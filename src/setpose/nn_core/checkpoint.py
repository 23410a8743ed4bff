"""Checkpoint format: JSON manifest + little-endian binary blob.

A checkpoint is a directory holding

  manifest.json  - format version, optimizer step, free-form "extra"
                   payload (e.g. the model config), and the parameter
                   table: name, shape, dtype, byte offset into the blob
  params.bin     - magic b"PSTO", u32 little-endian format version,
                   then the concatenated raw float64 values (little
                   endian, C order) at the recorded offsets

Loads validate magic, version, and that the parameter entries tile the
blob contiguously in table order, from the end of the header to the end
of the file (the layout save_checkpoint writes); a bad file raises
FormatError and nothing partial is returned.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from ..errors import ConfigError, FormatError
from .tensor import ParamStore

MAGIC = b"PSTO"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
_HEADER = struct.Struct("<4sI")


def save_checkpoint(
    path: str | Path,
    params: ParamStore,
    optimizer_step: int = 0,
    extra: dict | None = None,
) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = _HEADER.size
    chunks = []
    for name, tensor in params.items():
        raw = np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
        entries.append({
            "name": name,
            "shape": list(tensor.data.shape),
            "dtype": "float64",
            "offset": offset,
        })
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "format_version": FORMAT_VERSION,
        "optimizer_step": optimizer_step,
        "extra": extra or {},
        "params": entries,
    }
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    with open(path / BLOB_NAME, "wb") as f:
        f.write(_HEADER.pack(MAGIC, FORMAT_VERSION))
        for chunk in chunks:
            f.write(chunk)


def load_checkpoint(path: str | Path) -> tuple[ParamStore, int, dict]:
    """Returns (params, optimizer_step, extra)."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    blob_path = path / BLOB_NAME
    if not manifest_path.is_file() or not blob_path.is_file():
        raise FileNotFoundError(f"no checkpoint at {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"{manifest_path}: invalid JSON manifest: {e}") from e
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: manifest is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise FormatError(
            f"{manifest_path}: unsupported format version "
            f"{manifest.get('format_version')!r} (expected {FORMAT_VERSION})")
    blob = blob_path.read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError(f"{blob_path}: truncated header")
    magic, version = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"{blob_path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{blob_path}: unsupported blob version {version}")
    entries = manifest.get("params")
    if not isinstance(entries, list):
        raise FormatError(f"{manifest_path}: no parameter table")
    params = ParamStore()
    offset = _HEADER.size
    for entry in entries:
        try:
            name, shape, start = entry["name"], tuple(entry["shape"]), entry["offset"]
            dtype = entry["dtype"]
        except (KeyError, TypeError) as e:
            raise FormatError(f"{manifest_path}: malformed parameter entry {entry!r}") from e
        if dtype != "float64":
            raise FormatError(f"{manifest_path}: unsupported dtype {dtype!r}")
        if not all(type(s) is int and s >= 0 for s in shape):
            raise FormatError(f"{manifest_path}: parameter {name!r} has bad shape {shape}")
        if type(start) is not int or start != offset:
            raise FormatError(f"{manifest_path}: parameter {name!r} at offset {start!r}, "
                              f"expected {offset} (entries must tile the blob)")
        n = math.prod(shape)
        offset += 8 * n
        if offset > len(blob):
            raise FormatError(
                f"{blob_path}: parameter {name!r} extends past end of blob")
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=start).reshape(shape)
        try:
            params.add(name, arr)
        except ConfigError as e:  # a name listed twice
            raise FormatError(f"{manifest_path}: {e}") from e
    if offset != len(blob):
        raise FormatError(f"{blob_path}: {len(blob) - offset} bytes after the last parameter")
    step, extra = manifest.get("optimizer_step", 0), manifest.get("extra", {})
    if type(step) is not int or not isinstance(extra, dict):
        raise FormatError(f"{manifest_path}: bad optimizer_step {step!r} or extra {extra!r}")
    return params, step, extra
