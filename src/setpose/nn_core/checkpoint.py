"""Checkpoint format: JSON manifest + numpy .npz archive.

A checkpoint is a directory holding

  manifest.json  - format version, the parameters' dtype ("float32" or
                   "float64"), optimizer step and a free-form "extra"
                   payload (e.g. the model config)
  params.npz     - uncompressed np.savez archive, one array of that dtype
                   per parameter, stored under the parameter's name

A save writes both files into a new directory inside a temporary sibling
directory and renames it onto the path, so a save that raises or is
killed before then leaves the checkpoint already at the path whole. That
one is moved into the temporary directory, which is always deleted.

Loads read the manifest first, with errors.read_manifest, so a checkpoint
of another format version or without a dtype, optimizer_step or extra
raises FormatError before any array is read. Each archive member is then
read whole, which checks its CRC-32, and parsed with errors.read_npy. A
CRC mismatch, a truncated or non-zip archive, a member comment, a member
that is not an array of the manifest's dtype and a name stored twice
raise FormatError too, and nothing partial is returned.
"""

from __future__ import annotations

import io
import json
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from ..errors import ConfigError, FormatError, read_manifest, read_npy
from .tensor import ParamStore

FORMAT_VERSION = 3
DTYPES = ("float32", "float64")
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "params.npz"


def save_checkpoint(
    path: str | Path,
    params: ParamStore,
    optimizer_step: int = 0,
    extra: dict | None = None,
) -> None:
    dtypes = sorted({tensor.data.dtype.name for _, tensor in params.items()})
    if len(dtypes) != 1 or dtypes[0] not in DTYPES:
        raise ConfigError(f"parameters must share one dtype of {DTYPES}, got {dtypes}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = {"format_version": FORMAT_VERSION, "dtype": dtypes[0],
                "optimizer_step": optimizer_step, "extra": extra or {}}
    with tempfile.TemporaryDirectory(prefix=f".{path.name}.", dir=path.parent) as tmp:
        new, old = Path(tmp) / "new", Path(tmp) / "old"
        new.mkdir()
        (new / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
        np.savez(new / ARRAYS_NAME, **{name: tensor.data for name, tensor in params.items()})
        if path.exists():
            path.rename(old)
        new.rename(path)


def load_checkpoint(path: str | Path) -> tuple[ParamStore, int, dict]:
    """Returns (params, optimizer_step, extra)."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    arrays_path = path / ARRAYS_NAME
    manifest = read_manifest(manifest_path, "checkpoint", FORMAT_VERSION,
                             ("dtype", "optimizer_step", "extra"))
    step, extra, dtype = manifest["optimizer_step"], manifest["extra"], manifest["dtype"]
    if type(step) is not int or not isinstance(extra, dict) or dtype not in DTYPES:
        raise FormatError(f"{manifest_path}: bad optimizer_step {step!r}, extra "
                          f"{extra!r} or dtype {dtype!r}")
    params = ParamStore()
    try:
        with zipfile.ZipFile(arrays_path) as archive:
            for info in archive.infolist():
                raw = archive.read(info)  # read whole: checks the CRC-32
                arr = read_npy(io.BytesIO(raw), f"{arrays_path}: member {info.filename!r}")
                # np.savez writes no member comment; one can hide the next entry
                if info.comment or not info.filename.endswith(".npy") or arr.dtype != dtype:
                    raise FormatError(f"{arrays_path}: corrupt archive: member "
                                      f"{info.filename!r} is not a {dtype} array")
                params.add(info.filename[:-len(".npy")], arr)
    # OSError and RuntimeError: a missing archive, or a zip directory entry
    # with a bad offset, version, compression method or encryption flag;
    # ConfigError: a name stored twice
    except (zipfile.BadZipFile, ValueError, EOFError, OSError, RuntimeError,
            ConfigError) as e:
        raise FormatError(f"{arrays_path}: corrupt archive: {e}") from e
    return params, step, extra
