"""Checkpoint format: JSON manifest + numpy .npz archive.

A checkpoint is a directory holding

  manifest.json  - format version, optimizer step and a free-form "extra"
                   payload (e.g. the model config)
  params.npz     - uncompressed np.savez archive, one float64 array per
                   parameter, stored under the parameter's name

Loads read the manifest first, so a checkpoint of another format version
raises FormatError naming that version before any array is read. The
archive is read with pickles refused; a member whose CRC-32 does not
match, a truncated or non-zip archive, a member that is not a float64
array and a name stored twice raise FormatError, and nothing partial is
returned.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from ..errors import ConfigError, FormatError
from .tensor import ParamStore

FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "params.npz"


def save_checkpoint(
    path: str | Path,
    params: ParamStore,
    optimizer_step: int = 0,
    extra: dict | None = None,
) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "optimizer_step": optimizer_step,
        "extra": extra or {},
    }
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    np.savez(path / ARRAYS_NAME, **{name: tensor.data for name, tensor in params.items()})


def load_checkpoint(path: str | Path) -> tuple[ParamStore, int, dict]:
    """Returns (params, optimizer_step, extra)."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    arrays_path = path / ARRAYS_NAME
    if not manifest_path.is_file():
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
    step, extra = manifest.get("optimizer_step", 0), manifest.get("extra", {})
    if type(step) is not int or not isinstance(extra, dict):
        raise FormatError(f"{manifest_path}: bad optimizer_step {step!r} or extra {extra!r}")
    params = ParamStore()
    try:
        with np.load(arrays_path, allow_pickle=False) as archive:
            # numpy reads a member only up to the end of its array, and a
            # member comment (np.savez writes none) can swallow the next
            # member's directory entry: check every byte's CRC-32 and that
            # no member carries a comment
            if (archive.zip.testzip() is not None
                    or any(info.comment for info in archive.zip.infolist())):
                raise FormatError(f"{arrays_path}: corrupt archive")
            for name in archive.files:
                arr = archive[name]  # bytes for a member that is not .npy
                if getattr(arr, "dtype", None) != np.float64:
                    raise FormatError(f"{arrays_path}: parameter {name!r} is not a "
                                      f"float64 array")
                params.add(name, arr)
    # OSError and RuntimeError: a missing archive, or a zip directory entry
    # with a bad offset, version, compression method or encryption flag;
    # ConfigError: a name stored twice
    except (zipfile.BadZipFile, ValueError, EOFError, OSError, RuntimeError,
            ConfigError) as e:
        raise FormatError(f"{arrays_path}: {e}") from e
    return params, step, extra
