"""Checkpoint format: JSON manifest + one flat .npy array.

A checkpoint is a directory holding

  manifest.json  - format version, the parameters' dtype ("float32" or
                   "float64"), optimizer step, a free-form JSON "extra"
                   object (e.g. the model config), the layout ([name, shape]
                   per parameter, sorted by name) and params.npy's SHA-256
  params.npy     - the parameters, flattened and concatenated in layout
                   order: one 1-D array of that dtype

A save checks its inputs, refusing an extra that would not load back
equal, then commits both files with errors.write_store. A load checks the
manifest, then reads params.npy with errors.read_npy, so it raises
FormatError naming either file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ..errors import ConfigError, FormatError, read_manifest, read_npy, write_store
from .tensor import ParamStore

FORMAT_VERSION = 4
DTYPES = ("float32", "float64")
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "params.npy"


def save_checkpoint(
    path: str | Path,
    params: ParamStore,
    optimizer_step: int = 0,
    extra: dict | None = None,
) -> None:
    names, arrays = params.names(), [tensor.data for _, tensor in params.items()]
    dtypes = sorted({array.dtype.name for array in arrays})
    if len(dtypes) != 1 or dtypes[0] not in DTYPES:
        raise ConfigError(f"parameters must share one dtype of {DTYPES}, got {dtypes}")
    extra = {} if extra is None else extra
    if type(optimizer_step) is not int or optimizer_step < 0 or not isinstance(extra, dict):
        raise ConfigError(f"bad optimizer_step {optimizer_step!r} or extra {extra!r}")
    try:
        stored = json.loads(json.dumps(extra, allow_nan=False, sort_keys=True))
    except (TypeError, ValueError) as e:  # not JSON, NaN or infinity, mixed key types
        raise ConfigError(f"extra cannot be stored as JSON: {e}") from e
    if stored != extra:  # int keys, tuples
        raise ConfigError(f"extra {extra!r} would load back as {stored!r}")
    manifest = {"format_version": FORMAT_VERSION, "dtype": dtypes[0],
                "optimizer_step": optimizer_step, "extra": extra,
                "layout": [[name, list(a.shape)] for name, a in zip(names, arrays)]}
    write_store(path, MANIFEST_NAME, manifest,
                {ARRAYS_NAME: (arrays, dtypes[0], (sum(a.size for a in arrays),))})


def load_checkpoint(path: str | Path) -> tuple[ParamStore, int, dict]:
    """Returns (params, optimizer_step, extra)."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    manifest = read_manifest(manifest_path, "checkpoint", FORMAT_VERSION,
                             ("dtype", "optimizer_step", "extra", "layout", "params_sha256"))
    step, extra, dtype, layout = map(manifest.get, ("optimizer_step", "extra", "dtype", "layout"))
    if type(step) is not int or step < 0 or not isinstance(extra, dict) or dtype not in DTYPES:
        raise FormatError(f"{manifest_path}: bad optimizer_step {step!r}, extra "
                          f"{extra!r} or dtype {dtype!r}")
    if not isinstance(layout, list) or not all(
            isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list) and all(type(n) is int and n >= 0 for n in entry[1])
            for entry in layout) or len({name for name, _ in layout}) != len(layout):
        raise FormatError(f"{manifest_path}: layout must be a list of [name, list of "
                          f"non-negative ints] pairs, each name once")
    sizes = [math.prod(shape) for _, shape in layout]
    flat = read_npy(path / ARRAYS_NAME, manifest["params_sha256"], np.dtype(dtype),
                    (sum(sizes),), MANIFEST_NAME)
    params = ParamStore()
    for (name, shape), part in zip(layout, np.split(flat, np.cumsum(sizes)[:-1])):
        params.add(name, part.reshape(shape))
    return params, step, extra
