"""Exception types shared across the package, plus the key check every
config's from_dict runs, the number check every config runs, and the
store writer and the manifest and .npy I/O of datasets and checkpoints.

Every error raised by library code derives from SetPoseError so callers
(notably the CLI) can map failures onto exit codes in one place.
"""

import dataclasses
import hashlib
import json
import math
import numbers
import shutil
import tempfile
from pathlib import Path
from tokenize import TokenError
from types import SimpleNamespace

import numpy as np


class SetPoseError(Exception):
    """Base class for all setpose errors."""


class ConfigError(SetPoseError):
    """Invalid configuration value or unknown config key."""


class ShapeError(SetPoseError):
    """Array shape violates an operation's contract."""


class NonPositiveDepth(SetPoseError):
    """A UVD depth or camera-frame z is <= 0 where positivity is required."""


class DegeneratePose(SetPoseError):
    """Pose carries no usable scale information (all joints coincident)."""


class EmptySide(SetPoseError):
    """A per-side statistic was requested for a side with zero samples."""


class NonPositiveScale(SetPoseError):
    """Target hand scale must be > 0."""


class NonFinite(SetPoseError):
    """NaN or infinity where finite values are required."""


class InconsistentAssignment(SetPoseError):
    """Matched queries do not fit the predictions and ground truths."""


class NonFiniteLoss(SetPoseError):
    """Training loss became NaN/inf; carries the offending step if known."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class SpentGraph(SetPoseError):
    """backward() reached a graph node that an earlier backward() freed."""


class KeyMismatch(SetPoseError):
    """Parameter and gradient (or moment) key sets differ."""


class FormatError(SetPoseError):
    """On-disk artifact has a bad magic, version, or truncated payload."""


class MissingScaleStats(SetPoseError):
    """Rescaling was requested but no scale statistics were supplied."""


def check_config_keys(cls: type, d: dict) -> dict:
    """Returns d after checking it is a dict whose keys are exactly fields of
    the dataclass cls, with every field that has no default present;
    raises ConfigError naming the unknown or missing keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} config must be a dict, got {type(d).__name__}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(d) - {f.name for f in fields})
    missing = [f.name for f in fields if f.name not in d
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if unknown or missing:
        raise ConfigError(f"{cls.__name__}: unknown keys {unknown}, missing keys {missing}")
    return d


def check_numbers(config, ints: tuple[str, ...] = (), reals: tuple[str, ...] = (),
                  finite: bool = True) -> None:
    """Raises ConfigError naming the first field of config among ints that is
    not an int, or among reals that is not a real number (a finite one unless
    finite is False); a bool is neither; a tuple is a pair, checked per element."""
    real = "a finite number" if finite else "a number"
    for names, kind, what in ((ints, numbers.Integral, "an int"), (reals, numbers.Real, real)):
        for name in names:
            value = getattr(config, name)
            if isinstance(value, tuple) and len(value) != 2:
                raise ConfigError(f"{type(config).__name__}.{name} must be a pair, "
                                  f"got {value!r}")
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, bool) or not isinstance(v, kind) or (
                        kind is numbers.Real and finite and not -math.inf < v < math.inf):
                    raise ConfigError(f"{type(config).__name__}.{name} must be {what}, "
                                      f"got {value!r}")


def read_manifest(path: Path, what: str, version: int, keys: tuple[str, ...]) -> dict:
    """The JSON object in the manifest file at path (a dataset's meta.json, a
    checkpoint's manifest.json). Raises FileNotFoundError naming the missing
    what ("dataset"), and FormatError naming path when the file is not a
    JSON object, has a format_version other than version, or lacks one of
    keys; readers call it before they touch any payload."""
    if not path.is_file():
        raise FileNotFoundError(f"no {what} at {path.parent}")
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: not a JSON object")
    if manifest.get("format_version") != version:
        raise FormatError(f"{path}: unsupported format version "
                          f"{manifest.get('format_version')!r} (expected {version})")
    missing = [k for k in keys if k not in manifest]
    if missing:
        raise FormatError(f"{path}: missing keys {missing}")
    return manifest


def write_npy(path: Path, parts: list[np.ndarray], dtype, shape: tuple) -> str:
    """Writes the .npy file at path of one C-order array of dtype and shape
    holding the elements of parts, each cast to dtype, in order: the bytes
    np.save writes for their concatenation, which is never made. Returns
    the SHA-256 of the bytes written, hashed on their way to the file."""
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        out = SimpleNamespace(write=lambda data: digest.update(data) or f.write(data))
        np.lib.format.write_array_header_1_0(out, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
            "fortran_order": False, "shape": shape})
        for part in parts:
            out.write(np.ascontiguousarray(part, dtype))
    return digest.hexdigest()


def write_store(path: str | Path, manifest_name: str, manifest: dict, arrays: dict) -> None:
    """Commits the store at path: one .npy file per name in arrays, written
    by write_npy from its (parts, dtype, shape), and manifest_name, the JSON
    of manifest with each file's SHA-256 under "<file stem>_sha256". All go
    into a new directory in a temporary sibling of path, renamed onto path
    after any old store is moved into that sibling, which is always deleted;
    a write that raises or is killed before the renames leaves path as it was.
    First, a sibling that a killed write left is deleted, its complete "new"
    renamed onto a missing path if it holds "old". One writer per path."""
    path = Path(path).resolve()
    path.parent.mkdir(parents=True, exist_ok=True)
    prefix = f".{path.name}."
    for sibling in sorted(path.parent.iterdir()):
        if (sibling.is_dir() and sibling.name.startswith(prefix)
                and "." not in sibling.name[len(prefix):]):
            if not path.exists() and (sibling / "old").is_dir():
                (sibling / "new").rename(path)
            shutil.rmtree(sibling)
    with tempfile.TemporaryDirectory(prefix=prefix, dir=path.parent) as tmp:
        new, old = Path(tmp) / "new", Path(tmp) / "old"
        new.mkdir()
        manifest = {**manifest, **{f"{Path(name).stem}_sha256": write_npy(new / name, *array)
                                   for name, array in arrays.items()}}
        (new / manifest_name).write_text(json.dumps(manifest, indent=2, sort_keys=True))
        if path.exists():
            path.rename(old)
        new.rename(path)


def read_npy(path: Path, sha256: str, dtype: np.dtype, shape: tuple,
             manifest: str) -> np.ndarray:
    """The array in the .npy file at path. Raises FormatError naming path
    when the file is missing or its SHA-256 is not sha256; then, parsing
    only verified bytes, when it holds a pickle (never loaded), is cut
    short, or has a header that does not parse or does not describe every
    byte; last, when the array is not the dtype and shape that the file
    named manifest promises."""
    if not path.is_file():
        raise FormatError(f"{path}: missing")
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
        if digest.hexdigest() != sha256:
            raise FormatError(f"{path}: SHA-256 differs from {manifest}'s {sha256!r}")
        f.seek(0)
        try:
            array = np.lib.format.read_array(f, allow_pickle=False)
        # SyntaxError and TokenError: a header that does not parse
        except (ValueError, EOFError, SyntaxError, TokenError) as e:
            raise FormatError(f"{path}: {e}") from e
        if f.read(1):
            raise FormatError(f"{path}: bytes after the array its header describes")
    if array.dtype != dtype or array.shape != shape:
        raise FormatError(f"{path}: holds {array.dtype} of shape {array.shape}, "
                          f"{manifest} promises {dtype} of shape {shape}")
    return array
