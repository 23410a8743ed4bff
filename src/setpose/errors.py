"""Exception types shared across the package, plus the key check every
config's from_dict runs and the number check every config runs.

Every error raised by library code derives from SetPoseError so callers
(notably the CLI) can map failures onto exit codes in one place.
"""

import dataclasses
import math
import numbers


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
