"""Benchmark for the setpose pipeline: seeded train, eval and generate
workloads, timed end to end, plus a traced run that splits each workload's
time over the library's layers. See README.md for the metrics."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout holds no setpose sources to benchmark."""


def require_src() -> Path:
    """Put the checkout's src/ first on sys.path and import setpose from it.

    Refuses to fall back to any other installed copy, so the numbers always
    belong to the code in this checkout.
    """
    if not (SRC / "setpose" / "__init__.py").is_file():
        raise MissingSource(f"no setpose package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import setpose

    if Path(setpose.__file__).resolve().parent != (SRC / "setpose").resolve():
        raise MissingSource(f"setpose was imported from {setpose.__file__}, not {SRC}")
    return SRC
