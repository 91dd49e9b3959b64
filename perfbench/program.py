"""Locating the program under test and the benchmark's scratch space.

The benchmark always measures the ``bomtrace`` sources that sit beside it in
the same checkout (``src/bomtrace``), never an installed copy, and writes only
below the checkout root.
"""

from __future__ import annotations

import importlib
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"


class ProgramMissing(RuntimeError):
    """The checkout holds no bomtrace sources to measure."""


def load_bomtrace():
    """Import ``bomtrace`` from this checkout's ``src`` directory."""
    if not (SRC / "bomtrace" / "__init__.py").is_file():
        raise ProgramMissing(f"no bomtrace sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("bomtrace")
    origin = Path(module.__file__).resolve()
    if SRC not in origin.parents:
        raise ProgramMissing(f"bomtrace imported from {origin}, not from {SRC}")
    return module


def new_data_dir(label: str) -> Path:
    """A fresh, empty directory under the checkout's scratch space."""
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
