"""Process set-up shared by every benchmark entry point.

Import this module before numpy: it pins the BLAS/OpenMP thread pools to one
thread, so a two-worker sweep uses exactly two cores, and it puts the
checkout's own ``src`` directory first on ``sys.path``, so the package under
test is the one built from this source tree and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch outputs, span spools and result files; listed in .gitignore
WORK = ROOT / ".perfbench"


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/depotsim`` package to benchmark."""


def bootstrap() -> None:
    """Pin thread pools and make ``import depotsim`` resolve to ``src/``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "depotsim" / "__init__.py").is_file():
        raise MissingSourceError(f"no depotsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported_from_source(module) -> None:
    """Refuse to benchmark a depotsim that was not imported from ``src/``."""
    where = Path(module.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise MissingSourceError(f"depotsim was imported from {where}, not {SRC}")


def git_commit() -> str:
    """HEAD commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
