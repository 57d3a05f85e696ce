"""Process set-up shared by the benchmark entry point and its self-tests.

Call ``prepare()`` before anything imports numpy. BLAS thread counts are
pinned to one because distributed mode forks worker processes, forking after
BLAS threads have started is a known hazard, and threadpoolctl is not
available to limit them afterwards. The program is always imported from the
``src/`` directory of the checkout that holds this file, never from an
installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def prepare() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    package = SRC / "divsel" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import divsel

    if Path(divsel.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported divsel from {divsel.__file__}, expected {package}")
