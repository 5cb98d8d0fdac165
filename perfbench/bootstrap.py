"""Process set-up shared by the benchmark entry points.

``prepare()`` must run before numpy is first imported: OpenBLAS reads its
thread count once, at load time.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# BLAS is pinned to one thread on every machine, so both sides of a
# comparison run the same kernels with the same summation order (the
# stored reference values and the call counts stay bit-stable), and a
# co-tenant on a small shared box cannot stall half of a threaded kernel.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout has no nepritz sources next to the benchmark."""


def prepare() -> None:
    """Pin BLAS threads and import nepritz from this checkout's ``src/``."""
    if not (SRC / "nepritz" / "__init__.py").is_file():
        raise ProgramMissing(f"no nepritz package under {SRC}")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment(seed: int) -> dict:
    """What a result depends on besides the code: versions, BLAS, cores, seed."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": seed,
    }
