"""Process environment of a benchmark run: one BLAS/OpenMP thread, the
package imported from this checkout's sources, and a description of
the host the figures were measured on.

Import this module before anything that imports NumPy: thread counts
are read once, when NumPy loads its BLAS.
"""

import importlib
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingPackage(RuntimeError):
    """The checkout holds no neqcasimir sources to benchmark."""


def import_package():
    """Import neqcasimir from this checkout's src/ and return it, with
    the submodules the benchmark calls into loaded."""
    if not (SRC / "neqcasimir" / "__init__.py").is_file():
        raise MissingPackage("no neqcasimir sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    nq = importlib.import_module("neqcasimir")
    if Path(nq.__file__).resolve().parent != SRC / "neqcasimir":
        raise MissingPackage("neqcasimir imported from %s, not from %s"
                             % (nq.__file__, SRC))
    importlib.import_module("neqcasimir.cli")
    return nq


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe():
    """Host and library description recorded with every run."""
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
