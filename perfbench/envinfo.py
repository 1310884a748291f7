"""Thread pinning and the machine/environment record kept with every result.

`pin_threads` must run before numpy is first imported: OpenBLAS and OpenMP
read their thread counts from the environment when the library loads.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

# One BLAS thread: at most `nproc` on any machine, and the load stays a
# single-process closed loop with no hidden fan-out.
BLAS_THREADS = 1

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
_GETTERS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin was set")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def blas_threads() -> dict[str, int]:
    """Thread count each bundled OpenBLAS reports, keyed by library file."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in _GETTERS:
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[os.path.basename(path)] = int(getter())
                    break
    return found


def verify_pin() -> dict[str, int]:
    """Fail loudly unless every BLAS library runs on the pinned thread count."""
    counts = blas_threads()
    if not counts:
        raise RuntimeError("no OpenBLAS library found: cannot verify the BLAS thread pin")
    wrong = {lib: n for lib, n in counts.items() if n != BLAS_THREADS}
    if wrong:
        raise RuntimeError(f"BLAS thread pin not in effect: {wrong} (wanted {BLAS_THREADS})")
    if BLAS_THREADS > (os.cpu_count() or 1):
        raise RuntimeError(f"pinned {BLAS_THREADS} BLAS threads on {os.cpu_count()} processors")
    return counts


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(root, ".git", name)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return None


def describe(root: str, blas_counts: dict[str, int]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_counts,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
    }
