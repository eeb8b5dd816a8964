"""Stacked LAPACK solves: the one solver every panel system goes through.

The paper's CPU solves its ~200 x 200 systems with MKL's
``dgetrf``/``dgetrs``.  :func:`solve_stack` does the same with NumPy's
bundled LAPACK: ``numpy.linalg.solve`` factors and solves each member of
a ``(batch, n, n)`` stack independently, so a member's solution does not
depend on its stackmates and a stack of one gives the same bits as the
same matrix inside a larger stack.

**One BLAS thread.**  OpenBLAS ``getrf`` rounds differently with one
and with two threads from about n = 100 up, which would make a solve's
bits depend on the host's core count and on whatever else the process
set.  The serving path already runs its shards on threads
(:func:`repro.core.api.solve_request_systems`), so the first call to
:func:`blas_threads` (which :func:`solve_stack` makes) pins the
OpenBLAS that NumPy loaded to one thread through ``ctypes``, once per
process.  The thread count is process-wide library state, which is why
the outcome lives in this module and not in an object.  When no
OpenBLAS setter is found (e.g. a NumPy linked to another BLAS), one
``blas_unpinned`` event is logged and solves carry on unpinned.

The hand-written LU in :mod:`repro.linalg.batched` and
:mod:`repro.linalg.lu` stays as the test oracle these solves are held
to, through a scaled-residual bound.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from typing import List, Optional

import numpy as np

from repro.errors import LinalgError
from repro.obs.logging import StructuredLogger

#: ``(setter, getter)`` symbol pairs, newest NumPy wheels first: NumPy
#: 2.x bundles ``scipy_openblas64_``; older wheels and system OpenBLAS
#: builds export the plain names.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

#: Thread count the solves run with.
PINNED_THREADS = 1

_PIN_LOCK = threading.Lock()
_PINNED = False
_THREADS: Optional[int] = None


def _openblas_paths() -> List[str]:
    """Paths of the OpenBLAS libraries this process has loaded (from
    ``/proc/self/maps``), then the ones NumPy's wheel bundles."""
    paths = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower() \
                        and path not in paths:
                    paths.append(path)
    except OSError:  # no procfs (macOS, Windows)
        pass
    numpy_dir = os.path.dirname(np.__file__)
    for bundled in (os.path.join(numpy_dir, os.pardir, "numpy.libs"),
                    os.path.join(numpy_dir, ".dylibs")):
        paths.extend(sorted(glob.glob(os.path.join(bundled, "*openblas*"))))
    return paths


def _set_openblas_threads(count: int) -> Optional[int]:
    """Set OpenBLAS's thread count; the count read back, or ``None``
    when no loaded library exports a setter."""
    for path in _openblas_paths():
        try:
            library = ctypes.CDLL(path)  # the loaded copy: same handle
        except OSError:
            continue
        for setter_name, getter_name in _OPENBLAS_SYMBOLS:
            setter = getattr(library, setter_name, None)
            if setter is None:
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(count)
            getter = getattr(library, getter_name, None)
            if getter is None:
                return count
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def blas_threads() -> Optional[int]:
    """The BLAS thread count solves run with, pinning it on first call.

    The first call in a process sets OpenBLAS to
    :data:`PINNED_THREADS`; later calls return the same answer.
    ``None`` means no setter was found and BLAS runs with its own
    default (logged once as a ``blas_unpinned`` event).
    """
    global _PINNED, _THREADS
    if not _PINNED:
        with _PIN_LOCK:
            if not _PINNED:
                _THREADS = _set_openblas_threads(PINNED_THREADS)
                _PINNED = True
                if _THREADS is None:
                    StructuredLogger("json").event(
                        "blas_unpinned",
                        reason="no OpenBLAS thread setter found; "
                               "solves use the BLAS default thread count")
    return _THREADS


def solve_stack(matrices, rhs) -> np.ndarray:
    """Solve every system of a ``(batch, n, n)`` stack with LAPACK.

    ``rhs`` is ``(batch, n)``; the result matches it.  Floating stacks
    are solved in their own dtype (float32 stays float32).  Integer
    matrices are promoted to float64 and an integer ``rhs`` to the
    matrices' dtype; a floating ``rhs`` of another float dtype raises
    :class:`LinalgError`, because a silent cast would hide exactly the
    precision mismatch the dtype-grouped assembly path surfaces.

    Raises :class:`LinalgError` naming the first singular member.
    """
    a = np.asarray(matrices)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise LinalgError(f"expected a (batch, n, n) stack, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.floating):
        a = a.astype(np.float64)  # documented int -> float64 promotion
    b = np.asarray(rhs)
    if np.issubdtype(b.dtype, np.floating):
        if b.dtype != a.dtype:
            raise LinalgError(
                f"rhs dtype {b.dtype} does not match matrix dtype {a.dtype}; "
                f"mixed-precision solves hide precision bugs — cast "
                f"explicitly if the widening is intended"
            )
    else:
        b = b.astype(a.dtype)  # documented int promotion
    if b.shape != a.shape[:2]:
        raise LinalgError(
            f"rhs shape {b.shape} does not match batch {a.shape[0]} x n {a.shape[1]}"
        )
    blas_threads()
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        signs, _ = np.linalg.slogdet(a)  # the same getrf: sign 0 = singular
        singular = np.flatnonzero(signs == 0)
        index = int(singular[0]) if singular.size else 0
        raise LinalgError(
            f"matrix {index} in the batch is singular"
        ) from None
