"""One BLAS thread in every process that imports paleylab.

The replays are thousands of small Hermitian solves.  With numpy's bundled
OpenBLAS on several threads they run no faster, the idle threads spin and
double the CPU time, and a sum can round differently with a different
thread count.  Every process therefore runs BLAS on one thread: the
caller's and each spawned campaign worker, which imports this package to
unpickle its task, so reports are the same for any worker count.

The library is numpy's `numpy.libs/libscipy_openblas*`, loaded by numpy
with local symbols, so its thread setter is looked up in that file by name.
Where it is missing (another numpy build or platform), the BLAS is left as
it is; thread variables set only for the workers would make the workers'
sums differ from the caller's.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np


def openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS with its 64-bit-int thread calls, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in (n for n in names if n.startswith("libscipy_openblas")):
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        except (OSError, AttributeError):
            continue
        return lib
    return None


def pin_one_thread() -> None:
    lib = openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)
