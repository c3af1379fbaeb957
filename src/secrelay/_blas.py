"""Run the Newton algebra on one OpenBLAS thread.

The solver's results must not depend on the BLAS thread count.  A
threaded OpenBLAS splits the sum of a dot product of more than 10,000
entries (numpy's ``a @ b`` on 1-D arrays) between its threads, so the
last bits of that sum follow the thread count.  The solver takes such
products over all variables or rows: the Schur complement of phase I's
border and the residual norms of the line search.  The stage programs
are that long at N = 2000, and there, without this context, the
trajectory phase-I program returns an ``x_opt`` whose bits differ
between ``OPENBLAS_NUM_THREADS=1`` and ``2``; with it the bits are
identical (``tests/test_solver.py``,
``test_phase_one_thread_count_independent``).  On these short products
the threads also cost time: on a 2-core host, the first N = 2000 power
solve of a process took 1.07 s at two threads and 0.19 s on one.

``one_thread()`` lowers every OpenBLAS loaded into the process (numpy
and scipy each ship their own) to one thread and restores the previous
counts on exit.  It finds the libraries through ``/proc/self/maps`` and
does nothing where that file or an OpenBLAS is absent.  OpenBLAS keeps
one global thread count per library, so the context is not safe to
enter from several Python threads at once.
"""
from __future__ import annotations

import contextlib
import ctypes
import os
from typing import Callable

# Exported names: plain builds, and the prefixed / ILP64 builds that the
# numpy and scipy wheels bundle.
_PREFIXES = ("openblas", "scipy_openblas")
_SUFFIXES = ("", "64_", "_64")

_controls: list[tuple[Callable[[], int], Callable[[int], None]]] | None = None


def _loaded_openblas() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return []
    return sorted(p for p in paths if ".so" in os.path.basename(p))


def _find_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    found = []
    mode = getattr(os, "RTLD_NOLOAD", 0)  # only libraries already loaded
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path, mode=mode)
        except OSError:
            continue
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.restype = ctypes.c_int
                    get.argtypes = []
                    set_.restype = None
                    set_.argtypes = [ctypes.c_int]
                    found.append((get, set_))
                    break
            else:
                continue
            break
    return found


@contextlib.contextmanager
def one_thread():
    """Limit every loaded OpenBLAS to one thread for the ``with`` body."""
    global _controls
    if _controls is None:
        _controls = _find_controls()
    saved = [(set_, get()) for get, set_ in _controls]
    for set_, n in saved:
        if n != 1:
            set_(1)
    try:
        yield
    finally:
        for set_, n in saved:
            if n != 1:
                set_(n)
