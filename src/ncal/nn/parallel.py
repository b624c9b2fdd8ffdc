"""One call on each core: the calling thread and one kept worker thread.

Between BLAS calls numpy runs on one core. ``on_both_cores`` runs a function
on two independent inputs at once, the first on the calling thread and the
second on a worker kept for the life of the process, with OpenBLAS at one
thread while both run, so that each call has a core to itself. The training
step uses it for the row halves of the backward (``PtModel.forward``) and the
two halves of the Adam update (``optim.adam_step``).

The OpenBLAS thread count is process-wide in numpy's bundled OpenBLAS, even
through ``openblas_set_num_threads_local``: a worker that set it changed what
the calling thread read back. So only the calling thread sets it, before it
submits, and restores it after the join. It is reached through ``ctypes`` in
numpy's ``libscipy_openblas64_`` library; with another BLAS the count is left
alone, and both calls still run.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ncal-half")
# Held by one caller of on_both_cores at a time: the thread count is read,
# set and restored as one step, so that callers on several threads cannot
# restore each other's counts out of order.
_TURN = threading.Lock()


def _openblas():
    """(get, set) of the bundled OpenBLAS's thread count, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
    if not found:
        return None
    lib = ctypes.CDLL(found[0])
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.restype, get.argtypes = ctypes.c_int, []
    put.restype, put.argtypes = None, [ctypes.c_int]
    return get, put


_BLAS_THREADS = _openblas()


def blas_threads() -> int | None:
    """OpenBLAS's thread count, or None where it cannot be reached."""
    return None if _BLAS_THREADS is None else _BLAS_THREADS[0]()


def _set_blas_threads(n: int | None) -> None:
    if _BLAS_THREADS is not None and n is not None:
        _BLAS_THREADS[1](n)


def split_point(sizes) -> int:
    """How many of a sequence of items, of these sizes, come before the
    first item boundary past half of their total: the calling thread's
    share when whole items are split between the two threads."""
    ends = np.cumsum(sizes)
    return int(np.searchsorted(ends, ends[-1] / 2)) + 1


def _run(job: list) -> None:
    # The worker takes fn and its arguments out of `job` and puts the result
    # back, so that nothing it ran is still referenced by the pool once the
    # calling thread has the result.
    fn, args = job.pop()
    job.append(fn(*args))


def on_both_cores(fn, first: tuple, second: tuple):
    """(fn(*first), fn(*second)), the first on the calling thread and the
    second on the kept worker, with OpenBLAS at one thread while both run.

    Both calls have finished when this returns or raises, and the thread
    count is back to what it was either way. An error in either call
    reaches the caller, the calling thread's first. Callers on several
    threads take turns; fn must not call on_both_cores itself.
    """
    with _TURN:
        old = blas_threads()
        _set_blas_threads(1)
        try:
            job = [(fn, second)]
            future = _WORKER.submit(_run, job)
            try:
                result = fn(*first)
            finally:
                wait([future])
            future.result()
            return result, job.pop()
        finally:
            _set_blas_threads(old)
