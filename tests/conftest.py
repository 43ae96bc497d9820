"""Pin BLAS to one thread for the whole suite, before numpy is first imported,
and fail any test that leaves a child process or a thread running.

The acceptance numbers depend on the BLAS thread count (a multi-threaded GEMM
splits its work, and with it the rounding, by thread count), so a fixed count is
what makes them the same on every machine.  One thread is also the faster
choice at these matrix sizes, and it lets the acceptance tests spread their
independent training runs over worker processes without oversubscribing the
cores.
"""

import multiprocessing
import os
import sys
import threading
import warnings

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py ran; BLAS keeps its "
                  "default thread count and the acceptance numbers may differ")


@pytest.fixture(autouse=True)
def no_process_left_running():
    """The grid's workers and the annotation child of each `train` epoch must
    all be joined by the time the call that started them returns or raises."""
    yield
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
        child.join()
    assert not children, f"processes left running: {children}"


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """A BiGRU layer's helper thread must be joined by the time the layer pass
    that started it returns or raises, so that no thread is alive when
    `train` or the grid forks."""
    yield
    threads = [t for t in threading.enumerate() if t is not threading.main_thread()]
    assert not threads, f"threads left running: {threads}"
