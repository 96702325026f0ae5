import tracemalloc

import numpy as np

from polyvem.linalg import SparseSymMatrix


def traced_peak(fn):
    """Peak bytes that Python and numpy allocations reach while fn()
    runs, above what was allocated when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def captured_triplets(monkeypatch, build):
    """The (n, rows, cols, values) of every from_triplets call that
    build() makes, each array flattened."""
    calls = []
    real = SparseSymMatrix.from_triplets.__func__

    def spy(cls, n, rows, cols, values):
        calls.append((n, np.ravel(rows), np.ravel(cols), np.ravel(values)))
        return real(cls, n, rows, cols, values)

    with monkeypatch.context() as patch:
        patch.setattr(SparseSymMatrix, "from_triplets", classmethod(spy))
        build()
    return calls
