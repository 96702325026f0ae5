import tracemalloc

import numpy as np

from polyvem.linalg import SparseSymMatrix, _key_bits


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


def folded_fan():
    """(vertices, cells) of 12 triangles about vertex 0 at (0.5, 0.5)
    that wind twice around it: corner k at 60 k degrees + 0.1 rad, at
    radius 0.2 for k < 6 and 0.4 for k >= 6. Each cell is fine on its
    own, and every edge at vertex 0 is shared by two of them."""
    angle = np.pi / 3 * np.arange(12) + 0.1
    radius = np.where(np.arange(12) < 6, 0.2, 0.4)
    corners = 0.5 + radius[:, None] * np.column_stack(
        [np.cos(angle), np.sin(angle)])
    cells = [[0, 1 + k, 1 + (k + 1) % 12] for k in range(12)]
    return np.vstack([[0.5, 0.5], corners]), cells


def dense(A):
    """The n x n array of a SparseSymMatrix, from its CSR arrays."""
    out = np.zeros((A.n, A.n))
    out[np.repeat(np.arange(A.n), np.diff(A.indptr)), A.indices] = A.data
    return out


def captured_triplets(monkeypatch, build):
    """The (n, rows, cols, values) of every matrix build that build()
    makes, each array flattened. Every build, from_triplets' included,
    goes through SparseSymMatrix._from_keys; the rows and columns are
    decoded from its keys row << s | col before it sorts them in place."""
    calls = []
    real = SparseSymMatrix._from_keys.__func__

    def spy(cls, n, keys, values):
        s = _key_bits(n)
        calls.append((n, keys >> s, keys & ((1 << s) - 1),
                      np.array(values, dtype=float).ravel()))
        return real(cls, n, keys, values)

    with monkeypatch.context() as patch:
        patch.setattr(SparseSymMatrix, "_from_keys", classmethod(spy))
        build()
    return calls
