import numpy as np
import pytest

from polyvem.errors import (
    AsymmetricMatrix,
    IndexOutOfRange,
    KernelMismatch,
    NoConvergence,
    ZeroDiagonal,
)
from polyvem.linalg import (
    SparseSymMatrix,
    cg_solve,
    dense_sym_eigen,
    generalized_eig_bounds,
)


def test_from_triplets_dedup():
    rows = [0, 0, 1, 1, 0, 2]
    cols = [0, 1, 0, 1, 0, 2]
    vals = [2.0, 1.0, 1.0, 3.0, 0.5, 1.0]
    A = SparseSymMatrix.from_triplets(3, rows, cols, vals)
    expected = np.array([[2.5, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(A.to_dense(), expected)
    assert A.nnz == 5


def test_from_triplets_drops_tiny():
    A = SparseSymMatrix.from_triplets(
        2, [0, 1, 0, 1], [0, 1, 1, 0], [1.0, 1.0, 1e-310, 1e-310])
    assert A.nnz == 2


@pytest.mark.parametrize("rows, cols, vals, residual", [
    pytest.param([0, 0, 1], [0, 1, 1], [1.0, 0.5, 1.0], "5.000e-01",
                 id="missing_mirror"),
    # the residual is reported where A - A^T first peaks in (row, col)
    # order, here at (0, 1), so with the sign of -A[1, 0]
    pytest.param([0, 1, 1], [0, 0, 1], [1.0, 0.5, 1.0], "-5.000e-01",
                 id="missing_mirror_below_diagonal"),
    pytest.param([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 0.5, 0.25, 1.0],
                 "2.500e-01", id="unequal_mirrors"),
    # a missing mirror below 1e-14 of the largest entry is round-off
    pytest.param([0, 0, 1], [0, 1, 1], [1.0, 1e-15, 1.0], None,
                 id="missing_mirror_round_off"),
])
def test_from_triplets_rejects_asymmetric(rows, cols, vals, residual):
    if residual is None:
        assert SparseSymMatrix.from_triplets(2, rows, cols, vals).nnz == 3
        return
    with pytest.raises(AsymmetricMatrix) as info:
        SparseSymMatrix.from_triplets(2, rows, cols, vals)
    assert str(info.value) == (f"triplets are not symmetric (residual "
                               f"{residual} against max entry 1.000e+00)")


def test_from_triplets_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        SparseSymMatrix.from_triplets(2, [0, 2], [0, 2], [1.0, 1.0])


def test_from_triplets_with_no_triplets_is_empty():
    A = SparseSymMatrix.from_triplets(3, [], [], [])
    assert A.n == 3 and A.nnz == 0
    assert np.array_equal(A.indptr, np.zeros(4))
    assert np.array_equal(A.to_dense(), np.zeros((3, 3)))
    assert np.array_equal(A @ np.ones(3), np.zeros(3))
    assert (A @ np.ones(3)).dtype == np.float64


def test_restrict_to_rows_without_entries():
    A = SparseSymMatrix.from_triplets(3, [0, 2], [0, 2], [1.0, 2.0])
    S = A.restrict(np.array([1]))
    assert S.n == 1 and S.nnz == 0


def test_restrict_matches_from_triplets_of_the_submatrix():
    rng = np.random.default_rng(3)
    n = 40
    r, c = rng.integers(0, n, (2, 300))
    v = rng.standard_normal(300)
    A = SparseSymMatrix.from_triplets(n, np.r_[r, c], np.r_[c, r], np.r_[v, v])
    keep = np.flatnonzero(rng.random(n) < 0.6)
    new_id = -np.ones(n, dtype=np.int64)
    new_id[keep] = np.arange(len(keep))
    rows, cols = new_id[A._row_of], new_id[A.indices]
    inside = (rows >= 0) & (cols >= 0)
    expected = SparseSymMatrix.from_triplets(
        len(keep), rows[inside], cols[inside], A.data[inside])
    S = A.restrict(keep)
    for got, want in ((S.indptr, expected.indptr),
                      (S.indices, expected.indices), (S.data, expected.data)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("keep", [[2, 0], [0, 1, 1]])
def test_restrict_needs_strictly_increasing_keep(keep):
    A = SparseSymMatrix.from_triplets(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        A.restrict(keep)


def test_matvec_matches_dense():
    rng = np.random.default_rng(7)
    d = rng.standard_normal((8, 8))
    d = d + d.T
    d[np.abs(d) < 0.7] = 0.0
    r, c = np.nonzero(d)
    A = SparseSymMatrix.from_triplets(8, r, c, d[r, c])
    x = rng.standard_normal(8)
    assert np.allclose(A @ x, d @ x, atol=1e-14)
    assert np.allclose(A.diagonal(), np.diag(d), atol=0)


def test_restrict_submatrix():
    d = np.array([[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]])
    r, c = np.nonzero(d)
    A = SparseSymMatrix.from_triplets(3, r, c, d[r, c])
    S = A.restrict(np.array([0, 2]))
    assert np.array_equal(S.to_dense(), np.array([[4.0, 0.0], [0.0, 6.0]]))


def test_cg_exact_2x2():
    A = SparseSymMatrix.from_triplets(
        2, [0, 0, 1, 1], [0, 1, 0, 1], [4.0, 1.0, 1.0, 3.0])
    res = cg_solve(A, np.array([1.0, 2.0]), tol=1e-14)
    # solve by hand: det = 11
    assert res.converged
    assert res.x == pytest.approx([1.0 / 11.0, 7.0 / 11.0], abs=1e-13)
    assert res.iterations <= 2


def test_cg_zero_rhs():
    A = SparseSymMatrix.from_triplets(2, [0, 1], [0, 1], [1.0, 1.0])
    res = cg_solve(A, np.zeros(2))
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.x, np.zeros(2))


def test_cg_random_spd():
    rng = np.random.default_rng(42)
    n = 50
    B = rng.standard_normal((n, n))
    d = B.T @ B + n * np.eye(n)
    r, c = np.nonzero(d)
    A = SparseSymMatrix.from_triplets(n, r, c, d[r, c])
    b = rng.standard_normal(n)
    res = cg_solve(A, b, tol=1e-12, max_iter=150)
    assert res.converged
    assert res.iterations <= 150
    assert np.linalg.norm(d @ res.x - b) <= 1e-11 * np.linalg.norm(b)


def test_cg_zero_diagonal():
    A = SparseSymMatrix.from_triplets(2, [0, 1], [1, 0], [1.0, 1.0])
    with pytest.raises(ZeroDiagonal):
        cg_solve(A, np.array([1.0, 1.0]))


def test_cg_iteration_cap():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((30, 30))
    d = B.T @ B + 1e-6 * np.eye(30)
    r, c = np.nonzero(d)
    A = SparseSymMatrix.from_triplets(30, r, c, d[r, c])
    res = cg_solve(A, np.ones(30), tol=1e-15, max_iter=2)
    assert not res.converged
    assert res.iterations == 2


def test_eigen_2x2():
    w = dense_sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert w == pytest.approx([1.0, 3.0], abs=1e-12)


def test_eigen_block_3x3():
    # 2x2 block has eigenvalues 6 +- 5
    M = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 4.0], [0.0, 4.0, 9.0]])
    w = dense_sym_eigen(M)
    assert w == pytest.approx([1.0, 2.0, 11.0], abs=1e-11)


def test_eigen_vectors_reconstruct():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((20, 20))
    M = M + M.T
    w, V = dense_sym_eigen(M, compute_vectors=True)
    nrm = np.linalg.norm(M)
    assert np.linalg.norm(M @ V - V * w[None, :]) <= 1e-10 * nrm
    assert np.linalg.norm(V.T @ V - np.eye(20)) <= 1e-12
    assert np.all(np.diff(w) >= -1e-12 * nrm)


def test_eigen_rejects_asymmetric():
    with pytest.raises(AsymmetricMatrix):
        dense_sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eigen_rejects_non_finite():
    with pytest.raises(NoConvergence):
        dense_sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def _path_laplacian():
    return np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def test_generalized_bounds_identical_pencil():
    L = _path_laplacian()
    lo, hi = generalized_eig_bounds(2.0 * L, L, kernel=np.ones(3))
    assert lo == pytest.approx(2.0, abs=1e-11)
    assert hi == pytest.approx(2.0, abs=1e-11)


def test_generalized_bounds_squared_pencil():
    # (L^2) u = lambda L u has eigenvalues equal to the nonzero spectrum
    # of L, which for the 3-path is {1, 3}
    L = _path_laplacian()
    lo, hi = generalized_eig_bounds(L @ L, L, kernel=np.ones(3))
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(3.0, abs=1e-10)


def test_generalized_bounds_kernel_mismatch():
    L = _path_laplacian()
    with pytest.raises(KernelMismatch):
        generalized_eig_bounds(L, np.eye(3), kernel=np.ones(3))
