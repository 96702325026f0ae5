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
    _stable_order,
    cg_solve,
    dense_sym_eigen,
    generalized_eig_bounds,
)
from polyvem.harmonic_fem import _submesh_stiffness, subtriangulate
from polyvem.mesh import FAMILIES, MeshFamilySpec, generate
from polyvem.solver import PROBLEMS, apply_dirichlet, assemble

from conftest import captured_triplets, dense


def test_from_triplets_dedup():
    rows = [0, 0, 1, 1, 0, 2]
    cols = [0, 1, 0, 1, 0, 2]
    vals = [2.0, 1.0, 1.0, 3.0, 0.5, 1.0]
    A = SparseSymMatrix.from_triplets(3, rows, cols, vals)
    expected = np.array([[2.5, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(dense(A), expected)
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
    assert np.array_equal(dense(A), np.zeros((3, 3)))
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


@pytest.mark.parametrize("keep", [[-1], [3], [0, 3]])
def test_restrict_rejects_out_of_range_index(keep):
    A = SparseSymMatrix.from_triplets(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    with pytest.raises(IndexOutOfRange, match=r"outside \[0, 3\)"):
        A.restrict(keep)


def test_restrict_to_nothing_is_empty():
    A = SparseSymMatrix.from_triplets(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    S = A.restrict([])
    assert S.n == 0 and S.nnz == 0
    assert (S @ np.zeros(0)).shape == (0,)


def _random_symmetric(rng, n, entries, empty_rows=0):
    r, c = rng.integers(0, n, (2, entries))
    if empty_rows:
        hole = rng.choice(n, empty_rows, replace=False)
        fine = ~np.isin(r, hole) & ~np.isin(c, hole)
        r, c = r[fine], c[fine]
    v = rng.standard_normal(len(r))
    return SparseSymMatrix.from_triplets(n, np.r_[r, c], np.r_[c, r],
                                         np.r_[v, v])


def _storage_order_matvec(A, x):
    """y = 0, then y = y + (entry j of each row) for j = 0, 1, ... up to
    the ELL width, where a row without an entry j adds 0 * x[i]; then
    the entries past the width, added to each row in CSR order."""
    width = A._ell_vals.shape[0]
    lengths = np.diff(A.indptr)
    y = np.zeros(A.n)
    for j in range(width):
        k = np.minimum(A.indptr[:-1] + j, max(A.nnz - 1, 0))
        has = lengths > j
        y = y + np.where(has, A.data[k] * x[A.indices[k]], 0.0 * x)
    if width < lengths.max(initial=0):
        extra = np.zeros(A.n)
        for i in range(A.n):
            for k in range(A.indptr[i] + width, A.indptr[i + 1]):
                extra[i] += A.data[k] * x[A.indices[k]]
        y = y + extra
    return y


def _assert_matvec_matches_dense(A, x):
    # each row sums in storage order, bit for bit
    assert np.array_equal(A @ x, _storage_order_matvec(A, x))
    d = dense(A)
    y = A @ x
    assert y.dtype == np.float64 and y.shape == (A.n,)
    # each side sums at most n products, so it is within n eps of the
    # sum of their magnitudes (Higham, Accuracy and Stability, 3.1)
    bound = 2 * A.n * np.finfo(float).eps * (np.abs(d) @ np.abs(x))
    assert np.all(np.abs(y - d @ x) <= bound)


@pytest.mark.parametrize("n, entries, empty_rows", [
    (1, 1, 0), (7, 10, 0), (40, 300, 0), (40, 300, 15), (300, 600, 100),
    (50, 2000, 0),
])
def test_matvec_matches_dense_on_random_matrices(n, entries, empty_rows):
    rng = np.random.default_rng(n + entries + empty_rows)
    for _ in range(5):
        A = _random_symmetric(rng, n, entries, empty_rows)
        x = rng.standard_normal(n)
        _assert_matvec_matches_dense(A, x)
        keep = np.flatnonzero(rng.random(n) < 0.5)
        _assert_matvec_matches_dense(A.restrict(keep), x[keep])


def test_matvec_sums_in_storage_order_past_one_einsum_buffer():
    # einsum works through buffers of 8192 elements
    rng = np.random.default_rng(12)
    A = _random_symmetric(rng, 20000, 100000)
    x = rng.standard_normal(20000)
    assert np.array_equal(A @ x, _storage_order_matvec(A, x))


def test_matvec_keeps_non_finite_entries_in_the_rows_that_store_them():
    # every row stores its diagonal, as in every matrix CG sees; the
    # reference is the plain CSR row sum
    rng = np.random.default_rng(4)
    n = 60
    r, c = rng.integers(0, n, (2, 150))
    v = rng.standard_normal(150)
    A = SparseSymMatrix.from_triplets(
        n, np.r_[r, c, np.arange(n)], np.r_[c, r, np.arange(n)],
        np.r_[v, v, np.full(n, 10.0)])
    x = rng.standard_normal(n)
    x[[0, 7, 33]] = [np.inf, np.nan, -np.inf]
    csr = np.bincount(A._row_of, weights=A.data * x[A.indices], minlength=n)
    with np.errstate(invalid="ignore"):
        y = A @ x
    ok = np.isfinite(csr)
    assert np.array_equal(np.isfinite(y), ok)
    assert ok.sum() > n // 2
    assert np.allclose(y[ok], csr[ok], rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_matvec_without_entries_is_float_zero(n):
    A = SparseSymMatrix.from_triplets(n, [], [], [])
    y = A @ np.ones(n)
    assert y.dtype == np.float64 and y.shape == (n,)
    assert not y.any()


def test_matvec_of_an_arrow_matrix_pads_no_row_to_the_full_width():
    # one vertex coupled to every other: its row holds all n entries, and
    # padding every row to that width would store n**2 slots
    n = 2000
    hub = np.zeros(n - 1, dtype=np.int64)
    spokes = np.arange(1, n)
    rows = np.r_[np.arange(n), hub, spokes]
    cols = np.r_[np.arange(n), spokes, hub]
    diag = np.full(n, 4.0)
    diag[0] = 2.0 * n  # diagonally dominant, so SPD
    vals = np.r_[diag, -np.ones(2 * (n - 1))]
    A = SparseSymMatrix.from_triplets(n, rows, cols, vals)
    assert A._ell_cols.size <= 2 * A.nnz + n
    x = np.random.default_rng(5).standard_normal(n)
    _assert_matvec_matches_dense(A, x)
    res = cg_solve(A, np.ones(n))
    assert res.converged
    assert np.allclose(dense(A) @ res.x, 1.0, rtol=0, atol=1e-10)


def _reference_from_triplets(n, rows, cols, values):
    """from_triplets with one stable argsort and a plain np.searchsorted
    for the mirrors: (indptr, indices, data), or AsymmetricMatrix with the
    same message."""
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    keys = keys[starts]
    v = np.add.reduceat(values[order], starts) if len(keys) else values
    r, c = np.divmod(keys, n)
    mirror = c * n + r
    at = np.minimum(np.searchsorted(keys, mirror), len(keys) - 1)
    resid = np.where(keys[at] == mirror, v - v[at], v)
    vmax = float(np.abs(v).max()) if len(v) else 0.0
    if vmax > 0 and np.abs(resid).max() > 1e-14 * vmax:
        hit = np.flatnonzero(np.abs(resid) == np.abs(resid).max())
        k = hit[np.where(r < c, keys, mirror)[hit].argmin()]
        worst = resid[k] if r[k] < c[k] else -resid[k]
        raise AsymmetricMatrix(
            f"triplets are not symmetric (residual {worst:.3e} "
            f"against max entry {vmax:.3e})")
    keep = np.abs(v) >= 1e-300
    return (np.searchsorted(r[keep], np.arange(n + 1)), c[keep], v[keep])


def test_mirror_lookup_matches_unsorted_searchsorted(monkeypatch):
    # from_triplets finds mirrors by inverting their sort order; a pattern
    # that is not symmetric is built once more with a zero mirror for
    # every summed entry. On triplet sets with missing mirrors, duplicates
    # and entries small enough to be dropped, both must give what a
    # stable sort and numpy's own search give: the same arrays or the
    # same error
    calls = []
    real = SparseSymMatrix.from_triplets.__func__

    def spy(cls, n, rows, cols, values):
        calls.append(n)
        return real(cls, n, rows, cols, values)

    monkeypatch.setattr(SparseSymMatrix, "from_triplets", classmethod(spy))
    rng = np.random.default_rng(8)
    sets, most = 20000, 11
    sizes = rng.integers(1, 9, sets)
    counts = rng.integers(0, most + 1, sets)
    pool = zip(rng.random((sets, 2, most)),
               rng.choice([1.0, -0.5, 1e-310], (sets, most)),
               rng.random((sets, most)) < 0.8)
    symmetric, builds = 0, {1: 0, 2: 0}
    for n, m, (u, v, mirrored) in zip(sizes, counts, pool):
        r, c = (u[:, :m] * n).astype(np.int64)
        v, mirrored = v[:m], mirrored[:m]
        # mirror most entries, so that some sets pass the symmetry check
        r, c = np.r_[r, c[mirrored]], np.r_[c, r[mirrored]]
        v = np.r_[v, v[mirrored]]
        pattern = set(zip(r.tolist(), c.tolist()))
        expected_calls = 1 if pattern == {(j, i) for i, j in pattern} else 2
        builds[expected_calls] += 1
        calls.clear()
        try:
            want = _reference_from_triplets(n, r, c, v)
        except AsymmetricMatrix as exc:
            with pytest.raises(AsymmetricMatrix) as got:
                SparseSymMatrix.from_triplets(n, r, c, v)
            assert str(got.value) == str(exc)
            assert len(calls) == expected_calls
            continue
        A = SparseSymMatrix.from_triplets(n, r, c, v)
        assert len(calls) == expected_calls
        for got, ref in zip((A.indptr, A.indices, A.data), want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        symmetric += 1
    assert 0 < symmetric < sets
    assert builds[1] > 0 and builds[2] > 0


def test_an_asymmetric_pattern_keeps_the_sums_of_its_duplicates():
    # (0, 1) and (1, 0) each come twelve times; (2, 0) is too small to
    # break the symmetry check but has no mirror. The rebuild adds one
    # zero per summed entry, so each sum stays numpy's sum of the given
    # values; a zero per triplet would regroup numpy's pairwise sum
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(12) * 10.0 ** rng.integers(-8, 8, 12)
    one = np.add.reduceat(vals, [0])[0]
    assert np.add.reduceat(np.r_[vals, np.zeros(12)], [0])[0] != one
    rows = np.r_[np.zeros(12, np.int64), np.ones(12, np.int64), 2, 0, 1, 2]
    cols = np.r_[np.ones(12, np.int64), np.zeros(12, np.int64), 0, 0, 1, 2]
    values = np.r_[vals, vals, 1e-310, 1.0, 1.0, 1.0]
    A = SparseSymMatrix.from_triplets(3, rows, cols, values)
    want = _reference_from_triplets(3, rows, cols, values)
    for got, ref in zip((A.indptr, A.indices, A.data), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert dense(A)[0, 1] == dense(A)[1, 0] == one


def _assembly(family):
    mesh = generate(MeshFamilySpec(family, 16, seed=7))
    return lambda: assemble(mesh, PROBLEMS["sinsin"]())


def _oracle_submesh(family):
    mesh = generate(MeshFamilySpec(family, 4, seed=7))
    poly = mesh.vertices[mesh.cells[mesh.n_cells // 2]]
    return lambda: _submesh_stiffness(subtriangulate(poly, 4))


@pytest.mark.parametrize("build", [_assembly, _oracle_submesh],
                         ids=["assembly", "oracle-level4"])
@pytest.mark.parametrize("family", FAMILIES)
def test_from_triplets_matches_a_unique_and_bincount_reference(
        monkeypatch, family, build):
    # the pattern from np.unique, the sums from np.bincount. bincount
    # adds a position's terms left to right and np.add.reduceat as
    # a1 + (a2 + ...), so data may differ in the last bit of an entry
    # with three or more terms; the parent algorithm gives it exactly
    [(n, rows, cols, values)] = captured_triplets(monkeypatch,
                                                  build(family))
    A = SparseSymMatrix.from_triplets(n, rows, cols, values)
    keys, inverse = np.unique(rows * n + cols, return_inverse=True)
    data = np.bincount(inverse, weights=values)
    bound = 8 * np.finfo(float).eps * np.bincount(inverse, np.abs(values))
    keep = np.abs(data) >= 1e-300
    r, c = np.divmod(keys[keep], n)
    assert np.array_equal(A.indptr, np.searchsorted(r, np.arange(n + 1)))
    assert np.array_equal(A.indices, c)
    assert np.all(np.abs(A.data - data[keep]) <= bound[keep])
    for got, ref in zip((A.indptr, A.indices, A.data),
                        _reference_from_triplets(n, rows, cols, values)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("bound", [None, 2 ** 62],
                         ids=["unique-key", "stable-fallback"])
def test_stable_order_is_the_stable_argsort(bound):
    # many duplicates, so that a sort that is not stable would show; a
    # bound of 2**62 forces the stable-sort branch
    rng = np.random.default_rng(11)
    for t in (0, 1, 2, 17, 1000, 50000):
        keys = rng.integers(0, 1 + t // 20, t)
        b = int(keys.max(initial=0)) + 1 if bound is None else bound
        sorted_keys, order = _stable_order(keys, b)
        want = np.argsort(keys, kind="stable")
        assert order.dtype == np.intp and sorted_keys.dtype == np.int64
        assert np.array_equal(order, want)
        assert np.array_equal(sorted_keys, keys[want])


def test_restrict_submatrix():
    d = np.array([[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]])
    r, c = np.nonzero(d)
    A = SparseSymMatrix.from_triplets(3, r, c, d[r, c])
    S = A.restrict(np.array([0, 2]))
    assert np.array_equal(dense(S), np.array([[4.0, 0.0], [0.0, 6.0]]))


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


def _reference_cg(A, b, tol=1e-12):
    """The out-of-place Jacobi-CG loop that cg_solve's in-place one must
    match bit for bit: (x, iterations, residual)."""
    nb = float(np.linalg.norm(b))
    minv = 1.0 / A.diagonal()
    x = np.zeros(A.n)
    r = b.copy()
    z = minv * r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, 10 * A.n + 1):
        q = A @ p
        pq = float(p @ q)
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rn = float(np.linalg.norm(r))
        if rn <= tol * nb:
            return x, it, rn / nb
        z = minv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("reference CG did not converge")


def _interior_system(family, n, seed=0):
    mesh = generate(MeshFamilySpec(family, n, seed=seed))
    problem = PROBLEMS["sinsin"]()
    A, b = assemble(mesh, problem)
    system = apply_dirichlet(A, b, mesh, problem.g)
    return system.matrix, system.rhs


def _random_spd_system():
    rng = np.random.default_rng(5)
    B = rng.standard_normal((60, 60))
    d = B.T @ B + 0.5 * np.eye(60)
    r, c = np.nonzero(d)
    return (SparseSymMatrix.from_triplets(60, r, c, d[r, c]),
            rng.standard_normal(60))


@pytest.mark.parametrize("system", [
    lambda: _interior_system("hexagon", 16),
    lambda: _interior_system("perturbed_quad", 16, seed=7),
    _random_spd_system,
], ids=["hexagon16", "perturbed_quad16_seed7", "random_spd"])
def test_cg_matches_the_out_of_place_loop_bitwise(system):
    A, b = system()
    x, iterations, residual = _reference_cg(A, b)
    res = cg_solve(A, b)
    assert res.converged and iterations > 10
    assert np.array_equal(res.x, x)
    assert res.iterations == iterations and res.residual == residual


@pytest.mark.parametrize("k", [600, -600])
def test_cg_is_exact_under_power_of_two_scaling(k):
    # at 2^600 the dot products of the unscaled loop overflow, at 2^-600
    # they underflow; CG scales b into [0.5, 1) first, so neither happens
    A, b = _random_spd_system()
    res = cg_solve(A, b)
    scaled = cg_solve(A, 2.0 ** k * b)
    assert res.converged and scaled.converged
    assert np.array_equal(scaled.x, 2.0 ** k * res.x)
    assert scaled.iterations == res.iterations
    assert scaled.residual == res.residual


def test_cg_stops_at_the_first_non_finite_curvature():
    # a NaN right-hand side makes p.Aq NaN on the first step; CG stops
    # there instead of running its 10 n iterations on NaN
    A = SparseSymMatrix.from_triplets(
        3, [0, 0, 1, 1, 2], [0, 1, 0, 1, 2], [4.0, 1.0, 1.0, 3.0, 2.0])
    res = cg_solve(A, np.array([1.0, np.nan, 0.0]))
    assert not res.converged and res.iterations == 0
    assert np.isnan(res.residual)


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
    lo, hi = generalized_eig_bounds(2.0 * L, L)
    assert lo == pytest.approx(2.0, abs=1e-11)
    assert hi == pytest.approx(2.0, abs=1e-11)


def test_generalized_bounds_squared_pencil():
    # (L^2) u = lambda L u has eigenvalues equal to the nonzero spectrum
    # of L, which for the 3-path is {1, 3}
    L = _path_laplacian()
    lo, hi = generalized_eig_bounds(L @ L, L)
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(3.0, abs=1e-10)


def test_generalized_bounds_kernel_mismatch():
    L = _path_laplacian()
    with pytest.raises(KernelMismatch):
        generalized_eig_bounds(L, np.eye(3))
