import math

import numpy as np
import pytest

from polyvem import linalg
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
from polyvem.harmonic_fem import p1_stiffness, subtriangulate
from polyvem.mesh import FAMILIES, MeshFamilySpec, generate
from polyvem.solver import PROBLEMS, apply_dirichlet, assemble

from conftest import captured_triplets, dense, traced_peak


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


def test_from_triplets_rejects_a_nan_pair():
    # a NaN and its NaN mirror differ by NaN, which is not within any
    # tolerance: the matrix is not built, so CG never runs on it
    rows, cols = [0, 0, 1, 1, 1, 2, 2], [0, 1, 0, 1, 2, 1, 2]
    vals = [2.0, np.nan, np.nan, 2.0, -1.0, -1.0, 2.0]
    with pytest.raises(AsymmetricMatrix, match=(
            r"^triplets are not symmetric \(residual nan against max "
            r"entry nan\)$")):
        SparseSymMatrix.from_triplets(3, rows, cols, vals)


def test_from_triplets_rejects_triplet_arrays_of_unequal_length():
    with pytest.raises(ValueError, match="must have equal length"):
        SparseSymMatrix.from_triplets(2, [0, 1], [0, 1], [1.0])


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
    rows = new_id[np.repeat(np.arange(n), np.diff(A.indptr))]
    cols = new_id[A.indices]
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


@pytest.mark.parametrize("keep", [
    np.array([False, True]), np.array([False, True, True]), [0.0, 2.0]])
def test_restrict_rejects_keep_that_is_not_integer(keep):
    # a boolean mask is not read as the indices 0 and 1
    A = SparseSymMatrix.from_triplets(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="integer indices"):
        A.restrict(keep)


@pytest.mark.parametrize("length", [0, 2, 4])
def test_product_and_cg_reject_a_vector_of_another_length(length):
    A = SparseSymMatrix.from_triplets(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    message = rf"shape \({length},\), matrix of size 3"
    with pytest.raises(ValueError, match=message):
        A @ np.ones(length)
    with pytest.raises(ValueError, match=message):
        cg_solve(A, np.ones(length))


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
    """y = 0, then y[i] = y[i] + data[k] * x[indices[k]] for the entries
    k of each row i in CSR order."""
    lengths = np.diff(A.indptr)
    y = np.zeros(A.n)
    for j in range(lengths.max(initial=0)):
        rows = np.flatnonzero(lengths > j)
        k = A.indptr[rows] + j
        y[rows] = y[rows] + A.data[k] * x[A.indices[k]]
    return y


def _below_the_cap(A):
    """Whether cg_solve runs A's products on its row-padded copy: no row
    is longer than twice the mean row length."""
    return np.diff(A.indptr).max(initial=0) <= 2 * A.nnz // max(A.n, 1)


def _assert_matvec_matches_dense(A, x):
    # each row sums in storage order, bit for bit, and so does the
    # product that cg_solve runs on A
    assert np.array_equal(A @ x, _storage_order_matvec(A, x))
    assert np.array_equal(linalg._padded_matvec(A)(x), A @ x)
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
    n = 20000
    A = _random_symmetric(rng, n, 100000)
    x = rng.standard_normal(n)
    assert np.array_equal(A @ x, _storage_order_matvec(A, x))
    # every row couples to the rows 4 offsets away on either side, so
    # holds 9 entries: below the cap, cg_solve's padded copy is 20000
    # columns of 9 slots, many einsum buffers
    r = np.repeat(np.arange(n), 4)
    c = (r + np.tile(rng.choice(np.arange(1, n // 2), 4, False), n)) % n
    v = rng.standard_normal(len(r))
    A = SparseSymMatrix.from_triplets(n, np.r_[r, c, np.arange(n)],
                                      np.r_[c, r, np.arange(n)],
                                      np.r_[v, v, np.full(n, 10.0)])
    assert _below_the_cap(A) and np.diff(A.indptr).max() == 9
    assert np.array_equal(linalg._padded_matvec(A)(x),
                          _storage_order_matvec(A, x))


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
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    csr = np.bincount(rows, weights=A.data * x[A.indices], minlength=n)
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
    x = np.random.default_rng(5).standard_normal(n)
    _assert_matvec_matches_dense(A, x)
    assert not _below_the_cap(A)
    # padding every row to the hub's width would take 16 * n**2 bytes,
    # 64 MB; CG's vectors and one product's temporaries take ~0.2 MB
    assert traced_peak(lambda: cg_solve(A, np.ones(n))) <= 1 << 20
    res = cg_solve(A, np.ones(n))
    assert res.converged
    assert np.allclose(dense(A) @ res.x, 1.0, rtol=0, atol=1e-10)


def test_products_and_cg_leave_the_matrix_as_built():
    # the 1D Laplacian: SPD, and below the cap, so CG pads a copy
    n = 50
    i = np.arange(n - 1)
    A = SparseSymMatrix.from_triplets(
        n, np.r_[np.arange(n), i, i + 1], np.r_[np.arange(n), i + 1, i],
        np.r_[np.full(n, 2.0), -np.ones(2 * (n - 1))])
    before = dict(vars(A))
    A @ np.ones(n)
    assert cg_solve(A, np.ones(n)).iterations > 0
    assert vars(A).keys() == before.keys()
    assert all(vars(A)[name] is value for name, value in before.items())


def test_a_matrix_holds_only_n_and_its_csr_arrays():
    # built from triplets, from the assembly's keys, by restrict and with
    # no entries: each is n, indptr, indices and data, and nothing more
    A, _ = assemble(generate(MeshFamilySpec("hexagon", 4)),
                    PROBLEMS["sinsin"]())
    for M in (A, A.restrict(np.arange(0, A.n, 2)),
              SparseSymMatrix.from_triplets(2, [0, 1], [0, 1], [1.0, 2.0]),
              SparseSymMatrix.from_triplets(0, [], [], [])):
        assert vars(M).keys() == {"n", "indptr", "indices", "data"}


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


def test_from_triplets_matches_the_searchsorted_reference_in_one_build(
        monkeypatch):
    # from_triplets checks its sums against their mirrors, an absent
    # mirror reading 0, and builds the matrix in one pass over the
    # triplets as given, whether or not the pattern is symmetric. On
    # triplet sets with missing mirrors, duplicates and entries small
    # enough to be dropped, it must give what a stable sort and numpy's
    # own search give: the same arrays or the same error
    # every build goes through _from_keys
    calls = []
    real = SparseSymMatrix._from_keys.__func__

    def spy(cls, n, keys, values):
        calls.append(n)
        return real(cls, n, keys, values)

    monkeypatch.setattr(SparseSymMatrix, "_from_keys", classmethod(spy))
    rng = np.random.default_rng(8)
    sets, most = 20000, 11
    sizes = rng.integers(1, 9, sets)
    counts = rng.integers(0, most + 1, sets)
    pool = zip(rng.random((sets, 2, most)),
               rng.choice([1.0, -0.5, 1e-310], (sets, most)),
               rng.random((sets, most)) < 0.8)
    symmetric, patterns = 0, {True: 0, False: 0}
    for n, m, (u, v, mirrored) in zip(sizes, counts, pool):
        r, c = (u[:, :m] * n).astype(np.int64)
        v, mirrored = v[:m], mirrored[:m]
        # mirror most entries, so that some sets pass the symmetry check
        r, c = np.r_[r, c[mirrored]], np.r_[c, r[mirrored]]
        v = np.r_[v, v[mirrored]]
        pattern = set(zip(r.tolist(), c.tolist()))
        patterns[pattern == {(j, i) for i, j in pattern}] += 1
        calls.clear()
        try:
            want = _reference_from_triplets(n, r, c, v)
        except AsymmetricMatrix as exc:
            with pytest.raises(AsymmetricMatrix) as got:
                SparseSymMatrix.from_triplets(n, r, c, v)
            assert str(got.value) == str(exc)
            assert calls == []
            continue
        A = SparseSymMatrix.from_triplets(n, r, c, v)
        assert calls == [n]
        for got, ref in zip((A.indptr, A.indices, A.data), want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        symmetric += 1
    assert 0 < symmetric < sets
    assert patterns[True] > 0 and patterns[False] > 0


def test_an_asymmetric_pattern_keeps_the_sums_of_its_duplicates():
    # (0, 1) and (1, 0) each come twelve times; (2, 0) is too small to
    # break the symmetry check but has no mirror. The check adds one
    # zero per summed entry, so each sum it sees stays numpy's sum of
    # the given values (a zero per triplet would regroup numpy's
    # pairwise sum), and the matrix is summed from the triplets alone
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
    # the oracle's sub-mesh triplets; the oracle sums them on a cached
    # plan, so this build passes them to from_triplets itself
    mesh = generate(MeshFamilySpec(family, 4, seed=7))
    sub = subtriangulate(mesh.vertices[mesh.cells[mesh.n_cells // 2]], 4)
    t = sub.triangles
    return lambda: SparseSymMatrix.from_triplets(
        len(sub.points), np.repeat(t, 3, axis=1), np.tile(t, (1, 3)),
        p1_stiffness(sub.points[t]))


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


@pytest.mark.parametrize("pattern", ["symmetric", "asymmetric"])
def test_from_triplets_gives_the_same_matrix_after_a_stable_argsort(
        monkeypatch, pattern):
    # where key << t | place would pass 63 bits, as on a mesh of about a
    # million vertices, the keys are sorted by the stable argsort, t = 0,
    # and the runs and sums, the symmetry check's included, are read from
    # that order; a bound of 2**62 forces that branch on a small matrix
    if pattern == "symmetric":
        [(n, rows, cols, values)] = captured_triplets(monkeypatch,
                                                      _assembly("hexagon"))
    else:
        # mirrored pairs, and entries too small to count with no mirror
        rng = np.random.default_rng(4)
        n, (r, c) = 200, rng.integers(0, 200, (2, 3000))
        v = rng.random(3000)
        rows, cols = np.r_[r, c, c[:100]], np.r_[c, r, c[:100] // 2]
        values = np.r_[v, v, np.full(100, 1e-310)]
        entries = set(zip(rows.tolist(), cols.tolist()))
        assert entries != {(j, i) for i, j in entries}
    want = _reference_from_triplets(n, rows, cols, values)
    real = linalg._stable_sort
    monkeypatch.setattr(linalg, "_stable_sort",
                        lambda keys, bound: real(keys, 2 ** 62))
    A = SparseSymMatrix.from_triplets(n, rows, cols, values)
    for got, ref in zip((A.indptr, A.indices, A.data), want):
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
        # the keys are sorted in place, so it gets a copy
        sorted_keys, order = _stable_order(keys.copy(), b)
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


@pytest.mark.parametrize("tol", [2.0, 1.0, 0.0, -1e-3, math.nan, math.inf])
def test_cg_rejects_a_tolerance_outside_the_open_unit_interval(tol):
    # tol=2 would stop after one iteration, and tol=nan would run to the
    # iteration cap; a zero right-hand side does not skip the check
    A = SparseSymMatrix.from_triplets(2, [0, 1], [0, 1], [1.0, 2.0])
    for b in (np.ones(2), np.zeros(2)):
        with pytest.raises(ValueError, match=r"^tol must lie in \(0, 1\)"):
            cg_solve(A, b, tol=tol)


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
    res = cg_solve(A, b, tol=1e-12)
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
    # no residual reaches 1e-300 |b|, so CG stops at its cap of 10 n
    res = cg_solve(A, np.ones(30), tol=1e-300)
    assert not res.converged
    assert res.iterations == 300


def _reference_cg(A, b, tol=1e-12, x0=None):
    """The out-of-place Jacobi-CG loop that cg_solve's in-place one must
    match bit for bit: (x, iterations, residual)."""
    nb = float(np.linalg.norm(b))
    minv = 1.0 / A.diagonal()
    x = np.zeros(A.n) if x0 is None else x0.copy()
    r = b - A @ x
    if float(np.linalg.norm(r)) <= tol * nb:
        return x, 0, float(np.linalg.norm(r)) / nb
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
    lambda: _interior_system("triangle", 16),
    lambda: _interior_system("hanging_node", 16),
    _random_spd_system,
], ids=["hexagon16", "perturbed_quad16_seed7", "triangle16", "hanging_node16",
        "random_spd"])
def test_cg_matches_the_out_of_place_loop_bitwise(system):
    # from zero, and from a start vector: CG's loose solve
    A, b = system()
    for x0 in (None, cg_solve(A, b, tol=1e-2).x):
        x, iterations, residual = _reference_cg(A, b, x0=x0)
        res = cg_solve(A, b, x0=x0)
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


def test_cg_from_a_start_that_already_passes_does_not_iterate():
    A, b = _random_spd_system()
    exact = cg_solve(A, b, tol=1e-14).x
    res = cg_solve(A, b, tol=1e-8, x0=exact)
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.x, exact)
    assert res.residual == pytest.approx(
        np.linalg.norm(b - A @ exact) / np.linalg.norm(b), rel=1e-12)
    assert res.residual <= 1e-8


def test_cg_with_a_zero_right_hand_side_returns_zero_whatever_its_start():
    A, _ = _random_spd_system()
    for x0 in (np.ones(A.n), np.full(A.n, np.nan)):
        res = cg_solve(A, np.zeros(A.n), x0=x0)
        assert res.converged and res.iterations == 0
        assert np.array_equal(res.x, np.zeros(A.n))


@pytest.mark.parametrize("system", [
    lambda: _interior_system("hexagon", 16),
    _random_spd_system,
], ids=["hexagon16", "random_spd"])
def test_cg_from_a_start_takes_the_iterations_of_a_solve_for_the_correction(
        system):
    # the residuals from x0 are those of a solve from zero on
    # b' = b - A x0, and the test |r| <= tol |b| is |r| <= tol' |b'| for
    # tol' = tol |b| / |b'|
    A, b = system()
    x0 = cg_solve(A, b, tol=1e-3).x
    residual = b - A @ x0
    nb, nr = np.linalg.norm(b), np.linalg.norm(residual)
    start = cg_solve(A, b, tol=1e-10, x0=x0)
    correction = cg_solve(A, residual, tol=1e-10 * nb / nr)
    assert start.converged and correction.converged
    assert start.iterations == correction.iterations > 10
    assert np.abs(start.x - (x0 + correction.x)).max() <= (
        1e-12 * np.abs(start.x).max())


def test_cg_neither_writes_to_its_start_nor_takes_one_of_another_length():
    A, b = _random_spd_system()
    x0 = np.ones(A.n)
    x0.flags.writeable = False
    assert cg_solve(A, b, x0=x0).converged
    assert np.array_equal(x0, np.ones(A.n))
    for bad in (np.ones(A.n - 1), np.ones((A.n, 1))):
        with pytest.raises(ValueError, match="^vector of shape"):
            cg_solve(A, b, x0=bad)


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


def test_eigen_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="must be square"):
        dense_sym_eigen(np.ones((2, 3)))


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


def test_generalized_bounds_reference_singular_beyond_the_constants():
    # two disjoint edges: the reference also vanishes on (1, 1, -1, -1)
    M = np.kron(np.eye(2), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(KernelMismatch,
                       match="singular beyond the declared kernel"):
        generalized_eig_bounds(M, M)
