"""Dependency-light linear algebra for symmetric systems.

Everything here is deterministic: no pivoting heuristics, no randomized
starts, and summation orders fixed by the data layout (every sparse
product sums each row's entries in storage order), so repeated runs
produce bit-identical results.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricMatrix,
    IndexOutOfRange,
    KernelMismatch,
    NoConvergence,
    ZeroDiagonal,
)

# entries smaller than this are treated as structural zeros
_DROP_TOL = 1e-300

# runs per block of the gather-sum over a matrix build's sorted keys, so
# its gathered copy of the values stays small whatever the matrix size
_BLOCK = 1 << 12


def _key_bits(n):
    """The shift s of the key row << s | col of a position in an n x n
    matrix."""
    return max(int(n) - 1, 0).bit_length()


def _stable_sort(keys, bound):
    """Sort keys (int64, in [0, bound)) in place, stably, and return
    (t, positions): afterwards keys >> t are the sorted keys, and
    positions(part) gives where the sorted entries of the slice part
    stood. Where key << t | place fits in 63 bits, t is the bit length
    of the last place and the low t bits hold the place: a unique word
    has one sorted order, which numpy's default sort finds several times
    faster than the stable argsort. Otherwise t is 0 and the places come
    from that argsort."""
    t = max(len(keys) - 1, 0).bit_length()
    if max(bound - 1, 0).bit_length() + t <= 63:
        keys <<= t
        keys |= np.arange(len(keys))
        keys.sort()
        return t, lambda part: keys[part] & ((1 << t) - 1)
    order = np.argsort(keys, kind="stable")
    keys[:] = keys[order]
    return 0, order.__getitem__


def _stable_order(keys, bound):
    """(keys, order), keys (int64, in [0, bound)) sorted in place and
    order = np.argsort(keys, kind="stable") of the keys as given."""
    t, positions = _stable_sort(keys, bound)
    order = positions(slice(None))
    keys >>= t
    return keys, order


def _mirrors(keys, s):
    """The key c << s | r of the mirror of each key r << s | c."""
    return (keys & ((1 << s) - 1)) << s | keys >> s


def _sum_runs(keys, values, bound):
    """(keys, sums): the distinct keys in ascending order, written over
    the front of keys, and the sum of each one's values in their given
    order. keys (int64, in [0, bound)) is sorted in place."""
    t, positions = _stable_sort(keys, bound)
    # a run of equal keys starts where a key differs from the one before;
    # len(keys) closes the last run
    starts = np.empty(len(keys) + 1, dtype=bool)
    starts[0] = starts[-1] = True
    np.greater(keys[1:] ^ keys[:-1], (1 << t) - 1, out=starts[1:-1])
    bounds = np.flatnonzero(starts)
    del starts
    # a block of runs at a time, so no sorted copy of every value is
    # made; a block's keys land before any run that a later block reads
    sums = np.empty(len(bounds) - 1)
    for lo in range(0, len(sums), _BLOCK):
        run = bounds[lo:lo + _BLOCK + 1]
        part = slice(lo, lo + len(run) - 1)
        sums[part] = np.add.reduceat(
            values[positions(slice(run[0], run[-1]))], run[:-1] - run[0])
        keys[part] = keys[run[:-1]] >> t
    return keys[:len(sums)], sums


def _check_symmetric(v, resid):
    """Raise AsymmetricMatrix unless resid, v less its mirrors (arrays of
    any shape, read in C order), is within 1e-14 of max |v|. resid is
    antisymmetric, so its first worst entry, the one named, lies above
    the diagonal (of its block, in a stack of blocks)."""
    worst = resid.flat[np.abs(resid).argmax()] if resid.size else 0.0
    vmax = float(np.abs(v).max(initial=0.0))
    if abs(worst) > 1e-14 * vmax:
        raise AsymmetricMatrix(
            f"triplets are not symmetric (residual {worst:.3e} "
            f"against max entry {vmax:.3e})")


def _vector(A, x):
    """x as a float vector, which must have A's length."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n,):
        raise ValueError(f"vector of shape {x.shape}, matrix of size {A.n}")
    return x


class SparseSymMatrix:
    """Symmetric sparse matrix in CSR form, full (not triangular) storage.

    Immutable: it holds n and the CSR arrays indptr, indices and data,
    fixed once built, and nothing else; a method that needs each entry's
    row reads it from indptr. A @ x sums each row's entries in storage
    order. Its builders keep it symmetric: each checks the blocks or
    the triplet sums it is built from, not the CSR it builds."""

    def __init__(self, n, indptr, indices, data):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.data = data

    @classmethod
    def from_triplets(cls, n, rows, cols, values):
        """Build from (row, col, value) triplets.

        Duplicate positions are summed, the sums must be symmetric to
        1e-14 relative to the largest (an absent mirror reads 0), and
        entries below 1e-300 in magnitude are then dropped.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError("rows, cols, values must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= n
                          or cols.min() < 0 or cols.max() >= n):
            raise IndexOutOfRange(f"triplet index outside [0, {n})")
        s = _key_bits(n)
        keys = rows << s
        keys |= cols
        # the sums, then each summed entry's zero mirror added, so the
        # pattern is symmetric and an absent mirror reads 0: v + 0 is v
        summed, v = _sum_runs(keys.copy(), values, 1 << 2 * s)
        summed, v = _sum_runs(np.r_[summed, _mirrors(summed, s)],
                              np.r_[v, np.zeros(len(v))], 1 << 2 * s)
        _check_symmetric(
            v, v - v[np.searchsorted(summed, _mirrors(summed, s))])
        return cls._from_keys(n, keys, values)

    @classmethod
    def _from_keys(cls, n, keys, values):
        """The matrix of the summed values (float64) at the keys
        row << s | col, s = _key_bits(n) (int64, in range), less sums
        below 1e-300, unchecked: its builder checks symmetry. The keys
        are sorted in place; the matrix keeps no view of either array."""
        s = _key_bits(n)
        keys, v = _sum_runs(keys, values, 1 << 2 * s)
        keep = np.abs(v) >= _DROP_TOL
        if not keep.all():
            keys, v = keys[keep], v[keep]
        del keep
        c = keys & ((1 << s) - 1)
        indptr = np.searchsorted(np.right_shift(keys, s, out=keys),
                                 np.arange(n + 1))
        del keys
        return cls(n, indptr, c, v)

    @property
    def nnz(self):
        return len(self.data)

    def __matmul__(self, x):
        x = _vector(self, x)
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        # y = 0, then y[row] += data[k] * x[col] in storage order; with no
        # entries bincount gives int zeros
        return np.bincount(rows, weights=self.data * x[self.indices],
                           minlength=self.n).astype(float, copy=False)

    def diagonal(self):
        d = np.zeros(self.n)
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        on_diag = rows == self.indices
        d[self.indices[on_diag]] = self.data[on_diag]
        return d

    def restrict(self, keep):
        """Principal submatrix on a strictly increasing index set: a slice
        of sorted, unique, symmetric rows, so nothing is sorted or checked
        again."""
        if len(keep) and np.asarray(keep).dtype.kind not in "iu":
            raise ValueError("keep must hold integer indices")
        keep = np.asarray(keep, dtype=np.int64)
        if np.any(np.diff(keep) <= 0):
            raise ValueError("keep must be strictly increasing")
        if len(keep) and (keep[0] < 0 or keep[-1] >= self.n):
            raise IndexOutOfRange(f"restrict index outside [0, {self.n})")
        new_id = -np.ones(self.n, dtype=np.int64)
        new_id[keep] = np.arange(len(keep))
        # an entry stays where its row and its column do; a kept row
        # starts after the kept entries that stand before its old start
        mask = np.repeat(new_id >= 0, np.diff(self.indptr))
        cols = new_id[self.indices]
        mask &= cols >= 0
        cols = cols[mask]
        indptr = np.r_[0, np.cumsum(mask)][self.indptr[np.r_[keep, self.n]]]
        return SparseSymMatrix(len(keep), indptr, cols, self.data[mask])


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residual: float  # final residual norm relative to |b|
    converged: bool


def _padded_matvec(A):
    """cg_solve's A @ x, on a row-padded (ELL) copy of A stored by
    column: row i's entries fill column i of two (width, n) arrays in
    storage order, padded with column i and value 0, so each row sums as
    in A @ x, and a non-finite x[j] reaches the same rows wherever the
    diagonal is stored. The gather and the result reuse two buffers, so
    a product allocates nothing, and the next product overwrites the
    result. No row is padded past twice the mean length: where one is
    longer, the kernel is A @ x itself."""
    lengths = np.diff(A.indptr)
    width = int(lengths.max(initial=0))
    if width > 2 * A.nnz // max(A.n, 1):
        return A.__matmul__
    filled = np.arange(width) < lengths[:, None]
    cols = np.repeat(np.arange(A.n)[None, :], width, 0)
    vals = np.zeros((width, A.n))
    # filled through the (n, width) views, so row by row as in CSR
    cols.T[filled] = A.indices
    vals.T[filled] = A.data
    gathered, y = np.empty((width, A.n)), np.empty(A.n)
    # take never wraps: every stored column lies in [0, n)
    return lambda x: np.einsum(
        "ji,ji->i", vals, x.take(cols, None, gathered, "wrap"), out=y)


def cg_solve(A, b, tol=1e-12, x0=None):
    """Conjugate gradients with Jacobi preconditioning.

    Starts from x0 (not written to), or from zero, measures convergence
    as |r| <= tol * |b|, stops unconverged after 10 n iterations, and is
    fully deterministic. A start that passes returns after 0 iterations,
    and a zero right-hand side returns the zero vector whatever x0 is.
    Raises ValueError unless 0 < tol < 1 and b and x0 have A's length,
    and ZeroDiagonal if the preconditioner cannot be formed. Its
    products run on a row-padded copy of A, made on entry.
    """
    if not 0.0 < tol < 1.0:  # also rejects NaN
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    b = _vector(A, b)
    if x0 is not None:
        x0 = _vector(A, x0)
    n = A.n
    max_iter = 10 * n
    # CG runs on b * 2^-e with the largest |b_i| in [0.5, 1), so its dot
    # products cannot overflow; a power of two scales every iterate,
    # alpha and beta exactly, and x is scaled back on return
    e = int(np.frexp(np.abs(b).max(initial=0.0))[1])
    b = np.ldexp(b, -e)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return CGResult(np.zeros(n), 0, 0.0, True)
    diag = A.diagonal()
    bad = np.nonzero(diag <= 0.0)[0]
    if bad.size:
        raise ZeroDiagonal(f"row {int(bad[0])} has nonpositive diagonal")
    minv = 1.0 / diag
    matvec = _padded_matvec(A)

    def result(iterations, rn, converged):
        return CGResult(np.ldexp(x, e, out=x), iterations, rn / nb, converged)

    # x, r, z and p are updated in place through one scratch vector; each
    # update rounds exactly as its out-of-place form (a + b == b + a).
    # x0 is scaled as b is, and a start that passes needs no iteration
    if x0 is None:
        x = np.zeros(n)
        r = b
    else:
        x = np.ldexp(x0, -e)
        r = b - matvec(x)
        rn = math.sqrt(r @ r)
        if rn <= tol * nb:
            return result(0, rn, True)
    z = minv * r
    p = z.copy()
    scratch = np.empty(n)
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        q = matvec(p)
        pq = float(p @ q)
        if not pq > 0.0:  # also stops at the first NaN
            return result(it - 1, math.sqrt(r @ r), False)
        alpha = rz / pq
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, q, out=scratch)
        rn = math.sqrt(r @ r)
        if rn <= tol * nb:
            return result(it, rn, True)
        np.multiply(minv, r, out=z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    return result(max_iter, math.sqrt(r @ r), False)


def dense_sym_eigen(M, compute_vectors=False):
    """Eigen-decomposition of a dense symmetric matrix (LAPACK via eigh).

    Returns ascending eigenvalues (and, on request, the orthonormal
    eigenvector columns in matching order).
    """
    A = np.array(M, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.isfinite(A).all():
        raise NoConvergence("eigensolver input is not finite")
    norm = float(np.linalg.norm(A))
    if norm > 0 and np.abs(A - A.T).max() > 1e-12 * norm:
        raise AsymmetricMatrix("eigensolver input is not symmetric")
    A = 0.5 * (A + A.T)
    if compute_vectors:
        return np.linalg.eigh(A)
    return np.linalg.eigvalsh(A)


def generalized_eig_bounds(A, M):
    """Extreme eigenvalues of A u = lambda M u away from the constants.

    Both matrices must be symmetric positive semidefinite with the
    constants as their only kernel. The pencil is reduced to the
    orthogonal complement of the constants, whitened by the reference
    matrix M, and solved densely. Returns (smallest, largest).
    """
    A = np.asarray(A, dtype=float)
    M = np.asarray(M, dtype=float)
    n = A.shape[0]
    mnorm = float(np.linalg.norm(M))
    root = math.sqrt(n)
    if mnorm > 0 and np.linalg.norm(M @ np.ones(n)) > 1e-8 * mnorm * root:
        raise KernelMismatch(
            "reference matrix does not vanish on the declared kernel")
    # the Householder reflection that swaps e_1 and ones / sqrt(n); its
    # last n - 1 columns span the complement of the constants
    v = np.full(n, 1.0 / root)
    v[0] -= 1.0
    Q = (np.eye(n) - (2.0 / float(v @ v)) * np.outer(v, v))[:, 1:]
    A = Q.T @ A @ Q
    M = Q.T @ M @ Q
    lam, U = dense_sym_eigen(M, compute_vectors=True)
    if lam[0] <= 1e-12 * max(lam[-1], 0.0):
        raise KernelMismatch(
            "reference matrix is singular beyond the declared kernel")
    W = U / np.sqrt(lam)[None, :]
    C = W.T @ A @ W
    ev = dense_sym_eigen(0.5 * (C + C.T))
    return float(ev[0]), float(ev[-1])
