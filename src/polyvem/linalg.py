"""Dependency-light linear algebra for symmetric systems.

Everything here is deterministic: no pivoting heuristics, no randomized
starts, and summation orders fixed by the data layout (the matvec sums
each row's entries in storage order), so repeated runs produce
bit-identical results.
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


def _stable_order(keys, bound):
    """(keys[order], order) with order = np.argsort(keys, kind="stable"),
    for keys in [0, bound). Where it fits in 63 bits, this sorts the
    unique words key << t | position in place instead, t the bit length
    of the last position: a unique word has one sorted order, numpy's
    default sort finds it several times faster than the stable argsort,
    and the sorted words hold both the sorted keys and the order."""
    t = max(len(keys) - 1, 0).bit_length()
    if max(bound - 1, 0).bit_length() + t <= 63:
        words = keys << t
        words |= np.arange(len(keys))
        words.sort()
        order = words & ((1 << t) - 1)
        words >>= t
        return words, order
    order = np.argsort(keys, kind="stable")
    return keys[order], order


class SparseSymMatrix:
    """Symmetric sparse matrix in CSR form, full (not triangular) storage.

    The CSR arrays are fixed once set; the matvec reads a row-padded copy
    built alongside them."""

    def __init__(self, n, indptr, indices, data):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        lengths = np.diff(indptr)
        self._row_of = np.repeat(np.arange(self.n), lengths)
        # row-padded (ELL) copy for the matvec, stored by column: the
        # first `width` entries of row i sit in column i of two
        # (width, n) arrays, padded with column index i and value 0.
        # Padding reads the row's own x[i], so where the diagonal is
        # stored a non-finite x[j] makes the same rows non-finite as the
        # CSR product does. Capping width at twice the mean row length
        # keeps one long row from padding every other; the entries past
        # the cap go to an overflow list.
        longest = int(lengths.max(initial=0))
        width = min(longest, 2 * self.nnz // max(self.n, 1))
        cols, vals, self._overflow = indices, data, None
        if width < longest:
            over = np.arange(self.nnz) - indptr[self._row_of] >= width
            self._overflow = (self._row_of[over], cols[over], vals[over])
            cols, vals = cols[~over], vals[~over]
        filled = np.arange(width) < lengths[:, None]
        self._ell_cols = np.repeat(np.arange(self.n)[None, :], width, 0)
        self._ell_vals = np.zeros((width, self.n))
        # filled through the (n, width) views, so row by row as in CSR
        self._ell_cols.T[filled] = cols
        self._ell_vals.T[filled] = vals

    @classmethod
    def from_triplets(cls, n, rows, cols, values):
        """Build from (row, col, value) triplets.

        Duplicate positions are summed, entries below 1e-300 in magnitude
        are dropped, and the summed data must be symmetric to 1e-14
        relative to the largest entry.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError("rows, cols, values must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= n
                          or cols.min() < 0 or cols.max() >= n):
            raise IndexOutOfRange(f"triplet index outside [0, {n})")

        # position (r, c) has the key r << s | c; each temporary is
        # deleted at its last use, which bounds the peak
        s = max(int(n) - 1, 0).bit_length()
        bound = 1 << 2 * s
        keys = rows << s
        keys |= cols
        keys, order = _stable_order(keys, bound)
        starts = np.empty(len(keys), dtype=bool)
        starts[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=starts[1:])
        starts = np.flatnonzero(starts)
        keys = keys[starts]
        v = np.add.reduceat(values[order], starts) if len(keys) else values
        del order, starts

        # symmetry: R = A - A^T must vanish to round-off. The mirror of
        # key r << s | c is c << s | r, and key < mirror iff r < c
        mask = (1 << s) - 1
        mirror = keys & mask
        mirror <<= s
        mirror |= keys >> s
        # on a symmetric pattern the sorted mirrors are the sorted keys,
        # and inverting the mirrors' sort order finds each one
        sorted_mirror, perm = _stable_order(mirror, bound)
        if not np.array_equal(sorted_mirror, keys):
            # give every summed entry an explicit zero mirror and build
            # again: v + 0 is v, an absent mirror reads 0, and the zeros
            # fall under the drop rule
            del rows, cols, values, sorted_mirror, perm
            keys = np.r_[keys, mirror]
            del mirror
            return cls.from_triplets(n, keys >> s, keys & mask,
                                     np.r_[v, np.zeros(len(v))])
        del sorted_mirror
        at = np.empty_like(perm)
        at[perm] = np.arange(len(perm))
        del perm
        resid = v - v[at]
        del at
        vmax = float(np.abs(v).max()) if len(v) else 0.0
        if vmax > 0 and np.abs(resid).max() > 1e-14 * vmax:
            # R is antisymmetric: its first worst entry in (row, col)
            # order lies above the diagonal
            hit = np.flatnonzero(np.abs(resid) == np.abs(resid).max())
            k = hit[np.minimum(keys, mirror)[hit].argmin()]
            worst = resid[k] if keys[k] < mirror[k] else -resid[k]
            raise AsymmetricMatrix(
                f"triplets are not symmetric (residual {worst:.3e} "
                f"against max entry {vmax:.3e})")
        del resid, mirror
        c = keys & mask
        r = np.right_shift(keys, s, out=keys)

        keep = np.abs(v) >= _DROP_TOL
        if not keep.all():
            r, c, v = r[keep], c[keep], v[keep]
        return cls(n, np.searchsorted(r, np.arange(n + 1)), c, v)

    @property
    def nnz(self):
        return len(self.data)

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        # y = 0, then y += vals[j] * x[cols[j]] for j = 0, 1, ...: each
        # row sums its entries in storage order. take never wraps, as
        # every stored column index lies in [0, n)
        y = np.einsum("ji,ji->i", self._ell_vals,
                      np.take(x, self._ell_cols, mode="wrap"))
        if self._overflow is not None:
            rows, cols, vals = self._overflow
            y += np.bincount(rows, weights=vals * x[cols], minlength=self.n)
        return y

    def __matmul__(self, x):
        return self.matvec(x)

    def diagonal(self):
        d = np.zeros(self.n)
        on_diag = self._row_of == self.indices
        d[self._row_of[on_diag]] = self.data[on_diag]
        return d

    def restrict(self, keep):
        """Principal submatrix on a strictly increasing index set: a slice
        of sorted, unique, symmetric rows, so nothing is sorted or checked
        again."""
        keep = np.asarray(keep, dtype=np.int64)
        if np.any(np.diff(keep) <= 0):
            raise ValueError("keep must be strictly increasing")
        if len(keep) and (keep[0] < 0 or keep[-1] >= self.n):
            raise IndexOutOfRange(f"restrict index outside [0, {self.n})")
        new_id = -np.ones(self.n, dtype=np.int64)
        new_id[keep] = np.arange(len(keep))
        rows, cols = new_id[self._row_of], new_id[self.indices]
        mask = (rows >= 0) & (cols >= 0)
        return SparseSymMatrix(
            len(keep), np.searchsorted(rows[mask], np.arange(len(keep) + 1)),
            cols[mask], self.data[mask])


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residual: float  # final residual norm relative to |b|
    converged: bool


def cg_solve(A, b, tol=1e-12, max_iter=None):
    """Conjugate gradients with Jacobi preconditioning.

    Starts from zero, measures convergence as |r| <= tol * |b|, and is
    fully deterministic. A zero right-hand side returns the zero vector
    without iterating. Raises ZeroDiagonal if the preconditioner cannot
    be formed.
    """
    b = np.asarray(b, dtype=float)
    n = A.n
    if max_iter is None:
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

    # x, r, z and p are updated in place through one scratch vector; each
    # update rounds exactly as its out-of-place form (a + b == b + a)
    x = np.zeros(n)
    r = b
    z = minv * r
    p = z.copy()
    scratch = np.empty(n)

    def result(iterations, rn, converged):
        return CGResult(np.ldexp(x, e, out=x), iterations, rn / nb, converged)

    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        q = A @ p
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
