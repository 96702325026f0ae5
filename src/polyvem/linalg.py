"""Dependency-light linear algebra for symmetric systems.

Everything here is deterministic: no pivoting heuristics, no randomized
starts, and summation orders fixed by the data layout, so repeated runs
produce bit-identical results.
"""

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


def _canonical(n, rows, cols, values):
    """Sort triplets by (row, col) and sum duplicates."""
    keys = rows.astype(np.int64) * n + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = values[order]
    if not len(keys):
        return keys, keys, vals
    starts = np.r_[0, np.nonzero(np.diff(keys))[0] + 1]
    sums = np.add.reduceat(vals, starts)
    kept = keys[starts]
    return kept // n, kept % n, sums


class SparseSymMatrix:
    """Symmetric sparse matrix in CSR form, full (not triangular) storage."""

    def __init__(self, n, indptr, indices, data):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._row_of = np.repeat(np.arange(self.n), np.diff(indptr))

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

        r, c, v = _canonical(n, rows, cols, values)

        # symmetry: merging A with -A^T must cancel to round-off
        vmax = float(np.abs(v).max()) if len(v) else 0.0
        _, _, resid = _canonical(
            n, np.r_[r, c], np.r_[c, r], np.r_[v, -v])
        if len(resid) and vmax > 0 and np.abs(resid).max() > 1e-14 * vmax:
            worst = int(np.abs(resid).argmax())
            raise AsymmetricMatrix(
                f"triplets are not symmetric (residual {resid[worst]:.3e} "
                f"against max entry {vmax:.3e})")

        keep = np.abs(v) >= _DROP_TOL
        r, c, v = r[keep], c[keep], v[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, r + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n, indptr, c.astype(np.int64), v)

    @property
    def nnz(self):
        return len(self.data)

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        prod = self.data * x[self.indices]
        # bincount gives int64 when there are no weights at all
        return np.bincount(self._row_of, weights=prod,
                           minlength=self.n).astype(float, copy=False)

    def __matmul__(self, x):
        return self.matvec(x)

    def diagonal(self):
        d = np.zeros(self.n)
        on_diag = self._row_of == self.indices
        d[self._row_of[on_diag]] = self.data[on_diag]
        return d

    def to_dense(self):
        a = np.zeros((self.n, self.n))
        a[self._row_of, self.indices] = self.data
        return a

    def restrict(self, keep):
        """Submatrix on the given (sorted, unique) index set."""
        keep = np.asarray(keep, dtype=np.int64)
        new_id = -np.ones(self.n, dtype=np.int64)
        new_id[keep] = np.arange(len(keep))
        mask = (new_id[self._row_of] >= 0) & (new_id[self.indices] >= 0)
        return SparseSymMatrix.from_triplets(
            len(keep),
            new_id[self._row_of[mask]],
            new_id[self.indices[mask]],
            self.data[mask])


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
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return CGResult(np.zeros(n), 0, 0.0, True)
    diag = A.diagonal()
    bad = np.nonzero(diag <= 0.0)[0]
    if bad.size:
        raise ZeroDiagonal(f"row {int(bad[0])} has nonpositive diagonal")
    minv = 1.0 / diag

    x = np.zeros(n)
    r = b.copy()
    z = minv * r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        q = A @ p
        pq = float(p @ q)
        if pq <= 0.0:
            return CGResult(x, it - 1, float(np.linalg.norm(r)) / nb, False)
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rn = float(np.linalg.norm(r))
        if rn <= tol * nb:
            return CGResult(x, it, rn / nb, True)
        z = minv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return CGResult(x, max_iter, float(np.linalg.norm(r)) / nb, False)


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


def _complement_basis(kernel):
    """Orthonormal basis of the complement of span{kernel}, via Householder."""
    u = kernel / np.linalg.norm(kernel)
    n = len(u)
    e1 = np.zeros(n)
    e1[0] = 1.0
    v = u - e1
    vnorm2 = float(v @ v)
    if vnorm2 < 1e-30:
        H = np.eye(n)
    else:
        H = np.eye(n) - (2.0 / vnorm2) * np.outer(v, v)
    return H[:, 1:]


def generalized_eig_bounds(A, M, kernel=None):
    """Extreme eigenvalues of A u = lambda M u away from a shared kernel.

    Both matrices must be symmetric positive semidefinite with the same
    one-dimensional kernel (pass None for none). The pencil is reduced to
    the orthogonal complement of the kernel, whitened by the reference
    matrix M, and solved densely. Returns (smallest, largest).
    """
    A = np.asarray(A, dtype=float)
    M = np.asarray(M, dtype=float)
    n = A.shape[0]
    if kernel is not None:
        kernel = np.asarray(kernel, dtype=float)
        mnorm = float(np.linalg.norm(M))
        knorm = float(np.linalg.norm(kernel))
        if mnorm > 0 and np.linalg.norm(M @ kernel) > 1e-8 * mnorm * knorm:
            raise KernelMismatch(
                "reference matrix does not vanish on the declared kernel")
        Q = _complement_basis(kernel)
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
