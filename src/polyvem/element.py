"""Per-cell virtual element construction for the Poisson problem.

Degree one, one degree of freedom per vertex. Everything a cell
contributes is built from four small matrices:

  D (N x 3)  vertex values of the scaled monomials 1, (x-x_P)/h_P, (y-y_P)/h_P
  B (3 x N)  right-hand sides of the energy projection, boundary integrals
             that vertex values determine exactly
  G = B D    (3 x 3) Gram matrix of the projection
  Pi_star (3 x N) = G^{-1} B, the energy projector onto linear polynomials

The local stiffness is the projected (consistency) energy plus a
stabilization acting only on the part the projector removes:

  K = Pi_star^T G_tilde Pi_star + nu * (I - Pi)^T (I - Pi),  Pi = D Pi_star

with G_tilde equal to G with its first row zeroed. No shape function is
ever evaluated in the cell interior; the harmonic extension exists only
implicitly.

Every matrix depends on vertex data only, so cells with the same vertex
count N run the same fixed-shape algebra: ElementBatch builds the
matrices of a whole CellBatch at once, and build_element runs it on a
batch of one cell.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularG

NU_POLICIES = ("unit", "trace")


def _monomials(points, centroid, diameter):
    """Scaled monomials 1, (x-x_P)/h_P, (y-y_P)/h_P at (..., M, 2) points
    of cells with centroids (..., 2) and diameters (...), as (..., M, 3)."""
    out = np.empty(points.shape[:-1] + (3,))
    out[..., 0] = 1.0
    out[..., 1:] = ((points - centroid[..., None, :])
                    / diameter[..., None, None])
    return out


def _matrix_B(lengths, normals, diameter):
    """Projection right-hand sides from vertex dofs, for cells with edge
    lengths (..., N), normals (..., N, 2) and diameters (...), as
    (..., 3, N).

    Row 1 holds the vertex-average weights 1/N (the rank-3 completion of
    the gradient projection). Rows 2 and 3 are exact boundary integrals
    of the normal derivative of the monomials against each vertex's hat
    trace: column j couples the two edges meeting at vertex j,

      B[1+c][j] = (|E_{j-1}| n_c^{(j-1)} + |E_j| n_c^{(j)}) / (2 h_P).
    """
    N = lengths.shape[-1]
    weighted = lengths[..., None] * normals  # edge j from V_j to V_{j+1}
    prev = np.roll(weighted, 1, axis=-2)
    B = np.empty(lengths.shape[:-1] + (3, N))
    B[..., 0, :] = 1.0 / max(N, 1)  # an empty row when N = 0
    B[..., 1:, :] = (np.swapaxes(prev + weighted, -1, -2)
                     / (2.0 * diameter)[..., None, None])
    return B


def _adjugate(G):
    """(adj, det) of a (C, 3, 3) stack: the adjugate from the nine
    cofactors, and the determinant as the first row times its cofactors."""
    g = [[G[:, i, j] for j in range(3)] for i in range(3)]
    adj = np.empty_like(G)
    for i in range(3):
        for j in range(3):
            # adj[i, j] is the cofactor of G[j, i]; with indices taken
            # cyclically, the minor of rows j+1, j+2 and columns i+1, i+2
            # carries the cofactor's sign
            r1, r2 = g[(j + 1) % 3], g[(j + 2) % 3]
            c1, c2 = (i + 1) % 3, (i + 2) % 3
            adj[:, i, j] = r1[c1] * r2[c2] - r1[c2] * r2[c1]
    det = (g[0][0] * adj[:, 0, 0] + g[0][1] * adj[:, 1, 0]
           + g[0][2] * adj[:, 2, 0])
    return adj, det


class ElementBatch:
    """Element matrices of C cells with the same vertex count N.

    D (C, N, 3), B (C, 3, N), G and G_tilde (C, 3, 3), Pi_star (C, 3, N),
    Pi and K (C, N, N) and nu (C,), as in the module docstring. G must be
    invertible: a cell whose |det G| is below 1e-12 |G|_F^3 (or NaN) is
    flagged in `singular`, its matrices are meaningless, and g_error
    gives the SingularG that build_element raises for it.
    """

    def __init__(self, D, B, nu_policy="unit"):
        if nu_policy not in NU_POLICIES:
            raise ValueError(
                f"unknown nu policy {nu_policy!r}; valid: "
                f"{', '.join(NU_POLICIES)}")
        with np.errstate(all="ignore"):
            G = B @ D
            inv, det = _adjugate(G)
            norm = np.linalg.norm(G, axis=(-2, -1))
            singular = ~(np.abs(det) >= 1e-12 * norm ** 3)
            inv /= det[:, None, None]
            # singular cells project with the identity; they are flagged
            inv[singular] = np.eye(3)
            Pi_star = inv @ B
            del inv
            G_tilde = G.copy()
            G_tilde[:, 0, :] = 0.0
            Pi = D @ Pi_star
            R = np.eye(D.shape[1]) - Pi
            K = np.swapaxes(R, 1, 2) @ R
            del R
            Kc = np.swapaxes(Pi_star, 1, 2) @ G_tilde @ Pi_star
            if nu_policy == "unit":
                nu = np.ones(len(D))
            else:
                nu = 0.5 * np.trace(Kc, axis1=1, axis2=2)
            # K = Kc + nu * S, formed in S's memory: the same two roundings
            K *= nu[:, None, None]
            K += Kc
            del Kc
        self.D, self.B, self.G, self.G_tilde = D, B, G, G_tilde
        self.Pi_star, self.Pi, self.K, self.nu = Pi_star, Pi, K, nu
        self.det, self.singular = det, singular

    @classmethod
    def of(cls, geo, nu_policy="unit"):
        """Elements of every cell of a geometry.CellBatch."""
        D = _monomials(geo.vertices, geo.centroid, geo.diameter)
        B = _matrix_B(geo.edge_lengths, geo.edge_normals, geo.diameter)
        return cls(D, B, nu_policy)

    def g_error(self, k):
        """SingularG for cell k, or None."""
        if self.singular[k]:
            return SingularG(
                f"projection Gram matrix is singular (det {self.det[k]:.3e})")
        return None

    def element(self, k):
        """LocalElementMatrices of cell k."""
        if self.singular[k]:
            raise self.g_error(k)
        return LocalElementMatrices(
            D=self.D[k], B=self.B[k], G=self.G[k], G_tilde=self.G_tilde[k],
            Pi_star=self.Pi_star[k], Pi=self.Pi[k], K=self.K[k],
            nu=float(self.nu[k]))


def consistency_check(K, D, B):
    """Max residual of the exactness property on linear polynomials.

    For a linear q, the true energy pairing against each hat function is
    a pure boundary term, which is exactly rows 2-3 of B (and zero for
    the constant). So K applied to each monomial dof column must return
    those rows; the largest deviation is returned.
    """
    expected = np.vstack([np.zeros(B.shape[1]), B[1], B[2]]).T  # (N, 3)
    return float(np.abs(K @ D - expected).max())


@dataclass
class LocalElementMatrices:
    """Every matrix the construction produces for one cell."""

    D: np.ndarray
    B: np.ndarray
    G: np.ndarray
    G_tilde: np.ndarray
    Pi_star: np.ndarray
    Pi: np.ndarray
    K: np.ndarray
    nu: float


@dataclass
class StabilityConstants:
    """Measured spectral bounds of the element energy against a
    reference energy on the same cell."""

    alpha_star_lower: float
    alpha_star_upper: float


def build_element(geom, nu_policy="unit"):
    """Run the whole local construction for one cell."""
    h = np.asarray(geom.diameter)
    D = _monomials(geom.vertices, geom.centroid, h)
    B = _matrix_B(geom.edge_lengths, geom.edge_normals, h)
    return ElementBatch(D[None], B[None], nu_policy).element(0)
