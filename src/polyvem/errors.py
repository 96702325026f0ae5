"""Exception types shared across the package.

Every error raised deliberately by this package derives from VemError so
callers (and the command line driver) can catch one base class.
"""


class VemError(Exception):
    """Base class for all errors raised by polyvem."""


class NonPositiveArea(VemError):
    """Polygon has zero or negative signed area (clockwise or degenerate)."""


class ZeroLengthEdge(VemError):
    """Two consecutive polygon vertices coincide."""


class InvertedSubTriangle(VemError):
    """A centroid-fan triangle has non-positive area; the polygon is not
    star-shaped with respect to its centroid."""


class DegenerateTriangle(VemError):
    """Triangle with (numerically) zero area."""


class UnsupportedResolution(VemError):
    """Mesh family cannot be built at the requested resolution."""


class ParseError(VemError):
    """Malformed mesh file (bad JSON or missing/ill-typed fields)."""


class ValidationError(VemError):
    """Mesh violates a structural invariant."""


class IndexOutOfRange(VemError):
    """Cell or vertex index outside the valid range."""


class ZeroDiagonal(VemError):
    """Matrix has a zero diagonal entry where the solver needs a positive one."""


class NoConvergence(VemError):
    """A solve did not reach its answer: CG stalled in the global solve
    or in a harmonic lifting, or the dense eigensolver got non-finite
    input."""


class AsymmetricMatrix(VemError):
    """Triplet data does not describe a symmetric matrix."""


class SingularG(VemError):
    """Projection Gram matrix is numerically singular; the element geometry
    is too degenerate to build the local space."""


class KernelMismatch(VemError):
    """Reference matrix of a generalized eigenvalue problem does not vanish
    on the declared kernel."""
