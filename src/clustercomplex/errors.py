"""Exception types shared across the package."""


class ClusterComplexError(Exception):
    """Base class for all errors raised by this package."""


class InvalidAlgebra(ClusterComplexError, ValueError):
    """Cartan data, symmetrizer or arrows break a rule of the input format."""


class NotSymmetrizable(ClusterComplexError):
    """diag(u) * C is not symmetric for the given symmetrizer: some
    u_i * c_ij != u_j * c_ji (in rank 2, r * u != s * v)."""


class CyclicOrientation(ClusterComplexError):
    """The arrow set contains an oriented cycle."""


class ArrowWithoutEntry(ClusterComplexError):
    """An arrow (i, j) was given although c_ij = 0."""


class DimensionMismatch(ClusterComplexError):
    """A vector has the wrong number of coordinates."""


class NegativeCoordinate(ClusterComplexError):
    """A dimension vector with a negative coordinate where none is allowed."""


class NotFiniteType(ClusterComplexError):
    """Operation requires a representation-finite algebra."""


class NotRankTwo(ClusterComplexError):
    """Operation requires an algebra with exactly two vertices."""


class NotRankTwoInfinite(ClusterComplexError):
    """Operation requires a representation-infinite rank-2 algebra."""


class SearchLimitExceeded(ClusterComplexError):
    """A root search or a rank-2 window went past its safety bound."""


class MixedCatalogs(ClusterComplexError):
    """Two indecomposables from different catalogs were combined."""


class UnknownId(ClusterComplexError):
    """A catalog id that does not exist."""


class OracleViolation(ClusterComplexError):
    """An internal consistency assertion failed; signals a catalog bug."""


class NotAlmostComplete(ClusterComplexError):
    """Rigid set does not have exactly one summand less than its support window."""


class NoCompletion(ClusterComplexError):
    """No tilting completion satisfies the defining property."""


class ZeroModule(ClusterComplexError):
    """The zero facet admits no descent step."""


class NotRepresentationInfinite(ClusterComplexError):
    """Operation requires r*s >= 4."""


class Disconnected(ClusterComplexError):
    """Operation requires a connected algebra."""


class ParseError(ClusterComplexError):
    """Input file could not be parsed as algebra data."""


class UnsupportedAlgebra(ClusterComplexError):
    """Representation-infinite of rank >= 3; no finite catalog exists."""
