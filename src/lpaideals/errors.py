"""Exception types shared across the package.

Every domain error derives from LpaError so callers (and the command line
front end) can distinguish bad input from genuine bugs.
"""


class LpaError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroPolynomial(LpaError):
    """An operation received the zero polynomial where it is undefined."""


class FieldMismatch(LpaError):
    """Two operands live over different coefficient fields."""


class DegreeTooLarge(LpaError):
    """A factorization would exceed its cap: modular factors over Q (or degree,
    in the Kronecker reference of oracles)."""


class InvalidGraph(LpaError):
    """A graph description violates the data model."""


class UnknownVertex(LpaError):
    """A vertex id does not belong to the graph at hand."""


class TooLarge(LpaError):
    """An enumeration would exceed its size cap (lattice cap, subset-scan
    bound), or an answer would pass Python's int-to-str digit limit."""


class NotHereditarySaturated(LpaError):
    """A vertex set is not hereditary and saturated as required."""


class NotAdmissible(LpaError):
    """A pair (H, S) is not admissible: S must consist of breaking vertices of H."""


class EmptySet(LpaError):
    """A predicate that needs a nonempty vertex set received an empty one."""


class GraphMismatch(LpaError):
    """Two ideals (or an ideal and a pair) belong to different graphs."""


class NotGraded(LpaError):
    """A graded-only operation received an ideal with cycle parts."""


class ImproperIdeal(LpaError):
    """Classification applies to proper ideals only; the whole algebra was given."""


class Unsatisfiable(LpaError):
    """The random generator cannot satisfy the requested structure."""


class NotALattice(LpaError):
    """An order oracle found no unique bound; would falsify lattice structure."""
