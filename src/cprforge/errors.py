"""Exception types shared across the package."""


class CprforgeError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatch(CprforgeError):
    """Two permutations (or groups) act on different numbers of points."""


class IntersectionTooLarge(CprforgeError):
    """An intersection search or count visited more nodes than its cap.

    ``left`` and ``right`` are the orders of the two intersected groups.
    """

    def __init__(self, message, left=None, right=None):
        super().__init__(message)
        self.left = left
        self.right = right


class RankTooLarge(CprforgeError):
    """The exhaustive subset checker refuses windows above its rank bound."""


class NotTransitive(CprforgeError):
    """A primitivity question was asked about an intransitive group."""


class DomainNotInvariant(CprforgeError):
    """The requested domain is not a union of orbits of the group."""


class PrgError(CprforgeError):
    """Base class for PRG file and graph validation errors."""


class PrgSyntaxError(PrgError):
    """Malformed PRG text; carries the 1-based offending line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MatchingViolation(PrgError):
    """A vertex appears twice among the edges of a single label."""


class DuplicateEdge(PrgError):
    """The same (label, a, b) triple appears more than once."""


class VertexOutOfRange(PrgError):
    """An edge endpoint lies outside 1..n (or a == b)."""


class IdentityGenerator(PrgError):
    """A label inside the declared window has no edge at all."""


class ShapeViolation(CprforgeError):
    """A gluing input does not match the shape the construction requires."""


class NoFractureGraph(CprforgeError):
    """Split analysis was requested for a graph without a fracture graph."""

    def __init__(self, message, failing_labels=()):
        super().__init__(message)
        self.failing_labels = tuple(failing_labels)
