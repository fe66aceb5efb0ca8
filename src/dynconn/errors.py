"""Exception types shared across the package."""


class DynConnError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(DynConnError):
    """Vertex id outside [0, n)."""


class SelfLoop(DynConnError):
    """Edge endpoints are equal; self loops are not representable."""


class DuplicateEdge(DynConnError):
    """Insert of an edge that is already present."""


class EdgeAbsent(DynConnError):
    """Delete of an edge that is not present."""


class AlreadyRoot(DynConnError):
    """Detach asked for a spanning-tree vertex that has no parent."""


class IsRoot(DynConnError):
    """Operation is undefined on the root of a disjoint-set tree."""


class NotRoot(DynConnError):
    """Both arguments of a raw disjoint-set link must be roots."""


class NotMember(DynConnError):
    """A split's new representative is not among the vertices it carves
    out."""


class HasReplacements(DynConnError):
    """Tree edge still has crossing non-tree edges; it is not a bridge."""


class RepUnderflow(DynConnError):
    """A crossing-edge counter would go negative."""


class InvariantError(DynConnError):
    """An internal consistency check failed: the structure is corrupt."""


class KTooLarge(DynConnError):
    """Asked to delete more edges than the graph holds."""


class MissingTimestamps(DynConnError):
    """Sliding-window replay needs a timestamp on every event."""


class ParseError(DynConnError):
    """Malformed line in an edge-stream file, or an edge stream whose
    timestamps decrease where a replay needs them in order."""

    def __init__(self, message, line_no=None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no
