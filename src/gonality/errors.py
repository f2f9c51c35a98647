"""Exception hierarchy shared across the package.

Domain errors (bad inputs, violated invariants) derive from
:class:`GonalityError`.  Resource exhaustion of a configured search budget
derives from :class:`BudgetExceededError` so callers can tell "the answer is
no" apart from "the search gave up".
"""


class GonalityError(Exception):
    """Base class for all domain errors raised by this package."""


class SelfLoopError(GonalityError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GonalityError):
    """The same unordered vertex pair appears twice in an edge list."""


class VertexRangeError(GonalityError):
    """An edge endpoint lies outside ``[0, n)``."""


class MalformedHeaderError(GonalityError):
    """The header line of an edge-list file is not ``n m``."""


class EdgeCountError(GonalityError):
    """The number of edge lines does not match the header, or an edge is not
    exactly two integer endpoints."""


class DisconnectedGraphError(GonalityError):
    """An operation that needs a connected graph got a disconnected one."""


class NotIndependentError(GonalityError):
    """A vertex set that must be independent contains an edge."""


class SizeLimitError(GonalityError):
    """Instance exceeds the size limit of an exact algorithm."""


class CertificateError(GonalityError):
    """A constructed certificate failed re-verification.

    This indicates an implementation bug, not a property of the input: the
    constructions used here are backed by proofs.
    """


class BudgetExceededError(GonalityError):
    """A configured search budget ran out before the question was settled.

    The partial state (e.g. degrees already refuted) is attached where it is
    meaningful, so the caller knows what was established before the abort.
    On a disconnected graph ``degrees_refuted`` starts with the finished
    components' ``degrees_searched``, and those include each one's closing
    degree (a scan hit, or its unscanned cap), which was not refuted.
    """

    def __init__(self, message, degrees_refuted=()):
        super().__init__(message)
        self.degrees_refuted = tuple(degrees_refuted)
