"""Exceptions shared across the package.

Everything derives from VeechkitError so callers can catch domain failures
in one place; the CLI maps these to exit code 1.
"""


class VeechkitError(Exception):
    pass


class FieldMismatch(VeechkitError):
    """Two scalars (or a scalar and a surface) carry different quadratic field tags."""


class ZeroInput(VeechkitError, ValueError):
    pass


class NotCommensurable(VeechkitError):
    pass


class InvalidParams(VeechkitError, ValueError):
    pass


class NonPositive(VeechkitError, ValueError):
    pass


class InconsistentTopology(VeechkitError):
    """Two exact computations of the decomposition disagree.

    For example a cylinder's width and the rays across it, or the cylinder
    areas and the surface's area; exact arithmetic leaves no tolerance.  The
    gluing validator raises it too, for gluings that cannot close up into a
    translation surface (an edge glued to itself, twice, to nothing, or to an
    edge that is not its opposite translate).
    """


class AmbiguousStart(VeechkitError):
    """A trace starting at a cone point needs an explicit outgoing sector."""


class NotComplete(VeechkitError):
    """An operation needed a completed cylinder decomposition."""


class OnBoundaryPoint(VeechkitError):
    """The point sits on a boundary leaf where the requested map is undefined."""


class SlitThroughSingularity(VeechkitError):
    pass


class NonTransitive(VeechkitError):
    pass


class OverlappingSlits(VeechkitError):
    pass


class InconsistentProfile(VeechkitError):
    pass


class NotParabolicMatrix(VeechkitError):
    pass


class NoConnections(VeechkitError):
    pass


class TraceOverflow(VeechkitError):
    """A trace ran for max_steps segments without resolving.

    `segments` holds the partial path traced so far.
    """

    def __init__(self, message, segments=()):
        super().__init__(message)
        self.segments = segments
