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


class NonMultipleOf2Pi(VeechkitError):
    """A vertex class whose total angle fails to close up to a multiple of 2pi."""


class InconsistentTopology(VeechkitError):
    """Genus computed from the Euler characteristic disagrees with the angle count."""


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
