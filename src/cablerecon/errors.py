"""Exception types that pipeline stages raise and callers react to."""


class EmptyInputError(ValueError):
    """An operation that needs at least one element received none."""


class DegenerateGeometryError(ValueError):
    """Input geometry does not determine the requested model (collinear,
    coincident, or near-parallel data)."""


class InsufficientDepthError(RuntimeError):
    """Too few pixels carry valid depth to back-project a cloud; the caller
    should widen exploration instead of trusting a sparse result."""


class InvalidViewError(ValueError):
    """The camera cannot see the support plane from its pose."""


class DescentOverrunError(RuntimeError):
    """The probe descended past the deepest plausible contact; the scene or
    parameters are misconfigured."""


class ProbeBudgetError(RuntimeError):
    """Exploration exceeded its hard probe budget without terminating."""
