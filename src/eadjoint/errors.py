"""Exception types shared across the toolkit.

Each class carries the ``code`` the command line reports for it; an error
whose code is ``malformed_input`` exits with status 2, any other with 1.
"""


class EadjointError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "malformed_input"


class ShapeError(EadjointError):
    """Matrix or point dimensions are inconsistent with the operation."""


class MultipleCopiesError(ShapeError):
    """A single-copy (r = 1) operation was applied to a point with r > 1."""

    code = "multiple_adjoint_copies"


class SingularMatrixError(EadjointError):
    """An exactly singular matrix where an invertible one is required."""


class DegenerateSpectrumError(EadjointError):
    """Repeated entries in a spectrum that must be pairwise distinct."""

    code = "degenerate_spectrum"


class FiberConditionError(EadjointError):
    """Reconstruction data violates the rank-one fiber condition."""

    code = "fiber_condition_violated"


class NotInNullConeError(EadjointError):
    """A null-cone operation was applied to a point with nonzero invariants."""

    code = "not_in_null_cone"


class NotAMemberError(EadjointError):
    """Certificate requested for a component the point does not belong to."""

    code = "not_a_member"


class OutOfRangeError(EadjointError):
    """A size, count or index in a request lies outside its documented range."""

    code = "out_of_range"
