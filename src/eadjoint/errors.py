"""Exception types shared across the toolkit."""


class EadjointError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeError(EadjointError):
    """Matrix or point dimensions are inconsistent with the operation."""


class MultipleCopiesError(ShapeError):
    """A single-copy (r = 1) operation was applied to a point with r > 1."""


class SingularMatrixError(EadjointError):
    """An exactly singular matrix where an invertible one is required."""


class DegenerateSpectrumError(EadjointError):
    """Repeated entries in a spectrum that must be pairwise distinct."""


class FiberConditionError(EadjointError):
    """Reconstruction data violates the rank-one fiber condition."""


class NotInNullConeError(EadjointError):
    """A null-cone operation was applied to a point with nonzero invariants."""


class NotAMemberError(EadjointError):
    """Certificate requested for a component the point does not belong to."""


class OutOfRangeError(EadjointError):
    """A size, count or index in a request lies outside its documented range."""
