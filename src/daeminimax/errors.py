"""Exception types shared across the package."""


class EstimationError(Exception):
    """Base class for every error raised by this package."""


class InvalidMatrix(EstimationError):
    """Matrix input is malformed (non-finite entries, wrong ndim, bad tolerance)."""


class DimensionMismatch(EstimationError):
    """Operands have incompatible shapes or sequence lengths."""


class ParseError(EstimationError):
    """A model file or data file could not be parsed."""


class InconsistentDynamics(EstimationError):
    """The implicit state recursion has no solution for the given inputs."""


class NumericalBreakdown(EstimationError):
    """A numerical invariant (finiteness) failed."""


class SingularMatrix(EstimationError):
    """A matrix required to be invertible is numerically singular."""


class InconsistentData(EstimationError):
    """Measurements are incompatible with the unit uncertainty budget."""


class OutsideObservable(EstimationError):
    """Requested direction lies outside the observable subspace."""


class AsymmetryWarning(UserWarning):
    """A matrix expected to be symmetric carried noticeable asymmetry."""
