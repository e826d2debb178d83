"""Exception hierarchy for the Gaussian complexity library.

Two families map onto the CLI exit codes: ValidationError (bad input,
exit 3) and NumericDomainError (computation left its domain of validity,
exit 2).  Exit 4 is not an exception: the CLI returns it when the
variational oracle's GroupPath reports ``converged`` false.
"""


class GaussianComplexityError(Exception):
    """Base class for all library errors."""


class ValidationError(GaussianComplexityError):
    """An input violates a structural invariant."""


class NotPure(ValidationError):
    """J^2 != -1: the state described by the input data is mixed."""


class KindMismatch(ValidationError):
    """Boson and fermion objects were combined."""


class GroupViolation(ValidationError):
    """A matrix fails its group or algebra membership residual."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible shapes or mode counts."""


class DisplacementPresent(ValidationError):
    """A nonzero displacement was supplied where none is allowed."""


class NonFinite(ValidationError):
    """An input contains NaN or infinity."""


class SingularInput(ValidationError):
    """A required input matrix is not invertible."""


class SchemaError(ValidationError):
    """A JSON state file does not match the documented schema."""


class NumericDomainError(GaussianComplexityError):
    """A computation left the domain where its formula is valid."""


class BranchCut(NumericDomainError):
    """An eigenvalue lies too close to the negative real axis."""


class Singular(NumericDomainError):
    """A matrix that must be inverted is numerically singular."""


class PotentialTooLarge(NumericDomainError):
    """The vector potential exceeds unit norm somewhere on the path."""


class ChartBoundary(NumericDomainError):
    """A trajectory hit the r = 0 coordinate singularity.

    Carries the integrated portion of the path in ``partial_path``.
    """

    def __init__(self, message, partial_path=None):
        super().__init__(message)
        self.partial_path = partial_path


class StepTooCoarse(NumericDomainError):
    """Integrator drift exceeded tolerance; increase rk_steps."""


class NonFiniteFactor(NumericDomainError):
    """A Weyl factor evaluation returned NaN or infinity."""
