"""Exception types shared across the package.

Every error raised on purpose derives from NeumannLabError, and every
error a bad input causes from its subclass ConfigError (the CLI's exit
code 4): a rejected expression, a boundary radius that is not positive,
a resolution below the stencils' minimum, a ball outside the domain.
"""


class NeumannLabError(Exception):
    """Base class for all errors raised by neumann_lab."""


class ConfigError(NeumannLabError):
    """Run configuration is inconsistent or unusable."""


class NonPositiveRadius(ConfigError):
    """The boundary radius function dips to zero or below somewhere."""


class ResolutionTooSmall(ConfigError):
    """Grid resolution below the minimum the stencils require."""


class MeshMismatch(NeumannLabError):
    """Binary operation between fields living on different meshes."""


class DegenerateInput(NeumannLabError):
    """Input carries no usable geometric spread (e.g. all nodes coincide)."""


class DegenerateData(NeumannLabError):
    """Estimate ratio requested for data whose norms vanish."""


class LinearSolveFailure(NeumannLabError):
    """Sparse solve did not meet the residual contract."""


class NonConvergence(NeumannLabError):
    """Iterative solve hit its iteration cap before the tolerance."""


class IncompatibleData(NeumannLabError):
    """Volume/boundary data violate the solvability condition.

    Carries the measured defect (volume integral of f minus boundary
    integral of g) as ``defect``.
    """

    def __init__(self, message, defect):
        super().__init__(message)
        self.defect = float(defect)


class BallNotContained(ConfigError):
    """Requested ball sticks out of the computational domain."""


class ExprSyntaxError(ConfigError):
    """Expression text fails to parse.  Carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = int(offset)


class UnknownIdentifier(ConfigError):
    """Expression references a variable the evaluation point lacks."""


class EvalDomainError(ConfigError):
    """Expression evaluation left the real domain (log/sqrt/division)."""
