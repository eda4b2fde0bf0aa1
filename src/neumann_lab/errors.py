"""Exception types shared across the package.

Every error raised on purpose derives from NeumannLabError so callers
(and the CLI exit-code mapping) can catch one base class.
"""


class NeumannLabError(Exception):
    """Base class for all errors raised by neumann_lab."""


class NonPositiveRadius(NeumannLabError):
    """The boundary radius function dips to zero or below somewhere."""


class ResolutionTooSmall(NeumannLabError):
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


class NonZeroMeanInput(NeumannLabError):
    """Operator defined on mean-zero fields received data with a mean."""


class IncompatibleData(NeumannLabError):
    """Volume/boundary data violate the solvability condition.

    Carries the measured defect (volume integral of f minus boundary
    integral of g) as ``defect``.
    """

    def __init__(self, message, defect):
        super().__init__(message)
        self.defect = float(defect)


class BallNotContained(NeumannLabError):
    """Requested ball sticks out of the computational domain."""


class ConfigError(NeumannLabError):
    """Run configuration is inconsistent or unusable."""


class ExprSyntaxError(NeumannLabError):
    """Expression text fails to parse.  Carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = int(offset)


class UnknownIdentifier(NeumannLabError):
    """Expression references a variable the evaluation point lacks."""


class EvalDomainError(NeumannLabError):
    """Expression evaluation left the real domain (log/sqrt/division)."""
