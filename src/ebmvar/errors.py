"""Exception hierarchy shared across the package."""


class EbmvarError(Exception):
    """Base class for all package errors."""


class ConfigError(EbmvarError):
    """Invalid or inconsistent configuration input."""


class DegenerateBranch(EbmvarError):
    """An affine branch of the equilibrium equation has zero effective slope."""

    def __init__(self, branch, slope):
        self.branch = branch
        self.slope = slope
        super().__init__(
            f"branch {branch!r} has effective slope {slope:.3e}; "
            "the equilibrium equation is degenerate there"
        )


class InadmissibleVariance(EbmvarError):
    """The stationary second moment does not exist (2b - tau*sigma1^2 <= 0)."""


class StepTooLarge(EbmvarError):
    """Explicit time step violates the stability guard."""


class NoConvergence(EbmvarError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class SingularJacobian(EbmvarError):
    """A frozen-branch Jacobian is numerically singular."""


class NotPositiveDefinite(EbmvarError):
    """Covariance factorisation failed even after diagonal jitter."""


class UnstableDrift(EbmvarError):
    """Spectral abscissa of the drift matrix is nonnegative."""


class UnstableK(EbmvarError):
    """The vectorised covariance operator is not Hurwitz."""


class SolveFailed(EbmvarError):
    """A GMRES Lyapunov solve or the LOBPCG eigensolve of K broke down."""


class NonFiniteState(EbmvarError):
    """Time integration produced a non-finite state."""

    def __init__(self, step_index):
        self.step_index = step_index
        super().__init__(f"non-finite state at step {step_index}")


class ParamOutOfRange(EbmvarError):
    """A parameter lies outside its admissible range."""


class NonPositiveThreshold(EbmvarError):
    """Exceedance threshold must be positive."""
