"""Exception taxonomy shared across the package.

Every error is in one of two families: :class:`ConfigError` (bad input,
caller mistake, such as a dense evaluation outside the integrated span) and
:class:`NumericalError` (a computation that was set up correctly failed to
converge or left its domain of validity).  The CLI maps them to exit codes
2 and 1 respectively.
"""


class FloqnetError(Exception):
    """Base class for all package errors."""


class ConfigError(FloqnetError):
    """Invalid configuration, parameters, or input structure."""


class NumericalError(FloqnetError):
    """A numerical procedure failed (non-convergence, blow-up, ...)."""


# -- linalg ---------------------------------------------------------------

class NonConvergence(NumericalError):
    """Eigenvalue iteration failed to converge."""


class SingularInput(NumericalError):
    """Operation requires a nonsingular matrix (e.g. log of a matrix with a
    zero eigenvalue)."""


class NonDiagonalizable(NumericalError):
    """Eigenvector matrix too ill-conditioned for a spectral factorization."""


# -- ode ------------------------------------------------------------------

class StepFailure(NumericalError):
    """Adaptive step size underflowed while trying to meet tolerances."""


class Blowup(NumericalError):
    """Solution norm exceeded the divergence threshold."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class StepBudgetExceeded(NumericalError):
    """Integration exceeded the configured maximum number of steps."""


class OutOfRange(ConfigError):
    """Dense evaluation requested outside the integrated span."""


# -- models ---------------------------------------------------------------

class InvalidParam(ConfigError):
    """Model parameter outside its admissible range."""


# -- limit_cycle ----------------------------------------------------------

class FixedPointConvergence(NumericalError):
    """Post-transient motion, or the cycle search, collapsed onto a fixed
    point; no cycle to find."""


class NoCrossings(NumericalError):
    """Poincare-section event never fired within the search budget."""


class NotPeriodic(NumericalError):
    """The cycle search did not converge onto a periodic orbit."""


# -- floquet --------------------------------------------------------------

class ClosureDrift(NumericalError):
    """Cycle state failed to return to its anchor during a one-period
    variational integration."""


# -- network / msf --------------------------------------------------------

class InvalidAdjacency(ConfigError):
    """Adjacency matrix is not symmetric, non-negative, and hollow."""


class DimensionMismatch(ConfigError):
    """State, mask, or graph dimensions are inconsistent."""


class DisconnectedGraph(ConfigError):
    """Graph has a zero algebraic connectivity; synchronization analysis
    requires a connected graph."""
