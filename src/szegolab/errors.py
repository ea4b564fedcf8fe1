"""Exception hierarchy for the szegolab package.

``UsageError`` flags invalid user input (bad flags, bad config values) and maps
to exit code 2 in the command-line front-end.  Everything derived from
``NumericalError`` signals a numerical routine that could not complete its
contract and maps to exit code 3.
"""

from __future__ import annotations


class SzegolabError(Exception):
    """Base class for all package-specific errors."""


class UsageError(SzegolabError):
    """Invalid user input: unknown key, bad flag value, failed precondition."""


class NumericalError(SzegolabError):
    """Base class for failures of numerical routines."""


class NonConvergedQuadrature(NumericalError):
    """Adaptive quadrature could not meet the requested tolerance within its
    subdivision budget (typically a bad tail bound or an impossibly small
    tolerance)."""


class QuadratureFailure(NumericalError):
    """Per-cell Gram-coefficient quadrature could not reach the required
    absolute accuracy within its panel budget."""


class AsymmetryError(NumericalError):
    """A circulant first row violated its wrap symmetry, which would produce
    complex eigenvalues."""


class ConvergenceFailure(NumericalError):
    """The dense symmetric eigensolver failed to converge (pathological
    input)."""


class NotPositiveDefinite(NumericalError):
    """I + A is not positive definite: its Cholesky factorization failed, a
    Levinson reflection coefficient reached |kappa| >= 1, a Schur pivot was
    <= 0, or an eigenvalue fell to -1 or below.  For a positive-semidefinite
    A this indicates an internal error or badly corrupted coefficients."""


class DegreeTooLow(NumericalError):
    """The polynomial sandwich failed its verification grid; the requested
    degree cannot realize the bracketing invariants."""


class DomainExceeded(NumericalError):
    """An eigenvalue fell outside the sandwich domain [0, C]; the domain
    maximum was configured too small for the spectrum at hand."""


class FactorizationFailure(NumericalError):
    """Dense covariance factorization failed even after diagonal jitter; the
    refined sampling grid is too fine for the working precision."""
