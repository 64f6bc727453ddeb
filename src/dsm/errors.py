"""Exception types shared across the package.

Grouped by the stage that raises them.  Each class declares the CLI's
exit status for its family as `exit_code`: 2 for input/schema problems,
3 for numeric/configuration problems, 4 for fit-convergence problems.
"""


class DsmError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 3


# -- input / schema -----------------------------------------------------

class ParseError(DsmError):
    """A CSV cell could not be parsed; message carries file:row:column."""
    exit_code = 2


class SchemaMismatch(DsmError):
    """Required columns missing or inconsistent between the two samples."""
    exit_code = 2


class NonpositiveWeight(DsmError):
    """A design weight d_i <= 0 was supplied."""
    exit_code = 2


# -- numeric / configuration --------------------------------------------

class EmptySample(DsmError):
    """A sample has no units."""


class RankDeficient(DsmError):
    """Design matrix does not have full column rank.  When one covariate
    is to blame, `column` is its index among the covariates the model was
    given, else None."""

    def __init__(self, *args, column=None):
        super().__init__(*args)
        self.column = column


class WeightOverflow(DsmError):
    """The design weights, or the score fit's gradient or curvature built
    from them, leave the float64 range."""


class DegenerateScore(DsmError):
    """A score column is constant over the pooled sample; matching on it
    is meaningless."""


class MTooLarge(DsmError):
    """Requested more matches per unit than donors available."""


class JTooLarge(DsmError):
    """Requested more inner neighbors than other donor units available."""


class RhoOutOfRange(DsmError):
    """Correlation target outside (0, 1]."""


class BracketFailure(DsmError):
    """Root bracketing for the intercept calibration failed."""


class InfeasibleRatio(DsmError):
    """Size-variable shift produces nonpositive size values."""


class RepeatedSelection(DsmError):
    """Systematic selection hit one unit twice, which only rounding in the
    cumulative inclusion probabilities of certainty units can cause."""


class DomainError(DsmError):
    """Covariate transform applied outside its domain (nonpositive base
    under a fractional or negative exponent)."""


# -- convergence --------------------------------------------------------

class NonConvergence(DsmError):
    """Iteration limit reached without meeting the gradient tolerance."""
    exit_code = 4


class Separation(DsmError):
    """Likelihood is unbounded: a linear combination of covariates
    perfectly separates the two samples."""
    exit_code = 4


# -- warnings -----------------------------------------------------------

class ExtremePropensityWarning(UserWarning):
    """Fitted propensities close enough to zero to destabilize inverse
    weighting."""
