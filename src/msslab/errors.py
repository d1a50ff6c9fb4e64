"""Exception types raised across msslab.

Every library error derives from MsslabError so callers can catch one base
class; the CLI maps them to exit codes >= 64.
"""


class MsslabError(Exception):
    """Base class for all msslab errors."""


class DimensionMismatch(MsslabError):
    """Matrix shapes are inconsistent with each other or with the loop."""


class NonFinite(MsslabError):
    """An input or intermediate contains NaN or infinity."""


class OffGrid(MsslabError):
    """A requested time does not lie on a sampled kernel's grid."""


class TooFewSamples(MsslabError):
    """A sampled kernel needs at least two samples."""


class NotSymmetric(MsslabError):
    """A covariance matrix is asymmetric beyond tolerance."""


class NotPsd(MsslabError):
    """A covariance matrix has an eigenvalue below -eps_psd."""


class NonPositiveDt(MsslabError):
    """A step size or grid spacing is not strictly positive."""


class NotHurwitz(MsslabError):
    """A matrix required to be Hurwitz has an eigenvalue with
    real part >= -1e-9."""


class SingularSystem(MsslabError):
    """The Lyapunov/Kronecker-sum system is numerically singular."""


class BadQuadrature(MsslabError):
    """Quadrature grid parameters are unusable (nonpositive, inconsistent
    with a sampled kernel, or too coarse)."""


class RealizationRequired(MsslabError):
    """The operation needs a state-space realization, not samples."""


class StratonovichNeedsRealization(RealizationRequired):
    """Stratonovich analysis converts through an equivalent realization,
    so sampled kernels are not supported."""


class SingularKroneckerSum(SingularSystem):
    """The Lyapunov equation, whose operator is the Kronecker sum of the
    drift with itself, has no accurate solution: a sign-iteration iterate
    was singular or the result failed its residual check."""


class NotMss(MsslabError):
    """Steady-state covariances were requested for a loop that is not
    mean-square stable."""


class SingularFixedPoint(MsslabError):
    """The steady-state fixed-point system (I - K) is singular."""


class BadGrid(MsslabError):
    """A simulation or trajectory grid is invalid."""


class MidpointNoConvergence(MsslabError):
    """A Stratonovich midpoint step was refused.

    The step solves (I - D G) r = D (y_k + base_y) with D = diag(dgamma_k)/2
    and G the feedback gain to the next output.  When the spectral radius
    of D G is 1 or more the midpoint map is no contraction and I - D G can
    be singular: dt is too large for the noise magnitude.  A NaN radius,
    from non-finite gain increments, is refused alike.
    """


class InsufficientPaths(MsslabError):
    """Too few paths for the requested statistic."""


class ConfigError(MsslabError):
    """A config file failed schema or semantic validation.

    ``field_path`` names the offending field, e.g. "system.A".
    """

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")
