"""Exception taxonomy shared by all modules."""


class LabError(Exception):
    """Base class for every error raised by this package."""


# --- geometry ---------------------------------------------------------------

class FeatureUnresolved(LabError):
    """A geometric feature is covered by too few grid layers."""


class EmptyGamma(LabError):
    """The requested boundary subset contains no nodes."""


class GeometryViolation(LabError):
    """A geometric hypothesis (nesting, separation, ball containment) fails."""


# --- fields / norms ---------------------------------------------------------

class RegionMismatch(LabError):
    """Norm requested on a region that is not covered by the field."""


class SupportTouchesBox(LabError):
    """Compact support required strictly inside the transform box."""


# --- assembly / solve -------------------------------------------------------

class UnderResolved(LabError):
    """Grid spacing violates the points-per-wavelength rule."""


class NearResonance(LabError):
    """k^2 falls inside the guard band around a computed eigenvalue."""


class SolverBreakdown(LabError):
    """Linear solve failed to reach the residual tolerance."""


class NotASolution(LabError):
    """A field handed to a trace/probe routine does not solve the equation."""


# --- spectral ---------------------------------------------------------------

class AssumptionIViolated(LabError):
    """The potential part of the operator is numerically singular."""


class SpectrumTooShort(LabError):
    """The computed spectrum window does not certify the requested distance."""


# --- boundary-to-interior map ----------------------------------------------

class GramNotSPD(LabError):
    """An inner-product matrix is not symmetric positive definite."""


class TargetUnreachable(LabError):
    """Even full mode retention cannot meet the requested error.  ``reason``
    is a short tag naming the check that failed."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class InsufficientAdmissibleK(LabError):
    """Too few admissible frequencies for a sweep fit."""


# --- continuation probes ----------------------------------------------------

class DegenerateSamples(LabError):
    """Sample set too small or collinear for an exponent fit."""


class ChainBlocked(LabError):
    """Ball-chain propagation cannot cover the target set."""


class SupportViolation(LabError):
    """Compact-support hypothesis (with zero collar) fails."""


class HypothesisViolated(LabError):
    """A quantitative hypothesis of a probe is not met."""


# --- special functions -------------------------------------------------------

class RangeGuard(LabError):
    """Argument outside the accuracy-guarded range."""


# --- boundary maps ------------------------------------------------------------

class ContextMismatch(LabError):
    """Operation mixes operators built on different grids/frequencies."""


class AgreementViolation(LabError):
    """Media that must coincide outside a subdomain do not."""


# --- CLI ----------------------------------------------------------------------

class ConfigInvalid(LabError):
    """Experiment configuration failed schema or assumption validation."""
