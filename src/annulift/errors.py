"""Exception types raised by the toolkit.

Every error carries enough context (offending point, side, translate) to
reproduce the failure; certification routines never return a guess in place
of raising.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# -- curves ------------------------------------------------------------------

class DistanceViolation(ToolkitError):
    """A curve sample (or refinement point) came too close to the basepoint."""


class NotSimple(ToolkitError):
    """Sampled segments of a supposedly simple curve cross."""


class InteriorPointNotFound(ToolkitError):
    """Ray casting failed to certify an interior point of a closed curve."""


class WindingResidualError(ToolkitError):
    """Accumulated turning was not within tolerance of an integer multiple of 2*pi."""


class RefinementBudgetExceeded(ToolkitError):
    """Adaptive refinement needed more inserted points than the configured cap."""


class NonFiniteDisplacement(ToolkitError):
    """A vector of a turning count (a displacement, or a curve point relative
    to the basepoint) was NaN or infinite, so it has no direction."""


# -- annulus maps ------------------------------------------------------------

class EquivarianceViolation(ToolkitError):
    """A lift failed the deck-translation consistency check.

    Attributes:
        point: worst offending grid point (x, y).
        defect: observed image offset minus the expected (degree, 0).
    """

    def __init__(self, message, point=None, defect=None):
        super().__init__(message)
        self.point = point
        self.defect = defect


class UnknownZooEntry(ToolkitError):
    """Requested map family name is not in the registry."""


class ParamOutOfRange(ToolkitError):
    """Map family parameter outside its documented range."""


class GridFormatError(ToolkitError, ValueError):
    """A tabulated-lift header or its values file is malformed."""


# -- index -------------------------------------------------------------------

class FixedPointOnCurve(ToolkitError):
    """Displacement magnitude dropped below min_disp; the index is undefined."""


class BoundaryConditionViolation(ToolkitError):
    """A rectangle side image landed in the wrong half plane.

    Attributes:
        side: one of "top", "bottom", "left", "right".
        point: sample point where the condition failed.
    """

    def __init__(self, message, side=None, point=None):
        super().__init__(message)
        self.side = side
        self.point = point


class ConfigurationViolation(ToolkitError):
    """Quadrilateral frame side images violate the requested half-region layout."""


class NotAQuadrilateral(ToolkitError):
    """The four frame curves do not bound a quadrilateral (wrong crossing pattern)."""


class HomotopyConstructionFailure(ToolkitError):
    """A synthesized homotopy developed a fixed point off the pushed arc."""


# -- fixed points ------------------------------------------------------------

class NotPeriodic(ToolkitError):
    """Point is not fixed by the iterated projected map within tolerance."""


class NonIntegerTranslation(ToolkitError):
    """Lift displacement of a periodic point was not close to an integer vector."""


class BoundaryFixedPoint(ToolkitError):
    """Every jittered isolation attempt met a fixed point on a subdivision line."""


class BudgetExceeded(ToolkitError):
    """Quadtree subdivision passed the configured box cap."""


class EmptyReport(ToolkitError):
    """Growth rate requested from an empty report list."""
