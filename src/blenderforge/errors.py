"""Exception types shared across the package."""

from __future__ import annotations


class BlenderForgeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BlenderForgeError):
    """An argument is outside the domain an operation is defined on."""


class AmbiguousClassification(BlenderForgeError):
    """The declared modulus data does not determine a unique case tag."""


class NotApplicable(BlenderForgeError):
    """Operation invoked on the wrong cycle type or case."""


class NotRational(BlenderForgeError):
    """A rational-moduli operation was invoked with an irrational declaration."""


class PoleError(BlenderForgeError):
    """A denominator of the reduced coefficient functions vanishes."""


class WindowExhausted(BlenderForgeError):
    """A pair search ran out of window before meeting its tolerance."""

    def __init__(self, message: str, best_distance: float | None = None, found: int = 0):
        super().__init__(message)
        self.best_distance = best_distance
        self.found = found


class CoverageGap(BlenderForgeError):
    """No subset of affine images covers the required interval."""

    def __init__(self, message: str, uncovered: tuple[float, float] | None = None):
        super().__init__(message)
        self.uncovered = uncovered


class BandViolation(BlenderForgeError):
    """Contraction factors straddle 1 or touch {0, 1} within tolerance."""


class KindMismatch(BlenderForgeError):
    """Activation check requires one cs and one cu certificate."""


class NoImageInCube(BlenderForgeError):
    """No point of the model cube has its cross-form image in the cube."""


class OutsideWindows(BlenderForgeError):
    """The splitting parameter lies in no manifold-crossing window."""
