"""Exception types shared across the package."""

__all__ = [
    "EulergramError",
    "MarginViolation",
    "NotAdmissible",
    "NonLatticeShift",
    "CornerClash",
    "InvalidSpec",
    "RadiusTooSmall",
    "MeshMismatch",
    "UnboundedGrain",
    "DegenerateArrangement",
    "UnsupportedMarkLaw",
    "NotBooleanRegime",
    "ConfigInvalid",
]


class EulergramError(Exception):
    """Base class for all package errors."""


class MarginViolation(EulergramError):
    """A set bit touches the grid border where an empty margin is required."""


class NotAdmissible(EulergramError):
    """The grid contains diagonal (X) configurations, so local Euler
    counting is undefined.  Carries both offending counts."""

    def __init__(self, phi_x_set, phi_x_complement):
        self.phi_x_set = int(phi_x_set)
        self.phi_x_complement = int(phi_x_complement)
        super().__init__(
            "grid is not admissible: %d X configurations on the set, "
            "%d on the complement" % (self.phi_x_set, self.phi_x_complement)
        )


class NonLatticeShift(EulergramError):
    """A shift vector is not an integer multiple of the lattice spacing."""


class CornerClash(EulergramError):
    """Two member rectangles share a corner point."""


class InvalidSpec(EulergramError):
    """Malformed shape specification."""


class RadiusTooSmall(EulergramError):
    """Structuring radius below the lattice spacing."""


class MeshMismatch(EulergramError):
    """Coarse spacing is not an integer multiple (>= 4) of the fine mesh."""


class UnboundedGrain(EulergramError):
    """A grain has no finite bounding box."""


class DegenerateArrangement(EulergramError):
    """Two distinct rectangle coordinates coincide within tolerance; the
    cell decomposition would be ambiguous.  Jitter the configuration."""


class UnsupportedMarkLaw(EulergramError):
    """No closed-form compound Poisson evaluator for this mark law."""


class NotBooleanRegime(EulergramError):
    """Boolean shortcut requires unit marks and a level in (0, 1)."""


class ConfigInvalid(EulergramError):
    """Command-line configuration failed validation."""
