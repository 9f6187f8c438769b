"""Exception types shared across the package, and the key check every spec object passes."""

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


class ConfigInvalid(EulergramError):
    """Command-line configuration failed validation."""


def _only_keys(spec, keys, what: str, error: type[EulergramError] = InvalidSpec):
    """``spec``, once it is a dict holding no key outside ``keys``; else ``error`` names them."""
    if not isinstance(spec, dict):
        raise error(f"{what} must be an object, got {spec!r}")
    extra = sorted(map(repr, set(spec) - set(keys)))
    if extra:
        raise error(f"{what} takes no {', '.join(extra)}")
    return spec


def _kind(spec, tag: str, kinds: dict, what: str) -> str:
    """``spec[tag]``, once it names one of ``kinds`` and ``spec`` holds only that kind's keys."""
    kind = spec.get(tag) if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise InvalidSpec(f"{what} needs {tag!r} in {sorted(kinds)}, got {spec!r}")
    _only_keys(spec, (tag, *kinds[kind]), f"{kind} {what}")
    return kind
