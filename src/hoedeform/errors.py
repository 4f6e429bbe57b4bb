"""Exception types shared across the package."""


def at_sample(exc: Exception, index: int) -> Exception:
    """Tag ``exc`` with the index of the first failing sample of an array operation.

    Array kernels raise the message of their single-point form; callers that
    know the field add the sample context from ``exc.index``.
    """
    exc.index = index
    return exc


class HoedeformError(Exception):
    """Base class for all library-specific errors."""


class DomainError(HoedeformError):
    """A coordinate fell outside the valid parameter domain of a surface."""


class DegenerateFrame(HoedeformError):
    """The local frame could not be built (non-finite surface slope)."""


class NoIntersection(HoedeformError):
    """A projection segment does not meet the target surface inside its domain."""


class NotOnSurface(HoedeformError):
    """A point expected to lie on a surface is too far from it."""


class NoPreimage(HoedeformError):
    """A surface point has no plane preimage under the given projection."""


class SingularPoint(HoedeformError):
    """A spherical wave was evaluated at (or too close to) its source point."""


class WavelengthMismatch(HoedeformError):
    """Two waves that must share a wavelength do not."""


class PointNotOnEllipsoid(HoedeformError):
    """A probe point misses the two-focus isosurface it was checked against."""


class NonPositiveFactor(HoedeformError):
    """A rescale factor was zero, negative or non-finite."""


class EmptyBundle(HoedeformError):
    """A ray-bundle analysis received fewer usable rays than it needs."""


class NoMinimumInRange(HoedeformError):
    """A focal scan found no interior spot-size minimum in its z range."""


class ConfigError(HoedeformError):
    """A scene configuration or serialized input file violates its schema."""
