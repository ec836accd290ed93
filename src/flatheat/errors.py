"""Exception types shared across the package."""


class FlatHeatError(Exception):
    """Base class for all package-specific errors."""


class DegenerateBasis(FlatHeatError):
    """Raised when a claimed lattice basis is (numerically) linearly dependent."""


class NonPositiveTime(FlatHeatError):
    """Raised when a heat-kernel evaluation is requested at t <= 0."""


class ToleranceUnreachable(FlatHeatError):
    """Raised when the certified truncation would exceed the term budget."""


class ModeSurfaceMismatch(FlatHeatError):
    """Raised when a spectral mode is used with a surface it does not belong to."""


class WrongLatticeClass(FlatHeatError):
    """Raised when a counterexample constructor is given an incompatible lattice."""


class InvalidParameter(FlatHeatError):
    """Raised on out-of-range scalar parameters (xi, b, epsilon, ...)."""


class NotSimple(FlatHeatError):
    """Raised when an argument requires a simple principal eigenvalue."""


class DegenerateCritical(FlatHeatError):
    """Raised when a located critical point has a (relatively) singular Hessian."""


class UnstableStep(FlatHeatError):
    """Raised when an explicit Euler step size violates the stability bound."""


class CertificationFailed(FlatHeatError):
    """Raised when a constructed counterexample or violation fails its certificate."""
