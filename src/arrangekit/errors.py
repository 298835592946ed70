"""Exception types shared across the package.

Every domain error raised by the library derives from ArrangeKitError, so
the CLI can map them to structured output uniformly.  Plain ValueError is
reserved for caller mistakes (bad argument types, malformed JSON, out of
range parameters).
"""


class ArrangeKitError(Exception):
    pass


class RingMismatch(ArrangeKitError):
    """Mixed zeta_4 and zeta_6 values in one expression."""


class InvalidGraph(ArrangeKitError):
    pass


class InvalidWindow(ArrangeKitError):
    """A series window document of the wrong shape."""


class InvalidSeries(ArrangeKitError):
    """A series input document whose gram, k, z, l, e or s_values is malformed."""


class DimensionMismatch(ArrangeKitError):
    pass


class NotARoot(ArrangeKitError):
    pass


class GeneratorNotUnitary(ArrangeKitError):
    pass


class InvalidArrangement(ArrangeKitError):
    """Zero covectors, duplicate hyperplanes, or a non-hyperbolic member."""


class NotNested(ArrangeKitError):
    pass


class InvalidFlag(ArrangeKitError):
    pass


class OnArrangement(ArrangeKitError):
    """The evaluation point lies on one of the hyperplanes."""


class CommonPoint(ArrangeKitError):
    """The hyperplanes share a common projective point."""


class UnsupportedType(ArrangeKitError):
    pass


class WrongSignature(ArrangeKitError):
    pass


class ZeroVector(ArrangeKitError):
    pass


class NotIsotropic(ArrangeKitError):
    pass


class NotOrthogonal(ArrangeKitError):
    pass


class NotPrimitive(ArrangeKitError):
    pass


class AtInfinity(ArrangeKitError):
    """Point has no Siegel coordinates: psi(z, e) = 0."""


class OutsideBall(ArrangeKitError):
    pass


class PoleHit(ArrangeKitError):
    pass


class ConvergenceGuard(ArrangeKitError):
    """Series exponent too small for absolute convergence."""


class EmptyOrbit(ArrangeKitError):
    pass
