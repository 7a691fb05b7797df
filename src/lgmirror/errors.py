"""Exception hierarchy.

Every error raised by the library derives from :class:`LGMirrorError`, so
callers (in particular the command line tool) can map "invalid input" to a
single exit code.  Class names follow the operation contracts.
"""


class LGMirrorError(Exception):
    """Base class for all library errors."""


class PolynomialSyntaxError(LGMirrorError):
    """Malformed polynomial text (bad term, unknown variable, zero coefficient)."""


class NotSquare(LGMirrorError):
    """Number of monomials differs from the number of variables."""


class NotInvertible(LGMirrorError):
    """det(E) = 0, or E admits no Fermat/chain/loop decomposition."""


class NotASymmetry(LGMirrorError):
    """A phase vector fails the membership test E . phases in Z^n."""


class NotASubgroup(LGMirrorError):
    """A group is not contained in the maximal diagonal symmetry group."""


class NotContainingG0(LGMirrorError):
    """The group does not contain the exponential grading operator."""


class NonIntegral(LGMirrorError):
    """A quantity that is an integer by theory came out otherwise: an isotropy
    order of the curve or the cusp, a monodromy trace, or an exponent of a
    Moebius inversion.  Signals inconsistent input or an internal failure."""


class NotReduced(LGMirrorError):
    """A weight system expected to be reduced has gcd > 1."""


class NotBrieskornPham(LGMirrorError):
    """Operation requires a sum of pure powers."""


class NotSL(LGMirrorError):
    """Group element or group is not special linear (phases do not sum to an integer)."""


class NotSymmetryOfCusp(LGMirrorError):
    """Group does not fix every pure-power monomial of the cusp polynomial."""


class NotGraded(LGMirrorError):
    """The rescaled weights are not integral for this group index."""


class NotPolynomial(LGMirrorError):
    """A cyclotomic product is not a genuine polynomial (division inexact)."""
