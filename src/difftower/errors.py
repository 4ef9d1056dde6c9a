"""Exception hierarchy for the engine."""


class DiffTowerError(Exception):
    """Base class for all engine errors."""


# -- rational function substrate -------------------------------------------

class ZeroDenominator(DiffTowerError):
    pass


class DivisionByZero(DiffTowerError):
    pass


class VariableMismatch(DiffTowerError):
    """Operands live over different variable lists."""


class ExponentOverflow(DiffTowerError):
    """An exponent does not fit a packed MPoly key: it is negative, or a
    total degree reaches 2**32."""


# -- tower validation -------------------------------------------------------

class ForwardReference(DiffTowerError):
    """A declared derivative mentions a later or undeclared generator."""


class UnknownSymbol(DiffTowerError):
    pass


class DuplicateName(DiffTowerError):
    pass


class InvalidTowerConstant(DiffTowerError):
    """D(u) = 0 for a non-rational u: the tower admits a new constant."""


class NotFlat(DiffTowerError):
    """Operation requires every generator derivative to lie in the base field."""


# -- bounded searches -------------------------------------------------------

class BoundsExceeded(DiffTowerError):
    """Linear-system size went over the configured hard cap."""


# -- structure theory -------------------------------------------------------

class NotAntiderivative(DiffTowerError):
    pass


class MalformedAntiderivative(DiffTowerError):
    """Derivative lands in the base field but the element is not linear in
    the generators, which cannot happen over a validly declared flat tower."""


class Unsupported(DiffTowerError):
    pass


class AlreadyInBase(DiffTowerError):
    pass


# -- automorphisms ----------------------------------------------------------

class NotDifferential(DiffTowerError):
    """Candidate assignments do not commute with the derivation."""


class NotTriangular(DiffTowerError):
    pass


# -- parsing ----------------------------------------------------------------

class ExprSyntaxError(DiffTowerError):
    def __init__(self, message, position=None, expected=None):
        super().__init__(message)
        self.position = position
        self.expected = expected or ()


class TowerFileError(DiffTowerError):
    pass
