"""Exception hierarchy shared by all iqgklo modules."""


class IQGKLOError(Exception):
    """Base class for all errors raised by this package."""


# --- diagram / instance validation ---

class NotADE(IQGKLOError):
    pass


class TauNotInvolution(IQGKLOError):
    pass


class TauNotAutomorphism(IQGKLOError):
    pass


class NotDominant(IQGKLOError):
    pass


class NotInCorootLattice(IQGKLOError):
    pass


class NegativeMultiplicity(IQGKLOError):
    pass


class IncompatibleOrientation(IQGKLOError):
    pass


class ThetaOutsideFixedSet(IQGKLOError):
    pass


class AdjacentThetas(IQGKLOError):
    pass


# --- exact arithmetic ---

class DivisionByZero(IQGKLOError):
    pass


class DenominatorVanishes(IQGKLOError):
    pass


# --- delta calculus ---

class DoublePin(IQGKLOError):
    pass


class NonSimplePole(IQGKLOError):
    pass


class UnpinnedResidual(IQGKLOError):
    pass


class DegreeMismatch(IQGKLOError):
    pass


# --- oracle / cli ---

class BadSpecialization(IQGKLOError):
    pass


class ParseError(IQGKLOError):
    pass


class ValidationError(IQGKLOError):
    pass


class AsymmetricMultiplicity(ValidationError):
    """The multiplicities differ on a pair of nodes swapped by tau."""
