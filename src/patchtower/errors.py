"""Exception taxonomy shared across the package.

Errors fall into three families that the command line maps onto exit
codes: invalid input (2), mathematical violation (1), search failure (3).
"""


class PatchTowerError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(PatchTowerError):
    """Malformed, out-of-contract, or unusable input data."""


class NonPrime(InvalidInput):
    pass


class InvalidParameter(InvalidInput):
    pass


class SpecMismatch(InvalidInput):
    pass


class ShapeMismatch(InvalidInput):
    pass


class NotAReduction(InvalidInput):
    pass


class NotAComplex(InvalidInput):
    pass


class UnsupportedRing(InvalidInput):
    pass


class NotMinimalInput(InvalidInput):
    pass


class NotAUnit(InvalidInput):
    pass


class InvalidParams(InvalidInput):
    pass


class InsufficientTower(InvalidInput):
    pass


class ExpansionTooLarge(InvalidInput):
    pass


class MathViolation(PatchTowerError):
    """A checked mathematical hypothesis or conclusion failed to hold."""


class TauNotConstant(MathViolation):
    pass


class TauOutOfRange(MathViolation):
    pass


class ActionMismatch(MathViolation):
    pass


class AugmentationNotKilled(MathViolation):
    pass


class BaseMismatch(MathViolation):
    pass


class HeightAmplitudeViolated(MathViolation):
    pass


class ConcentrationFailed(MathViolation):
    pass


class SurjectionNotIso(MathViolation):
    pass


class SearchFailure(PatchTowerError):
    """A bounded search was exhausted without finding a witness."""


class NoCompatibleChain(SearchFailure):
    pass
