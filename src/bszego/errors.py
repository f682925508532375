"""Exception hierarchy shared by all modules.

Every error belongs to one of three classes that the CLI maps onto exit
codes: invalid input (2), well-posed negative answer (1), numerical
failure (3).
"""


class BszegoError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class InvalidInput(BszegoError):
    """The request itself is malformed or violates a precondition."""

    exit_code = 2


class NegativeResult(BszegoError):
    """The computation ran fine and the answer is a definite 'no'."""

    exit_code = 1


class NumericalFailure(BszegoError):
    """The computation could not be completed reliably."""

    exit_code = 3


# -- invalid input -----------------------------------------------------------

class InvalidDegree(InvalidInput):
    pass


class ZeroPolynomial(InvalidInput):
    pass


class InsufficientMoments(InvalidInput):
    pass


class NotPositive(InvalidInput):
    pass


class NonPositiveDensity(InvalidInput):
    pass


# -- well-posed negatives ----------------------------------------------------

class MatrixConditionFails(NegativeResult):
    pass


class DNotAdmissible(NegativeResult):
    pass


class NotFactorable(NegativeResult):
    pass


class NotSelfReflective(NegativeResult):
    pass


class ZOnlyFactor(NegativeResult):
    pass


class NotGdv(NegativeResult):
    pass


class CommonFactor(NegativeResult):
    pass


# -- numerical failures ------------------------------------------------------

class MomentDivergence(NumericalFailure):
    pass


class RootNearTorus(NumericalFailure):
    pass


class DegenerateForm(NumericalFailure):
    pass


class NoConvergence(NumericalFailure):
    pass


class CertificateFailed(NumericalFailure):
    pass


class FitResidualTooLarge(NumericalFailure):
    pass
