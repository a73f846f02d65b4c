"""Exception types shared across the package."""


class BrieskornError(Exception):
    """Base class for every error this package raises on purpose."""


class ValueTooSmall(BrieskornError):
    """A fiber multiplicity is smaller than 2 (or smaller than 1 in raw data)."""


class NotPairwiseCoprime(BrieskornError):
    """Two fiber multiplicities share a common factor."""


class InvalidSeifertData(BrieskornError):
    """Seifert data fails the homology-sphere normalization a*(b + sum b_i/a_i) = +-1."""


class DegenerateAngle(BrieskornError):
    """A trace came out as +-2, so the element maps into the center."""


class CountMismatch(BrieskornError):
    """An enumerated class count disagrees with the closed-form count."""


class InjectivityViolation(BrieskornError):
    """Two distinct euler classes produced the same trace triple."""


class InconsistentClassification(BrieskornError):
    """The exact classification and the floating-point discriminant disagree."""


class NotRealizable(BrieskornError):
    """No matrix pair with the requested traces exists in the target real form."""
