"""Exception types shared across the package."""


class XplainError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigError(XplainError, ValueError):
    """A configuration value is missing, malformed or out of range."""


class InvalidCsvError(XplainError, ValueError):
    """A dataset CSV cannot be read into a table: the file is unreadable, a
    duplicate header name, a row whose cell count differs from the header's, an
    unparseable numeric cell, a categorical column with fewer than two
    training categories, or a numeric column whose preprocessing overflows."""


class NonBinaryTargetError(XplainError):
    """The target column does not carry exactly two label values."""


class InvalidFractionError(XplainError):
    """Test fraction outside the open interval (0, 1)."""


class StratificationError(XplainError):
    """A class has too few members for a stratified split."""


class DimensionMismatchError(XplainError):
    """Vector/matrix dimensions do not match the fitted object."""


class ConvergenceError(XplainError):
    """No hyperparameter trial converged within the iteration budget."""


class DegenerateWeightsError(XplainError):
    """All perturbation weights collapsed to (numerically) zero."""


class UnknownTechniqueError(XplainError):
    """Requested explanation technique is not one of lime/shap/lpi."""


class VectorTooShortError(XplainError):
    """Rank correlation needs vectors of length at least 2."""


class IndexOutOfRangeError(XplainError):
    """Requested instance index is outside the test split."""
