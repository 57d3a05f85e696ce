"""Exception types shared across the package."""


class DataError(Exception):
    """Base class for problems with input data files or their contents."""


class ParseError(DataError):
    """A file could not be parsed. The message names the file and line."""


class ValidationError(DataError):
    """Parsed data violates a structural requirement (shapes, label arity, names)."""


class BudgetError(Exception):
    """The oracle's search would cover more k-subsets, C(c, k), than the
    configured budget allows (whatever share of them a bound would rule
    out)."""


class GuaranteeError(Exception):
    """An algorithm output violated a bound it is required to satisfy."""
