"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid input data: bad tree, unknown site, malformed term, ..."""


class DuplicateTermError(ValidationError):
    """A product term is already represented (symbolic duplicate)."""


class UnknownOperatorError(ValidationError):
    """An operator label cannot be resolved to a matrix."""


class DenseCapExceededError(RuntimeError):
    """A dense build is too large: the total physical dimension exceeds the
    dense-matrix cap, or a TTNO tensor's dense array cannot be allocated."""


class PathCapExceededError(RuntimeError):
    """Single-path count exceeds the enumeration cap."""
