"""Exception types shared across the package."""


class NoZeroDivisorsError(ValueError):
    """Raised when n has no nonzero zero divisors (n prime or n <= 3)."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a size limit."""


class CertificateError(RuntimeError):
    """Raised when a computed value's certificate does not hold."""
