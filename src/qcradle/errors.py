"""Exception types shared across the package."""


class DegenerateStateError(ValueError):
    """A state constructor produced zero total weight (nothing to normalize)."""


class DegenerateSpectrumError(ValueError):
    """A spectral quantity is undefined because eigenvalues coincide."""


class TooLargeError(RuntimeError):
    """A requested computation exceeds a configured size cap."""
