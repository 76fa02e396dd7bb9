"""Exception types shared across the package."""


class DegenerateStateError(ValueError):
    """A state constructor produced zero total weight (nothing to normalize)."""


class DegenerateSpectrumError(ValueError):
    """A spectral quantity is undefined because eigenvalues coincide."""


class MirrorSymmetryError(ValueError):
    """An operation requiring a mirror-symmetric chain was given an asymmetric one."""


class NotFreeFermionError(ValueError):
    """Residual interaction terms are too large for the free-fermion reduction.

    Carries the 1-based index of the first offending bond in ``bond``.
    """

    def __init__(self, bond: int, message: str):
        super().__init__(message)
        self.bond = bond


class TooLargeError(RuntimeError):
    """A requested computation exceeds a configured size cap."""
