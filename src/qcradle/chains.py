"""
Hopping chains and single-excitation states.

A chain of M sites is described by positive nearest-neighbour hopping
amplitudes tau_j (j = 1..M-1) and on-site energy offsets eps_j (j = 1..M).
With hbar = 1 the single-particle Hamiltonian is

    H[j, j+1] = H[j+1, j] = -tau_j,      H[j, j] = eps_j,

so energies are inverse times.  Constructors are provided for the lattice
families used throughout: the uniform chain, the perfect-transfer chain
with tau_j proportional to sqrt(j(M-j)), the edge-weakened quasi-uniform
chain (one or two modified bond pairs), and the uniform chain inside a
Gaussian trapping potential.

Site indices in every public signature are 1-based, matching the physics
convention; arrays are 0-based internally.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError

NORM_TOL = 1e-12

# Sign with which the Gaussian trap enters the Hamiltonian diagonal.  A
# zero-momentum wavepacket on a -tau hopping chain lives at the band bottom
# with positive effective mass, so confinement needs a diagonal well: the
# negative sign.  (Verified dynamically in the test suite: the positive sign
# pushes the packet into the lattice ends.)
DEFAULT_TRAP_SIGN = -1


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _count(name: str, value, least: int) -> None:
    # the one rule for every integer count: sites, steps, grid points, atoms
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Immutable chain description: site count, hoppings, on-site offsets."""

    M: int
    tau: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        _count("M", self.M, 1)
        tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        eps = np.atleast_1d(np.asarray(self.eps, dtype=float))
        if tau.shape != (self.M - 1,):
            raise ValueError(f"tau must have length M-1 = {self.M - 1}, got {tau.shape}")
        if eps.shape != (self.M,):
            raise ValueError(f"eps must have length M = {self.M}, got {eps.shape}")
        if self.M > 1 and not np.all(tau > 0.0):
            raise ValueError("all hopping amplitudes tau_j must be > 0")
        if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(eps))):
            raise ValueError("tau and eps must be finite")
        object.__setattr__(self, "tau", _readonly(tau))
        object.__setattr__(self, "eps", _readonly(eps))

    def hamiltonian(self) -> np.ndarray:
        """Dense M x M single-particle Hamiltonian."""
        H = np.diag(self.eps.copy())
        idx = np.arange(self.M - 1)
        H[idx, idx + 1] = -self.tau
        H[idx + 1, idx] = -self.tau
        return H


def mirror_symmetric(spec: ChainSpec) -> bool:
    """True iff tau_j = tau_{M-j} and eps_j = eps_{M+1-j} exactly."""
    return bool(
        np.array_equal(spec.tau, spec.tau[::-1])
        and np.array_equal(spec.eps, spec.eps[::-1])
    )


@dataclass(frozen=True, eq=False)
class WaveState:
    """Normalized complex amplitudes over the M sites of a chain."""

    z: np.ndarray

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=complex))
        if z.ndim != 1 or z.size < 1:
            raise ValueError("z must be a nonempty 1-d amplitude vector")
        norm2 = float(np.sum(np.abs(z) ** 2))
        if not abs(norm2 - 1.0) <= NORM_TOL:  # also refuses NaN
            raise ValueError(f"state not normalized: sum |z|^2 = {norm2!r}")
        object.__setattr__(self, "z", _readonly(z))

    @property
    def M(self) -> int:
        return self.z.size

    def probabilities(self) -> np.ndarray:
        return np.abs(self.z) ** 2


def uniform_chain(M: int, tau: float) -> ChainSpec:
    """Chain with all hoppings equal to ``tau`` and zero offsets."""
    _count("M", M, 1)
    if not tau > 0.0:
        raise ValueError("tau must be > 0")
    return ChainSpec(M=M, tau=np.full(M - 1, float(tau)), eps=np.zeros(M))


def pst_chain(M: int, Omega: float) -> ChainSpec:
    """Perfect-transfer chain, tau_j = Omega * sqrt(j (M - j)).

    The spectrum is equally spaced, which makes the single-excitation
    dynamics exactly periodic and end-to-end mirroring.
    """
    _count("M", M, 2)
    if not Omega > 0.0:
        raise ValueError("Omega must be > 0")
    j = np.arange(1, M, dtype=float)
    return ChainSpec(M=M, tau=Omega * np.sqrt(j * (M - j)), eps=np.zeros(M))


def edge_modified_chain(M: int, tau: float, x: float, y: float | None = None) -> ChainSpec:
    """Uniform chain with weakened edge bonds.

    The outermost bonds are scaled to ``x * tau``; when ``y`` is given the
    second bonds from each end are scaled to ``y * tau`` as well.  Both
    factors must lie in (0, 1]: zero would disconnect the endpoints.
    """
    _count("M", M, 3 if y is None else 5)
    if not tau > 0.0:
        raise ValueError("tau must be > 0")
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    t = np.full(M - 1, float(tau))
    t[0] = x * tau
    t[-1] = x * tau
    if y is not None:
        if not 0.0 < y <= 1.0:
            raise ValueError("y must lie in (0, 1]")
        t[1] = y * tau
        t[-2] = y * tau
    return ChainSpec(M=M, tau=t, eps=np.zeros(M))


def gaussian_trap_chain(
    M: int,
    tau: float,
    x_m: float,
    theta: float,
    sign: int = DEFAULT_TRAP_SIGN,
) -> ChainSpec:
    """Uniform chain with a Gaussian on-site offset profile.

    eps_j = sign * exp(-(j - x_m)^2 / theta^2).  The default sign makes the
    trap confining for a zero-momentum packet (see DEFAULT_TRAP_SIGN).
    """
    _count("M", M, 1)
    if not tau > 0.0:
        raise ValueError("tau must be > 0")
    if not theta > 0.0:
        raise ValueError("theta must be > 0")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    j = np.arange(1, M + 1, dtype=float)
    eps = sign * np.exp(-((j - x_m) ** 2) / theta**2)
    return ChainSpec(M=M, tau=np.full(M - 1, float(tau)), eps=eps)


def kick_state(M: int, site: int) -> WaveState:
    """Excitation localized on one site (1-based): the cradle trigger."""
    _count("M", M, 1)
    if not isinstance(site, numbers.Integral) or not 1 <= site <= M:
        raise ValueError(f"site must be an integer in 1..{M}, got {site}")
    z = np.zeros(M, dtype=complex)
    z[site - 1] = 1.0
    return WaveState(z=z)


def gaussian_wavepacket(M: int, x0: float, sigma: float) -> WaveState:
    """Real positive Gaussian packet, z_j proportional to exp(-(j-x0)^2/sigma^2).

    Normalized in the discrete l2 sense over the M sites.  Raises
    DegenerateStateError when every site weight underflows to zero.
    """
    _count("M", M, 1)
    if not sigma > 0.0:
        raise ValueError("sigma must be > 0")
    if not np.isfinite(x0):
        raise ValueError("x0 must be finite")
    j = np.arange(1, M + 1, dtype=float)
    w = np.exp(-((j - x0) ** 2) / sigma**2)
    total = float(np.sum(w**2))
    if not total > 0.0:
        raise DegenerateStateError(
            f"gaussian packet at x0={x0}, sigma={sigma} underflows on {M} sites"
        )
    return WaveState(z=(w / np.sqrt(total)).astype(complex))
