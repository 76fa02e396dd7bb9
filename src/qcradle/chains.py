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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError

NORM_TOL = 1e-12

# Sign with which the Gaussian trap enters the Hamiltonian diagonal.  A
# zero-momentum wavepacket on a -tau hopping chain lives at the band bottom
# with positive effective mass, so confinement needs a diagonal well: the
# negative sign.  (The positive sign pushes the packet into the lattice ends:
# tests/test_dynamics.py evolves both signs on the trap_bounce setting.)
DEFAULT_TRAP_SIGN = -1

# least Gaussian width: below sqrt(tiny) a width's square underflows, and it divides
_WIDTH_MIN = math.sqrt(np.finfo(float).tiny)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _count(name: str, value, least: int, most: float = math.inf) -> None:
    # the one rule for every integer count or index (site counts, steps, grid points, atoms,
    # a site, a mode) in least..most; bool is numbers.Integral, but True is no count or index
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and least <= value <= most):
        domain = f">= {least}" if most == math.inf else f"in {least}..{most}"
        raise ValueError(f"{name} must be an integer {domain}, got {value!r}")


def _real(name: str, value, lo: float = -math.inf, hi: float = math.inf, closed: bool = False) -> None:
    # the one rule for every real scalar, a Python or NumPy number or a 0-d array: a finite
    # number in (lo, hi], or in [lo, hi] if closed, and no boolean (as in _count).  Checked as
    # a float, which an int past the float range cannot become; float first, as an ABC check
    # costs as much as the rest
    try:
        x = float(value) if isinstance(value, (float, numbers.Real)) and not isinstance(value, bool) or (
            isinstance(value, np.ndarray) and value.shape == () and value.dtype.kind in "iuf"
        ) else math.nan
    except OverflowError:
        x = math.nan
    if not ((lo <= x if closed else lo < x) and x <= hi and abs(x) < math.inf):
        domain = f"{'[' if closed else '('}{lo:g}, {hi:g}{']' if hi < math.inf else ')'}"
        raise ValueError(f"{name} must be a finite number in {domain}, got {value!r}")


def _reals(name: str, value, size: int, lo: float = -math.inf) -> np.ndarray:
    # the one rule for every real array field: `size` finite numbers > lo, as a read-only copy.
    # Text, booleans and objects (ints past 64 bits) become NaN, which makes the least value
    # NaN; the initial values pass an empty array
    a = np.atleast_1d(np.array(value))
    a = a.astype(float, copy=False) if a.dtype.kind in "iuf" else np.full(1, math.nan)
    least, most = np.minimum.reduce(a, initial=math.inf), np.maximum.reduce(a, initial=-math.inf)
    if not (a.shape == (size,) and least > lo and most < math.inf):
        raise ValueError(f"{name} must be a length-{size} array of finite numbers in ({lo:g}, inf)")
    return _readonly(a)


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Immutable chain description: site count, hoppings, on-site offsets."""

    M: int
    tau: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        _count("M", self.M, 1)
        object.__setattr__(self, "tau", _reals("tau", self.tau, self.M - 1, 0.0))
        object.__setattr__(self, "eps", _reals("eps", self.eps, self.M))


def mirror_symmetric(spec: ChainSpec) -> bool:
    """True iff tau_j = tau_{M-j} and eps_j = eps_{M+1-j} exactly."""
    tau, eps = spec.tau, spec.eps
    return bool((tau == tau[::-1]).all() and (eps == eps[::-1]).all())


@dataclass(frozen=True, eq=False)
class WaveState:
    """Normalized complex amplitudes over the M sites of a chain."""

    z: np.ndarray

    def __post_init__(self):
        z = np.atleast_1d(np.array(self.z, dtype=complex))
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
    _real("tau", tau, 0.0)
    return ChainSpec(M=M, tau=np.full(M - 1, float(tau)), eps=np.zeros(M))


def pst_chain(M: int, Omega: float) -> ChainSpec:
    """Perfect-transfer chain, tau_j = Omega * sqrt(j (M - j)).

    The spectrum is equally spaced, omega_n = Omega (2n - M - 1), which makes
    the single-excitation dynamics exactly periodic and end-to-end mirroring:
    the end-to-end amplitude is A_M(t) = (i sin Omega t)^(M-1), a perfect
    transfer at t = pi/(2 Omega) (Christandl et al., PRL 92, 187902, 2004).
    """
    _count("M", M, 2)
    _real("Omega", Omega, 0.0)
    j = np.arange(1, M, dtype=float)
    return ChainSpec(M=M, tau=Omega * np.sqrt(j * (M - j)), eps=np.zeros(M))


def edge_modified_chain(M: int, tau: float, x: float, y: float | None = None) -> ChainSpec:
    """Uniform chain with weakened edge bonds.

    The outermost bonds are scaled to ``x * tau``; when ``y`` is given the
    second bonds from each end are scaled to ``y * tau`` as well.  Both
    factors must lie in (0, 1]: zero would disconnect the endpoints.
    """
    _count("M", M, 3 if y is None else 5)
    _real("tau", tau, 0.0)
    _real("x", x, 0.0, 1.0)
    t = np.full(M - 1, float(tau))
    t[0] = x * tau
    t[-1] = x * tau
    if y is not None:
        _real("y", y, 0.0, 1.0)
        t[1] = y * tau
        t[-2] = y * tau
    return ChainSpec(M=M, tau=t, eps=np.zeros(M))


def _gaussian(M: int, center: float, width: float) -> np.ndarray:
    # exp(-(j - center)^2 / width^2) at the sites j = 1..M, the width squared as a NumPy
    # float, whose square overflows to inf (a flat profile of ones) where a Python float's
    # raises OverflowError; where both squares overflow (inf/inf), the ratio is squared
    j = np.arange(1, M + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a far site's exponent is -inf, its weight 0
        r = (j - center) ** 2 / np.float64(width) ** 2
        return np.exp(-np.where(np.isnan(r), ((j - center) / width) ** 2, r))


def gaussian_trap_chain(
    M: int,
    tau: float,
    x_m: float,
    theta: float,
    sign: int = DEFAULT_TRAP_SIGN,
) -> ChainSpec:
    """Uniform chain with a Gaussian on-site offset profile.

    eps_j = sign * exp(-(j - x_m)^2 / theta^2).  The default sign makes the
    trap confining for a zero-momentum packet (see DEFAULT_TRAP_SIGN).  A
    theta whose square overflows (about 1.34e154 and up) gives eps = sign.
    """
    _count("M", M, 1)
    _real("tau", tau, 0.0)
    _real("x_m", x_m)
    _real("theta", theta, _WIDTH_MIN)
    _count("sign", sign, -1, 1)
    if sign == 0:
        raise ValueError("sign must be +1 or -1, got 0")
    return ChainSpec(M=M, tau=np.full(M - 1, float(tau)), eps=sign * _gaussian(M, x_m, theta))


def kick_state(M: int, site: int) -> WaveState:
    """Excitation localized on one site (1-based): the cradle trigger."""
    _count("M", M, 1)
    _count("site", site, 1, M)
    z = np.zeros(M, dtype=complex)
    z[site - 1] = 1.0
    return WaveState(z=z)


def gaussian_wavepacket(M: int, x0: float, sigma: float) -> WaveState:
    """Real positive Gaussian packet, z_j proportional to exp(-(j-x0)^2/sigma^2).

    Normalized in the discrete l2 sense over the M sites, the weights first
    divided by the largest where their squares sum below the smallest normal
    double; a sigma whose square overflows gives the uniform packet.  Raises
    DegenerateStateError when every site weight underflows to zero.
    """
    _count("M", M, 1)
    _real("sigma", sigma, _WIDTH_MIN)
    _real("x0", x0)
    w = _gaussian(M, x0, sigma)
    if not w.max() > 0.0:
        raise DegenerateStateError(
            f"gaussian packet at x0={x0}, sigma={sigma} underflows on {M} sites"
        )
    if np.sum(w**2) < np.finfo(float).tiny:  # subnormal squares lose digits
        w = w / w.max()
    return WaveState(z=(w / np.sqrt(np.sum(w**2))).astype(complex))
