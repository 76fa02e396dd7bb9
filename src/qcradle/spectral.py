"""
Spectral analysis of hopping chains.

Diagonalizes the real symmetric tridiagonal single-particle Hamiltonian of a
ChainSpec, classifies eigenvector mirror parity, solves the boundary-modified
quantization condition for the pseudo-wavevectors of an edge-weakened chain,
and provides the spectrum/state diagnostics (equal-spacing deviation, mode
overlaps) used by the transfer studies.

Eigenvalues are returned in ascending order.  Eigenvector signs are LAPACK's.
No output depends on them: every quantity derived here or in ``dynamics``
holds each eigenvector an even number of times.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .chains import ChainSpec, WaveState, _count, _readonly
from .errors import DegenerateSpectrumError

# Eigenvalues closer than this fraction of the spectral width are treated as
# degenerate when assigning parity labels.
DEGENERACY_REL_TOL = 1e-12

# Largest mirror mismatch max_j |g_{n,M+1-j} -/+ g_{nj}| that still labels a
# mode symmetric (+1) or antisymmetric (-1).
PARITY_TOL = 1e-8

# A pseudo-wavevector is accepted once its quantization residual is this small.
ROOT_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and row-wise eigenvectors of a chain."""

    omega: np.ndarray
    g: np.ndarray
    spec: ChainSpec

    def __post_init__(self):
        object.__setattr__(self, "omega", _readonly(np.asarray(self.omega, dtype=float)))
        object.__setattr__(self, "g", _readonly(np.asarray(self.g, dtype=float)))
        M = self.M
        if self.omega.shape != (M,) or self.g.shape != (M, M):
            raise ValueError(f"omega {self.omega.shape} and g {self.g.shape} must be ({M},) and ({M}, {M})")
        if not (np.isfinite(self.omega).all() and (np.diff(self.omega) >= 0).all()):
            raise ValueError("omega must be finite and nondecreasing")

    @property
    def M(self) -> int:
        return self.spec.M


@dataclass(frozen=True)
class ParitySignature:
    """Mirror parity per mode: +1, -1, or None when undefined."""

    parity: tuple
    max_deviation: float

    def all_defined(self) -> bool:
        return all(p is not None for p in self.parity)

    def alternating(self) -> bool:
        ps = self.parity
        return self.all_defined() and all(
            ps[n + 1] == -ps[n] for n in range(len(ps) - 1)
        )


def diagonalize(spec: ChainSpec) -> Spectrum:
    """Full eigendecomposition of the chain Hamiltonian.

    Backed by the LAPACK symmetric-tridiagonal solver, O(M^2) instead of the
    dense O(M^3) path.  Rows of ``g`` keep LAPACK's signs; no output reads them.
    """
    w, v = eigh_tridiagonal(spec.eps, -spec.tau)
    return Spectrum(omega=w, g=np.ascontiguousarray(v.T), spec=spec)


def mirror_parity(spectrum: Spectrum) -> ParitySignature:
    """Classify each eigenvector as mirror symmetric (+1) or antisymmetric (-1).

    A mode gets None when neither sign matches within PARITY_TOL or when its
    eigenvalue sits in a near-degenerate cluster (parity is basis-dependent
    there).  For a mirror-symmetric chain with simple spectrum the labels
    alternate between consecutive modes.
    """
    g = spectrum.g
    rev = g[:, ::-1]
    d_plus = np.max(np.abs(rev - g), axis=1)
    d_minus = np.max(np.abs(rev + g), axis=1)
    max_deviation = float(np.max(np.minimum(d_plus, d_minus))) if g.size else 0.0

    omega = spectrum.omega
    degenerate = np.zeros(spectrum.M, dtype=bool)
    width = float(omega[-1] - omega[0])
    gap_tol = DEGENERACY_REL_TOL * width
    close = np.diff(omega) <= gap_tol
    degenerate[:-1] |= close
    degenerate[1:] |= close

    parity = []
    for n in range(spectrum.M):
        if degenerate[n]:
            parity.append(None)
        elif d_plus[n] <= PARITY_TOL and d_plus[n] <= d_minus[n]:
            parity.append(1)
        elif d_minus[n] <= PARITY_TOL:
            parity.append(-1)
        else:
            parity.append(None)
    return ParitySignature(parity=tuple(parity), max_deviation=max_deviation)


def _boundary_shift(k: np.ndarray, x: float) -> np.ndarray:
    """Quantization shift of an edge-weakened chain, in (0, pi).

    Derived by matching a sin(kj + delta) interior ansatz to the weakened
    edge rows: tan psi = c tan k with c = x^2/(2 - x^2), taken on the branch
    continuous across k = pi/2.  The pseudo-wavevector equation then reads
    (M+1) k_n = pi n + 2 (k_n - psi(k_n)).
    """
    c = x * x / (2.0 - x * x)
    # acot on the (0, pi) branch; cot(k)/c stays finite away from k = 0, pi
    return 0.5 * np.pi - np.arctan(np.cos(k) / (np.sin(k) * c))


def pseudo_wavevectors(M: int, x: float) -> np.ndarray:
    """Solve the boundary-modified quantization condition of the edge chain.

    Returns the M strictly increasing pseudo-wavevectors k_n in (0, pi);
    -2 tau cos(k_n) reproduces the eigenvalues of edge_modified_chain(M, tau, x).
    At x = 1 the shift vanishes and k_n = pi n / (M + 1) exactly.

    One bisection runs over all M brackets at once.  A mode stops when its
    residual is within ROOT_RESIDUAL_TOL, when its bracket is narrower than
    1e-16 max(1, hi), when halving no longer moves its midpoint, or after 200
    halvings, and returns the midpoint of its bracket.  It cannot fail for
    x in (0, 1], because every starting bracket holds exactly one sign change
    of a rising residual (comment below).
    """
    _count("M", M, 1)
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")

    # The residual (M-1) k + 2 psi(k) - pi n rises with k, and psi in (0, pi)
    # makes it tend to -pi n < 0 at k = 0+ and to (M + 1 - n) pi > 0 at
    # k = pi-, so [0+, pi-] brackets exactly one root for every n in 1..M.
    target = np.pi * np.arange(1, M + 1)
    lo = np.full(M, 1e-12)
    hi = np.full(M, np.pi - 1e-12)
    active = np.ones(M, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active &= (mid != lo) & (mid != hi)
        f = (M - 1) * mid + 2.0 * _boundary_shift(mid, x) - target
        hit = active & (np.abs(f) <= ROOT_RESIDUAL_TOL)
        below = f < 0.0
        lo = np.where(hit | active & below, mid, lo)
        hi = np.where(hit | active & ~below, mid, hi)
        active &= ~hit & (hi - lo > 1e-16 * np.maximum(1.0, hi))
        if not active.any():
            break
    return 0.5 * (lo + hi)


def linearity_deviation(spectrum: Spectrum, index_range: tuple[int, int]) -> float:
    """Worst relative deviation of eigenvalue spacings from their mean.

    ``index_range`` is a 1-based inclusive (lo, hi) mode window of at least
    three modes.  Returns max_n |omega_{n+1} - omega_n - s| / s with s the
    mean spacing in the window; 0 means exactly equispaced.
    """
    lo, hi = index_range
    integral = isinstance(lo, numbers.Integral) and isinstance(hi, numbers.Integral)
    if not (integral and 1 <= lo < hi <= spectrum.M):
        raise ValueError(f"index_range must satisfy 1 <= lo < hi <= {spectrum.M}")
    if hi - lo + 1 < 3:
        raise ValueError("index_range must contain at least 3 modes")
    spacings = np.diff(spectrum.omega[lo - 1 : hi])
    sbar = float(np.mean(spacings))
    if sbar == 0.0:
        raise DegenerateSpectrumError("mean level spacing is zero in the window")
    return float(np.max(np.abs(spacings - sbar)) / sbar)


def mode_overlaps(spectrum: Spectrum, state: WaveState) -> np.ndarray:
    """Weights w_n = |<mode n | state>|^2; they sum to one."""
    if state.M != spectrum.M:
        raise ValueError(f"state has {state.M} sites, spectrum has {spectrum.M}")
    return np.abs(spectrum.g @ state.z) ** 2
