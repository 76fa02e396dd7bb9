"""
Spectral analysis of hopping chains.

Solves the real symmetric tridiagonal single-particle Hamiltonian of a
ChainSpec, classifies eigenvector mirror parity, solves the boundary-modified
quantization condition for the pseudo-wavevectors of an edge-weakened chain,
and provides the spectrum/state diagnostics (equal-spacing deviation, mode
overlaps) used by the transfer studies.

A ``Spectrum`` solves on first use and keeps what it solved.  The eigenpairs
(ascending eigenvalues, eigenvectors with LAPACK's signs) come from one
LAPACK call, O(M^2) memory.  The end-to-end transfer reads only the
eigenvalues, from the two reflection sectors of a mirror-symmetric chain at
half the cost of one solve (``_eigvals``), and the end weights g_{n1} g_{nM},
which follow from the eigenvalues alone (``_end_weights``) in O(M) memory,
so a transfer never builds the eigenvectors.  No output depends on an
eigenvector's sign: every quantity derived here or in ``dynamics`` holds
each eigenvector an even number of times.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .chains import ChainSpec, WaveState, _count, _readonly, mirror_symmetric
from .errors import DegenerateSpectrumError

# Eigenvalues closer than this fraction of the spectral width are treated as
# degenerate when assigning parity labels.
DEGENERACY_REL_TOL = 1e-12

# Largest mirror mismatch max_j |g_{n,M+1-j} -/+ g_{nj}| that still labels a
# mode symmetric (+1) or antisymmetric (-1).
PARITY_TOL = 1e-8

# A pseudo-wavevector is accepted once its quantization residual is this small.
ROOT_RESIDUAL_TOL = 1e-12


# Gap-matrix entries per chunk of rows in _end_weights: 8 MB of float64.
_GAP_CHUNK = 2**20

# End weights below this are set to 0: the scan's GEMM would make subnormal
# products of them, which are slow and add nothing at double precision.
_WEIGHT_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


@dataclass(frozen=True)
class Spectrum:
    """The eigenproblem of a chain, solved on first use.

    ``omega`` (ascending) and the row-wise eigenvectors ``g`` come from one
    ``eigh_tridiagonal`` call, made when either is first read.  The transfer
    path reads ``_end_modes`` instead, which needs no eigenvectors.
    """

    spec: ChainSpec

    @property
    def M(self) -> int:
        return self.spec.M

    @cached_property
    def _eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = eigh_tridiagonal(self.spec.eps, -self.spec.tau)
        return _readonly(w), _readonly(np.ascontiguousarray(v.T))

    @property
    def omega(self) -> np.ndarray:
        return self._eigenpairs[0]

    @property
    def g(self) -> np.ndarray:
        return self._eigenpairs[1]

    @cached_property
    def _end_modes(self) -> tuple[np.ndarray, np.ndarray]:
        """Mode frequencies and end weights g_{n1} g_{nM} of the transfer.

        From ``_eigvals`` and, when ``_end_weights`` certifies them, from
        those eigenvalues alone; otherwise (computed eigenvalues that tie or
        nearly tie) from the eigenpairs.  Weights below ``_WEIGHT_FLOOR`` are 0.
        """
        omega = _eigvals(self.spec)
        w = _end_weights(omega, self.spec.tau)
        if w is None:
            omega, g = self._eigenpairs
            w = g[:, 0] * g[:, -1]
        w[np.abs(w) < _WEIGHT_FLOOR] = 0.0
        return _readonly(omega), _readonly(w)


def _eigvals(spec: ChainSpec) -> np.ndarray:
    """Ascending eigenvalues, from the two reflection sectors of a
    mirror-symmetric chain (M = 2m or 2m + 1), at half the cost of one solve.

    Each sector is a leading block of H.  Even M: two m x m blocks whose last
    diagonal entry is eps_m -/+ tau_m.  Odd M: the (m+1)-site symmetric block
    with its bond to the centre scaled by sqrt(2), and the m x m block.
    """
    d, e = spec.eps, -spec.tau
    m = spec.M // 2
    if m == 0 or not mirror_symmetric(spec):
        return eigvalsh_tridiagonal(d, e)
    if spec.M % 2:
        e[m - 1] *= np.sqrt(2.0)
        sectors = ((d[: m + 1], e[:m]), (d[:m], e[: m - 1]))
    else:
        edge = np.zeros(m)
        edge[-1] = e[m - 1]
        sectors = ((d[:m] + edge, e[: m - 1]), (d[:m] - edge, e[: m - 1]))
    return np.sort(np.concatenate([eigvalsh_tridiagonal(*s) for s in sectors]))


def _end_weights(omega: np.ndarray, tau: np.ndarray) -> np.ndarray | None:
    """End weights g_{n1} g_{nM} from ascending eigenvalues, or None.

    For a Jacobi matrix with off-diagonal -tau_j (Parlett, The Symmetric
    Eigenvalue Problem, 1980)

        g_{n1} g_{nM} = prod_j (-tau_j) / prod_{k != n} (omega_n - omega_k),

    so with tau > 0 and ascending omega the sign is (-1)^(n-1) for 1-based n.
    The magnitude is a sum of logs taken over chunks of rows of the gap
    matrix, so memory stays O(M) for large M.  The weights are certified, and
    returned, only when every gap is > 0, sum_n |w_n| <= 1 + 64 M eps (the
    exact weights meet it by Cauchy-Schwarz), and every weight's first-order
    error under eigenvalue errors of eps ||T||,
    2 eps ||T|| |w_n| sum_{k != n} 1/|omega_n - omega_k|, is <= 64 M eps.
    Computed eigenvalues that tie fail it, and so do near ties.
    """
    M = omega.size
    if not (np.diff(omega) > 0.0).all():
        return None
    log_gaps, inv_gaps = np.empty(M), np.empty(M)
    rows = max(1, _GAP_CHUNK // M)
    with np.errstate(over="ignore"):
        for lo in range(0, M, rows):
            hi = min(M, lo + rows)
            gaps = np.abs(omega[lo:hi, None] - omega)
            gaps[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
            log_gaps[lo:hi] = np.log(gaps).sum(axis=1)
            inv_gaps[lo:hi] = (1.0 / gaps).sum(axis=1) - 1.0  # less the diagonal's 1
        w = np.exp(np.log(tau).sum() - log_gaps)
    w[1::2] = -w[1::2]
    eps = np.finfo(float).eps
    first_order = 2.0 * eps * max(-omega[0], omega[-1]) * np.abs(w) * inv_gaps
    if not (np.abs(w).sum() <= 1.0 + 64 * M * eps and np.max(first_order) <= 64 * M * eps):
        return None
    return w


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
    """The spectrum of the chain Hamiltonian, solved when first read.

    Backed by the LAPACK symmetric-tridiagonal solvers, O(M^2) instead of the
    dense O(M^3) path.  Rows of ``g`` keep LAPACK's signs; no output reads them.
    """
    return Spectrum(spec)


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
