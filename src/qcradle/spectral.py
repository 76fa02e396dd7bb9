"""
Spectral analysis of hopping chains.

Solves the real symmetric tridiagonal single-particle Hamiltonian of a
ChainSpec (``diagonalize``, which returns a ``Spectrum`` that solves on first
use), solves the boundary-modified quantization condition for the
pseudo-wavevectors of an edge-weakened chain (``pseudo_wavevectors``), and
provides the spectrum/state diagnostics (``linearity_deviation``,
``mode_overlaps``) used by the transfer studies.  The end-to-end transfer
reads the modes ``Spectrum._end_modes``, built from ``_eigvals`` and
``_end_weights`` without the eigenvectors.  Every tridiagonal eigensolve in
the package is one ``_stevd`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .chains import ChainSpec, WaveState, _count, _readonly, _real, mirror_symmetric
from .errors import DegenerateSpectrumError

# Gap-matrix entries per chunk of rows in _end_weights: 256 KB of float64,
# so a chunk and its work buffer (its logs, then its reciprocals) stay in cache.
_GAP_CHUNK = 2**15

# End weights below this are set to 0: the scan's GEMM would make subnormal
# products of them, which are slow and add nothing at double precision.
_WEIGHT_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


@dataclass(frozen=True)
class Spectrum:
    """The eigenproblem of a chain, solved on first use.

    ``omega`` (ascending) and the row-wise eigenvectors ``g`` come from one
    ``_stevd`` call, made when either is first read.  The transfer path
    reads ``_end_modes`` instead, which needs no eigenvectors.
    """

    spec: ChainSpec

    @property
    def M(self) -> int:
        return self.spec.M

    @cached_property
    def _eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = _stevd(self.spec.eps, -self.spec.tau)
        return _readonly(w), _readonly(v.T)  # stevd's v is Fortran-ordered, so v.T is C-ordered

    @property
    def omega(self) -> np.ndarray:
        return self._eigenpairs[0]

    @property
    def g(self) -> np.ndarray:
        return self._eigenpairs[1]

    @cached_property
    def _end_modes(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Modes (nu, p, q) of the transfer: A_M(t) = sum p cos(nu t) - i sum q sin(nu t).

        A chain with eps = 0 is bipartite: omega_{M+1-n} = -omega_n and
        w_{M+1-n} = (-1)^(M-1) w_n for the end weights w_n = g_{n1} g_{nM}, so
        the M-mode sum folds onto the lower half of the spectrum.  Even M:
        nu holds the M/2 negative eigenvalues, p = 0 and q = 2w.  Odd M: nu
        also holds the exact zero mode last, p = (2w, w_0) and q = 0.  Any
        other chain, and a single site: nu = omega and p = q = w.  A zero
        half is None.

        From ``_eigvals`` and, when ``_end_weights`` certifies them, from
        those eigenvalues alone; otherwise (computed eigenvalues that tie or
        nearly tie) from the eigenpairs, unfolded.  Weights below
        ``_WEIGHT_FLOOR`` are 0.
        """
        spec, M = self.spec, self.M
        omega = _eigvals(spec)
        fold = not spec.eps.any()
        if fold:
            # the symmetrised spectrum: the lower half and its mirror image
            lower = omega[: M // 2]
            omega = np.concatenate([lower, np.zeros(M % 2), -lower[::-1]])
        w = _end_weights(omega, spec.tau, (M + 1) // 2 if fold else M)
        if w is None:
            omega, g = self._eigenpairs
            w = g[:, 0] * g[:, -1]
        w[np.abs(w) < _WEIGHT_FLOOR] = 0.0
        if w.size == M:  # no fold: eps != 0, the eigenvector fallback, or one site
            w = _readonly(w)
            return _readonly(omega), w, w
        w[: M // 2] *= 2.0  # for the mirror modes; an odd chain's zero mode (last) has none
        nu, w = _readonly(omega[: w.size]), _readonly(w)
        return (nu, w, None) if M % 2 else (nu, None, w)


def _stevd(d: np.ndarray, e: np.ndarray, vectors: bool = True):
    """Ascending eigenvalues of the symmetric tridiagonal (d, e) and, with ``vectors``, its
    eigenvectors as columns, from LAPACK stevd, the driver scipy's tridiagonal solvers pick
    for a full spectrum, without their checks; info != 0 raises LinAlgError.  stevd
    refuses the empty e of one site, whose eigenpair is (d, [[1]])."""
    if d.size == 1:
        return (d.copy(), np.ones((1, 1))) if vectors else d.copy()
    w, v, info = lapack.dstevd(d, e, compute_v=vectors)
    if info:
        raise np.linalg.LinAlgError(f"stevd did not converge (LAPACK info={info})")
    return (w, v) if vectors else w


def _eigvals(spec: ChainSpec) -> np.ndarray:
    """Ascending eigenvalues, from the two reflection sectors of a
    mirror-symmetric chain (M = 2m or 2m + 1), at half the cost of one solve.

    Each sector is a leading block of H.  Even M: two m x m blocks J+/- whose
    last diagonal entry is eps_m -/+ tau_m.  Odd M: the (m+1)-site symmetric
    block with its bond to the centre scaled by sqrt(2), and the m x m block.
    With eps = 0 and even M the sublattice sign flip (-1)^j maps J+ onto -J-,
    so J+ alone gives the spectrum: -|lambda(J+)| and its mirror image.
    """
    d, e = spec.eps, -spec.tau
    m = spec.M // 2
    if m == 0 or not mirror_symmetric(spec):
        return _stevd(d, e, vectors=False)
    if spec.M % 2:
        e[m - 1] *= np.sqrt(2.0)
        sectors = ((d[: m + 1], e[:m]), (d[:m], e[: m - 1]))
    else:
        edge = np.zeros(m)
        edge[-1] = e[m - 1]
        if not d.any():
            lower = np.sort(-np.abs(_stevd(edge, e[: m - 1], vectors=False)))
            return np.concatenate([lower, -lower[::-1]])
        sectors = ((d[:m] + edge, e[: m - 1]), (d[:m] - edge, e[: m - 1]))
    return np.sort(np.concatenate([_stevd(*s, vectors=False) for s in sectors]))


def _end_weights(omega: np.ndarray, tau: np.ndarray, rows: int) -> np.ndarray | None:
    """End weights g_{n1} g_{nM} of the lowest ``rows`` modes, or None.

    ``omega`` is the whole ascending spectrum.  ``rows`` < M only for a
    chain with eps = 0, whose spectrum is symmetric and whose other weights
    repeat these up to sign.  For a Jacobi matrix with off-diagonal -tau_j
    (Parlett, The Symmetric Eigenvalue Problem, 1980)

        g_{n1} g_{nM} = prod_j (-tau_j) / prod_{k != n} (omega_n - omega_k),

    so with tau > 0 and ascending omega the sign is (-1)^(n-1) for 1-based n.
    The magnitude is a sum of logs taken over chunks of rows of the gap
    matrix, each built, with its logs and then its reciprocals, in two
    buffers made once per call, so memory stays O(M) for large M.  The weights are certified, and
    returned, only when every gap is > 0, sum_n |w_n| over all M modes is
    <= 1 + 64 M eps (the exact weights meet it by Cauchy-Schwarz), and every
    weight's first-order error under eigenvalue errors of eps ||T||,
    2 eps ||T|| |w_n| sum_{k != n} 1/|omega_n - omega_k|, is <= 64 M eps.
    Computed eigenvalues that tie fail it, and so do near ties.
    """
    M = omega.size
    if not (omega[1:] > omega[:-1]).all():
        return None
    log_gaps, inv_gaps = np.empty(rows), np.empty(rows)
    chunk = min(rows, max(1, _GAP_CHUNK // M))
    gaps, work = np.empty((2, chunk, M))
    with np.errstate(over="ignore"):  # 1/gap overflows for subnormal gaps, exp for huge weights
        for lo in range(0, rows, chunk):
            hi = min(rows, lo + chunk)
            g, f = gaps[: hi - lo], work[: hi - lo]
            np.abs(np.subtract(omega[lo:hi, None], omega, g), g)
            g.reshape(-1)[lo :: M + 1] = 1.0  # each row's own entry, (r, lo + r)
            np.log(g, f).sum(axis=1, out=log_gaps[lo:hi])
            np.divide(1.0, g, f).sum(axis=1, out=inv_gaps[lo:hi])
        w = np.exp(np.log(tau).sum() - log_gaps)
    inv_gaps -= 1.0  # less the diagonal's 1
    w[1::2] *= -1.0
    total = np.abs(w).sum()
    if rows < M:  # each weight stands for its mirror mode too, bar an odd chain's zero mode
        total = 2.0 * total - (abs(w[-1]) if M % 2 else 0.0)
    eps = np.finfo(float).eps
    with np.errstate(invalid="ignore"):  # 0 * inf at subnormal hoppings: a NaN, refused below
        first_order = 2.0 * eps * max(-omega[0], omega[-1]) * np.abs(w) * inv_gaps
    if not (total <= 1.0 + 64 * M * eps and first_order.max() <= 64 * M * eps):
        return None
    return w


def diagonalize(spec: ChainSpec) -> Spectrum:
    """The spectrum of the chain Hamiltonian, solved when first read.

    Backed by the LAPACK symmetric-tridiagonal solvers, O(M^2) instead of the
    dense O(M^3) path.  Rows of ``g`` keep LAPACK's signs; no output depends on
    them, as every quantity holds each eigenvector an even number of times.
    """
    return Spectrum(spec)


def _boundary_shift(k: np.ndarray, x: float) -> np.ndarray:
    """Quantization shift of an edge-weakened chain, in (0, pi).

    Derived by matching a sin(kj + delta) interior ansatz to the weakened
    edge rows: tan psi = c tan k with c = x^2/(2 - x^2), taken on the branch
    continuous across k = pi/2.  The pseudo-wavevector equation then reads
    (M+1) k_n = pi n + 2 (k_n - psi(k_n)).
    """
    c = x * x / (2.0 - x * x)
    # acot on the (0, pi) branch.  Below x ~ 1e-154, c or sin(k) c underflows
    # to 0 and cot(k)/c overflows to +-inf, whose arctan is the right limit.
    with np.errstate(divide="ignore", over="ignore"):
        return 0.5 * np.pi - np.arctan(np.cos(k) / (np.sin(k) * c))


def pseudo_wavevectors(M: int, x: float) -> np.ndarray:
    """Solve the boundary-modified quantization condition of the edge chain.

    Returns the M non-decreasing pseudo-wavevectors k_n in (0, pi);
    -2 tau cos(k_n) reproduces the eigenvalues of edge_modified_chain(M, tau, x).
    At x = 1 the shift vanishes and k_n = pi n / (M + 1) exactly.  The two
    modes bound to the weakened edges sit next to k = pi/2, split by O(x^2)
    for even M and O(x) for odd M; once that splitting is below one ulp of
    pi/2 (2.2e-16, from x ~ 1e-8 for even M and x ~ 1e-15 for odd M) the
    two roots come out equal.  Every other pair stays strictly increasing.

    One bisection runs over all M brackets at once, with one stop rule: a
    bracket is halved until its midpoint is one of its ends, so its ends are
    adjacent doubles across which the residual changes sign, and that midpoint
    is the root.  200 halvings bound the loop.  It cannot fail for x in (0, 1],
    because every starting bracket holds exactly one sign change of a rising
    residual (comment below).
    """
    _count("M", M, 1)
    _real("x", x, 0.0, 1.0)

    # The residual (M-1) k + 2 psi(k) - pi n rises with k, and psi in (0, pi)
    # makes it tend to -pi n < 0 at k = 0+ and to (M + 1 - n) pi > 0 at
    # k = pi-, so [0+, pi-] brackets exactly one root for every n in 1..M.
    target = np.pi * np.arange(1, M + 1)
    lo = np.full(M, 1e-12)
    hi = np.full(M, np.pi - 1e-12)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        # a midpoint that is an end keeps the residual's sign there, so its bracket stays put
        below = (M - 1) * mid + 2.0 * _boundary_shift(mid, x) - target < 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def linearity_deviation(spectrum: Spectrum, index_range: tuple[int, int]) -> float:
    """Worst relative deviation of eigenvalue spacings from their mean.

    ``index_range`` is a 1-based inclusive (lo, hi) mode window of at least
    three modes.  Returns max_n |omega_{n+1} - omega_n - s| / s with s the
    mean spacing in the window; 0 means exactly equispaced.
    """
    lo, hi = index_range
    _count("index_range[0]", lo, 1, spectrum.M - 2)
    _count("index_range[1]", hi, lo + 2, spectrum.M)
    spacings = np.diff(spectrum.omega[lo - 1 : hi])
    sbar = float(np.mean(spacings))
    if sbar == 0.0:
        raise DegenerateSpectrumError("mean level spacing is zero in the window")
    return float(np.max(np.abs(spacings - sbar)) / sbar)


def _mode_coefficients(spectrum: Spectrum, state: WaveState) -> np.ndarray:
    """Mode coefficients c_n = <mode n | state> = sum_j g_{nj} z_j."""
    if state.M != spectrum.M:
        raise ValueError(f"state has {state.M} sites, spectrum has {spectrum.M}")
    return spectrum.g @ state.z


def mode_overlaps(spectrum: Spectrum, state: WaveState) -> np.ndarray:
    """Weights w_n = |<mode n | state>|^2; they sum to one."""
    return np.abs(_mode_coefficients(spectrum, state)) ** 2
