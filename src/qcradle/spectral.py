"""
Spectral analysis of hopping chains.

Solves the real symmetric tridiagonal single-particle Hamiltonian of a
ChainSpec (``diagonalize``, which returns a ``Spectrum`` that solves on first
use), solves the boundary-modified quantization condition for the
pseudo-wavevectors of an edge-weakened chain (``pseudo_wavevectors``, by the
one root finder ``_edge_roots``, which the edge route below shares), and
provides the spectrum/state diagnostics (``linearity_deviation``,
``mode_overlaps``) used by the transfer studies.  The end-to-end transfer
reads the modes ``Spectrum._end_modes``, built without the eigenvectors by
the first of three routes that takes the chain, each returning eigenvalue
rows and end-weight magnitudes under the one contract ``_end_modes`` states:

- the perfect-transfer chain (``pst_chain``) in closed form, its spectrum
  and end weights those of a spin's J_x (``_pst_modes``, no LAPACK);
- a chain of at least ``_EDGE_ROUTE_M`` sites that is uniform outside a few
  end bonds (``uniform_chain``, ``edge_modified_chain``) from its boundary
  phase (``_edge_modes``, no LAPACK);
- any other chain, and one the routes above refuse, from the eigenvalues
  (``_eigvals``) and the gap products of ``_end_weights``.

Every tridiagonal eigensolve in the package is one ``_stevd`` call.
"""

from __future__ import annotations

import math
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

# The edge-chain route (_edge_modes): the least M that takes it, where it beats
# LAPACK's O(M^2) solve and gap logs; the most edge bond pairs it takes, as it
# loops over them in Python; and its root iteration's (_edge_roots) stop rule, a Newton
# step below 2^-40 of the root, and step cap, a guard (tuner-grid chains take <= 24 steps).
_EDGE_ROUTE_M = 300
_EDGE_BONDS = 4
_EDGE_STEPS = 128
_EDGE_TOL = 2.0**-40

# the least normal double: an edge root below it is 0, a pst scale below it refused
_TINY = np.finfo(float).tiny

# The pst route (_pst_modes) takes a chain whose bonds all lie within this of the
# perfect-transfer bonds (relative): pst_chain's lie within 1.68 eps of them for every
# M from 2 to 20000 and eight Omega from 1e-150 to 1e150
_PST_TOL = 4.0 * np.finfo(float).eps


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

        The routes' one contract: each returns ascending eigenvalue rows and the magnitudes
        |w_n| of their end weights w_n = g_{n1} g_{nM}, whose sign, (-1)^(n-1) for 1-based n
        and bonds tau > 0 (Parlett, The Symmetric Eigenvalue Problem, 1980), is applied here.
        A chain with eps = 0 is bipartite, omega_{M+1-n} = -omega_n and w_{M+1-n} =
        (-1)^(M-1) w_n: its rows are the lower (M + 1) // 2 modes, an odd chain's exact zero
        mode last, each standing for its mirror mode too bar that zero mode, and
        ``_all_mode_sum`` folds sum |w_n| over all M modes (<= 1, by Cauchy-Schwarz) onto
        them.  Even M: nu holds the M/2 negative eigenvalues, p = 0 and q = 2w.  Odd M:
        p = (2w, w_0) and q = 0.  Any other chain, and a single site: nu = omega and
        p = q = w.  A zero half is None.

        A perfect-transfer chain takes ``_pst_modes``, and an edge-engineered chain of at
        least ``_EDGE_ROUTE_M`` sites ``_edge_modes``, when they certify; any other chain
        ``_eigvals`` and ``_end_weights``, or, when computed eigenvalues tie or nearly tie,
        the eigenpairs' products g_{n1} g_{nM}, with LAPACK's signs, unfolded.  Weights
        below ``_WEIGHT_FLOOR`` are 0.
        """
        spec, M = self.spec, self.M
        modes = _pst_modes(spec)
        if modes is None and M >= _EDGE_ROUTE_M:
            modes = _edge_modes(spec)
        if modes is None:
            omega = _eigvals(spec)
            modes = omega, _end_weights(omega, spec.tau, M if spec.eps.any() else (M + 1) // 2)
        omega, w = modes
        if w is None:
            omega, g = self._eigenpairs
            w = g[:, 0] * g[:, -1]
        else:
            w[1::2] *= -1.0
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
    so J+ alone gives the lower half, -|lambda(J+)|.  Every eps = 0 chain's spectrum
    is exactly symmetric: the lower M // 2, an odd chain's exact 0, their mirror image.
    """
    d, e = spec.eps, -spec.tau
    M, m, chiral = spec.M, spec.M // 2, not d.any()
    sectors = ()
    if m == 0 or not mirror_symmetric(spec):
        omega = _stevd(d, e, vectors=False)
    elif M % 2:
        e[m - 1] *= np.sqrt(2.0)
        sectors = ((d[: m + 1], e[:m]), (d[:m], e[: m - 1]))
    else:
        edge = np.zeros(m)
        edge[-1] = e[m - 1]
        if chiral:
            omega = np.sort(-np.abs(_stevd(edge, e[: m - 1], vectors=False)))
        else:
            sectors = ((d[:m] + edge, e[: m - 1]), (d[:m] - edge, e[: m - 1]))
    if sectors:
        omega = np.sort(np.concatenate([_stevd(*s, vectors=False) for s in sectors]))
    if not chiral:
        return omega
    return np.concatenate([omega[:m], np.zeros(M % 2), -omega[:m][::-1]])


def _all_mode_sum(w: np.ndarray, M: int):
    """sum |w_n| over all M modes of a route's rows w >= 0 (``Spectrum._end_modes``)."""
    total = w.sum()
    return total if w.size == M else 2.0 * total - (w[-1] if M % 2 else 0.0)


def _end_weights(omega: np.ndarray, tau: np.ndarray, rows: int) -> np.ndarray | None:
    """End weights |g_{n1} g_{nM}| of the lowest ``rows`` modes, or None.

    ``omega`` is the whole ascending spectrum, and ``rows`` < M folds an
    eps = 0 chain (``Spectrum._end_modes``).  For a Jacobi matrix with
    off-diagonal -tau_j (Parlett, The Symmetric Eigenvalue Problem, 1980)

        g_{n1} g_{nM} = prod_j (-tau_j) / prod_{k != n} (omega_n - omega_k).

    The magnitude is a sum of logs taken over chunks of rows of the gap
    matrix, each built, with its logs and then its reciprocals, in two
    buffers made once per call, so memory stays O(M) for large M.  The weights
    are certified, and returned, only when every gap is > 0, ``_all_mode_sum``
    is <= 1 + 64 M eps, and every weight's first-order error under eigenvalue errors of eps ||T||,
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
    eps = np.finfo(float).eps
    with np.errstate(invalid="ignore"):  # 0 * inf at subnormal hoppings: a NaN, refused below
        first_order = 2.0 * eps * max(-omega[0], omega[-1]) * w * inv_gaps
    if not (_all_mode_sum(w, M) <= 1.0 + 64 * M * eps and first_order.max() <= 64 * M * eps):
        return None
    return w


def diagonalize(spec: ChainSpec) -> Spectrum:
    """The spectrum of the chain Hamiltonian, solved when first read.

    Backed by the LAPACK symmetric-tridiagonal solvers, O(M^2) instead of the
    dense O(M^3) path.  Rows of ``g`` keep LAPACK's signs; no output depends on
    them, as every quantity holds each eigenvector an even number of times.
    """
    return Spectrum(spec)


def _pst_modes(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray] | None:
    """Folded modes (omega, |w|) of a perfect-transfer chain in closed form, or None.

    The chain tau_j = Omega sqrt(j (M - j)), eps = 0, is -2 Omega J_x of a spin (M - 1)/2
    (Christandl et al., PRL 92, 187902, 2004): omega_n = Omega (2n - M - 1) and
    |w_n| = C(M - 1, n - 1) / 2^(M-1), the Krawtchouk weights, so A_M(t) = (i sin Omega t)^(M-1).
    The rows are ``Spectrum._end_modes``' folded ones, an odd chain's zero mode as exactly +0.0.
    The weights are exp of a cumulative sum of log(k/(M - k)) run outward from the largest,
    last one, and are divided by ``_all_mode_sum``, as the exact |w_n| sum to 1 (the binomial
    theorem): no LAPACK call, gap product or eigenvector.  Subtracting (M - 1) log 2 from
    a cumulative sum run from the first weight instead would carry the rounding of sums
    up to M log 2 into every weight (sum |dw| = 1.9e-11 at M = 20000, against 1.9e-16).

    A chain of M >= 2 sites is taken when eps = 0 and every bond lies within ``_PST_TOL``
    (4 eps, relative) of Omega^ sqrt(j (M - j)), Omega^ = tau_1 / sqrt(M - 1), with
    4 eps Omega^ a normal number; the second bond is tested first, in O(1), so other
    chains are refused before any O(M) work.  The modes returned are then the exact
    modes of a chain whose bonds differ from the given ones by at most 4 eps relative:
    a backward error E with ||E|| <= 4 eps ||T||, below the O(M eps ||T||) that LAPACK's
    own backward-stable solve commits; and with eps = 0 a relative bond perturbation
    moves every eigenvalue by a relative amount only (Demmel and Kahan, SIAM J. Sci.
    Stat. Comput. 11, 873, 1990).
    """
    M, tau = spec.M, spec.tau
    if M < 2:
        return None
    omega_hat = tau[0] / math.sqrt(M - 1)
    if M > 2:
        ref = omega_hat * math.sqrt(2.0 * (M - 2))
        if not abs(tau[1] - ref) <= _PST_TOL * ref:
            return None
    if spec.eps.any() or omega_hat * _PST_TOL < _TINY:  # a subnormal tolerance is not 4 eps
        return None
    j = np.arange(1.0, M)
    ref = omega_hat * np.sqrt(j * (M - j))
    if not (np.abs(tau - ref) <= _PST_TOL * ref).all():
        return None
    omega = omega_hat * np.arange(1 - M, 1, 2, dtype=float)  # an odd M ends at 0 * omega_hat = +0.0
    k = np.arange(1.0, omega.size)
    log_w = np.zeros(omega.size)  # log w_k - log w_{last}
    log_w[:-1] = np.cumsum(np.log(k / (M - k))[::-1])[::-1]
    w = np.exp(log_w)
    w /= _all_mode_sum(w, M)
    return omega, w


def _edge_phase(q: np.ndarray, edge: np.ndarray):
    """The bulk phase phi(k) of a chain at k = pi/2 - q, as phi = j pi/2 + delta, and
    what the edge route reads with it: (j, delta, dphi/dk, norm, amp2).

    ``edge`` holds the chain's first b bonds over its bulk hopping, which is 1 here,
    so omega = -2 cos k.  The three-term recurrence omega g_i = -tau_{i-1} g_{i-1}
    - tau_i g_{i+1} runs from g_0 = 0, g_1 = 1 through the edge bonds to g_{b+1} and
    g_{b+2}, the first two sites of the bulk wave g_i = R sin(k i + phi), i > b.  Its
    angle at site b + 1, (b + 1) k + phi, is lifted by pi for each sign change of
    g_1 .. g_{b+1} (a Sturm count), so phi is continuous in k and the n-th mode of a
    mirror chain meets (M + 1) k + 2 phi = n pi.  That angle is split into a multiple
    of pi/2 and an arctangent of the smaller ratio of (g_{b+1} sin k, g_{b+2} -
    g_{b+1} cos k), so the integers of a residual cancel exactly and a root keeps
    its relative precision; q, not k, keeps it for the modes next to omega = 0.
    dphi/dk comes from the Christoffel-Darboux sum over sites 1 .. b + 1;
    norm = sum_{i <= b} g_i^2 (inf where g_1 underflows against the bulk) and amp2 = R^2.
    For edges near zero the last three lose precision or leave the float range, which
    the route's checks refuse; callers silence those floating-point warnings.
    """
    c, s = np.sin(q), np.cos(q)  # cos k and sin k
    c2 = 2.0 * c  # -omega
    # the pair (g_i, g_{i+1}) is carried scaled to a largest entry of 1, and g_1^2 and
    # sum_{i' <= i} g_i'^2 in the same units, so no weak bond overflows or underflows it
    g0, g, first, norm, flips, left = 0.0, np.ones_like(q), 1.0, 0.0, 0, 0.0
    for bond in edge:
        norm = norm + g * g
        g0, g = bond * g, c2 * g - left * g0
        big = np.maximum(np.abs(g0), np.abs(g))
        g0, g, shrink = g0 / big, g / big, (bond / big) ** 2
        first, norm = first * shrink, norm * shrink
        flips = flips + ((g < 0.0) != (g0 < 0.0))
        left = bond
    g2 = c2 * g - left * g0
    Y, X = g * s, g2 - c * g
    steep = np.abs(Y) > np.abs(X)
    ratio = np.where(steep, -X, Y) / np.where(steep, Y, X)
    amp2, ss, gg = X * X + Y * Y, s * s, g * g
    slope = (2.0 * ss * (norm + gg) + c * g * g2 - gg) / amp2
    b1 = len(edge) + 1
    j = 2 * flips + np.where(steep, 1, 2 * np.signbit(ratio)) - b1  # -0.0: an exact node, X < 0
    norm = np.where(first > 0.0, norm / first, np.inf)  # not 0/0
    return j, b1 * q + np.arctan(ratio), slope - b1, norm, amp2 / (ss * first)


def _edge_roots(M: int, edge: np.ndarray) -> tuple[np.ndarray, bool]:
    """The M // 2 roots q = pi/2 - k < pi/2 of (M + 1) k + 2 phi(k) = n pi, decreasing, for
    first bonds ``edge`` over the bulk hopping, and whether they converged.

    Newton in q, where a mode next to omega = 0 keeps its relative precision, vectorised
    over the roots and started from the uniform chain's k = n pi/(M + 1).  The residual
    rises with k, so its signs narrow each root's bracket, [0, pi/2] at first.  One rule
    guards each step (Brent, 1973, ch. 4): Newton where it lands strictly inside the bracket
    and is at most half the step two iterations back, else the geometric mean
    sqrt(max(lo, tiny)) sqrt(hi), which halves log(hi / max(lo, tiny)) <= 710.  So Newton
    runs only while its steps halve every two iterations: a nearly cut edge's root (q ~ x^2)
    is reached, or its upper end falls below 2 tiny and it is exactly 0, and an end dimer (a
    second bond below the first), whose Newton steps barely shrink it, cannot stall.  A root
    stops, keeping its step, once that step is below ``_EDGE_TOL`` of it; converged means all
    stop at once within ``_EDGE_STEPS`` steps.  Either way each root is a point of its
    bracket or a stopped step from one.  Its error is about the last step squared times the
    residual's curvature over its slope: far below one ulp, bar nearly tied edge modes (up
    to 1.5e-12 relative between two bracket rules, 300 random chains of 1-4 edge bond pairs).
    """
    turns = M + 1 - 2 * np.arange(1, M // 2 + 1)
    q = turns * (0.5 * np.pi / (M + 1))
    lo, hi = np.zeros(q.size), np.full(q.size, 0.5 * np.pi)
    last = older = np.full(q.size, np.inf)  # the steps one and two iterations back
    with np.errstate(all="ignore"):  # a nearly cut edge: its norms leave the float range
        for _ in range(_EDGE_STEPS):
            j, delta, slope, _, _ = _edge_phase(q, edge)
            # (M + 1) k + 2 phi - n pi, which rises with k: its integers in units of pi/2 first
            f = 0.5 * np.pi * (turns + 2 * j) + 2.0 * delta - (M + 1) * q
            root_above = f > 0.0  # k below the root
            lo, hi = np.where(root_above, q, lo), np.where(root_above, hi, q)
            step = f / (M + 1 + 2.0 * slope)
            zero = hi < 2.0 * _TINY
            done = zero | (np.abs(step) <= _EDGE_TOL * q)
            new = q + step
            newton = (lo < new) & (new < hi) & (np.abs(step) <= 0.5 * older)
            # two square roots, as the product of two small ends underflows
            mid = np.sqrt(np.maximum(lo, _TINY)) * np.sqrt(hi)
            new = np.where(zero, 0.0, np.where(done | newton, new, mid))
            older, last, q = last, np.abs(new - q), new
            if done.all():
                return q, True
    return q, False


def _edge_modes(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray] | None:
    """Folded modes (omega, |w|) of an edge-engineered chain in O(M) without LAPACK, or None.

    The chain must be mirror-symmetric with eps = 0, and uniform (hopping t) outside its
    b <= ``_EDGE_BONDS`` end bonds, none stronger than t: then every mode lies in the
    band (Gershgorin), omega = -2t cos k with k real, and in the bulk it is the wave
    R sin(k j + phi(k)) whose phase ``_edge_phase`` gives (Wojcik et al., PRA 72, 034303,
    2005; Banchi et al., NJP 13, 123006, 2011).  Mirror symmetry quantises k:
    (M + 1) k + 2 phi(k) = n pi, whose M // 2 roots below the band centre
    ``_edge_roots`` gives in q = pi/2 - k, the folded rows of ``Spectrum._end_modes``.

    The weights are |w_n| = g_{n1}^2, and with g_1 = 1 the norm 1/g_{n1}^2 is
    twice the b edge sites' sum plus the bulk's in closed form,
    R^2/2 (L - (-1)^n sin(L k)/sin k) over its L = M - 2b sites: no gap product enters.
    A mode whose g_1 underflows against its bulk has weight 0.  Certified, and returned,
    only when the iteration converged, the roots strictly decrease in q within (0, pi/2)
    (an even chain's last may be 0: an end pair split below the normal range), and
    ``_all_mode_sum`` lies within 64 M eps of 1, as the exact g_{n1}^2 sum to 1.
    """
    M, tau = spec.M, spec.tau
    if M < 2 or spec.eps.any() or not mirror_symmetric(spec):
        return None
    t = tau[(M - 2) // 2]  # a middle bond
    off = np.flatnonzero(tau[: M // 2] != t)
    b = int(off[-1]) + 1 if off.size else 0
    if b > _EDGE_BONDS or (tau[:b] > t).any():
        return None
    edge = tau[:b] / t
    roots, converged = _edge_roots(M, edge)
    q = np.append(roots, np.zeros(M % 2))
    n = np.arange(1, q.size + 1)
    with np.errstate(all="ignore"):  # a nearly cut edge: refused below, or weight 0
        _, _, _, norm, amp2 = _edge_phase(q, edge)
        L = M - 2 * b
        w = 1.0 / (2.0 * norm + 0.5 * amp2 * (L - (-1.0) ** n * np.sin(L * (0.5 * np.pi - q)) / np.cos(q)))
    eps = np.finfo(float).eps
    if not (converged and (0.0 < roots[-1] or M % 2 == 0) and roots[0] < 0.5 * np.pi
            and (roots[1:] < roots[:-1]).all() and abs(_all_mode_sum(w, M) - 1.0) <= 64 * M * eps):
        return None
    return -2.0 * t * np.sin(q) + 0.0, w  # + 0.0: the zero mode's -0.0 as 0.0


def pseudo_wavevectors(M: int, x: float) -> np.ndarray:
    """Solve the boundary-modified quantization condition of the edge chain.

    Returns the M non-decreasing pseudo-wavevectors k_n in (0, pi); -2 tau cos(k_n)
    reproduces the eigenvalues of edge_modified_chain(M, tau, x).  At x = 1 the shift
    vanishes and k_n = pi n / (M + 1) to round-off.  The two modes bound to the weakened
    edges sit next to k = pi/2, split by O(x^2) for even M and O(x) for odd M; once that
    splitting is below one ulp of pi/2 (2.2e-16, from x ~ 1e-8 for even M and x ~ 1e-15
    for odd M) the two roots come out equal.  Every other pair stays strictly increasing.

    k = pi/2 - q from ``_edge_roots`` (one edge bond x), then pi/2 for odd M, then
    pi/2 + q in reverse (k -> pi - k, the sublattice symmetry).  Each k lies within
    8 ulp(pi/2) of its root, so the smallest lose relative digits (up to 1106 ulp(k)
    at M = 2000) while -2 cos k keeps the eigenvalue.  The roots are returned converged
    or not, each in its bracket, so this cannot fail for x in (0, 1].
    """
    _count("M", M, 1)
    _real("x", x, 0.0, 1.0)
    q = _edge_roots(M, np.array([x], dtype=float))[0]
    return np.concatenate([0.5 * np.pi - q, np.full(M % 2, 0.5 * np.pi), 0.5 * np.pi + q[::-1]])


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
