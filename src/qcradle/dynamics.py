"""
Exact single-excitation dynamics by spectral synthesis.

The amplitude on site j at time t is the mode sum

    A_j(t) = sum_n g_{nj} e^{-i omega_n t} sum_{j'} g_{nj'} z_{j'}(0),

which is exact to round-off at any t for the time-independent chain
Hamiltonian; no time stepping is involved.  ``evolve`` and
``evolution_grid`` take it over every site, for the bounce diagrams,
revival fidelities and the boundary-exposure diagnostic of trapped packets.
The transfer metrics read the end amplitude of a kick at site 1 from the
modes ``Spectrum._end_modes`` alone: ``peak_transfer`` fixes the window and
``_peak`` searches it, by a coarse scan of |A_M| (``_end_abs_scan``, under
the error bound ``_scan_bound``) and a refine through the point kernel
``_end_kernel``, which ``end_amplitude`` calls too.  ``_peak``'s docstring
states the route.

Times are in units of inverse energy (hbar = 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas

from ._golden import golden_max
from .chains import WaveState, _count, _readonly, _real
from .errors import TooLargeError
from .spectral import _WEIGHT_FLOOR, Spectrum, _mode_coefficients

# Guardrail on dense probability grids: T * M cells per call.
GRID_CELL_CAP = 100_000

# Peak-search window, coarse step and refine tolerance, all in units of
# 1/tau_max: ballistic transport at group velocity 2*tau puts first arrival
# near M/(2*tau), so 1.5*M/tau brackets it for every chain family here.
PEAK_WINDOW_FACTOR = 1.5
PEAK_COARSE_STEP = 0.05
PEAK_TIME_TOL = 1e-6

# Modes per chunk of the coarse scan: its phase blocks stay ~0.25 MB each at
# M = 2000 in float32, and every tuner chain (M = 100 folds to 50 modes) is one chunk.
_SCAN_MODES = 128

# The coarse scan's precisions: weight floor tiny/eps (a Python float, so that
# the bound that adds it stays in float64), complex type of the phase blocks,
# and GEMM, per float type
_PRECISIONS = {
    t: (
        float(np.finfo(t).tiny / np.finfo(t).eps),
        np.promote_types(t, np.complex64),
        blas.get_blas_funcs("gemm", dtype=t),
    )
    for t in (np.float32, np.float64)
}

# _peak scans in float32 from this many modes x samples up.  With one BLAS thread
# (minimum of 9 x 40 calls) its peak search took 1.16, 1.09, 1.03, 1.00, 0.94 and
# 0.72 times the float64 one on the folded two-bond (0.36, 0.68) chains of M = 170,
# 187, 200, 225, 250 and 300 (433585 to 1350150), and 1.10 and 0.92 on the unfolded
# traps of M = 100 and 133 (300100 and 530803).
_FLOAT32_SCAN_WORK = 2**19

# Most candidate samples that _peak re-checks through the point kernel; a larger
# set takes the float64 scan.  With one BLAS thread a re-check costs 2.2 us at
# M = 100 and 9.5 us at M = 2000, and a float64 scan 62 us and 8.0 ms: 64
# re-checks cost at most 2.3 float64 scans at M = 100 and under 0.8 of one from
# M = 300 up.  The 50 x 50 tuner grid at M = 100 in float32 has at most 45.
_PEAK_CANDIDATES = 64

# The float32 scan's stride rule (_peak) and stencil (_end_abs_scan): strides up to
# _SCAN_STRIDE with a coarse phase step of at most _STRIDE_PHASE rad, each filled from
# _STENCIL_TAPS coarse samples.  At 0.8 rad the stencil's remainder is below
# 6e-7 sum |w| (_scan_bound); for that remainder at |nu| dt = 0.1, stride 12 needs
# 26 taps and stride 16 needs 56.
_SCAN_STRIDE = 8
_STRIDE_PHASE = 0.8
_STENCIL_TAPS = 14


@dataclass(frozen=True, eq=False)
class EvolutionGrid:
    """Site probabilities |A_j(t)|^2 on a uniform time grid."""

    times: np.ndarray
    prob: np.ndarray


@dataclass(frozen=True)
class TransferReport:
    """Peak end-site amplitude found in a time window."""

    peak_time: float
    peak_amplitude: float
    window: tuple[float, float]
    samples: int


def evolve(spectrum: Spectrum, state0: WaveState, t: float) -> WaveState:
    """Evolve ``state0`` for time ``t`` (negative t reverses time)."""
    _real("t", t)
    c = _mode_coefficients(spectrum, state0)
    z = spectrum.g.T @ (np.exp(-1j * spectrum.omega * t) * c)
    return WaveState(z=z)


def evolution_grid(
    spectrum: Spectrum,
    state0: WaveState,
    t_max: float,
    steps: int,
    max_cells: int = GRID_CELL_CAP,
) -> EvolutionGrid:
    """Probabilities on ``steps`` uniform samples of [0, t_max], endpoints included."""
    _real("t_max", t_max, 0.0)
    _count("steps", steps, 2)
    cells = steps * spectrum.M
    if cells > max_cells:
        raise TooLargeError(f"grid of {steps} x {spectrum.M} = {cells} cells exceeds cap {max_cells}")
    c = _mode_coefficients(spectrum, state0)
    times = np.linspace(0.0, t_max, steps)
    amps = (np.exp(-1j * np.outer(times, spectrum.omega)) * c) @ spectrum.g
    return EvolutionGrid(times=_readonly(times), prob=_readonly(np.abs(amps) ** 2))


def _fill_powers(table: np.ndarray, phase: np.ndarray) -> None:
    """Row k of ``table`` (its axis -2) becomes row 0 times phase^k, by doubling.

    Rows [k, 2k) are rows [0, k) times phase^k for k = 1, 2, 4, ...: phase^k
    is squared in place in phase's own precision (complex128) and rounded to
    the table's for each use, so row k takes popcount(k) products, each by a
    once-rounded anchor phase^(2^j), in the table's precision, not k
    chained ones.
    """
    count = table.shape[-2]
    k = 1
    while k < count:
        anchor = phase.astype(table.dtype, copy=False)
        np.multiply(table[..., : min(k, count - k), :], anchor, table[..., k : 2 * k, :])
        k *= 2
        if k < count:
            np.multiply(phase, phase, phase)


@functools.cache
def _stencil(stride: int, dtype) -> tuple[np.ndarray, float, float]:
    """The strided scan's interpolation table in ``dtype``, its Lebesgue constant and node product.

    Entry (i, r) of the (14, stride) table is the Lagrange basis
    l_i(s) = prod_{j != i} (s - x_j)/(x_i - x_j) on the nodes x_i = i - 6 at
    s = r/stride; each factor is formed in float64 and the product is
    rounded to ``dtype`` once, and column 0 is exactly the unit vector of
    node 0.  The Lebesgue constant is max_r sum_i |table (i, r)| and the node
    product max_r prod_i |s - x_i|, both in float64 (``_scan_bound``).
    """
    x = np.arange(_STENCIL_TAPS) - (_STENCIL_TAPS // 2 - 1.0)
    s = np.arange(stride) / stride
    table = np.ones((_STENCIL_TAPS, stride))
    for i in range(_STENCIL_TAPS):
        for j in range(_STENCIL_TAPS):
            if j != i:
                table[i] *= (s - x[j]) / (x[i] - x[j])
    table = _readonly(table.astype(dtype))
    lebesgue = float(np.abs(table).sum(axis=0, dtype=float).max())
    return table, lebesgue, float(np.abs(s[:, None] - x).prod(axis=1).max())


def _scan_grid(n: int, dt: float, stride: int) -> tuple[int, float, int, int, int]:
    """(count, h, B, nb, K): the grid that ``_end_abs_scan`` sums the modes on and ``_scan_bound`` counts.

    The n samples k*dt at stride 1, else the ceil(n/stride) + 13 coarse
    times at step h = stride*dt.  Each of the count times is (b*B + j)*h,
    b < nb = ceil(count/B), j < B = ceil(sqrt(count)), and the modes are
    taken in chunks of at most K = ``_SCAN_MODES`` times isqrt(stride), as
    the coarse blocks have about 1/sqrt(stride) of the fine grid's rows.
    """
    if stride > 1:
        n, dt = (n - 1) // stride + _STENCIL_TAPS, stride * dt
    B = math.isqrt(n - 1) + 1
    return n, dt, B, -(-n // B), _SCAN_MODES * math.isqrt(stride)


def _end_abs_scan(
    nu: np.ndarray, p, q, dt: float, n: int, dtype=np.float64, stride: int = 1
) -> np.ndarray:
    """|A_M(t)| for a kick at site 1 on the uniform grid k*dt, k < n, computed in ``dtype``.

    ``(nu, p, q)`` are the modes of ``Spectrum._end_modes``; a None half is
    skipped.  Complex weights p e^{-i nu t0}, q e^{-i nu t0} scan the grid
    that starts at t0.  The values are float64; ``_scan_bound`` bounds their
    error a priori.  On the grid of ``_scan_grid`` (stride 1: the n samples),
    C = Re sum p e^{-i nu t} and S = Re sum i q e^{-i nu t} come from an
    nb x K outer-phase block and a B x K inner-phase block per chunk of
    modes, whose products are summed into one nb x B accumulator per sum:
    O(sqrt(n)*K + n) memory instead of O(n*M).  Re(a b) is the real dot of
    conj(a) with b, both seen as (re, im) pairs, so each chunk is one real
    GEMM over the nonzero halves: for a folded chain, a quarter of the flops
    of a complex product over all M modes.  Blocks, GEMM and accumulator
    are all in ``dtype``: float32 takes complex64 blocks and sgemm, half the
    bytes of float64.  Both blocks are powers of one step phase per mode
    (``_fill_powers``); the outer block starts from the conjugated weights,
    so it is the left factor as built.  Weights below tiny/eps of ``dtype``
    are set to 0 first, as their products would be subnormal, which is slow:
    the tail of a pst chain's weights took the float32 scan at M = 2000 from
    3.6 to 15.5 ms.  ``Spectrum._end_modes`` has already zeroed those below
    float64's (``_WEIGHT_FLOOR``).

    A ``stride`` m > 1 sums the modes only at the coarse times (j - 6)*m*dt,
    j < ceil(n/m) + 13, which start 6 strides before t = 0 and end 7 past
    the last sample: the scan above of the weights shifted to t0 = -6 m dt,
    with step m*dt.  Each fine sample (a*m + r)*dt, r < m, is then the
    Lagrange interpolant through the 14 coarse samples a*m*dt + i*m*dt,
    -6 <= i <= 7, of C and S apart, taken before the modulus: one
    (ceil(n/m), 14) @ (14, m) product (``_stencil``) per sum over a sliding
    window of the coarse sums.  Sample r = 0 is a coarse sample as computed.
    The chunks of isqrt(m) times ``_SCAN_MODES`` modes keep the blocks'
    bytes: at M = 2000 (m = 8, 256 modes) that took the uniform, pst and
    two-bond chains' coarse scans from 1.06-1.19 to 0.88-0.99 ms with one
    BLAS thread (384 modes gained 0.05 ms more and would loosen the bound's
    GEMM term by half again).  m = 1 is the scan above, bit for bit.
    """
    floor, cplx, gemm = _PRECISIONS[dtype]
    weights = ([] if p is None else [p]) + ([] if q is None else [1j * q])
    count, h, B, nb, K = _scan_grid(n, dt, stride)
    if stride > 1:
        shift = np.exp(1j * ((_STENCIL_TAPS // 2 - 1) * h) * nu)  # e^{-i nu t0}
        weights = [c * shift for c in weights]
    if floor > _WEIGHT_FLOOR:
        weights = [np.where(np.abs(c) < floor, 0.0, c) for c in weights]
    parts = np.empty((len(weights) * nb, B), dtype=dtype)
    prod = np.empty_like(parts) if nu.size > K else None
    for lo in range(0, nu.size, K):
        chunk = slice(lo, lo + K)
        modes = nu[chunk]
        # conj(w e^{-i nu b B h}), b < nb, and e^{-i nu k h}, k < B
        lhs = np.empty((len(weights), nb, modes.size), dtype=cplx)
        for i, c in enumerate(weights):
            np.conj(c[chunk], lhs[i, 0])
        _fill_powers(lhs, np.exp(1j * (B * h) * modes))
        inner = np.empty((B, modes.size), dtype=cplx)
        inner[0] = 1.0
        _fill_powers(inner, np.exp(-1j * h * modes))
        lhs = lhs.view(dtype).reshape(-1, 2 * modes.size)
        inner = inner.view(dtype)
        # lhs @ inner.T, the first chunk's into the accumulator and each later
        # one's into prod, then added: the transposed views are Fortran-ordered,
        # so BLAS reads and writes them without a copy
        gemm(1.0, inner.T, lhs.T, c=(prod if lo else parts).T, trans_a=1, overwrite_c=1)
        if lo:
            parts += prod
        del lhs, inner  # before the next chunk's blocks are built
    parts = parts.reshape(len(weights), -1)[:, :count]
    if stride > 1:
        # the window is a view: a contiguous copy of it measured 0.3 MB more peak RSS
        window = sliding_window_view(parts, _STENCIL_TAPS, axis=1)
        parts = (window @ _stencil(stride, dtype)[0]).reshape(len(weights), -1)[:, :n]
    return np.hypot(*parts, dtype=float) if len(weights) == 2 else np.abs(parts[0], dtype=float)


def _scan_bound(nu: np.ndarray, p, q, dt: float, n: int, dtype, stride: int = 1) -> float:
    """delta: every value of ``_end_abs_scan(nu, p, q, dt, n, dtype, stride)`` is within delta
    of the exact |A_M(k dt)| and of the point kernel's (``_end_kernel``) value there.

    From the standard model (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sections 2.1 and 3.1), on the modes of
    ``Spectrum._end_modes``: u is the unit round-off of ``dtype``, u_d that
    of float64, gamma_k = k u/(1 - k u); a real product that underflows is
    off by at most u*tiny more (gradual underflow); cos and sin are within
    4 ulp; and prod (1 + x_i) - 1 <= s/(1 - s), s = sum x_i.  Per sum (C or
    S), with W its sum |w|, on the grid ``_scan_grid`` that the modes are
    summed on (the fine grid for stride m = 1, else the coarse one, with n
    and dt there read as its count and h = fl(m dt)):

    1. Dropping weights below tiny/eps moves the sum by less than N tiny/eps
       over the N modes.  A kept |w| >= tiny/(2u), so an underflow below
       costs at most 2u^2 relative to the weight it scales.
    2. Tables.  Inner entry k is popcount(k) <= r_i = bit_length(B - 1)
       anchors, each rounded once (u) and multiplied in ``dtype``
       (mu = sqrt(2) gamma_2 per complex product, ibid. Lemma 3.5, FMA or
       not, and 8u^2 of underflow).  In complex128 the step phase is off by
       (2|nu| dt + 12) u_d (its argument's rounding, cos and sin) and anchor
       j is 2^j step phases and 2^j - 1 squarings (mu_d each), so entry k
       carries at most B - 1 of each: its error is at most
       iota = s_i/(1 - s_i), s_i = r_i (u + mu + 8u^2)
       + (B - 1)((2|nu| dt + 12) u_d + mu_d).  The outer entries' error
       relative to |w| is lambda = s_o/(1 - s_o) likewise, over
       r_o = bit_length(nb - 1) anchors and nb - 1 steps of B dt, each off by
       (3|nu| B dt + 12) u_d (B dt is rounded too), plus one more rounding,
       of the weight, u + 8u^2.  For m > 1 the weight is also shifted by
       e^{i nu fl(6h)}, formed in complex128: its argument is off by at most
       12.01 |nu| h u_d, cos and sin by 12 u_d, and the product by u_d, so
       s_o takes (13 |nu| h + 13) u_d more.
    3. Products.  The exact dot of the computed blocks is within
       (lambda + iota + lambda iota) W_c of a chunk's exact sum, and its 2K
       terms add up in modulus to at most (1 + lambda)(1 + iota) W_c, as
       |ab| + |cd| <= |(a, c)| |(b, d)|.  GEMM adds gamma_2K + 4u^2 (its
       underflows) times that, and summing the chunks gamma_(chunks - 1)
       times the sum of the chunk products' moduli: all told
       (1 + lambda)(1 + iota)(1 + dot) - 1 <= (1 + dot)/((1 - s_i)(1 - s_o)) - 1
       = rel times W, dot = g + gamma_(chunks - 1)(1 + g), g = gamma_2K + 4u^2.
       With the dropped weights, each sum is within e = W rel + N tiny/eps
       of its exact value.
    4. Stride m > 1 (``_stencil``).  Let l_i be the exact Lagrange basis at
       s = r/m, l~_i the table's entries and Lambda = max_r sum |l~_i| (1.67
       at m = 8).  Each factor of l_i is formed in float64 with relative
       error (m + 3) u_d (s = r/m is rounded, and |s/(s - x_j)| <= m - 1 for
       r >= 1), so |l~_i - l_i| <= tau |l_i|, tau = u + (1 + u) gamma^d_(13(m + 3)).
       The fine sample, exact sums c_i at the coarse nodes and computed ones
       c~_i, |c~_i - c_i| <= e, |c_i| <= W, moves by:
       - the coarse errors, sum |l~_i| |c~_i - c_i| <= Lambda e;
       - the table, sum |c_i| |l~_i - l_i| <= tau/(1 - tau) Lambda W;
       - the 14-term dot in ``dtype``, gamma_14 sum |c~_i l~_i|
         <= gamma_14 Lambda (W + e), plus 14 u tiny < tiny/eps of underflow;
       - the Lagrange remainder of the exact sum, whose 14th derivative is
         at most sum |w| |nu|^14: sum |w| (|nu| h)^14/14! max_r prod |s - x_i|
         (the node product), plus N tiny_d for the underflows of the powers;
       - the node times: they are (a + i) h, so the interpolant aims at
         (a + s) h = k h/m, within k dt u_d of k dt, where the sum moves by
         at most W |nu| n dt u_d.
       So the fine sum is within Lambda((1 + gamma_14) e
       + (gamma_14 + tau/(1 - tau)) W) + remainder + W |nu| n dt u_d
       + tiny/eps of its exact value; for m = 1 it is within e.
    5. |A| = hypot(C, S) moves by at most |dC| + |dS|.
    6. The exact |A| and the point kernel's, at t = fl(k dt) (its rounding
       of t and nu t, of cos and sin, of the dot over N modes and of the
       modulus), and the scan's own modulus lie within
       (3|nu| n dt u_d + gamma^d_(N + 32)) W of each other (fine n and dt),
       with u_d W to spare for rounding a threshold below the top.

    delta is the sum of these terms over both sums at |nu| = max |nu|, times
    1 + gamma^d_k for its own rounding in float64: k = 2N + 64, and for
    m > 1 another N + 14(m + 6) for the remainder's power sums and node
    product and the table's column sums.  At M = 2000 it is 1.9e-5 in
    float32 at m = 1, 50 to 170 times the largest error seen, and 5.8e-5 at
    m = 8, 150 to 530 times it: the GEMM's gamma_512 over 256-mode chunks
    is most of that.
    """
    u, ud = float(np.finfo(dtype).eps) / 2, 2.0**-53
    floor = _PRECISIONS[dtype][0]
    top = max(-float(nu[0]), float(nu[-1]))  # max |nu|, as nu ascends
    span = top * dt
    _, h, B, nb, K = _scan_grid(n, dt, stride)  # the grid that the modes are summed on
    coarse = top * h
    shift = 0.0 if stride == 1 else (13 * coarse + 13) * ud
    mu, mud = 2.0**0.5 * 2 * u / (1 - 2 * u), 2.0**0.5 * 2 * ud / (1 - 2 * ud)
    step = u + mu + 8 * u * u
    s_i = (B - 1).bit_length() * step + (B - 1) * ((2 * coarse + 12) * ud + mud)
    s_o = u + 8 * u * u + shift + (nb - 1).bit_length() * step
    s_o += (nb - 1) * ((3 * B * coarse + 12) * ud + mud)
    terms, chunks = 2 * min(K, nu.size), -(-nu.size // K)
    g = terms * u / (1 - terms * u) + 4 * u * u
    dot = g + (chunks - 1) * u / (1 - (chunks - 1) * u) * (1 + g)
    rel = (1 + dot) / ((1 - s_i) * (1 - s_o)) - 1
    halves = [w for w in (p, q) if w is not None]
    W = sum(float(np.abs(w).sum()) for w in halves)
    delta = W * rel + len(halves) * nu.size * floor  # e: the summed samples, terms 1-3
    own = 2 * nu.size + 64
    if stride > 1:
        _, lam, node = _stencil(stride, dtype)
        taps = _STENCIL_TAPS * u / (1 - _STENCIL_TAPS * u)
        k = 13 * (stride + 3)
        tau = u + (1 + u) * k * ud / (1 - k * ud)
        # sum |w| (|nu| h)^14 by squaring, so that no power of nu or h alone over- or underflows
        y = np.abs(nu) * h
        y *= y
        y4 = y * y
        power = sum(float(np.abs(w) @ (y4 * y4 * y4 * y)) for w in halves)
        remainder = power / math.factorial(_STENCIL_TAPS) * node
        remainder += len(halves) * nu.size * float(np.finfo(float).tiny)
        delta = lam * ((1 + taps) * delta + (taps + tau / (1 - tau)) * W) + remainder
        delta += W * span * n * ud + len(halves) * floor
        own += nu.size + 14 * (stride + 6)
    delta += W * (3 * span * n * ud + (nu.size + 32) * ud / (1 - (nu.size + 32) * ud))
    return delta * (1 + own * ud / (1 - own * ud))


def _end_kernel(nu: np.ndarray, p, q):
    """The point kernel t -> A_M(t) = p . cos(nu t) - i q . sin(nu t), bound once.

    ``(nu, p, q)`` are the modes of ``Spectrum._end_modes``; a None half is
    0 and is skipped.  Every call reuses the work buffers made here.  The
    golden refine and ``end_amplitude`` both call it, so A_M(t) has one
    definition.
    """
    x, y = np.empty(nu.size), np.empty(nu.size)

    def amp(t: float) -> complex:
        np.multiply(nu, t, x)
        C = 0.0 if p is None else p.dot(np.cos(x, y))
        S = 0.0 if q is None else q.dot(np.sin(x, x))
        return complex(C, -S)

    return amp


def end_amplitude(spectrum: Spectrum, t: float) -> complex:
    """End-site amplitude A_M(t) for a kick at site 1.

    The mode sum A_M(t) = sum_n g_{n1} g_{nM} e^{-i omega_n t}, taken by the
    peak search's point kernel over the same modes (``Spectrum._end_modes``),
    so |A_M| at a reported peak time equals the reported peak amplitude
    exactly, on any chain.
    """
    _real("t", t)
    return _end_kernel(*spectrum._end_modes)(t)


def _peak(modes, T: float, n: int) -> tuple[float, float, int]:
    """(time, amplitude, samples) of the largest |A_M(t)| on [0, T], from ``Spectrum._end_modes``.

    The peak search's route, stated here only.  The coarse scan
    ``_end_abs_scan`` of the n samples k*dt, dt = T/(n - 1), names the
    candidate samples:

    - from ``_FLOAT32_SCAN_WORK`` modes x samples up (at ``peak_transfer``'s
      n = 30M + 1, M >= 187 with folded modes and M >= 133 without) it runs
      in float32, summing the modes at every m-th sample only: m is the
      largest stride up to ``_SCAN_STRIDE`` whose coarse phase step
      max |nu| m dt is at most ``_STRIDE_PHASE`` (8 on every chain without
      on-site offsets, where max |nu| dt <= 0.1, and 1 once offsets push
      max |nu| dt above 0.4).  It is within delta (``_scan_bound``) of both
      the exact |A_M| and the point kernel ``_end_kernel`` at every sample,
      so the samples within 2 delta of its maximum, which hold the maximum
      of each, are the candidates;
    - a smaller scan, or more than ``_PEAK_CANDIDATES`` such samples (a
      profile far below sum |w|, as on a nearly cut chain), runs in float64
      at every sample, and its first maximum is the one candidate.

    The kernel's modulus at each candidate is taken once, and the best, the
    earliest on a tie, seeds ``golden_max`` with that value.  It refines the
    pick within dt, clipped to [0, T], through the kernel to time tolerance
    PEAK_TIME_TOL * dt / PEAK_COARSE_STEP, the same fraction of the step at
    every time scale.  samples = n + refine evaluations + 1 (the picked
    sample's kernel value; the other candidates are grid samples, already
    counted).
    """
    dt = T / (n - 1)
    amp = _end_kernel(*modes)
    near = []
    if modes[0].size * n >= _FLOAT32_SCAN_WORK:
        span = max(-float(modes[0][0]), float(modes[0][-1])) * dt
        stride = max((m for m in range(1, _SCAN_STRIDE + 1) if m * span <= _STRIDE_PHASE), default=1)
        vals = _end_abs_scan(*modes, dt, n, np.float32, stride)
        near = np.flatnonzero(vals >= vals.max() - 2.0 * _scan_bound(*modes, dt, n, np.float32, stride)).tolist()
    if not 0 < len(near) <= _PEAK_CANDIDATES:
        near = [int(_end_abs_scan(*modes, dt, n).argmax())]
    best = [abs(amp(k * dt)) for k in near]
    a = max(best)
    t = near[best.index(a)] * dt  # the earliest on a tie
    tol = PEAK_TIME_TOL * dt / PEAK_COARSE_STEP
    t, a, evals = golden_max(lambda t: abs(amp(t)), t, a, dt, 0.0, T, tol)
    return t, a, n + evals + 1


def peak_transfer(spectrum: Spectrum) -> TransferReport:
    """Largest |A_M(t)| over the window (0, 1.5 M/tau_max) for the kick-at-1 state.

    The window is fixed by the chain (tau_max = 1 for one site) and is
    reported as ``TransferReport.window``; ``_peak`` searches it from
    n = 30M + 1 samples, step 0.05/tau_max, by the route its docstring states.
    Deterministic, but on a profile flat to round-off, round-off, not the
    earliest time, picks the sample it refines.  A window end that overflows
    (a subnormal tau_max) raises ValueError.
    """
    tau = spectrum.spec.tau
    tau = float(tau.max()) if tau.size else 1.0
    T = PEAK_WINDOW_FACTOR * spectrum.M / tau
    if T == math.inf:
        raise ValueError(f"peak-search window 1.5 M/tau_max overflows at tau_max = {tau!r}")
    n = round(PEAK_WINDOW_FACTOR / PEAK_COARSE_STEP) * spectrum.M + 1
    t, a, samples = _peak(spectrum._end_modes, T, n)
    return TransferReport(peak_time=float(t), peak_amplitude=float(a), window=(0.0, T), samples=samples)


def revival_fidelity(spectrum: Spectrum, state0: WaveState, t: float) -> float:
    """|<state0 | state(t)>| for evolution under the spectrum."""
    zt = evolve(spectrum, state0, t).z
    return float(abs(np.vdot(state0.z, zt)))


def edge_exposure(grid: EvolutionGrid, edge_width: int) -> float:
    """Largest total probability on the outermost sites at both chain ends.

    Scans every sampled time of the grid; ``edge_width`` sites per end.
    """
    M = grid.prob.shape[1]
    _count("edge_width", edge_width, 1, M // 2)
    p = grid.prob
    exposure = p[:, :edge_width].sum(axis=1) + p[:, M - edge_width :].sum(axis=1)
    return float(np.max(exposure))
