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
``_peak`` searches it.  A coarse scan (``_end_abs_scan``) of |A_M| on a
grid picks the sample to refine through the point kernel ``_end_kernel``,
which ``end_amplitude`` calls too.  A large scan runs in float32 under a
proven error bound delta (``_scan_bound``): the samples within 2 delta of
its maximum hold the true one, and the kernel re-checks them.  A small scan,
or one with too many such samples, runs in float64 and picks its maximum.

Times are in units of inverse energy (hbar = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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

# The coarse scan's precisions: weight floor tiny/eps, complex type of the
# phase blocks, and GEMM, per float type
_PRECISIONS = {
    t: (
        np.finfo(t).tiny / np.finfo(t).eps,
        np.promote_types(t, np.complex64),
        blas.get_blas_funcs("gemm", dtype=t),
    )
    for t in (np.float32, np.float64)
}

# _peak scans in float32 from this many modes x samples up.  Below it the
# float32 scan saves less than its bound and candidates cost: with one BLAS
# thread, its peak search took 1.09 and 1.11 times the float64 one at 150050
# and 337575 (M = 100 and 150, folded) and 1.02 at 300100 (M = 100, unfolded),
# 0.94 and 0.90 at 600100 and 675150 (M = 200 folded, M = 150 unfolded).
_FLOAT32_SCAN_WORK = 2**19

# Most candidate samples that _peak re-checks through the point kernel; a larger
# set takes the argmax of the float64 scan instead.  With one BLAS thread a
# re-check costs 2 us at M = 100 and 9 us at M = 2000, and a float64 scan 85 us
# and 8 ms: 64 re-checks cost at most 1.5 float64 scans at M = 100 and under
# 0.6 of one from M = 300 up.  The tuner grid's largest set is 33.
_PEAK_CANDIDATES = 64


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
    cast = phase.dtype != table.dtype
    k = 1
    while k < count:
        anchor = phase.astype(table.dtype) if cast else phase
        np.multiply(table[..., : min(k, count - k), :], anchor, table[..., k : 2 * k, :])
        k *= 2
        if k < count:
            np.multiply(phase, phase, phase)


def _end_abs_scan(nu: np.ndarray, p, q, dt: float, n: int, dtype=np.float64) -> np.ndarray:
    """|A_M(t)| for a kick at site 1 on the uniform grid k*dt, k < n, computed in ``dtype``.

    ``(nu, p, q)`` are the modes of ``Spectrum._end_modes``; a None half is
    skipped.  Complex weights p e^{-i nu t0}, q e^{-i nu t0} scan the grid
    that starts at t0.  The values are float64; ``_scan_bound`` bounds their
    error a priori.  Each grid time is factored as (b*B + k)*dt with
    B = ceil(sqrt(n)), so C = Re sum p e^{-i nu t} and S = Re sum i q e^{-i nu t}
    come from a ceil(n/B) x K outer-phase block and a B x K inner-phase block
    per chunk of at most K = ``_SCAN_MODES`` modes, whose products are summed
    into one ceil(n/B) x B accumulator per sum: O(sqrt(n)*K + n) memory
    instead of O(n*M).  Re(a b) is the real dot of conj(a) with b, both seen
    as (re, im) pairs, so each chunk is one real GEMM over the nonzero
    halves: for a folded chain, a quarter of the flops of a complex product
    over all M modes.  Blocks, GEMM and accumulator are all in ``dtype``:
    float32 takes complex64 blocks and sgemm, half the bytes and about 40% of
    the time of float64.  Both blocks are powers of one step phase per mode
    (``_fill_powers``); the outer block starts from the conjugated weights,
    so it is the left factor as built.  Weights below tiny/eps of ``dtype``
    are set to 0 first, as their products would be subnormal, which is slow:
    the tail of a pst chain's weights took the float32 scan at M = 2000 from
    3.6 to 15.5 ms.  ``Spectrum._end_modes`` has already zeroed those below
    float64's (``_WEIGHT_FLOOR``).
    """
    B = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    nb = -(-n // B)
    floor, cplx, gemm = _PRECISIONS[dtype]
    weights = ([] if p is None else [p]) + ([] if q is None else [1j * q])
    if floor > _WEIGHT_FLOOR:
        weights = [np.where(np.abs(c) < floor, 0.0, c) for c in weights]
    parts = np.empty((len(weights) * nb, B), dtype=dtype)
    prod = np.empty_like(parts) if nu.size > _SCAN_MODES else None
    for lo in range(0, nu.size, _SCAN_MODES):
        chunk = slice(lo, lo + _SCAN_MODES)
        modes = nu[chunk]
        # conj(w e^{-i nu b B dt}), b < nb, and e^{-i nu k dt}, k < B
        lhs = np.empty((len(weights), nb, modes.size), dtype=cplx)
        for i, c in enumerate(weights):
            np.conj(c[chunk], lhs[i, 0])
        _fill_powers(lhs, np.exp(1j * (B * dt) * modes))
        inner = np.empty((B, modes.size), dtype=cplx)
        inner[0] = 1.0
        _fill_powers(inner, np.exp(-1j * dt * modes))
        lhs = lhs.view(dtype).reshape(-1, 2 * modes.size)
        inner = inner.view(dtype)
        # lhs @ inner.T, the first chunk's into the accumulator and each later
        # one's into prod, then added: the transposed views are Fortran-ordered,
        # so BLAS reads and writes them without a copy
        gemm(1.0, inner.T, lhs.T, c=(prod if lo else parts).T, trans_a=1, overwrite_c=1)
        if lo:
            parts += prod
        del lhs, inner  # before the next chunk's blocks are built
    parts = parts.reshape(len(weights), -1)[:, :n]
    return np.hypot(*parts, dtype=float) if len(weights) == 2 else np.abs(parts[0], dtype=float)


def _scan_bound(nu: np.ndarray, p, q, dt: float, n: int, dtype) -> float:
    """delta: every value of ``_end_abs_scan(nu, p, q, dt, n, dtype)`` is within delta of
    the exact |A_M(k dt)| and of the point kernel's (``_end_kernel``) value there.

    From the standard model (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sections 2.1 and 3.1), on the modes of
    ``Spectrum._end_modes``: u is the unit round-off of ``dtype``, u_d that
    of float64, gamma_k = k u/(1 - k u); a real product that underflows is
    off by at most u*tiny more (gradual underflow); cos and sin are within
    4 ulp; and prod (1 + x_i) - 1 <= s/(1 - s), s = sum x_i.  Per sum (C or
    S), with W its sum |w|:

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
       of the weight, u + 8u^2.
    3. Products.  The exact dot of the computed blocks is within
       (lambda + iota + lambda iota) W_c of a chunk's exact sum, and its 2K
       terms add up in modulus to at most (1 + lambda)(1 + iota) W_c, as
       |ab| + |cd| <= |(a, c)| |(b, d)|.  GEMM adds gamma_2K + 4u^2 (its
       underflows) times that, and summing the chunks gamma_(chunks - 1)
       times the sum of the chunk products' moduli: all told
       (1 + lambda)(1 + iota)(1 + dot) - 1 <= (1 + dot)/((1 - s_i)(1 - s_o)) - 1
       times W, dot = g + gamma_(chunks - 1)(1 + g), g = gamma_2K + 4u^2.
    4. |A| = hypot(C, S) moves by at most |dC| + |dS|.
    5. The exact |A| and the point kernel's, at t = fl(k dt) (its rounding
       of t and nu t, of cos and sin, of the dot over N modes and of the
       modulus), and the scan's own modulus lie within
       (3|nu| n dt u_d + gamma^d_(N + 32)) W of each other, with u_d W to
       spare for rounding a threshold below the top.

    delta is the sum of these terms over both sums at |nu| = max |nu|, times
    1 + gamma^d_(2N + 64) for its own rounding in float64.  At M = 2000 it
    is 1.9e-5 in float32, 50 to 170 times the largest error seen.
    """
    u, ud = float(np.finfo(dtype).eps) / 2, 2.0**-53
    B = math.isqrt(n - 1) + 1
    nb = -(-n // B)
    mu, mud = 2.0**0.5 * 2 * u / (1 - 2 * u), 2.0**0.5 * 2 * ud / (1 - 2 * ud)
    span = max(-float(nu[0]), float(nu[-1])) * dt  # max |nu| dt, as nu ascends
    step = u + mu + 8 * u * u
    s_i = (B - 1).bit_length() * step + (B - 1) * ((2 * span + 12) * ud + mud)
    s_o = u + 8 * u * u + (nb - 1).bit_length() * step + (nb - 1) * ((3 * B * span + 12) * ud + mud)
    terms, chunks = 2 * min(_SCAN_MODES, nu.size), -(-nu.size // _SCAN_MODES)
    g = terms * u / (1 - terms * u) + 4 * u * u
    dot = g + (chunks - 1) * u / (1 - (chunks - 1) * u) * (1 + g)
    rel = (1 + dot) / ((1 - s_i) * (1 - s_o)) - 1
    double = 3 * span * n * ud + (nu.size + 32) * ud / (1 - (nu.size + 32) * ud)
    halves = [w for w in (p, q) if w is not None]
    W = sum(float(np.abs(w).sum()) for w in halves)
    delta = W * (rel + double) + len(halves) * nu.size * _PRECISIONS[dtype][0]
    return delta * (1 + (2 * nu.size + 64) * ud / (1 - (2 * nu.size + 64) * ud))


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

    The coarse scan ``_end_abs_scan`` of n samples k*dt, dt = T/(n - 1),
    runs in float32 from ``_FLOAT32_SCAN_WORK`` modes x samples up.  It is
    then within delta (``_scan_bound``) of both the exact |A_M| and the
    point kernel ``_end_kernel`` at every sample, so the samples within
    2 delta of its maximum hold the maximum of each.  The kernel
    re-evaluates these candidates and picks the best, the earliest on a
    tie.  A smaller scan, or more than ``_PEAK_CANDIDATES`` candidates (a
    profile far below sum |w|, as on a nearly cut chain), takes the first
    maximum of the float64 scan instead.
    ``golden_max`` refines the pick within dt, clipped to [0, T], through
    the kernel to time tolerance PEAK_TIME_TOL * dt / PEAK_COARSE_STEP, the
    same fraction of the step at every time scale.  samples = n + refine
    evaluations + 1 (the picked sample's kernel value; the other candidates
    are grid samples, already counted).
    """
    dt = T / (n - 1)
    amp = _end_kernel(*modes)
    k = None
    if modes[0].size * n >= _FLOAT32_SCAN_WORK:
        vals = _end_abs_scan(*modes, dt, n, np.float32)
        (near,) = np.nonzero(vals >= vals.max() - 2.0 * _scan_bound(*modes, dt, n, np.float32))
        if near.size <= _PEAK_CANDIDATES:
            best = [abs(amp(j * dt)) for j in near.tolist()]
            k = int(near[best.index(max(best))])  # the earliest on a tie
    if k is None:
        k = int(_end_abs_scan(*modes, dt, n).argmax())
    t = k * dt
    tol = PEAK_TIME_TOL * dt / PEAK_COARSE_STEP
    t, a, evals = golden_max(lambda t: abs(amp(t)), t, abs(amp(t)), dt, 0.0, T, tol)
    return t, a, n + evals + 1


def peak_transfer(spectrum: Spectrum) -> TransferReport:
    """Largest |A_M(t)| over the window (0, 1.5 M/tau_max) for the kick-at-1 state.

    The window is fixed by the chain (tau_max = 1 for one site) and is
    reported as ``TransferReport.window``; ``_peak`` searches it from a
    coarse scan of n = 30M + 1 samples, step 0.05/tau_max, in float32 from
    M = 187 up (M = 133 for a chain that does not fold its modes, such as
    one with on-site offsets): the point kernel re-checks the samples that
    the scan's error bound cannot tell from its top.  A smaller chain, or
    too many such samples, takes the float64 scan's maximum.
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
