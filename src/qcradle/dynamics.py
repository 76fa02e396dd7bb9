"""
Exact single-excitation dynamics by spectral synthesis.

The amplitude on site j at time t is the mode sum

    A_j(t) = sum_n g_{nj} e^{-i omega_n t} sum_{j'} g_{nj'} z_{j'}(0),

which is exact to round-off at any t for the time-independent chain
Hamiltonian; no time stepping is involved.  On top of ``evolve`` this module
builds the site-probability grids behind the bounce diagrams, end-to-end
transfer metrics, revival fidelities, and the boundary-exposure diagnostic
for trapped packets.  The transfer peak search scans |A_M(t)| over a window
fixed by the chain, [0, 1.5 M/tau_max], which brackets ballistic first
arrival; its uniform grid of step 0.05/tau_max holds n = 30M + 1 or 30M + 2
samples.  It reads only the modes (nu, p, q) of ``Spectrum._end_modes``, in
which the end amplitude is the real form

    A_M(t) = sum_k p_k cos(nu_k t) - i sum_k q_k sin(nu_k t).

A chain with eps = 0 folds onto (M + 1) // 2 modes and one of the two sums
(q alone for even M, p alone for odd M); any other chain has nu = omega and
p = q = g_{n1} g_{nM}.  ``Spectrum`` derives these from the eigenvalues
without building the M^2 eigenvectors.  The grid is factored into two phase
blocks so the scan is a real matrix product over the nonzero sums, added in
place into one accumulator over chunks of at most K = 128 modes, in
O(sqrt(n) K + n) memory.  Each block holds powers of one step phase per mode,
built by doubling, so the scan carries an O(sqrt(n) eps) sum_n |w_n|
round-off; it only picks the sample to refine, the scan's first maximum.
Golden-section search then refines that sample through the point kernel
``_end_kernel``, bound once per transfer to the modes and its work buffers.
``end_amplitude`` calls the same kernel, so every reported amplitude is the
same direct sum over the modes at one time.

Times are in units of inverse energy (hbar = 1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from ._golden import golden_max
from .chains import WaveState, _count, _readonly
from .errors import TooLargeError
from .spectral import Spectrum

# Guardrail on dense probability grids: T * M cells per call.
GRID_CELL_CAP = 100_000

# Peak-search window and coarse resolution, in units of the largest hopping:
# ballistic transport at group velocity 2*tau puts first arrival near
# M/(2*tau), so 1.5*M/tau brackets it for every chain family here.
PEAK_WINDOW_FACTOR = 1.5
PEAK_COARSE_STEP = 0.05
PEAK_TIME_TOL = 1e-6

# Modes per chunk of the coarse scan: its phase blocks stay ~0.5 MB each at
# M = 2000, and every tuner chain (M = 100 folds to 50 modes) is one chunk.
_SCAN_MODES = 128


@dataclass(frozen=True, eq=False)
class EvolutionGrid:
    """Site probabilities |A_j(t)|^2 on a uniform time grid."""

    times: np.ndarray
    prob: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _readonly(np.asarray(self.times, dtype=float)))
        object.__setattr__(self, "prob", _readonly(np.asarray(self.prob, dtype=float)))


@dataclass(frozen=True)
class TransferReport:
    """Peak end-site amplitude found in a time window."""

    peak_time: float
    peak_amplitude: float
    window: tuple[float, float]
    samples: int


def evolve(spectrum: Spectrum, state0: WaveState, t: float) -> WaveState:
    """Evolve ``state0`` for time ``t`` (negative t reverses time)."""
    if state0.M != spectrum.M:
        raise ValueError(f"state has {state0.M} sites, spectrum has {spectrum.M}")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    c = spectrum.g @ state0.z
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
    if state0.M != spectrum.M:
        raise ValueError(f"state has {state0.M} sites, spectrum has {spectrum.M}")
    if not 0.0 < t_max < math.inf:
        raise ValueError("t_max must be finite and > 0")
    _count("steps", steps, 2)
    cells = steps * spectrum.M
    if cells > max_cells:
        raise TooLargeError(f"grid of {steps} x {spectrum.M} = {cells} cells exceeds cap {max_cells}")
    times = np.linspace(0.0, t_max, steps)
    c = spectrum.g @ state0.z
    amps = (np.exp(-1j * np.outer(times, spectrum.omega)) * c) @ spectrum.g
    return EvolutionGrid(times=times, prob=np.abs(amps) ** 2)


def _fill_powers(table: np.ndarray, phase: np.ndarray) -> None:
    # table[..., k, :] = table[..., 0, :] * phase^k for every row k, by
    # doubling: rows [k, 2k) are rows [0, k) times phase^k, squared in place
    count = table.shape[-2]
    k = 1
    while k < count:
        np.multiply(table[..., : min(k, count - k), :], phase, table[..., k : 2 * k, :])
        k *= 2
        if k < count:
            np.multiply(phase, phase, phase)


def _end_abs_scan(nu: np.ndarray, p, q, dt: float, n: int) -> np.ndarray:
    """|A_M(t)| for a kick at site 1 on the uniform grid k*dt, k < n.

    ``(nu, p, q)`` are the modes of ``Spectrum._end_modes``; a None half is
    skipped.  Complex weights p e^{-i nu t0}, q e^{-i nu t0} scan the grid
    that starts at t0.  Each grid time is factored as (b*B + k)*dt with
    B = ceil(sqrt(n)), so C = Re sum p e^{-i nu t} and S = Re sum i q e^{-i nu t}
    come from a ceil(n/B) x K outer-phase block and a B x K inner-phase block
    per chunk of at most K = ``_SCAN_MODES`` modes, whose products are summed
    in place into one ceil(n/B) x B accumulator per sum: O(sqrt(n)*K + n)
    memory instead of O(n*M).  Re(a b) is the real dot of conj(a) with b,
    both seen as (re, im) pairs, so each chunk is one real matrix product over
    the nonzero halves: for a folded chain, a quarter of the flops of a
    complex product over all M modes.  Both blocks are powers of one step
    phase per mode, built by doubling (``_fill_powers``); the outer block
    starts from the conjugated weights, so it is the left factor as built.
    No power exceeds B, which bounds the round-off drift by
    O(sqrt(n)*eps) * sum|w|: enough to pick the coarse argmax, which is all
    the scan is used for.
    """
    B = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    nb = -(-n // B)
    weights = []
    if p is not None:
        weights.append(p)
    if q is not None:
        weights.append(1j * q)
    parts = np.zeros((len(weights) * nb, B))
    for lo in range(0, nu.size, _SCAN_MODES):
        chunk = slice(lo, lo + _SCAN_MODES)
        modes = nu[chunk]
        # conj(w e^{-i nu b B dt}), b < nb, and e^{-i nu k dt}, k < B
        lhs = np.empty((len(weights), nb, modes.size), dtype=complex)
        for i, c in enumerate(weights):
            np.conj(c[chunk], lhs[i, 0])
        _fill_powers(lhs, np.exp(1j * (B * dt) * modes))
        inner = np.empty((B, modes.size), dtype=complex)
        inner[0] = 1.0
        _fill_powers(inner, np.exp(-1j * dt * modes))
        lhs = lhs.view(float).reshape(-1, 2 * modes.size)
        inner = inner.view(float)
        # parts += lhs @ inner.T in place: the transposed views are
        # Fortran-ordered, so BLAS reads and writes them without a copy
        blas.dgemm(1.0, inner.T, lhs.T, beta=1.0, c=parts.T, trans_a=1, overwrite_c=1)
        del lhs, inner  # before the next chunk's blocks are built
    parts = parts.reshape(len(weights), -1)[:, :n]
    return np.hypot(*parts) if len(weights) == 2 else np.abs(parts[0])


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
        if q is None:  # C - i 0
            return complex(p.dot(np.cos(x, x)), -0.0)
        if p is None:
            return complex(0.0, -q.dot(np.sin(x, x)))
        return complex(p.dot(np.cos(x, y)), -q.dot(np.sin(x, x)))

    return amp


def end_amplitude(spectrum: Spectrum, t: float) -> complex:
    """End-site amplitude A_M(t) for a kick at site 1.

    The mode sum A_M(t) = sum_n g_{n1} g_{nM} e^{-i omega_n t}, taken by the
    peak search's point kernel over the same modes (``Spectrum._end_modes``),
    so |A_M| at a reported peak time equals the reported peak amplitude
    exactly, on any chain.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return _end_kernel(*spectrum._end_modes)(t)


def peak_transfer(spectrum: Spectrum) -> TransferReport:
    """Largest |A_M(t)| over the window (0, 1.5 M/tau_max) for the kick-at-1 state.

    The window is fixed by the chain (tau_max = 1 for one site) and is
    reported as ``TransferReport.window``.  A coarse uniform scan of step
    0.05/tau_max, n = 30M + 1 or 30M + 2 samples in O(sqrt(n) K + n) memory
    (K = 128 modes per chunk), picks the first maximum of the computed scan;
    golden-section search refines it to time tolerance 1e-6.  Deterministic,
    but on a profile flat to round-off the scan's round-off, not the
    earliest time, picks that sample.  A window end that overflows (a
    subnormal tau_max) raises ValueError.
    """
    tau = spectrum.spec.tau
    tau = float(tau.max()) if tau.size else 1.0
    T = PEAK_WINDOW_FACTOR * spectrum.M / tau
    if T == math.inf:
        raise ValueError(f"peak-search window 1.5 M/tau_max overflows at tau_max = {tau!r}")
    n = math.ceil(T * tau / PEAK_COARSE_STEP) + 1
    dt = T / (n - 1)
    modes = spectrum._end_modes
    t_best = int(_end_abs_scan(*modes, dt, n).argmax()) * dt
    amp = _end_kernel(*modes)
    f_best = abs(amp(t_best))

    a = max(0.0, t_best - dt)
    b = min(T, t_best + dt)
    t_ref, f_ref, evals = golden_max(lambda t: abs(amp(t)), a, b, PEAK_TIME_TOL)
    if f_ref > f_best:
        t_best, f_best = t_ref, f_ref
    return TransferReport(
        peak_time=float(t_best),
        peak_amplitude=float(f_best),
        window=(0.0, T),
        samples=n + evals + 1,
    )


def revival_fidelity(spectrum: Spectrum, state0: WaveState, t: float) -> float:
    """|<state0 | state(t)>| for evolution under the spectrum."""
    zt = evolve(spectrum, state0, t).z
    return float(abs(np.vdot(state0.z, zt)))


def edge_exposure(grid: EvolutionGrid, edge_width: int) -> float:
    """Largest total probability on the outermost sites at both chain ends.

    Scans every sampled time of the grid; ``edge_width`` sites per end.
    """
    M = grid.prob.shape[1]
    if not isinstance(edge_width, numbers.Integral) or edge_width < 1 or 2 * edge_width > M:
        raise ValueError(f"edge_width must lie in 1..{M // 2}")
    p = grid.prob
    exposure = p[:, :edge_width].sum(axis=1) + p[:, M - edge_width :].sum(axis=1)
    return float(np.max(exposure))
