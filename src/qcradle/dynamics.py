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
samples.  It reads only the eigenvalues and the end weights g_{n1} g_{nM},
which ``Spectrum`` derives from the eigenvalues without building the M^2
eigenvectors.  The grid is factored into two phase blocks so the whole scan
is a single complex matrix product in O(sqrt(n) M + n) = O(M^1.5) memory.
Each block holds powers of one step phase per mode, built by running
products, so the scan takes 2M exponentials and carries an O(sqrt(n) eps)
sum_n |w_n| round-off; it only picks the best coarse sample.  Golden-section
search then refines that sample, and every reported amplitude is a direct
mode sum at one time.

Times are in units of inverse energy (hbar = 1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

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


def _end_abs_scan(omega: np.ndarray, w: np.ndarray, dt: float, n: int) -> np.ndarray:
    """|A_M(t)| for a kick at site 1 on the uniform grid k*dt, k < n.

    ``omega`` are the mode frequencies and ``w`` the end weights.  Each grid
    time is factored as (b*B + k)*dt with B = ceil(sqrt(n)), so the scan
    is one complex matrix product of a B x M inner-phase block with a
    ceil(n/B) x M outer-phase block: O(sqrt(n)*M + n) memory instead of
    O(n*M).  Both blocks are running products of one step phase per mode, so
    only 2M exponentials are taken.  No power exceeds B, which bounds the
    round-off drift by O(sqrt(n)*eps) * sum|w|: enough to pick the coarse
    argmax, which is all the scan is used for.
    """
    B = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    nb = -(-n // B)
    inner = np.empty((B, omega.size), dtype=complex)
    inner[0] = 1.0
    inner[1:] = np.exp(-1j * dt * omega)
    np.cumprod(inner, axis=0, out=inner)
    outer = np.empty((nb, omega.size), dtype=complex)
    outer[0] = w
    outer[1:] = np.exp(-1j * (B * dt) * omega)
    np.cumprod(outer, axis=0, out=outer)
    return np.abs(outer @ inner.T).ravel()[:n]


def _end_sum(phase: np.ndarray, cw: np.ndarray, t: float) -> complex:
    # A_M(t) = sum_n w_n e^{-i omega_n t} from phase = -1j*omega and complex weights
    # cw; the same products and the same pairwise sum as np.sum(w * exp(...))
    z = phase * t
    np.exp(z, out=z)
    z *= cw
    return np.add.reduce(z)


def _end_abs(phase: np.ndarray, cw: np.ndarray, t: float) -> float:
    # the golden refine's objective |A_M(t)|
    return abs(_end_sum(phase, cw, t))


def end_amplitude(spectrum: Spectrum, t: float) -> complex:
    """End-site amplitude A_M(t) for a kick at site 1.

    The mode sum A_M(t) = sum_n g_{n1} g_{nM} e^{-i omega_n t} over the same
    frequencies and end weights as the peak search, so |A_M| at a reported
    peak time equals the reported peak amplitude exactly, on any chain.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    omega, w = spectrum._end_modes
    return complex(_end_sum(-1j * omega, w.astype(complex), t))


def _tau_max(spectrum: Spectrum) -> float:
    # the largest hopping sets the default window and scan step
    return float(np.max(spectrum.spec.tau)) if spectrum.M > 1 else 1.0


def default_window(spectrum: Spectrum) -> tuple[float, float]:
    return (0.0, PEAK_WINDOW_FACTOR * spectrum.M / _tau_max(spectrum))


def peak_transfer(spectrum: Spectrum) -> TransferReport:
    """Largest |A_M(t)| over ``default_window`` for the kick-at-1 state.

    The window (0, 1.5 M/tau_max) is fixed by the chain.  A coarse uniform
    scan of step 0.05/tau_max, 30M + 1 or 30M + 2 samples in O(M^1.5)
    memory, picks the best sample; golden-section search refines it to time
    tolerance 1e-6.  Deterministic: ties on the coarse grid resolve to the
    earliest time.  A window end that overflows (a subnormal tau_max) raises
    ValueError.
    """
    window = default_window(spectrum)
    T, tau = window[1], _tau_max(spectrum)
    if T == math.inf:
        raise ValueError(f"peak-search window 1.5 M/tau_max overflows at tau_max = {tau!r}")
    n = int(np.ceil(T * tau / PEAK_COARSE_STEP)) + 1
    dt = T / (n - 1)
    omega, w = spectrum._end_modes
    vals = _end_abs_scan(omega, w, dt, n)
    t_best = int(np.argmax(vals)) * dt
    phase, cw = -1j * omega, w.astype(complex)
    f_best = _end_abs(phase, cw, t_best)

    a = max(0.0, t_best - dt)
    b = min(T, t_best + dt)
    t_ref, f_ref, evals = golden_max(lambda t: _end_abs(phase, cw, t), a, b, PEAK_TIME_TOL)
    if f_ref > f_best:
        t_best, f_best = t_ref, f_ref
    return TransferReport(
        peak_time=float(t_best),
        peak_amplitude=float(f_best),
        window=window,
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
