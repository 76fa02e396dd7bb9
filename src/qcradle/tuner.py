"""
Boundary-coupling optimization for end-to-end transfer.

Weakening the outermost bonds of a uniform chain narrows the weight of the
kick state onto the quasi-linear center of the dispersion, which raises the
peak end-site amplitude well above the uniform-chain value.  This module
maximizes that peak over the edge scale factors: x alone (one bond pair) or
(x, y) with the second bond pair in play.  Both run through one kernel: a
coarse grid over every factor, then coordinate descent with one
golden-section line search per factor, a move accepted only when it strictly
improves the peak.  Sweeps repeat until no factor moves by the parameter
tolerance (at most 20); with a single factor the descent is one line search.
Everything is deterministic: fixed grids, fixed sweep order, ties resolved to
the lowest x then lowest y.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._golden import golden_max
from .chains import _count, _real, edge_modified_chain
from .dynamics import TransferReport, peak_transfer
from .spectral import diagonalize

GRID_LO = 0.02
PARAM_TOL = 1e-4
# lower clip for refinement brackets; x = 0 would disconnect the endpoints
X_FLOOR = 1e-9


@dataclass(frozen=True)
class TuneResult:
    """Best coupling factors found, with the full evaluation trace."""

    best_params: tuple[float, ...]
    best_amplitude: float
    best_time: float
    evaluations: int
    trace: tuple


def _objective(M: int, tau: float, params: tuple[float, ...]) -> TransferReport:
    return peak_transfer(diagonalize(edge_modified_chain(M, tau, *params)))


def _axis_grid(points: int) -> np.ndarray:
    # degenerate resolution anchors at the unmodified chain
    _count("points", points, 1)
    if points == 1:
        return np.array([1.0])
    return np.linspace(GRID_LO, 1.0, points)


def _tune(M: int, tau: float, pairs: int, grid: int) -> TuneResult:
    """Coarse grid over ``pairs`` edge factors, then coordinate descent."""
    xs = _axis_grid(grid).tolist()
    trace: list[tuple[tuple[float, ...], float]] = []

    def amplitude(params: tuple[float, ...]) -> float:
        amp = _objective(M, tau, params).peak_amplitude
        trace.append((params, amp))
        return amp

    best, best_amp = xs[:1] * pairs, -1.0
    for params in itertools.product(xs, repeat=pairs):
        amp = amplitude(params)
        if amp > best_amp:
            best, best_amp = list(params), amp

    if len(xs) >= 2:
        h = xs[1] - xs[0]
        for _ in range(20 if pairs > 1 else 1):
            moved = 0.0
            for axis in range(pairs):

                def line(v: float, axis=axis) -> float:
                    return amplitude(tuple(best[:axis] + [v] + best[axis + 1 :]))

                v, best_amp, _ = golden_max(line, best[axis], best_amp, h, X_FLOOR, 1.0, PARAM_TOL)
                moved = max(moved, abs(v - best[axis]))
                best[axis] = v
            if moved < PARAM_TOL:
                break

    return TuneResult(
        best_params=tuple(best),
        best_amplitude=best_amp,
        best_time=_objective(M, tau, tuple(best)).peak_time,
        evaluations=len(trace),
        trace=tuple(trace),
    )


def tune_single(M: int, tau: float, x_grid: int = 50) -> TuneResult:
    """Maximize peak transfer over the edge factor x in (0, 1].

    Coarse grid of ``x_grid`` points, then golden-section refinement around
    the best sample to parameter tolerance 1e-4.
    """
    return _tune(M, tau, 1, x_grid)


def tune_double(M: int, tau: float, grid: int = 50) -> TuneResult:
    """Maximize peak transfer over (x, y), both in (0, 1].

    Coarse 2-d grid of ``grid`` points per axis, then coordinate descent
    with golden-section line searches (tolerance 1e-4 per coordinate); a
    line-search move is accepted only when it strictly improves the peak.
    """
    return _tune(M, tau, 2, grid)


def flatness_probe(M: int, tau: float, params, radius: float) -> float:
    """Worst peak amplitude in an axis-aligned neighborhood of ``params``.

    Samples 5 points per axis on [p - radius, p + radius], clipped to (0, 1].
    radius = 0 reproduces the amplitude at ``params`` itself.
    """
    params = tuple(params)
    if len(params) not in (1, 2):
        raise ValueError("params must hold one (x) or two (x, y) factors")
    for i, p in enumerate(params):
        _real(f"params[{i}]", p, 0.0, 1.0)
    _real("radius", radius, 0.0, closed=True)

    axes = [np.clip(np.linspace(p - radius, p + radius, 5), X_FLOOR, 1.0).tolist() for p in map(float, params)]
    return float(min(_objective(M, tau, q).peak_amplitude for q in itertools.product(*axes)))
