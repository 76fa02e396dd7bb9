"""Deterministic golden-section maximization on a bracketing interval."""

from __future__ import annotations

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a: float, b: float, xtol: float) -> tuple[float, float, int]:
    """Maximize a unimodal-ish scalar ``f`` on [a, b].

    Returns (x_best, f_best, evaluations).  Shrinks the interval to ``xtol``,
    or until a probe rounds onto a bracket end (an interval of a few ulps
    wider than ``xtol`` cannot shrink further), and also returns the best
    endpoint/probe seen, so a maximum at the bracket edge is not lost.
    """
    if not b >= a:
        raise ValueError("need b >= a")
    evals = 0

    def ev(x: float) -> float:
        nonlocal evals
        evals += 1
        return f(x)

    best_x, best_f = a, ev(a)
    fb = ev(b)
    if fb > best_f:
        best_x, best_f = b, fb

    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = ev(c), ev(d)
    while b - a > xtol and a < c <= d < b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = ev(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f, evals
