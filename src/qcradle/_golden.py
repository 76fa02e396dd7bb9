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
    ``evaluations`` counts the calls of ``f``: the two ends, two interior
    probes, then one probe per shrink.
    """
    if not b >= a:
        raise ValueError("need b >= a")
    best_x, best_f = a, f(a)
    fb = f(b)
    if fb > best_f:
        best_x, best_f = b, fb

    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    evals = 4
    while b - a > xtol and a < c <= d < b:
        evals += 1
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f, evals
