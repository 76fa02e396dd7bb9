"""Deterministic golden-section refinement of a sampled maximum."""

from __future__ import annotations

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, x: float, fx: float, h: float, lo: float, hi: float, xtol: float) -> tuple[float, float, int]:
    """Refine a sampled maximum fx = f(x) of a unimodal-ish scalar ``f``.

    Returns (x_best, f_best, evaluations).  Searches the bracket
    [max(lo, x - h), min(hi, x + h)], shrinking it to ``xtol``, or until a
    probe rounds onto a bracket end (an interval of a few ulps wider than
    ``xtol`` cannot shrink further).  The largest of the start, the two
    ends and the last two probes wins, the earliest in that order on a tie,
    so a maximum at the bracket edge is not lost and a tie keeps the start.
    ``evaluations`` counts the calls of ``f``: the two ends, two interior
    probes, then one probe per shrink.
    """
    a, b = max(lo, x - h), min(hi, x + h)
    if not (h >= 0 and a <= b):  # max(lo, nan) is lo, so a NaN h needs its own check
        raise ValueError("need h >= 0 and max(lo, x - h) <= min(hi, x + h)")
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fa, fb, fc, fd = f(a), f(b), f(c), f(d)
    ends = (a, fa), (b, fb)
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
    for t, ft in (*ends, (c, fc), (d, fd)):
        if ft > fx:
            x, fx = t, ft
    return x, fx, evals
