import math

import pytest

from qcradle._golden import golden_max

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _counted(f):
    # f, and a list that records each point f is evaluated at
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


@pytest.mark.parametrize("slope, edge", [(1.0, 2.0), (-1.0, -1.0)], ids=["right", "left"])
def test_maximum_at_a_bracket_edge(slope, edge):
    # a monotone objective peaks at an end, which the interior probes never
    # reach; the evaluated end is returned
    x, fx, _ = golden_max(lambda x: slope * x, -1.0, -math.inf, 3.0, -1.0, 2.0, 1e-8)
    assert x == edge and fx == slope * edge


def test_evaluation_count():
    # two ends and two probes, then one probe per shrink by 1/phi until the
    # bracket is within xtol: 0.618^29 = 8.7e-7 < 1e-6 < 0.618^28
    def f(x):
        return -((x - 0.3) ** 2)

    counted, calls = _counted(f)
    x, fx, evals = golden_max(counted, 0.0, -math.inf, 1.0, 0.0, 1.0, 1e-6)
    shrinks = math.ceil(math.log(1e-6) / math.log(INV_PHI))
    assert shrinks == 29
    assert evals == len(calls) == 4 + shrinks
    assert abs(x - 0.3) < 1e-6 and fx == max(f(c) for c in calls)


@pytest.mark.parametrize(
    "a, b, xtol",
    [
        (2.0**40, 2.0**40 + 4 * 2.0**-12, 1e-6),  # four ulps wide, ulp > xtol
        (0.0, 1.0, 0.0),  # a zero tolerance bottoms out at the ulp of 0.3
        (5.0, 5.0, 1e-6),  # a point bracket
    ],
    ids=["ulp-wider-than-xtol", "zero-xtol", "point"],
)
def test_a_bracket_that_cannot_shrink_returns(a, b, xtol):
    # each shrink moves a probe; once a probe rounds onto a bracket end the
    # bracket cannot shrink further, and the search stops there
    mid = a + 0.3 * (b - a)

    def f(x):
        return -abs(x - mid)

    counted, calls = _counted(f)
    x, fx, evals = golden_max(counted, a, -math.inf, b - a, a, b, xtol)
    assert a <= x <= b
    assert evals == len(calls) < 100
    assert fx == max(f(c) for c in calls)


def test_a_tie_keeps_the_start():
    # the start is replaced only by a strictly larger end or probe
    counted, calls = _counted(lambda x: 1.0)
    x, fx, evals = golden_max(counted, 0.25, 1.0, 0.5, 0.0, 1.0, 1e-6)
    assert (x, fx) == (0.25, 1.0) and evals == len(calls) > 4


def test_the_bracket_is_clipped_to_the_range():
    # at x = lo the bracket is [lo, x + h], so no point below lo is evaluated,
    # and the start, the maximum there, is kept
    counted, calls = _counted(lambda x: -x)
    x, fx, _ = golden_max(counted, 1.0, -1.0, 0.5, 1.0, 3.0, 1e-8)
    assert min(calls) == 1.0 and max(calls) == 1.5
    assert (x, fx) == (1.0, -1.0)


@pytest.mark.parametrize("b", [0.5, math.nan], ids=["b-below-a", "nan-b"])
def test_refuses_a_reversed_bracket(b):
    # the bracket [1, b] as x = 1, h = b - 1 inside [0, 2]: a negative or NaN h is
    # refused; max(lo, nan) is lo, so a NaN h would otherwise search all of [lo, hi]
    with pytest.raises(ValueError) as info:
        golden_max(abs, 1.0, -math.inf, b - 1.0, 0.0, 2.0, 1e-6)
    assert info.type is ValueError and str(info.value) == "need h >= 0 and max(lo, x - h) <= min(hi, x + h)"


def test_refuses_an_empty_range():
    with pytest.raises(ValueError, match="need h >= 0"):
        golden_max(abs, 1.0, -math.inf, 0.5, 2.0, 0.0, 1e-6)
