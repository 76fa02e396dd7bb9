"""The package namespace: every exported name resolves, and only once,
every exception type the package defines is raised, exported and mapped to
a CLI exit code, every integer count or index follows one rule, within its
range, every real input follows one rule, the value types that hold arrays
compare and hash by identity and keep their own read-only copies, the
console script names a callable, and the package metadata reads its version
from the package."""

import ast
import importlib
import inspect
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import qcradle
import qcradle.errors
from qcradle import (
    ChainSpec,
    HubbardParams,
    TooLargeError,
    WaveState,
    compare_effective,
    diagonalize,
    edge_exposure,
    edge_modified_chain,
    effective_params,
    end_amplitude,
    enumerate_basis,
    evolution_grid,
    evolve,
    flatness_probe,
    gaussian_trap_chain,
    gaussian_wavepacket,
    kick_state,
    linearity_deviation,
    pseudo_wavevectors,
    pst_chain,
    revival_fidelity,
    tune_single,
    uniform_chain,
)


def test_all_names_resolve_once():
    names = qcradle.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(qcradle, n)] == []


def test_star_import():
    namespace = {}
    exec("from qcradle import *", namespace)
    assert set(qcradle.__all__) <= namespace.keys()


def _error_types():
    return {
        name
        for name, obj in vars(qcradle.errors).items()
        if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == qcradle.errors.__name__
    }


def _raised_names():
    raised = set()
    for path in Path(qcradle.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                raised.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return raised


def test_every_error_type_is_raised():
    assert _error_types()
    assert sorted(_error_types() - _raised_names()) == []


def test_every_error_type_is_exported():
    assert sorted(_error_types() - set(qcradle.__all__)) == []


def test_every_error_type_maps_to_an_exit_code():
    # cli.main exits 2 on ValueError and 3 on TooLargeError
    types = [getattr(qcradle.errors, name) for name in sorted(_error_types())]
    assert [t.__name__ for t in types if not (issubclass(t, ValueError) or t is TooLargeError)] == []


def _hubbard(M):
    t = [1.0] * (int(M) - 1)
    return HubbardParams(M=M, t0=t, t1=t, U=40.0, U0=40.0, U1=40.0)


_GRID8 = evolution_grid(diagonalize(uniform_chain(8, 1.0)), kick_state(8, 1), 1.0, 2)
_SPECTRUM8 = diagonalize(uniform_chain(8, 1.0))

# entry point -> (count name, least value, greatest value or None, call with the count)
COUNTS = {
    "ChainSpec": ("M", 1, None, lambda n: ChainSpec(M=n, tau=[], eps=[0.0])),
    "uniform_chain": ("M", 1, None, lambda n: uniform_chain(n, 1.0)),
    "pst_chain": ("M", 2, None, lambda n: pst_chain(n, 1.0)),
    "edge_modified_chain": ("M", 3, None, lambda n: edge_modified_chain(n, 1.0, 0.5)),
    "edge_modified_chain-y": ("M", 5, None, lambda n: edge_modified_chain(n, 1.0, 0.5, 0.8)),
    "gaussian_trap_chain": ("M", 1, None, lambda n: gaussian_trap_chain(n, 1.0, 1.0, 2.0)),
    "gaussian_trap_chain-sign": ("sign", -1, 1, lambda n: gaussian_trap_chain(3, 1.0, 1.0, 2.0, n)),
    "kick_state": ("M", 1, None, lambda n: kick_state(n, 1)),
    "kick_state-site": ("site", 1, 4, lambda n: kick_state(4, n)),
    "gaussian_wavepacket": ("M", 1, None, lambda n: gaussian_wavepacket(n, 1.0, 1.0)),
    "pseudo_wavevectors": ("M", 1, None, lambda n: pseudo_wavevectors(n, 0.5)),
    "linearity_deviation-lo": ("index_range[0]", 1, 6, lambda n: linearity_deviation(_SPECTRUM8, (n, 8))),
    "linearity_deviation-hi": ("index_range[1]", 3, 8, lambda n: linearity_deviation(_SPECTRUM8, (1, n))),
    "edge_exposure": ("edge_width", 1, 4, lambda n: edge_exposure(_GRID8, n)),
    "HubbardParams": ("M", 1, None, _hubbard),
    "enumerate_basis-M": ("M", 1, None, lambda n: enumerate_basis(n, 0, 0, 1)),
    "enumerate_basis-N0": ("N0", 0, 1, lambda n: enumerate_basis(1, n, 0, 1)),
    "enumerate_basis-N1": ("N1", 0, 1, lambda n: enumerate_basis(1, 0, n, 1)),
    "enumerate_basis-nmax": ("nmax", 1, None, lambda n: enumerate_basis(1, 0, 0, n)),
    # a float M is refused by HubbardParams, before compare_effective sees it
    "compare_effective": ("M", 2, None, lambda n: compare_effective(_hubbard(n), [0.0])),
    "evolution_grid": (
        "steps", 2, None, lambda n: evolution_grid(diagonalize(uniform_chain(3, 1.0)), kick_state(3, 1), 1.0, n)
    ),
    "tune_single": ("points", 1, None, lambda n: tune_single(3, 1.0, n)),
}


def _domain(least, most):
    return f">= {least}" if most is None else f"in {least}..{most}"


@pytest.mark.parametrize("case", COUNTS)
def test_counts_follow_one_rule(case):
    name, least, most, call = COUNTS[case]
    # the domain of a refused float or bool may be another count's (compare_effective's M)
    some_domain = r"(>= -?\d+|in -?\d+\.\.\d+)"
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer {some_domain}, got {least}\.0$"):
        call(float(least))
    with pytest.raises(ValueError) as info:
        call(least - 1)
    assert str(info.value) == f"{name} must be an integer {_domain(least, most)}, got {least - 1}"
    call(np.int64(least))
    # bool is numbers.Integral, but True is no count
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer {some_domain}, got True$"):
        call(True)


# bounded count or index -> (call with a value past its greatest, the one message)
COUNT_BOUNDS = {
    "kick_state-site": (lambda: kick_state(1, 2), "site must be an integer in 1..1, got 2"),
    "edge_exposure": (lambda: edge_exposure(_GRID8, 5), "edge_width must be an integer in 1..4, got 5"),
    "linearity_deviation-hi-past-M": (
        lambda: linearity_deviation(_SPECTRUM8, (1, 9)), "index_range[1] must be an integer in 3..8, got 9"
    ),
    "linearity_deviation-two-modes": (
        lambda: linearity_deviation(_SPECTRUM8, (2, 3)), "index_range[1] must be an integer in 4..8, got 3"
    ),
    "enumerate_basis-N0": (lambda: enumerate_basis(1, 2, 0, 1), "N0 must be an integer in 0..1, got 2"),
    "enumerate_basis-N1": (lambda: enumerate_basis(3, 0, 7, 2), "N1 must be an integer in 0..6, got 7"),
    "gaussian_trap_chain-sign": (
        lambda: gaussian_trap_chain(3, 1.0, 1.0, 2.0, 2), "sign must be an integer in -1..1, got 2"
    ),
    "gaussian_trap_chain-sign-True": (
        lambda: gaussian_trap_chain(3, 1.0, 1.0, 2.0, True), "sign must be an integer in -1..1, got True"
    ),
    "gaussian_trap_chain-sign-float": (
        lambda: gaussian_trap_chain(3, 1.0, 1.0, 2.0, 1.0), "sign must be an integer in -1..1, got 1.0"
    ),
    # the one value inside the range that is no sign
    "gaussian_trap_chain-sign-zero": (lambda: gaussian_trap_chain(3, 1.0, 1.0, 2.0, 0), "sign must be +1 or -1, got 0"),
}


@pytest.mark.parametrize("case", COUNT_BOUNDS)
def test_count_bounds(case):
    call, message = COUNT_BOUNDS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError and str(info.value) == message


def _scalar(name, domain):
    return f"{name} must be a finite number in {domain}, got {{v!r}}"


def _array(name, size, domain):
    return f"{name} must be a length-{size} array of finite numbers in {domain}"


def _couplings(**kwargs):
    return HubbardParams(**{**dict(M=3, t0=[1.0, 1.0], t1=[1.0, 1.0], U=1.0, U0=1.0, U1=1.0), **kwargs})


_TINY = 5e-324  # the least positive double
_ABOVE_ONE = float(np.nextafter(1.0, 2.0))
_WIDTHS = "(1.49167e-154, inf)"  # Gaussian widths: (sqrt(tiny), inf)
_KICK = (diagonalize(uniform_chain(3, 1.0)), kick_state(3, 1))

# entry point -> (message, with {v!r} for the value of a scalar; a value just
# outside the domain, None for an unbounded one; a value at or next to its
# edge; call with the value, in one slot of an array field)
REALS = {
    "ChainSpec-tau": (_array("tau", 2, "(0, inf)"), 0.0, _TINY, lambda v: ChainSpec(M=3, tau=[1.0, v], eps=[0.0] * 3)),
    "ChainSpec-eps": (
        _array("eps", 3, "(-inf, inf)"), None, -1e308, lambda v: ChainSpec(M=3, tau=[1.0, 1.0], eps=[0.0, v, 0.0])
    ),
    "uniform_chain": (_scalar("tau", "(0, inf)"), 0.0, _TINY, lambda v: uniform_chain(3, v)),
    # one site has no hopping, but its tau follows the rule all the same
    "uniform_chain-one-site": (_scalar("tau", "(0, inf)"), 0.0, _TINY, lambda v: uniform_chain(1, v)),
    "pst_chain": (_scalar("Omega", "(0, inf)"), 0.0, _TINY, lambda v: pst_chain(3, v)),
    "edge_modified_chain-tau": (
        _scalar("tau", "(0, inf)"), 0.0, _TINY, lambda v: edge_modified_chain(5, v, 1.0, 1.0)
    ),
    "edge_modified_chain-x": (_scalar("x", "(0, 1]"), _ABOVE_ONE, 1.0, lambda v: edge_modified_chain(5, 1.0, v)),
    "edge_modified_chain-y": (_scalar("y", "(0, 1]"), _ABOVE_ONE, 1.0, lambda v: edge_modified_chain(5, 1.0, 0.5, v)),
    "gaussian_trap_chain-tau": (
        _scalar("tau", "(0, inf)"), 0.0, _TINY, lambda v: gaussian_trap_chain(5, v, 3.0, 2.0)
    ),
    "gaussian_trap_chain-x_m": (
        _scalar("x_m", "(-inf, inf)"), None, 1e150, lambda v: gaussian_trap_chain(5, 1.0, v, 2.0)
    ),
    # theta^2 divides, so theta > sqrt(tiny): the least positive theta would make 0/0,
    # and 1e-170 would be blamed on eps
    "gaussian_trap_chain-theta": (
        _scalar("theta", _WIDTHS), 0.0, 1e-150, lambda v: gaussian_trap_chain(5, 1.0, 3.0, v)
    ),
    "gaussian_trap_chain-theta-underflow": (
        _scalar("theta", _WIDTHS), 1e-170, 1.5e-154, lambda v: gaussian_trap_chain(5, 1.0, 3.0, v)
    ),
    "gaussian_wavepacket-x0": (_scalar("x0", "(-inf, inf)"), None, 1e150, lambda v: gaussian_wavepacket(3, v, 1e150)),
    "gaussian_wavepacket-sigma": (_scalar("sigma", _WIDTHS), 0.0, 1e-150, lambda v: gaussian_wavepacket(3, 1.0, v)),
    # 1e-170 would leave every site weight 0 for a packet that sits on a site
    "gaussian_wavepacket-sigma-underflow": (
        _scalar("sigma", _WIDTHS), 1e-170, 1.5e-154, lambda v: gaussian_wavepacket(3, 1.0, v)
    ),
    "evolve": (_scalar("t", "(-inf, inf)"), None, -1e300, lambda v: evolve(*_KICK, v)),
    "revival_fidelity": (_scalar("t", "(-inf, inf)"), None, 1e300, lambda v: revival_fidelity(*_KICK, v)),
    "end_amplitude": (_scalar("t", "(-inf, inf)"), None, 1e300, lambda v: end_amplitude(_KICK[0], v)),
    "evolution_grid": (_scalar("t_max", "(0, inf)"), 0.0, _TINY, lambda v: evolution_grid(*_KICK, v, 2)),
    "pseudo_wavevectors": (_scalar("x", "(0, 1]"), _ABOVE_ONE, 1.0, lambda v: pseudo_wavevectors(3, v)),
    "flatness_probe-params": (
        _scalar("params[1]", "(0, 1]"), _ABOVE_ONE, 1.0, lambda v: flatness_probe(5, 1.0, (0.5, v), 0.0)
    ),
    "flatness_probe-radius": (_scalar("radius", "[0, inf)"), -_TINY, 0.0, lambda v: flatness_probe(5, 1.0, (0.5,), v)),
    "HubbardParams-U": (_scalar("U", "(0, inf)"), 0.0, _TINY, lambda v: _couplings(U=v)),
    "HubbardParams-U0": (_scalar("U0", "(0, inf)"), 0.0, _TINY, lambda v: _couplings(U0=v)),
    "HubbardParams-U1": (_scalar("U1", "(0, inf)"), 0.0, _TINY, lambda v: _couplings(U1=v)),
    "HubbardParams-t0": (_array("t0", 2, "(-inf, inf)"), None, -1e308, lambda v: _couplings(t0=[1.0, v])),
    "HubbardParams-t1": (_array("t1", 2, "(-inf, inf)"), None, 1e308, lambda v: _couplings(t1=[v, 1.0])),
    "HubbardParams-xi": (_array("xi", 3, "(-inf, inf)"), None, 1e308, lambda v: _couplings(xi=[0.0, 0.0, v])),
}


@pytest.mark.parametrize("case", REALS)
def test_reals_follow_one_rule(case):
    message, outside, edge, call = REALS[case]
    # an int past the float range, and a number's text, are no finite numbers either
    for bad in [math.nan, math.inf, -math.inf, 10**400, -(10**400), "0.5"] + ([] if outside is None else [outside]):
        with pytest.raises(ValueError) as info:
            call(bad)
        assert info.type is ValueError and str(info.value) == message.format(v=bad)
    call(edge)
    call(np.float64(edge))
    call(np.array(edge))


# value types that hold arrays: a field-wise == would ask numpy for the
# truth value of an array, and a field hash would hash an ndarray
ARRAY_HOLDERS = {
    "ChainSpec": lambda: uniform_chain(3, 1.0),
    "WaveState": lambda: kick_state(3, 1),
    "Spectrum": lambda: diagonalize(uniform_chain(3, 1.0)),
    "EvolutionGrid": lambda: evolution_grid(diagonalize(uniform_chain(3, 1.0)), kick_state(3, 1), 1.0, 2),
    "HubbardParams": lambda: _hubbard(3),
    "EffectiveParams": lambda: effective_params(_hubbard(3)),
    "FockBasis": lambda: enumerate_basis(2, 1, 1, 2),
    "OracleReport": lambda: compare_effective(_hubbard(2), [0.0]),
}


@pytest.mark.parametrize("case", ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(case):
    a, b = ARRAY_HOLDERS[case](), ARRAY_HOLDERS[case]()
    assert a == a and a != b
    assert hash(a) == hash(a) and {a, b} == {b, a}


# stored array field -> (build from the caller's array, the caller's array, the field)
OWNED_ARRAYS = {
    "ChainSpec-tau": (lambda a: ChainSpec(M=3, tau=a, eps=np.zeros(3)), np.ones(2), "tau"),
    "ChainSpec-eps": (lambda a: ChainSpec(M=3, tau=np.ones(2), eps=a), np.zeros(3), "eps"),
    "HubbardParams-t0": (lambda a: _couplings(t0=a), np.ones(2), "t0"),
    "HubbardParams-t1": (lambda a: _couplings(t1=a), np.ones(2), "t1"),
    "HubbardParams-xi": (lambda a: _couplings(xi=a), np.zeros(3), "xi"),
    "WaveState-z": (lambda a: WaveState(z=a), np.array([1.0, 0.0, 0.0], dtype=complex), "z"),
    "OracleReport-times": (lambda a: compare_effective(_hubbard(2), a), np.array([0.0, 1.0]), "times"),
}


@pytest.mark.parametrize("case", OWNED_ARRAYS)
def test_stored_arrays_are_read_only_copies(case):
    build, caller, field = OWNED_ARRAYS[case]
    kept = getattr(build(caller), field)
    before = kept.copy()
    assert caller.flags.writeable and not kept.flags.writeable
    caller[0] = 0.5
    assert np.array_equal(kept, before)


def test_console_script_resolves():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qcradle"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_version_has_one_source():
    # the metadata reads qcradle.__version__; pyproject.toml holds no version of its own
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # older setuptools call [tool.setuptools] beta
        project = pyprojecttoml.read_configuration(pyproject)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == qcradle.__version__
