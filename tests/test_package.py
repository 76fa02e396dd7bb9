"""The package namespace: every exported name resolves, and only once,
every exception type the package defines is raised, exported and mapped to
a CLI exit code, every integer count follows one rule, the value types that
hold arrays compare and hash by identity, and the console script names a
callable."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import qcradle
import qcradle.errors
from qcradle import (
    ChainSpec,
    HubbardParams,
    TooLargeError,
    compare_effective,
    diagonalize,
    edge_modified_chain,
    effective_params,
    enumerate_basis,
    evolution_grid,
    gaussian_trap_chain,
    gaussian_wavepacket,
    kick_state,
    pseudo_wavevectors,
    pst_chain,
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


# entry point -> (count name, least value, call with the count)
COUNTS = {
    "ChainSpec": ("M", 1, lambda n: ChainSpec(M=n, tau=[], eps=[0.0])),
    "uniform_chain": ("M", 1, lambda n: uniform_chain(n, 1.0)),
    "pst_chain": ("M", 2, lambda n: pst_chain(n, 1.0)),
    "edge_modified_chain": ("M", 3, lambda n: edge_modified_chain(n, 1.0, 0.5)),
    "edge_modified_chain-y": ("M", 5, lambda n: edge_modified_chain(n, 1.0, 0.5, 0.8)),
    "gaussian_trap_chain": ("M", 1, lambda n: gaussian_trap_chain(n, 1.0, 1.0, 2.0)),
    "kick_state": ("M", 1, lambda n: kick_state(n, 1)),
    "gaussian_wavepacket": ("M", 1, lambda n: gaussian_wavepacket(n, 1.0, 1.0)),
    "pseudo_wavevectors": ("M", 1, lambda n: pseudo_wavevectors(n, 0.5)),
    "HubbardParams": ("M", 1, _hubbard),
    "enumerate_basis-M": ("M", 1, lambda n: enumerate_basis(n, 0, 0, 1)),
    "enumerate_basis-N0": ("N0", 0, lambda n: enumerate_basis(1, n, 0, 1)),
    "enumerate_basis-N1": ("N1", 0, lambda n: enumerate_basis(1, 0, n, 1)),
    "enumerate_basis-nmax": ("nmax", 1, lambda n: enumerate_basis(1, 0, 0, n)),
    # a float M is refused by HubbardParams, before compare_effective sees it
    "compare_effective": ("M", 2, lambda n: compare_effective(_hubbard(n), [0.0])),
    "evolution_grid": (
        "steps", 2, lambda n: evolution_grid(diagonalize(uniform_chain(3, 1.0)), kick_state(3, 1), 1.0, n)
    ),
    "tune_single": ("points", 1, lambda n: tune_single(3, 1.0, n)),
}


@pytest.mark.parametrize("case", COUNTS)
def test_counts_follow_one_rule(case):
    name, least, call = COUNTS[case]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d+, got {least}\.0$"):
        call(float(least))
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {least}, got {least - 1}$"):
        call(least - 1)
    call(np.int64(least))


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


def test_console_script_resolves():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qcradle"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
