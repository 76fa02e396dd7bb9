"""The package namespace: every exported name resolves, and only once,
every exception type the package defines is raised and exported, and the
console script names a callable."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import qcradle
import qcradle.errors


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


def test_console_script_resolves():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qcradle"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
