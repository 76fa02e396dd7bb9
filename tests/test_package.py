"""The package namespace: every exported name resolves, and only once."""

import qcradle


def test_all_names_resolve_once():
    names = qcradle.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(qcradle, n)] == []


def test_star_import():
    namespace = {}
    exec("from qcradle import *", namespace)
    assert set(qcradle.__all__) <= namespace.keys()
