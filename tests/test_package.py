"""The package namespace: public names load their submodules on first use."""

import importlib

import pytest

import chesscount

SUBMODULES = ("board", "formulas", "kernel", "quasipoly")


def test_every_public_name_is_its_submodules_object():
    modules = [importlib.import_module(f"chesscount.{name}") for name in SUBMODULES]
    assert len(chesscount.__all__) == len(set(chesscount.__all__)) == 47
    for name in chesscount.__all__:
        value = getattr(chesscount, name)
        assert any(vars(module).get(name) is value for module in modules), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from chesscount import *", namespace)
    assert set(chesscount.__all__) <= namespace.keys()
    for name in chesscount.__all__:
        assert namespace[name] is getattr(chesscount, name)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_count"):
        chesscount.no_such_count
    with pytest.raises(ImportError, match="no_such_count"):
        from chesscount import no_such_count  # noqa: F401
