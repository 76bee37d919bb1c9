"""The package namespace: public names load their submodules on first use."""

import importlib
import re
from pathlib import Path

import pytest

import chesscount

README = Path(__file__).resolve().parent.parent / "README.md"
SUBMODULES = ("board", "formulas", "kernel", "poly", "quasipoly", "rows", "verify_identities")


def test_every_public_name_is_its_submodules_object():
    modules = [importlib.import_module(f"chesscount.{name}") for name in SUBMODULES]
    assert len(chesscount.__all__) == len(set(chesscount.__all__)) == 36
    for name in chesscount.__all__:
        value = getattr(chesscount, name)
        assert any(vars(module).get(name) is value for module in modules), name


def test_all_is_every_public_function_and_class_of_the_submodules():
    # Named constants are exported by hand; a public function or class that
    # is defined in a submodule but missing from __all__ is an omission.  The
    # ``suite_*`` entry points are not exported: ``verify`` looks them up by name.
    for name in SUBMODULES:
        module = importlib.import_module(f"chesscount.{name}")
        defined = {
            attr
            for attr, value in vars(module).items()
            if not attr.startswith(("_", "suite_"))
            and callable(value)
            and getattr(value, "__module__", None) == module.__name__
        }
        own = {attr for attr in chesscount.__all__ if chesscount._SOURCE[attr] == name}
        assert defined <= own, (name, sorted(defined - own))
        assert own <= vars(module).keys(), (name, sorted(own - vars(module).keys()))


def test_removed_wrappers_are_unreachable():
    from chesscount import board, cli, formulas, kernel

    for name in (
        "attacks",
        "is_nonattacking",
        "Placement",
        "count_nonattacking",
        "count_nonattacking_below_diag",
        "basis_change_coeff",
        "binomial_basis_to_monomials",
        "white_rook_coeffs",
        "black_rook_coeffs",
        "bishop_coeffs",
        "CountTable",
        "anassas_by_split_sum",
        "Board",
        "verify_collapse",
        "parity",
    ):
        assert not hasattr(chesscount, name), name
    assert not hasattr(formulas, "CountTable")
    assert not hasattr(formulas, "anassas_by_split_sum")
    assert not hasattr(cli, "parse_bfile")
    assert not hasattr(board, "Board")
    assert not hasattr(board, "verify_collapse")
    assert not hasattr(kernel, "parity")


def test_readme_states_the_number_of_public_names():
    counts = re.findall(r"The public API is the (\d+) names", README.read_text(encoding="utf-8"))
    assert counts == [str(len(chesscount.__all__))]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from chesscount import *", namespace)
    assert set(chesscount.__all__) <= namespace.keys()
    for name in chesscount.__all__:
        assert namespace[name] is getattr(chesscount, name)


def test_dir_lists_every_public_name():
    assert set(chesscount.__all__) <= set(dir(chesscount))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_count"):
        chesscount.no_such_count
    with pytest.raises(ImportError, match="no_such_count"):
        from chesscount import no_such_count  # noqa: F401
