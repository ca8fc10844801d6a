"""The package namespace: its names load on first use, as the submodules' own objects."""

import ast
import importlib

import pytest

from conftest import run_fresh

import asdimlab

SUBMODULES = ("bounds", "cli", "coarse", "engine", "geometries", "groups", "manifolds")


def test_every_public_name_is_the_object_its_submodule_defines():
    assert len(asdimlab.__all__) == len(set(asdimlab.__all__)) == 73
    for name in asdimlab.__all__:
        value = getattr(asdimlab, name)
        home = value.__module__
        # Refusal, the base of every exception class, is the package's own
        assert home.startswith("asdimlab.") or (home, name) == ("asdimlab", "Refusal"), name
        assert getattr(importlib.import_module(home), name) is value, name


def test_every_public_exception_is_a_refusal_with_its_exit_code():
    classes = {
        name: value for name in asdimlab.__all__
        if isinstance(value := getattr(asdimlab, name), type) and issubclass(value, BaseException)
    }
    assert len(classes) == 12  # Refusal and the 11 classes on it
    for name, cls in classes.items():
        assert issubclass(cls, asdimlab.Refusal) and issubclass(cls, ValueError), name
        assert cls.exit_code == (3 if name == "InconsistentBoundError" else 2), name
    refusal = asdimlab.coarse.WitnessFormatError("bad header 'x'", 1)
    assert (str(refusal), refusal.message, refusal.line, refusal.col, refusal.path) == (
        "bad header 'x'", "bad header 'x'", 1, None, None
    )


def test_submodules_resolve_as_attributes_of_a_fresh_package():
    code = (
        "import sys, asdimlab\n"
        f"print([getattr(asdimlab, m) is sys.modules['asdimlab.' + m] for m in {SUBMODULES!r}])"
    )
    assert ast.literal_eval(run_fresh(code)) == [True] * len(SUBMODULES)


def test_dir_lists_every_public_name_and_submodule():
    assert set(asdimlab.__all__) | set(SUBMODULES) <= set(dir(asdimlab))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        asdimlab.no_such_name
    assert not hasattr(asdimlab, "numpy")
    with pytest.raises(ImportError):
        from asdimlab import no_such_name  # noqa: F401
