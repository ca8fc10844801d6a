"""What the bound and catalog path imports, and the ``dataclasses`` view that
its records build on first use."""

import ast
from pathlib import Path

from conftest import FIXTURES, run_fresh
from test_records import FIELDS

# Runs commands in a fresh interpreter and prints their exit codes and which
# of the modules that the bound and catalog path does without are loaded.
_COLD_CHILD = """
import contextlib, io, sys
from asdimlab.cli import main

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in ARGVS]
print(repr((codes, [m for m in UNUSED if m in sys.modules])))
"""


def test_bound_and_catalog_import_neither_dataclasses_nor_typing():
    argvs = [
        ["bound", str(FIXTURES / "d3_h3.mfd"), "--trace"],
        ["bound", str(FIXTURES / "five_summands.mfd"), "--format", "structured", "--trace"],
        ["bound", str(FIXTURES / "bad" / "dim5.mfd")],
        ["catalog", "--dim", "3"],
        ["catalog", "--dim", "3", "--format", "structured"],
    ]
    unused = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "pathlib")
    code = _COLD_CHILD.replace("ARGVS", repr(argvs)).replace("UNUSED", repr(unused))
    # -S: no site hook may load a module for the package and so hide that it needs it
    assert ast.literal_eval(run_fresh(code, "-S")) == ([0, 0, 2, 0, 0], [])


# Imports the record modules, then asks for their dataclasses view and runs the
# pins of test_records on it; prints whether dataclasses was loaded before,
# which classes are dataclasses, and whether the bases are.
_VIEW_CHILD = """
import sys
sys.path.insert(0, TESTS)
from asdimlab import bounds, engine, geometries, groups, manifolds
loaded = "dataclasses" in sys.modules

import dataclasses, pprint, test_records

test_records.test_the_samples_cover_every_record_class_and_their_fields()
test_records.test_equality_and_hash_skip_the_fields_declared_without_compare()
test_records.test_keyword_construction_and_defaults()
for value in test_records.SAMPLES:
    test_records.test_a_record_copies_and_pickles_to_an_equal_value(value)
    assert pprint.pformat(value, width=20) == repr(value)
print(repr((loaded, sorted(cls.__name__ for cls in test_records.record_classes()),
            [dataclasses.is_dataclass(c) for c in (groups.GroupExpr, groups._Composite, bounds._Record)])))
"""


def test_the_dataclasses_view_is_built_on_first_use():
    code = _VIEW_CHILD.replace("TESTS", repr(str(Path(__file__).parent)))
    loaded, views, bases = ast.literal_eval(run_fresh(code))
    assert not loaded
    assert views == sorted(FIELDS) and len(views) == 26
    assert bases == [False, False, False]
