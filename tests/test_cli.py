"""End-to-end command-line behavior, run in-process through main()."""

import ast
import json

import pytest

from conftest import FIXTURES, GOLDEN, run_fresh

import asdimlab.cli
import asdimlab.coarse
import asdimlab.engine
from asdimlab.bounds import InconsistentBoundError
from asdimlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "bound" in out and "catalog" in out and "cover" in out


def test_bound_text(capsys):
    code, out, err = run(capsys, "bound", str(FIXTURES / "d3_h3.mfd"))
    assert code == 0 and err == ""
    assert "group: Lattice(H3,3,cocompact)" in out
    assert "bound: 3..3" in out
    assert "verdict: Aspherical" in out


def test_bound_text_golden(capsys):
    code, out, err = run(capsys, "bound", str(FIXTURES / "d3_h3.mfd"), "--trace")
    assert code == 0
    assert out == (GOLDEN / "h3_text.txt").read_text()


def test_bound_structured_golden(capsys):
    code, out, err = run(
        capsys, "bound", str(FIXTURES / "five_summands.mfd"), "--format", "structured", "--trace"
    )
    assert code == 0
    assert out == (GOLDEN / "five_summands_structured.json").read_text()


def test_structured_payload_shape(capsys):
    code, out, _ = run(capsys, "bound", str(FIXTURES / "alex_empty.mfd"), "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["input", "group", "bound", "verdict", "consequences", "trace"]
    assert payload["input"]["digest"].startswith("sha256:")
    assert payload["bound"] == {"lower": 3, "upper": "3"}
    assert payload["trace"] is None
    kinds = [c["kind"] for c in payload["consequences"]]
    assert kinds == ["CoarseBaumConnes", "Novikov", "ZeroInSpectrum", "NoPSCMetric"]


def test_bound_missing_file(capsys):
    code, out, err = run(capsys, "bound", str(FIXTURES / "does_not_exist.mfd"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "name,line,col",
    [("dim5.mfd", 1, 5), ("unknown_geometry.mfd", 2, 9), ("outside_cases.mfd", 2, 7)],
)
def test_bound_diagnostics_carry_positions(capsys, name, line, col):
    path = FIXTURES / "bad" / name
    code, out, err = run(capsys, "bound", str(path))
    assert code == 2
    assert f"{path}:{line}:{col}: error: " in err


def test_catalog_text(capsys):
    code, out, _ = run(capsys, "catalog", "--dim", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 19
    assert lines[0].startswith("S4")
    assert any("R-NAGATA" in line for line in lines)


def test_catalog_structured_golden(capsys):
    code, out, _ = run(capsys, "catalog", "--dim", "3", "--format", "structured")
    assert code == 0
    assert out == (GOLDEN / "catalog_dim3.json").read_text()


def test_catalog_rejects_bad_dim(capsys):
    assert main(["catalog", "--dim", "5"]) == 2
    capsys.readouterr()


def test_cover_build_stdout_golden(capsys):
    code, out, _ = run(capsys, "cover", "build", "--rank", "1", "-D", "2", "--radius", "8")
    assert code == 0
    assert out == (GOLDEN / "brick_r1.txt").read_text()


def test_cover_build_verify_cycle(tmp_path, capsys):
    target = tmp_path / "w.txt"
    code, out, _ = run(
        capsys, "cover", "build", "--rank", "2", "-D", "3", "--radius", "9", "-o", str(target)
    )
    assert code == 0
    assert "wrote" in out
    code, out, _ = run(capsys, "cover", "verify", str(target))
    assert code == 0
    assert out.startswith("OK:")


def test_cover_verify_invalid_is_exit_1(tmp_path, capsys):
    target = tmp_path / "w.txt"
    run(capsys, "cover", "build", "--rank", "1", "-D", "2", "--radius", "8", "-o", str(target))
    text = target.read_text()
    # overstate the diameter record: still well-formed, no longer valid
    lines = text.splitlines()
    lines[3] = "B 99"
    target.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "cover", "verify", str(target))
    assert code == 1
    assert "violation:" in out
    assert out.rstrip().endswith("violation(s)")


def test_cover_verify_format_error_is_exit_2(tmp_path, capsys):
    target = tmp_path / "w.txt"
    target.write_text("coarse-witness v9\ngroup=FreeAbelian(1) radius=2\nD 2\nB 3\n")
    code, out, err = run(capsys, "cover", "verify", str(target))
    assert code == 2
    assert f"{target}:1: error: " in err


def test_cover_build_bad_rank(capsys):
    code, out, err = run(capsys, "cover", "build", "--rank", "9", "-D", "2", "--radius", "5")
    assert code == 2
    assert "error:" in err


def test_cover_search(capsys, tmp_path):
    code, out, _ = run(
        capsys, "cover", "search", "--group", "FreeAbelian(1)", "--radius", "4",
        "-D", "2", "-B", "3",
    )
    assert code == 0
    assert out.strip() == "k=2"
    saved = tmp_path / "witness.txt"
    code, out, _ = run(
        capsys, "cover", "search", "--group", "FreeAbelian(1)", "--radius", "4",
        "-D", "1", "-B", "8", "-o", str(saved),
    )
    assert code == 0
    assert out.strip() == "k=1"
    code, out, _ = run(capsys, "cover", "verify", str(saved))
    assert code == 0


def test_cover_search_no_cover_within_kmax(capsys):
    code, out, _ = run(
        capsys, "cover", "search", "--group", "FreeAbelian(1)", "--radius", "4",
        "-D", "2", "-B", "3", "--k-max", "1",
    )
    assert code == 1
    assert out.strip() == "k=none"


def test_cover_search_budget_exit(capsys):
    code, out, err = run(
        capsys, "cover", "search", "--group", "FreeAbelian(1)", "--radius", "30",
        "-D", "1", "-B", "2",
    )
    assert code == 2
    assert "24 points" in err


def _refuse(*args):
    raise AssertionError("ball was built past its budget")


def test_cover_search_refuses_a_large_ball_before_building_it(capsys, monkeypatch):
    monkeypatch.setattr(asdimlab.coarse, "_l1_matrix", _refuse)
    code, out, err = run(
        capsys, "cover", "search", "--group", "FreeAbelian(2)", "--radius", "100",
        "-D", "1", "-B", "2",
    )
    assert code == 2 and out == ""
    assert "24 points" in err


@pytest.mark.parametrize("radius", ["1000000", "100000000"])
def test_cover_search_refuses_a_huge_radius_at_once(capsys, radius):
    code, out, err = run(
        capsys, "cover", "search", "--group", "FreeGroup(2)", "--radius", radius, "-D", "1", "-B", "2",
    )
    assert code == 2 and out == ""
    assert "24 points" in err


def test_cover_verify_refuses_a_huge_label_radius(tmp_path, capsys):
    target = tmp_path / "w.txt"
    target.write_text("coarse-witness v1\ngroup=FreeGroup(2) radius=1000000\nD 1\nB 0\n0:0 0\n")
    code, out, err = run(capsys, "cover", "verify", str(target))
    assert code == 2 and out == ""
    assert "more than 200000 points" in err
    assert err.startswith(f"{target}:2: error: ")
    target.write_text("coarse-witness v1\ngroup=FreeGroup(2) radius=" + "1" * 5000 + "\nD 1\nB 0\n0:0 0\n")
    code, out, err = run(capsys, "cover", "verify", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"{target}:2: error: bad radius")
    target.write_text("coarse-witness v1\ngroup=FreeGroup(2) radius=0\nD 1\nB 0\n0:0 0\n")
    code, out, err = run(capsys, "cover", "verify", str(target))
    assert code == 2 and out == ""
    assert err == f"{target}:2: error: radius must be positive, got 0\n"


def test_cover_verify_refuses_a_label_whose_matrix_is_too_large(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(asdimlab.coarse, "_abelian_points", _refuse)
    monkeypatch.setattr(asdimlab.coarse, "_l1_matrix", _refuse)
    target = tmp_path / "w.txt"
    target.write_text("coarse-witness v1\ngroup=FreeAbelian(2) radius=315\nD 1\nB 0\n0:0 0\n")
    code, out, err = run(capsys, "cover", "verify", str(target))
    assert code == 2 and out == ""
    assert "distance matrix" in err
    assert err.startswith(f"{target}:2: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("cover", "build", "--rank", "1", "-D", "2", "--radius", "8"),
        ("cover", "search", "--group", "FreeAbelian(1)", "--radius", "4", "-D", "1", "-B", "8"),
    ],
    ids=["build", "search"],
)
def test_cover_output_write_error_is_exit_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "w.txt"
    code, out, err = run(capsys, *argv, "-o", str(target))
    assert code == 2
    assert "wrote" not in out
    assert err.startswith(f"{target}: error: ") and err.count("\n") == 1
    assert not target.exists()


# Runs commands in a fresh interpreter and reports, after each, its exit
# code, its stdout and which of the lazily imported modules are loaded.
_FRESH_CHILD = """
import contextlib, io, sys
from asdimlab.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue(), [m for m in ("numpy", "hashlib", "json") if m in sys.modules]

print(repr([run(argv) for argv in ARGVS]))
"""


def test_only_the_coarse_lab_loads_numpy():
    argvs = [
        ["bound", str(FIXTURES / "d3_h3.mfd")],
        ["bound", str(FIXTURES / "bad" / "dim5.mfd")],
        ["catalog", "--dim", "3"],
        ["cover", "search", "--group", "FreeAbelian(1)", "--radius", "4", "-D", "2", "-B", "3"],
    ]
    bound, bad, catalog, search = ast.literal_eval(run_fresh(_FRESH_CHILD.replace("ARGVS", repr(argvs))))
    assert bound[0] == 0 and "bound: 3..3" in bound[1] and bound[2] == []
    assert bad[0] == 2 and bad[2] == []
    assert catalog[0] == 0 and catalog[1].startswith("S3") and catalog[2] == []
    assert search[:2] == (0, "k=2\n") and "numpy" in search[2]


# Runs one command in a fresh interpreter and prints which package modules it loaded.
_LOADS_CHILD = """
import contextlib, io, sys
from asdimlab.cli import main

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(ARGV)
print(sorted(m for m in sys.modules if m.split(".")[0] == "asdimlab"))
"""
_CORE = {"asdimlab", "asdimlab.cli"}
_BOUND_LAYERS = _CORE | {f"asdimlab.{m}" for m in ("bounds", "geometries", "groups", "engine", "manifolds")}
_COARSE_LAYERS = _CORE | {"asdimlab.coarse"}


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["catalog", "--dim", "3"], _CORE | {"asdimlab.bounds", "asdimlab.geometries"}),
        (["bound", str(FIXTURES / "d3_h3.mfd"), "--trace"], _BOUND_LAYERS),
        (["bound", str(FIXTURES / "bad" / "dim5.mfd")], _BOUND_LAYERS),
        (["cover", "build", "--rank", "1", "-D", "2", "--radius", "8"], _COARSE_LAYERS),
        (["cover", "verify", str(GOLDEN / "brick_r1.txt")], _COARSE_LAYERS),
        (["cover", "search", "--group", "FreeAbelian(1)", "--radius", "4", "-D", "2", "-B", "3"],
         _COARSE_LAYERS),
    ],
    ids=["catalog", "bound", "bound-error", "cover-build", "cover-verify", "cover-search"],
)
def test_each_subcommand_loads_only_its_layers(argv, loaded):
    assert set(ast.literal_eval(run_fresh(_LOADS_CHILD.replace("ARGV", repr(argv))))) == loaded


def test_importing_the_package_loads_no_submodule():
    code = "import sys, asdimlab; print(sorted(m for m in sys.modules if m.startswith('asdimlab')))"
    assert ast.literal_eval(run_fresh(code)) == ["asdimlab"]


# The names bench/spans.py replaces on asdimlab.cli to time cross-layer calls.
_SPANNED = (
    "parse_manifold", "compile_manifold", "to_canonical", "list_geometries", "fact_record",
    "brick_cover", "cayley_ball", "format_witness", "min_families_exhaustive", "parse_witness",
    "verify_cover",
)


def test_handlers_call_what_is_set_on_the_cli_module(tmp_path, capsys, monkeypatch):
    called = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in _SPANNED:
        monkeypatch.setattr(asdimlab.cli, name, spy(name, getattr(asdimlab.cli, name)))
    witness = tmp_path / "w.txt"
    commands = [
        (("bound", str(FIXTURES / "d3_h3.mfd")), {"parse_manifold", "compile_manifold", "to_canonical"}),
        (("catalog", "--dim", "3", "--format", "structured"), {"list_geometries", "fact_record"}),
        (("cover", "build", "--rank", "1", "-D", "2", "--radius", "8", "-o", str(witness)),
         {"brick_cover", "format_witness"}),
        (("cover", "verify", str(witness)), {"parse_witness", "verify_cover"}),
        (("cover", "search", "--group", "FreeAbelian(1)", "--radius", "4", "-D", "1", "-B", "8",
          "-o", str(tmp_path / "found.txt")), {"cayley_ball", "min_families_exhaustive", "format_witness"}),
    ]
    for argv, expected in commands:
        called.clear()
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert set(called) == expected, argv


def test_inconsistent_bound_maps_to_exit_3(capsys, monkeypatch):
    def explode(expr, aspherical_dim=None):
        raise InconsistentBoundError("lower bound 4 exceeds upper bound 0")

    monkeypatch.setattr(asdimlab.engine, "bound", explode)
    code, out, err = run(capsys, "bound", str(FIXTURES / "d3_h3.mfd"))
    assert code == 3
    assert "inconsistent" in err
