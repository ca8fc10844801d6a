"""End-to-end command-line behavior, run in-process through main()."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from conftest import FIXTURES, GOLDEN, SRC, run_fresh
from test_witness_refusals import LINE_BREAKS

import asdimlab.cli
import asdimlab.coarse
import asdimlab.engine
from asdimlab.bounds import DimBound, InconsistentBoundError
from asdimlab.cli import main
from asdimlab.coarse import WitnessFormatError, parse_witness
from asdimlab.groups import CanonicalFormError, parse_canonical
from asdimlab.manifolds import ManifoldParseError, parse_manifold


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


def test_bound_alexandrov_trace_golden(capsys):
    code, out, err = run(capsys, "bound", str(FIXTURES / "alex_empty.mfd"), "--trace")
    assert code == 0
    assert out == (GOLDEN / "alex_empty_trace.txt").read_text()


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


@pytest.mark.parametrize(
    "text,diagnostic",
    [
        ("dim 3;\npiece a H3;\npiece b E3;\nsum a # b;\nsum a # b;\n",
         "5:1: error: duplicate sum statement"),
        ("dim 3;\n", "2:1: error: program declares no summands"),
        ("dim 3;\npiece a H3;\nfoo;\n",
         "3:1: error: expected piece, graph, sum or alexandrov, found 'foo'"),
        ("dim 3;\npiece a H3;\nalexandrov maybe;\n",
         "3:12: error: expected 'true' or 'false', found 'maybe'"),
        ("dim 3;\npiece ;\n", "2:7: error: expected a summand name, found ';'"),
    ],
)
def test_bound_refuses_bad_programs_with_one_line(tmp_path, capsys, text, diagnostic):
    path = tmp_path / "m.mfd"
    path.write_text(text)
    assert run(capsys, "bound", str(path)) == (2, "", f"{path}:{diagnostic}\n")


def test_readers_refuse_undecodable_and_missing_files(tmp_path, capsys):
    undecodable = tmp_path / "m.mfd"
    undecodable.write_bytes(b"dim 3;\xff\n")
    refusals = {
        undecodable: "not valid UTF-8 (invalid start byte)",
        tmp_path / "missing.txt": "No such file or directory",
        tmp_path: "Is a directory",
    }
    for path, message in refusals.items():
        for command in (["bound"], ["cover", "verify"]):
            assert run(capsys, *command, str(path)) == (2, "", f"{path}: error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_every_bad_fixture_is_refused_as_its_golden_line(capsys, monkeypatch, fmt):
    # the golden names each fixture by its path from the repository root
    root = FIXTURES.parent.parent
    monkeypatch.chdir(root)
    lines = []
    for path in sorted((FIXTURES / "bad").glob("*.mfd")):
        code, out, err = run(capsys, "bound", path.relative_to(root).as_posix(), "--format", fmt)
        assert (code, out) == (2, ""), path
        lines.append(err)
    assert "".join(lines) == (GOLDEN / "bad_fixtures_stderr.txt").read_text()


def test_catalog_text(capsys):
    code, out, _ = run(capsys, "catalog", "--dim", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 19
    assert lines[0].startswith("S4")
    assert any("R-NAGATA" in line for line in lines)


def test_catalog_structured_golden(capsys):
    for dim in (2, 3, 4):
        code, out, _ = run(capsys, "catalog", "--dim", str(dim), "--format", "structured")
        assert code == 0
        assert out == (GOLDEN / f"catalog_dim{dim}.json").read_text()


def test_catalog_text_golden(capsys):
    for dim in (2, 3, 4):
        code, out, _ = run(capsys, "catalog", "--dim", str(dim))
        assert code == 0
        assert out == (GOLDEN / f"catalog_dim{dim}.txt").read_text()


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


@pytest.mark.parametrize("char", LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in LINE_BREAKS])
def test_witness_records_end_at_a_newline_alone(tmp_path, capsys, char):
    # Any other line break character stays inside its line, so a refusal
    # names a line of the file and quotes all of it.
    target = tmp_path / "w.txt"
    good = (GOLDEN / "brick_r1.txt").read_text()
    target.write_text(good.replace("1:0 0,1,", f"1:0 0,1{char},"), newline="")
    assert run(capsys, "cover", "verify", str(target)) == (
        2, "", f"{target}:7: error: bad point index {'1' + char!r}\n"
    )
    label = f"group=Free{char}Abelian(1) radius=8"
    target.write_text(good.replace("group=FreeAbelian(1) radius=8", label), newline="")
    assert run(capsys, "cover", "verify", str(target)) == (
        2, "", f"{target}:2: error: bad space label {label!r}\n"
    )


def test_a_crlf_witness_still_verifies(tmp_path, capsys):
    target = tmp_path / "w.txt"
    target.write_text((GOLDEN / "brick_r1.txt").read_text().replace("\n", "\r\n"), newline="")
    code, out, err = run(capsys, "cover", "verify", str(target))
    assert (code, err) == (0, "")
    assert out == "OK: 17 points, 2 families, 3 subsets, D=2, B=5\n"


def test_cover_verify_format_error_is_exit_2(tmp_path, capsys):
    target = tmp_path / "w.txt"
    target.write_text("coarse-witness v9\ngroup=FreeAbelian(1) radius=2\nD 2\nB 3\n")
    assert run(capsys, "cover", "verify", str(target)) == (
        2, "", f"{target}:1: error: bad header 'coarse-witness v9'\n"
    )


def test_cover_build_bad_rank(capsys):
    assert run(capsys, "cover", "build", "--rank", "9", "-D", "2", "--radius", "5") == (
        2, "", "error: brick covers support ranks 1..3, got 9\n"
    )


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
    monkeypatch.setattr(asdimlab.coarse, "_abelian_points", _refuse)
    monkeypatch.setattr(asdimlab.coarse, "L1Distances", _refuse)
    code, out, err = run(
        capsys, "cover", "search", "--group", "FreeAbelian(2)", "--radius", "100",
        "-D", "1", "-B", "2",
    )
    assert code == 2 and out == ""
    assert "24 points" in err


def test_an_oversize_ball_is_a_value_error_that_main_refuses(capsys):
    assert issubclass(asdimlab.coarse.BallBudgetError, ValueError)
    refusals = {
        ("cover", "build", "--rank", "3", "-D", "1", "--radius", "1000"):
            "error: FreeAbelian(3) ball of radius 1000 has more than 200000 points, the point budget\n",
        ("cover", "search", "--group", "FreeAbelian(2)", "--radius", "100", "-D", "1", "-B", "2"):
            "error: FreeAbelian(2) ball of radius 100 has more than 24 points, the point budget\n",
    }
    for argv, line in refusals.items():
        assert run(capsys, *argv) == (2, "", line)


# Numerals that int() or str.isdigit() take but no writer writes: each
# reader takes a numeral only as str(n) writes it for an integer n >= 0.
_ODD_NUMERALS = ("+0", " 0", "0_0", "\u0660", "01")


def test_every_reader_refuses_a_numeral_no_writer_writes(capsys):
    for group in ("FreeAbelian(\u0662)", "FreeAbelian(\u00b2)", "FreeAbelian(02)", " FreeAbelian(1)  "):
        argv = ("cover", "search", "--group", group, "--radius", "1", "-D", "1", "-B", "2")
        assert run(capsys, *argv) == (2, "", f"error: bad group spec {group!r}\n")
    witness = "coarse-witness v1\ngroup=FreeAbelian(1) radius=2\nD 1\nB 4\n0:0 0,1,2,3,4\n"
    assert len(parse_witness(witness).space) == 5
    for old, new in (("radius=2", "radius=\u0662"), ("radius=2", "radius=02"), ("D 1", "D \u0661"),
                     ("0:0 0,", "0:0 01,"), ("0:0 ", "00:0 ")):
        with pytest.raises(WitnessFormatError):
            parse_witness(witness.replace(old, new))
    # a trace whose index, param and ref are all 0; each is replaced in turn
    lines = ["0\tR-FINITE\tTrivial\t0..0", "1\tR-EUCLID\tFreeAbelian(0) <- 0\t0..0",
             "2\tR-PROPER-ACTION\tX <- @0\t0..0"]
    engine = asdimlab.engine
    assert engine.replay(engine.parse_trace("\n".join(lines))) == DimBound.exact(0)
    for odd in _ODD_NUMERALS:
        variants = [odd + lines[0][1:], lines[1].replace("<- 0", "<- " + odd),
                    lines[2].replace("@0", "@" + odd)]
        for line, variant in enumerate(variants):
            if " " in odd and line:
                continue  # a space splits the token list itself
            text = "\n".join(lines[:line] + [variant] + lines[line + 1:])
            with pytest.raises(engine.MalformedTraceError):
                engine.parse_trace(text)
    for bound in ("01..02", "\u0663..\u0663", "0..01", "+0..0"):
        with pytest.raises(ValueError):
            DimBound.parse(bound)
    for text in ("FreeAbelian(01)", "Finite(02)", "Lattice(H3,03,cocompact)"):
        with pytest.raises(CanonicalFormError):
            parse_canonical(text)
    assert parse_manifold("dim 3;\npiece m H3;\n").dim == 3
    with pytest.raises(ManifoldParseError):
        parse_manifold("dim 03;\npiece m H3;\n")


@pytest.mark.parametrize("radius", ["1000000", "100000000"])
def test_cover_search_refuses_a_huge_radius_at_once(capsys, radius):
    code, out, err = run(
        capsys, "cover", "search", "--group", "FreeGroup(2)", "--radius", radius, "-D", "1", "-B", "2",
    )
    assert code == 2 and out == ""
    assert "24 points" in err


def test_heisenberg_search_walks_its_ball_once(capsys, monkeypatch):
    spec = asdimlab.coarse.GroupSpec("Heisenberg3")
    interior = asdimlab.coarse.cayley_ball(spec, 1).points
    ball = asdimlab.coarse.cayley_ball(spec, 2).points
    calls = []
    real = asdimlab.coarse._heisenberg_neighbors

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(asdimlab.coarse, "_heisenberg_neighbors", counted)
    code, out, _ = run(
        capsys, "cover", "search", "--group", "Heisenberg3", "--radius", "2", "-D", "1", "-B", "2",
    )
    assert code in (0, 1) and out.startswith("k=")
    # One breadth-first search expands each interior point once and records
    # the adjacency the distances are read from.
    assert Counter(calls) == Counter(interior)
    assert len(ball) == 17


# Runs commands in a fresh interpreter in which numpy cannot be imported,
# and prints each one's exit code and stderr.
_NO_NUMPY_CHILD = """
import contextlib, io, sys
sys.modules["numpy"] = None
from asdimlab.cli import main

results = []
for argv in ARGVS:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append((code, err.getvalue()))
print(repr(results))
"""


def test_oversize_balls_are_refused_without_numpy(tmp_path):
    label = tmp_path / "w.txt"
    label.write_text("coarse-witness v1\ngroup=FreeGroup(2) radius=1000000\nD 1\nB 0\n0:0 0\n")
    argvs = [
        ["cover", "search", "--group", "FreeAbelian(2)", "--radius", "100", "-D", "1", "-B", "2"],
        ["cover", "search", "--group", "Heisenberg3", "--radius", "1000", "-D", "1", "-B", "2"],
        ["cover", "build", "--rank", "3", "-D", "1", "--radius", "1000"],
        ["cover", "verify", str(label)],
    ]
    results = ast.literal_eval(run_fresh(_NO_NUMPY_CHILD.replace("ARGVS", repr(argvs))))
    for argv, (code, err) in zip(argvs, results):
        assert code == 2 and "points" in err and "Traceback" not in err, (argv, err)


def test_cover_verify_refuses_a_huge_label_radius(tmp_path, capsys):
    target = tmp_path / "w.txt"
    target.write_text("coarse-witness v1\ngroup=FreeGroup(2) radius=1000000\nD 1\nB 0\n0:0 0\n")
    budget = "FreeGroup(2) ball of radius 1000000 has more than 200000 points, the point budget"
    assert run(capsys, "cover", "verify", str(target)) == (2, "", f"{target}:2: error: {budget}\n")
    target.write_text("coarse-witness v1\ngroup=FreeGroup(2) radius=" + "1" * 5000 + "\nD 1\nB 0\n0:0 0\n")
    code, out, err = run(capsys, "cover", "verify", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"{target}:2: error: bad radius")
    target.write_text("coarse-witness v1\ngroup=FreeGroup(2) radius=0\nD 1\nB 0\n0:0 0\n")
    code, out, err = run(capsys, "cover", "verify", str(target))
    assert code == 2 and out == ""
    assert err == f"{target}:2: error: radius must be positive, got 0\n"


@pytest.mark.parametrize(
    "lines,diagnostic",
    [
        (["coarse-witness v1", "group=FreeAbelian(1) radius=2", "D 2", "B 3", "0:0 9"],
         "5: error: point index 9 out of range for 5-point space"),
        (["coarse-witness v1", "group=Foo(1) radius=2", "D 2", "B 3", "0:0 0"],
         "2: error: bad group spec 'Foo(1)'"),
    ],
    ids=["point-index", "group"],
)
def test_cover_verify_refuses_a_bad_witness_at_its_line(tmp_path, capsys, lines, diagnostic):
    target = tmp_path / "w.txt"
    target.write_text("".join(line + "\n" for line in lines))
    assert run(capsys, "cover", "verify", str(target)) == (2, "", f"{target}:{diagnostic}\n")


@pytest.mark.parametrize(
    "label",
    [
        "group=FreeAbelian(1) group=FreeAbelian(1) radius=2",
        "group=FreeAbelian(1) radius",
        "group=FreeAbelian(1)",
    ],
    ids=["repeated-key", "no-equals", "no-radius"],
)
def test_cover_verify_refuses_a_bad_label(tmp_path, capsys, label):
    target = tmp_path / "w.txt"
    target.write_text(f"coarse-witness v1\n{label}\nD 1\nB 0\n0:0 0\n")
    code, out, err = run(capsys, "cover", "verify", str(target))
    assert (code, out) == (2, "")
    assert err == f"{target}:2: error: bad space label {label!r}\n"


def test_cover_verify_checks_a_label_past_the_old_matrix_limit(tmp_path, capsys):
    # 118,097 points once asked for a 56 GB matrix and were refused; now the
    # witness is read and its one subset leaves every other point uncovered.
    target = tmp_path / "w.txt"
    target.write_text("coarse-witness v1\ngroup=FreeGroup(2) radius=10\nD 1\nB 0\n0:0 0\n")
    code, out, err = run(capsys, "cover", "verify", str(target))
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "violation: point 1 at (1,) is uncovered"
    assert lines[-1] == "FAIL: 118096 violation(s)"


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
    found = "k=1\n" if argv[1] == "search" else ""
    assert run(capsys, *argv, "-o", str(target)) == (
        2, found, f"{target}: error: No such file or directory\n"
    )
    assert not target.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (("cover", "build", "--rank", "1", "-D", "0", "--radius", "5"),
         "separation D must be positive, got 0"),
        (("cover", "search", "--group", "FreeAbelian(1)", "--radius", "4", "-D", "0", "-B", "3"),
         "D and B must be positive"),
        (("cover", "search", "--group", "FreeAbelian(1)", "--radius", "4", "-D", "1", "-B", "0"),
         "D and B must be positive"),
        (("cover", "search", "--group", "FreeAbelian(1)", "--radius", "4", "-D", "1", "-B", "3",
          "--k-max", "5"), "k_max must be 1..4, got 5"),
    ],
    ids=["D", "search-D", "search-B", "k-max"],
)
def test_bad_arguments_are_refused_without_a_position(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        # fits in stdout's buffer, so it meets the closed pipe when main flushes
        ("bound", str(FIXTURES / "d3_h3.mfd"), "--trace"),
        # 11 kB, more than the buffer holds, so a write inside the handler fails
        ("cover", "build", "--rank", "2", "-D", "1", "--radius", "30"),
    ],
    ids=["at-flush", "in-handler"],
)
def test_a_closed_stdout_is_refused_with_exit_2(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read: every write to the pipe fails
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "asdimlab.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path), timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"<stdout>: error: Broken pipe\n")


def test_an_unbuffered_stdout_closed_after_one_line_is_refused_with_exit_2():
    # unbuffered, a write is one system call, and a pipe whose reader has gone
    # takes part of it; the rest must fail loudly, not be dropped
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "asdimlab.cli", "cover", "build", "--rank", "2", "-D", "1",
         "--radius", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED="1"),
    )
    with proc:
        assert proc.stdout.readline() == b"coarse-witness v1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (2, b"<stdout>: error: Broken pipe\n")


@pytest.mark.parametrize(
    "argv,line",
    [
        (("cover", "build", "--rank", "x", "-D", "1", "--radius", "2"),
         "error: argument --rank: invalid int value: 'x'\n"),
        (("cover", "build", "-D", "1", "--radius", "2"),
         "error: the following arguments are required: --rank\n"),
    ],
    ids=["bad-int", "missing-flag"],
)
def test_arguments_that_do_not_parse_are_one_refusal_line(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", line)


def test_an_unknown_subcommand_is_one_refusal_line(capsys):
    code, out, err = run(capsys, "nope")
    assert (code, out) == (2, "")
    # the list of choices is worded differently from one Python version to the next
    assert err.startswith("error: argument command: invalid choice: 'nope'")
    assert err.count("\n") == 1 and err.endswith("\n")


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
_CATALOG_LAYERS = _CORE | {f"asdimlab.{m}" for m in ("bounds", "geometries", "groups", "engine")}
_BOUND_LAYERS = _CATALOG_LAYERS | {"asdimlab.manifolds"}
_COARSE_LAYERS = _CORE | {"asdimlab.coarse"}


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["catalog", "--dim", "3"], _CATALOG_LAYERS),
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
    assert run(capsys, "bound", str(FIXTURES / "d3_h3.mfd")) == (
        3, "", "error: inconsistent bounds: lower bound 4 exceeds upper bound 0\n"
    )
