"""DSL parsing, rendering, and compilation to group expressions."""

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, run_fresh

from asdimlab import engine
from asdimlab.groups import (
    ActsOnCover,
    Amalgam,
    FreeProduct,
    HNN,
    Lattice,
    Union,
)
from asdimlab.manifolds import (
    DecompGraph,
    GeometricPiece,
    GraphEdge,
    GraphVertex,
    ManifoldDesc,
    ManifoldParseError,
    OutsideClassifiedCasesError,
    compile,
    connected_sum_with_handles,
    parse_manifold,
    render,
)

ALL_FIXTURES = (
    sorted(FIXTURES.glob("*.mfd"))
    + sorted((FIXTURES / "dim4").glob("*.mfd"))
    + sorted((FIXTURES / "dim3").glob("*.mfd"))
)

NEGATIVES = {
    "dim5.mfd": (1, 5, "dimension must be 3 or 4"),
    "no_dim.mfd": (1, 1, "expected 'dim'"),
    "unknown_geometry.mfd": (2, 9, "unknown geometry"),
    "wrong_dim_geometry.mfd": (2, 9, "unknown geometry"),
    "missing_semicolon.mfd": (2, 11, "expected ';'"),
    "dup_name.mfd": (3, 7, "duplicate name"),
    "reserved_name.mfd": (2, 7, "reserved word"),
    "edge_bad_endpoint.mfd": (4, 7, "not a declared vertex"),
    "edge_bad_type.mfd": (5, 9, "not valid in a dim-4 program"),
    "disconnected.mfd": (2, 7, "not connected"),
    "empty_graph.mfd": (2, 7, "declares no vertices"),
    "sum_omits.mfd": (4, 1, "omits declared summands"),
    "sum_dup.mfd": (4, 9, "listed twice"),
    "sum_undeclared.mfd": (3, 9, "undeclared summand"),
    "alexandrov_dim4.mfd": (3, 1, "dim-3 programs only"),
    "alexandrov_dup.mfd": (4, 1, "duplicate alexandrov"),
    "unexpected_char.mfd": (3, 1, "unexpected character"),
    "missing_pi1.mfd": (4, 1, "expected 'pi1_injective'"),
    "two_summands_no_sum.mfd": (4, 1, "need a sum statement"),
}


def test_fixture_corpus_is_large_enough():
    assert len(ALL_FIXTURES) >= 15
    assert any(p.name == "five_summands.mfd" for p in ALL_FIXTURES)


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_round_trip(path):
    desc = parse_manifold(path.read_text())
    text = render(desc)
    again = parse_manifold(text)
    assert again == desc
    assert render(again) == text


@pytest.mark.parametrize("name", sorted(NEGATIVES), ids=str)
def test_negative_fixtures(name):
    line, col, fragment = NEGATIVES[name]
    with pytest.raises(ManifoldParseError) as info:
        parse_manifold((FIXTURES / "bad" / name).read_text())
    err = info.value
    assert (err.line, err.col) == (line, col), err.message
    assert fragment in err.message


@pytest.mark.parametrize(
    "text, position",
    [
        ("dim 4;\n-- only a comment", (2, 1)),
        ("dim 4;\npiece a H4;\npiece b H4; -- no sum", (3, 13)),
        ("dim 4; -- c", (1, 8)),
        ("dim 4;\npiece a H4;\npiece b H4;\n-- tail", (4, 1)),
    ],
)
def test_end_of_input_after_a_trailing_comment_sits_at_the_comment(text, position):
    # a comment takes up no columns, so end of input lies where it starts
    with pytest.raises(ManifoldParseError) as info:
        parse_manifold(text)
    assert (info.value.line, info.value.col) == position


@pytest.mark.parametrize(
    "text, position, fragment",
    [
        # CRLF: "\r" is a blank one column wide, only "\n" breaks a line
        ("dim 4;\r\npiece a Q;\r\n", (2, 9), "unknown geometry 'Q'"),
        ("dim 4;\r\npiece a H4\r\n", (3, 1), "expected ';', found end of input"),
        ("dim 4;\r\n\r\ngraph g {\r\n v a H4;\r\n v b H4;\r\n pi1_injective true;\r\n}\r\n",
         (3, 7), "graph 'g' is not connected"),
        # trailing blanks at end of input count as columns
        ("dim 4;\npiece a H4  \t ", (2, 15), "expected ';', found end of input"),
        ("   ", (1, 4), "expected 'dim', found end of input"),
        ("", (1, 1), "expected 'dim', found end of input"),
        # a lone "-" does not start a comment
        ("dim 4;\npiece a H4 - ;", (2, 12), "unexpected character '-'"),
        ("dim 4;\npiece a H4;-", (2, 12), "unexpected character '-'"),
        # a tab is one column
        ("dim\t4;\n\tpiece\ta\tQ;", (2, 10), "unknown geometry 'Q'"),
        # a non-ASCII character is one column, also after one in a comment
        ("dim 4;\npiece é H4;", (2, 7), "unexpected character 'é'"),
        ("-- ü\ndim 4;ß", (2, 7), "unexpected character 'ß'"),
        ("dim 4;\v\npiece a H4;", (1, 7), "unexpected character '\\x0b'"),
    ],
)
def test_lexer_edge_cases_keep_their_positions(text, position, fragment):
    with pytest.raises(ManifoldParseError) as info:
        parse_manifold(text)
    assert (info.value.line, info.value.col) == position
    assert fragment in info.value.message


def test_an_error_before_a_graph_is_placed_after_it():
    # the graph's position is taken first, so the sum's error rewinds the line count
    text = "dim 3;\nsum g # x;\ngraph g {\n  v p H3;\n  pi1_injective true;\n}\n"
    with pytest.raises(ManifoldParseError) as info:
        parse_manifold(text)
    assert (info.value.line, info.value.col) == (2, 9)
    assert info.value.message == "sum references undeclared summand 'x'"


@pytest.mark.parametrize(
    "unit", ["   \t  \n-- a comment line here\n", " \r\n", "\t", "--\n"], ids=repr
)
def test_a_megabyte_of_blanks_and_comments_is_refused_quickly(unit):
    text = unit * (1_000_000 // len(unit))
    start = time.perf_counter()
    with pytest.raises(ManifoldParseError, match="expected 'dim', found end of input"):
        parse_manifold(text)
    assert time.perf_counter() - start < 0.5


_TOKEN = re.compile(r"[;{}#]|[A-Za-z0-9_~]+")
_BLANKS = st.sampled_from((" ", "\t", "\r", "\n", "\r\n", "-- a comment; {v} #\n", "--\n"))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.data())
def test_any_layout_of_a_rendering_parses_to_the_same_description(data):
    path = data.draw(st.sampled_from(ALL_FIXTURES), label="fixture")
    desc = parse_manifold(path.read_text())
    tokens = _TOKEN.findall(render(desc))
    pieces, graph_names = [], {}
    for k, token in enumerate(tokens):
        # two names need a blank between them; punctuation needs none
        apart = k > 0 and tokens[k - 1][0] not in ";{}#" and token[0] not in ";{}#"
        pieces.append("".join(data.draw(st.lists(_BLANKS, min_size=apart, max_size=3))))
        if k > 0 and tokens[k - 1] == "graph":
            graph_names[token] = len("".join(pieces))
        pieces.append(token)
    # the input may end in a comment with no line break after it
    pieces.append(data.draw(st.sampled_from(("", "\n", " -- end", "\r\n-- end"))))
    text = "".join(pieces)
    again = parse_manifold(text)
    assert again == desc
    for s in again.summands:
        if isinstance(s, DecompGraph):
            offset = graph_names[s.name]
            line_start = text.rfind("\n", 0, offset) + 1
            assert s.pos == (text.count("\n", 0, offset) + 1, offset - line_start + 1)


def test_outside_classified_cases_carries_a_position():
    text = (FIXTURES / "bad" / "outside_cases.mfd").read_text()
    desc = parse_manifold(text)  # parses fine; compilation rejects it
    with pytest.raises(OutsideClassifiedCasesError) as info:
        compile(desc)
    assert (info.value.line, info.value.col) == (2, 7)
    assert "outside classified cases" in info.value.message


def test_piece_compilation():
    desc = parse_manifold("dim 3;\npiece m H3;\n")
    expr, verdict = compile(desc)
    assert expr == Lattice("H3", 3, True)
    assert verdict.status == "Aspherical"

    desc = parse_manifold("dim 4;\npiece m S4;\n")
    expr, verdict = compile(desc)
    assert expr == Lattice("S4", 4, True)
    assert verdict.status == "NotAspherical"
    assert "compact" in verdict.reason

    # the affine-plane geometry is a lattice like any other; the engine
    # bounds it through its fiber extension
    desc = parse_manifold("dim 4;\npiece m F4;\n")
    expr, verdict = compile(desc)
    assert expr == Lattice("F4", 4, True)
    assert str(engine.bound(expr).bound) == "1..4"
    assert verdict.status == "NotAspherical"
    assert "no closed" in verdict.reason


def test_single_vertex_graph_equals_piece():
    as_graph = parse_manifold(
        "dim 4;\ngraph g {\n  v a H4;\n  pi1_injective true;\n}\n"
    )
    as_piece = parse_manifold("dim 4;\npiece g H4;\n")
    assert compile(as_graph).expr == compile(as_piece).expr
    assert compile(as_graph).verdict == compile(as_piece).verdict


def test_injective_graph_compiles_to_amalgams():
    desc = parse_manifold((FIXTURES / "aspherical_tree.mfd").read_text())
    expr, verdict = compile(desc)
    a = Lattice("H3xE", 4, False)
    b = Lattice("H2xE2", 4, False)
    s = Lattice("SL2~xE", 4, False)
    flat = Lattice("E3", 3, True)
    nil = Lattice("Nil3", 3, True)
    assert expr == Amalgam(Amalgam(a, b, flat), s, nil)
    assert verdict.status == "Aspherical"


def test_self_loop_compiles_to_hnn():
    desc = parse_manifold((FIXTURES / "h4_loop.mfd").read_text())
    expr, verdict = compile(desc)
    assert expr == HNN(Lattice("H4", 4, False), Lattice("E3", 3, True))
    assert verdict.status == "Aspherical"


def test_parallel_edge_becomes_hnn():
    text = (
        "dim 4;\n"
        "graph w {\n"
        "  v a H3xE;\n"
        "  v b H2xE2;\n"
        "  e a b flat3;\n"
        "  e a b nil3;\n"
        "  pi1_injective true;\n"
        "}\n"
    )
    expr, _ = compile(parse_manifold(text))
    inner = Amalgam(Lattice("H3xE", 4, False), Lattice("H2xE2", 4, False), Lattice("E3", 3, True))
    assert expr == HNN(inner, Lattice("Nil3", 3, True))


def test_non_injective_graph_compiles_to_union():
    desc = parse_manifold((FIXTURES / "orbifold_union.mfd").read_text())
    expr, verdict = compile(desc)
    assert expr == Union((Lattice("S2xE2", 4, False), Lattice("S2xH2", 4, False)))
    assert verdict.status == "NotAspherical"
    assert "spherical fibers" in verdict.reason


def test_h2xh2_graph_is_undetermined():
    desc = parse_manifold((FIXTURES / "h2xh2_pair.mfd").read_text())
    _, verdict = compile(desc)
    assert verdict.status == "Undetermined"


def test_h2c_f4_graph_is_aspherical():
    desc = parse_manifold((FIXTURES / "h2c_f4_tree.mfd").read_text())
    expr, verdict = compile(desc)
    assert verdict.status == "Aspherical"
    assert expr == Amalgam(
        Lattice("H2C", 4, False), Lattice("F4", 4, False), Lattice("Nil3", 3, True)
    )


def test_dim3_graph_verdicts():
    aspherical = parse_manifold((FIXTURES / "d3_graph_torus.mfd").read_text())
    assert compile(aspherical).verdict.status == "Aspherical"
    union = parse_manifold((FIXTURES / "d3_graph_union.mfd").read_text())
    assert compile(union).verdict.status == "Undetermined"
    klein = parse_manifold((FIXTURES / "d3_graph_klein.mfd").read_text())
    verdict = compile(klein).verdict
    assert verdict.status == "Aspherical"
    assert "orientation double cover" in verdict.reason


def test_vertex_order_does_not_change_the_bound():
    forward = parse_manifold((FIXTURES / "aspherical_tree.mfd").read_text())
    shuffled = parse_manifold(
        "dim 4;\n"
        "graph w {\n"
        "  v s SL2~xE;\n"
        "  v b H2xE2;\n"
        "  v a H3xE;\n"
        "  e a b flat3;\n"
        "  e a s nil3;\n"
        "  pi1_injective true;\n"
        "}\n"
    )
    for desc in (forward, shuffled):
        expr, verdict = compile(desc)
        adim = desc.dim if verdict.status == "Aspherical" else None
        assert str(engine.bound(expr, aspherical_dim=adim).bound) == "4..4"


def test_connected_sum_order_follows_sum_statement():
    desc = parse_manifold((FIXTURES / "sum_three.mfd").read_text())
    assert [s.name for s in desc.summands] == ["c", "a", "b"]
    expr, verdict = compile(desc)
    assert isinstance(expr, FreeProduct)
    assert expr.factors == (
        Lattice("Sol3", 3, True), Lattice("H3", 3, True), Lattice("E3", 3, True),
    )
    assert verdict.status == "NotAspherical"


def test_alexandrov_wraps_the_smooth_bound():
    desc = parse_manifold((FIXTURES / "alex_empty.mfd").read_text())
    expr, verdict = compile(desc)
    smooth, smooth_verdict = compile(ManifoldDesc(desc.dim, desc.summands))
    assert expr == ActsOnCover(smooth)
    assert verdict.status == smooth_verdict.status == "Aspherical"
    assert "empty singular set" in verdict.reason
    assert str(engine.bound(expr).bound) == "0..3"
    assert str(engine.bound(expr, aspherical_dim=3).bound) == "3..3"

    sing = parse_manifold((FIXTURES / "alex_sing.mfd").read_text())
    expr, verdict = compile(sing)
    assert verdict.status == "Undetermined"
    assert str(engine.bound(expr).bound) == "0..3"


def test_compiling_loads_no_engine():
    names = ("alex_graph.mfd", "h2c_f4_tree.mfd", "five_summands.mfd")
    paths = [str(FIXTURES / name) for name in names]
    code = f"""
import sys
from asdimlab.manifolds import compile, parse_manifold
for path in {paths!r}:
    compile(parse_manifold(open(path).read()))
print(sorted(m for m in sys.modules if m.startswith("asdimlab.")))
"""
    loaded = ["asdimlab.bounds", "asdimlab.geometries", "asdimlab.groups", "asdimlab.manifolds"]
    assert run_fresh(code).strip() == repr(loaded)


def test_handles():
    base = parse_manifold("dim 4;\npiece m E4;\n")
    same = connected_sum_with_handles(base, 0)
    assert same == base
    once = connected_sum_with_handles(base, 2)
    assert once.summands[1:] == (GeometricPiece("handle1", "S3xE"), GeometricPiece("handle2", "S3xE"))
    expr, verdict = compile(once)
    handle = Lattice("S3xE", 4, True)
    assert expr == FreeProduct((Lattice("E4", 4, True), handle, handle))
    assert verdict.status == "NotAspherical"
    assert str(engine.bound(handle).bound) == "1..1"
    # a handle sum survives render -> parse -> compile as the same certificate
    reparsed = parse_manifold(render(once))
    assert reparsed == once
    assert compile(reparsed) == (expr, verdict)
    trace = engine.serialize_trace(engine.bound(expr).trace)
    assert engine.serialize_trace(engine.bound(compile(reparsed).expr).trace) == trace


def test_handle_names_avoid_collisions():
    desc = parse_manifold("dim 4;\npiece handle1 E4;\n")
    grown = connected_sum_with_handles(desc, 1)
    names = [s.name for s in grown.summands]
    assert len(set(names)) == len(names)


def test_handles_require_dim4():
    desc = parse_manifold("dim 3;\npiece m H3;\n")
    with pytest.raises(ValueError):
        connected_sum_with_handles(desc, 1)
    base4 = parse_manifold("dim 4;\npiece m E4;\n")
    with pytest.raises(ValueError):
        connected_sum_with_handles(base4, -1)


def test_render_is_canonical():
    desc = ManifoldDesc(
        4,
        (
            GeometricPiece("p", "H4"),
            DecompGraph(
                "g",
                (GraphVertex("a", "H3xE"), GraphVertex("b", "H2xE2")),
                (GraphEdge("a", "b", "flat3"),),
                True,
            ),
        ),
    )
    text = render(desc)
    assert text == (
        "dim 4;\n"
        "piece p H4;\n"
        "graph g {\n"
        "  v a H3xE;\n"
        "  v b H2xE2;\n"
        "  e a b flat3;\n"
        "  pi1_injective true;\n"
        "}\n"
        "sum p # g;\n"
    )
    assert parse_manifold(text) == desc


def test_comments_and_whitespace_are_ignored():
    text = "dim 3;  -- trailing comment\n\n\npiece   m\tH3;\n-- done\n"
    desc = parse_manifold(text)
    assert desc == ManifoldDesc(3, (GeometricPiece("m", "H3"),))


def test_an_injective_graph_walks_its_spanning_tree_once(monkeypatch):
    import asdimlab.manifolds as manifolds

    text = (
        "dim 3;\ngraph m {\n  v p H3;\n  v q H3;\n  v s H3;\n"
        "  e p q torus2;\n  e q s torus2;\n  e s p torus2;\n  pi1_injective true;\n}\n"
    )
    want = compile(parse_manifold(text))
    calls = []
    real = manifolds._spanning_tree

    def counted(graph):
        calls.append(graph.name)
        return real(graph)

    monkeypatch.setattr(manifolds, "_spanning_tree", counted)
    desc = parse_manifold(text)
    got = compile(desc)
    # The connectivity check at parse time and the amalgam/HNN expression
    # read the one tree kept on the graph.
    assert calls == ["m"]
    assert got == want and render(desc) == text
    assert desc.summands[0].tree == ([(0, 1, 0), (0, 2, 2)], [1])
