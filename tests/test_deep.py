"""Deep expressions: every walk on the certify path is iterative.

Injective decomposition graphs compile to amalgams nested once per
spanning-tree edge, so a 1000-vertex graph is a 1000-deep expression.
These tests run such graphs through the whole certify path and push the
group-expression walks far past the interpreter's recursion limit.
"""

import functools
import sys
import time
import tracemalloc

import pytest

from asdimlab import cli, engine, manifolds
from asdimlab.bounds import DimBound
from asdimlab.groups import (
    Amalgam,
    FreeAbelian,
    FreeProduct,
    InfinitenessStatus,
    Lattice,
    Product,
    SurfaceGroup,
    Trivial,
    is_infinite,
    normalize,
    parse_canonical,
    postorder,
    to_canonical,
)

DEEP = 50_000


def chain_text(n: int) -> str:
    lines = ["dim 4;", "graph chain {"]
    lines += [f"  v v{i} H4;" for i in range(n)]
    lines += [f"  e v{i} v{i + 1} flat3;" for i in range(n - 1)]
    lines += ["  pi1_injective true;", "}"]
    return "\n".join(lines) + "\n"


def f4_tree_text(n: int) -> str:
    # vertex i > 0 hangs below vertex (i - 1) // 2: a binary tree
    lines = ["dim 4;", "graph tree {"]
    lines += [f"  v v{i} F4;" for i in range(n)]
    lines += [f"  e v{(i - 1) // 2} v{i} nil3;" for i in range(1, n)]
    lines += ["  pi1_injective true;", "}"]
    return "\n".join(lines) + "\n"


def certify(text: str):
    desc = manifolds.parse_manifold(text)
    expr, verdict = manifolds.compile(desc)
    assert verdict.status == "Aspherical"
    result = engine.bound(expr, aspherical_dim=desc.dim)
    replayed = engine.replay(engine.parse_trace(engine.serialize_trace(result.trace)))
    return result, replayed


def test_a_1000_vertex_chain_bounds_and_replays():
    assert sys.getrecursionlimit() < 1000 * 3
    result, replayed = certify(chain_text(1000))
    assert result.bound == DimBound.parse("4..4")
    assert replayed == result.bound


@functools.lru_cache(maxsize=1)
def chain_trace(n: int) -> str:
    desc = manifolds.parse_manifold(chain_text(n))
    expr, _ = manifolds.compile(desc)
    return engine.serialize_trace(engine.bound(expr, aspherical_dim=desc.dim).trace)


def test_parse_trace_keeps_one_subject_per_run_and_no_list_of_records():
    text = chain_trace(1000)  # 81.6 MB: every step names its subject in full
    tracemalloc.start()
    try:
        steps = engine.parse_trace(text).steps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the subjects kept are about a third of the text; a list of every record
    # would be the whole text again
    assert peak < 0.6 * len(text)
    pairs = list(zip(steps, steps[1:]))
    equal = [a.subject == b.subject for a, b in pairs]
    assert [a.subject is b.subject for a, b in pairs] == equal
    assert sum(equal) > len(steps) // 2


def test_a_broken_record_deep_in_a_trace_is_refused_at_its_line():
    lines = chain_trace(1000).split("\n")
    lines[4999] = lines[4999].replace("\t", " ", 1)
    with pytest.raises(engine.MalformedTraceError, match="^line 5000: expected 4 fields, got 3$"):
        engine.parse_trace("\n".join(lines))


def test_a_1000_vertex_f4_tree_bounds_and_replays():
    result, replayed = certify(f4_tree_text(1000))
    assert result.bound == DimBound.parse("4..4")
    assert replayed == result.bound


def test_a_2000_summand_free_product_bounds_in_well_under_a_second():
    # A connected sum compiles to one wide FreeProduct; its amalgam steps are
    # named from the evaluator's memo, not by reserializing every prefix.
    expr = FreeProduct(tuple(Lattice("H4", 4, True) for _ in range(2000)))
    start = time.perf_counter()
    result = engine.bound(expr)
    assert time.perf_counter() - start < 0.5
    assert result.bound == DimBound.parse("1..4")
    assert len(result.trace.steps) == 2000 * 3 + 1999 + 3


def test_cli_bounds_a_1000_vertex_chain_file(tmp_path, capsys):
    path = tmp_path / "chain.mfd"
    path.write_text(chain_text(1000))
    assert cli.main(["bound", str(path)]) == 0
    out = capsys.readouterr().out
    assert "bound: 4..4" in out.splitlines()


def test_cli_prints_a_trace_of_many_blocks_record_by_record(tmp_path, capsys):
    path = tmp_path / "chain.mfd"
    path.write_text(chain_text(100))
    assert cli.main(["bound", str(path), "--trace"]) == 0
    out = capsys.readouterr().out
    printed = out[out.index("trace:\n") + 7 : out.index("citations:\n")]
    assert printed == "".join(f"  {line}\n" for line in chain_trace(100).split("\n")[:-1])


def nested_amalgam(depth: int):
    z, edge = FreeAbelian(1), Trivial()
    expr = z
    for _ in range(depth):
        expr = Amalgam(expr, z, edge)
    return expr


def test_group_walks_survive_50000_deep_nesting():
    expr = nested_amalgam(DEEP)
    text = to_canonical(expr)
    assert text.startswith("Amalgam(" * DEEP + "FreeAbelian(1),FreeAbelian(1),Trivial)")
    assert text.count("Amalgam(") == DEEP
    assert len(text) == len("FreeAbelian(1)") + DEEP * len("Amalgam(,FreeAbelian(1),Trivial)")
    assert is_infinite(expr) is InfinitenessStatus.INFINITE
    assert normalize(expr) is expr
    assert parse_canonical(text) is expr
    assert hash(expr) == hash((expr.left, expr.right, expr.edge)) and expr != expr.left
    assert repr(expr).startswith("Amalgam(left=Amalgam(left=")


def test_normalize_flattens_a_product_nested_past_the_recursion_limit():
    depth = DEEP
    z = FreeAbelian(1)
    expr = z
    for _ in range(depth):
        expr = Product((expr, Trivial(), z))
    flat = normalize(expr)
    assert isinstance(flat, Product) and len(flat.factors) == depth + 1
    assert all(f is z for f in flat.factors)


def test_postorder_yields_children_first_and_skips_seen_nodes():
    z, s = FreeAbelian(1), SurfaceGroup("flat")
    shared = Amalgam(z, z, s)
    root = Amalgam(shared, shared, s)
    assert list(postorder(root)) == [z, z, s, shared, z, z, s, shared, s, root]
    seen: set[int] = set()
    order = []
    for node in postorder(root, seen):
        seen.add(id(node))
        order.append(node)
    assert [id(n) for n in order] == [id(z), id(s), id(shared), id(root)]


def test_shared_subexpressions_give_the_trace_of_their_unshared_copy():
    # equal expressions are one node, so the tree a text describes is the DAG
    # built with shared parts; its trace must still follow tree positions
    h3 = Lattice("H3", 3, False)
    piece = Amalgam(h3, h3, SurfaceGroup("flat"))
    dag = Amalgam(piece, Product((piece, FreeAbelian(2), piece)), piece)
    tree = parse_canonical(to_canonical(dag))
    assert tree is dag
    for adim in (None, 3):
        assert engine.serialize_trace(engine.bound(dag, adim).trace) == engine.serialize_trace(
            engine.bound(tree, adim).trace
        )


def test_cli_maps_a_recursion_error_to_exit_2(monkeypatch, tmp_path, capsys):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(engine, "bound", too_deep)
    path = tmp_path / "chain.mfd"
    path.write_text(chain_text(3))
    assert cli.main(["bound", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: input nests too deeply to process\n")
