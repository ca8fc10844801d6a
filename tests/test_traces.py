import gc
import random
import re

import pytest

from conftest import FIXTURES, make_cover_expr, make_expr

from asdimlab import engine, manifolds
from asdimlab.bounds import DimBound, ExtendedDim, finite
from asdimlab.engine import (
    MalformedTraceError,
    ProofTrace,
    TraceStep,
    bound,
    parse_trace,
    replay,
    serialize_trace,
)
from asdimlab.geometries import factor_facts, list_geometries, lookup_geometry
from asdimlab.groups import (
    ActsOnCover,
    Amalgam,
    FreeAbelian,
    Lattice,
    ProperActionOn,
    SurfaceGroup,
    Trivial,
)


def test_empty_trace_is_the_trivial_derivation():
    result = bound(Trivial())
    assert result.trace.steps == ()
    assert serialize_trace(result.trace) == ""
    assert parse_trace("") == ProofTrace(())
    assert replay(ProofTrace(())) == DimBound.exact(0)


def test_serialize_parse_round_trip_random():
    rng = random.Random(61803)
    for _ in range(400):
        expr = make_expr(rng, depth=rng.randrange(0, 4))
        trace = bound(expr).trace
        text = serialize_trace(trace)
        assert parse_trace(text) == trace
        # one line per step, each tab-separated into four fields
        lines = text.splitlines()
        assert len(lines) == len(trace.steps)
        assert all(len(line.split("\t")) == 4 for line in lines)


def test_golden_trace_for_an_amalgam():
    h3 = Lattice("H3", 3, True)
    result = bound(Amalgam(h3, h3, SurfaceGroup("flat")), aspherical_dim=3)
    expected = (
        "0\tR-INFINITE-LB\tLattice(H3,3,cocompact)\t1..?\n"
        "1\tR-PROPER-ACTION\tLattice(H3,3,cocompact) <- 3..3\t0..3\n"
        "2\tR-COMBINE\tLattice(H3,3,cocompact) <- @0 @1\t1..3\n"
        "3\tR-INFINITE-LB\tLattice(H3,3,cocompact)\t1..?\n"
        "4\tR-PROPER-ACTION\tLattice(H3,3,cocompact) <- 3..3\t0..3\n"
        "5\tR-COMBINE\tLattice(H3,3,cocompact) <- @3 @4\t1..3\n"
        "6\tR-SURFACE\tSurfaceGroup(flat) <- 2\t2..2\n"
        "7\tR-AMALGAM\tAmalgam(Lattice(H3,3,cocompact),Lattice(H3,3,cocompact),"
        "SurfaceGroup(flat)) <- @2 @5 @6\t0..3\n"
        "8\tR-INFINITE-LB\tAmalgam(Lattice(H3,3,cocompact),Lattice(H3,3,cocompact),"
        "SurfaceGroup(flat))\t1..?\n"
        "9\tR-COMBINE\tAmalgam(Lattice(H3,3,cocompact),Lattice(H3,3,cocompact),"
        "SurfaceGroup(flat)) <- @7 @8\t1..3\n"
        "10\tR-ASPH-LB\tAmalgam(Lattice(H3,3,cocompact),Lattice(H3,3,cocompact),"
        "SurfaceGroup(flat)) <- 3\t3..?\n"
        "11\tR-COMBINE\tAmalgam(Lattice(H3,3,cocompact),Lattice(H3,3,cocompact),"
        "SurfaceGroup(flat)) <- @9 @10\t3..3\n"
    )
    assert serialize_trace(result.trace) == expected
    assert replay(parse_trace(expected)) == DimBound.parse("3..3")


def test_a_trace_step_is_the_tuple_of_its_fields():
    step = TraceStep(0, "R-EUCLID", "FreeAbelian(2)", DimBound.exact(2), params=(2,))
    assert repr(step) == (
        "TraceStep(index=0, rule_id='R-EUCLID', subject='FreeAbelian(2)', "
        "produced=DimBound(lower=2, upper=ExtendedDim(rank=0, value=2)), "
        "refs=(), literals=(), params=(2,))"
    )
    assert step == (0, "R-EUCLID", "FreeAbelian(2)", DimBound.exact(2), (), (), (2,))
    assert step == bound(FreeAbelian(2)).trace.steps[0]


# Every line break str.splitlines knows, other than "\n"; a label may hold each.
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in LINE_BREAKS])
def test_a_label_holding_a_line_break_round_trips(brk):
    result = bound(ProperActionOn(DimBound(0, finite(1)), f"a{brk}b"))
    text = serialize_trace(result.trace)
    assert parse_trace(text) == result.trace
    assert replay(parse_trace(text)) == result.bound


def test_crlf_traces_parse_and_bare_cr_traces_do_not():
    text = serialize_trace(bound(Amalgam(FreeAbelian(1), FreeAbelian(2), Trivial())).trace)
    assert parse_trace(text.replace("\n", "\r\n")) == parse_trace(text)
    with pytest.raises(MalformedTraceError, match="^line 1: expected 4 fields"):
        parse_trace(text.replace("\n", "\r"))


def test_shared_value_tables_stay_bounded():
    # each step holds a distinct literal; once the trace is gone, only the
    # rule cache keeps any of them alive
    gc.collect()
    before = len(DimBound._table), len(ExtendedDim._table)
    n = 20_000
    text = "".join(f"{i}\tR-PROPER-ACTION\tX <- 0..{i}\t0..{i}\n" for i in range(n))
    assert str(replay(parse_trace(text))) == f"0..{n - 1}"
    gc.collect()
    maxsize = engine._arith.cache_info().maxsize
    assert len(DimBound._table) <= before[0] + maxsize
    assert len(ExtendedDim._table) <= before[1] + maxsize


def test_tampered_produced_bound_is_caught():
    trace = bound(FreeAbelian(2)).trace
    step = trace.steps[0]
    forged = TraceStep(
        step.index, step.rule_id, step.subject, DimBound.parse("3..3"),
        step.refs, step.literals, step.params,
    )
    with pytest.raises(MalformedTraceError):
        replay(ProofTrace((forged,) + trace.steps[1:]))


def test_forward_and_dangling_refs_are_caught():
    good = TraceStep(0, "R-FINITE", "Trivial", DimBound.exact(0))
    forward = TraceStep(1, "R-COMBINE", "x", DimBound.exact(0), refs=(1,))
    with pytest.raises(MalformedTraceError):
        replay(ProofTrace((good, forward)))
    misnumbered = TraceStep(5, "R-FINITE", "Trivial", DimBound.exact(0))
    with pytest.raises(MalformedTraceError):
        replay(ProofTrace((misnumbered,)))


def test_wrong_arity_in_trace_is_caught():
    step = TraceStep(0, "R-EUCLID", "FreeAbelian(2)", DimBound.exact(2), params=())
    with pytest.raises(MalformedTraceError):
        replay(ProofTrace((step,)))


def test_parse_trace_rejects_garbage():
    for text in (
        "nonsense\n",
        "0\tR-FINITE\tTrivial\n",  # missing bound field
        "x\tR-FINITE\tTrivial\t0..0\n",
        "0\tR-FINITE\tTrivial\tzero\n",
        "0\tR-EUCLID\tZ2 <- @a\t2..2\n",
        "0\tR-EUCLID\tZ2 <- 4..1\t2..2\n",
    ):
        with pytest.raises(MalformedTraceError):
            parse_trace(text)


def test_parsed_tampered_text_fails_replay():
    text = serialize_trace(bound(FreeAbelian(3)).trace)
    tampered = text.replace("3..3", "2..2")
    with pytest.raises(MalformedTraceError):
        replay(parse_trace(tampered))


def test_acts_on_cover_traces_replay():
    rng = random.Random(1618)
    for _ in range(300):
        expr = make_cover_expr(rng, depth=rng.randrange(0, 4))
        result = bound(expr)
        text = serialize_trace(result.trace)
        assert replay(parse_trace(text)) == result.bound
        cover = expr if isinstance(expr, ActsOnCover) else expr.factors[0]
        assert bound(cover).bound == DimBound(0, bound(cover.space).bound.upper)


_BY_NAME = {f.name: f for dim in (2, 3, 4) for f in list_geometries(dim)}
_LATTICE = re.compile(r"Lattice\(([\w~]+),(\d+),(cocompact|cusped)\)")


def _allowed_literals(rule_id: str, subject: str) -> tuple[DimBound, ...]:
    """The literals a compiled fixture's step may carry: catalog model
    dimensions, the F4 fiber and base, and a cusped piece's peripherals."""
    model = re.fullmatch(r"model\(([\w~]+)\)", subject)
    if model and rule_id == "R-PRODUCT":
        return tuple(f.model_asdim for f in factor_facts(_BY_NAME[model[1]]))
    lattice = _LATTICE.fullmatch(subject)
    if lattice is None:
        return ()
    fact = lookup_geometry(lattice[1], int(lattice[2]))
    if rule_id == "R-PROPER-ACTION":
        return (fact.model_asdim,)
    if rule_id == "R-EXTENSION" and fact.name == "F4":
        return (DimBound.exact(2), DimBound(0, finite(2)))
    if rule_id == "R-RELHYP" and lattice[3] == "cusped":
        return (DimBound(0, finite(fact.dim - 1)),)
    return ()


def test_fixture_trace_literals_come_from_the_catalog():
    good = [p for p in sorted(FIXTURES.rglob("*.mfd")) if p.parent.name != "bad"]
    assert len(good) == 45
    for path in good:
        desc = manifolds.parse_manifold(path.read_text())
        expr, verdict = manifolds.compile(desc)
        adim = desc.dim if verdict.status == "Aspherical" else None
        for step in bound(expr, aspherical_dim=adim).trace.steps:
            if step.literals:
                allowed = _allowed_literals(step.rule_id, step.subject)
                assert step.literals == allowed, (path.name, serialize_trace(ProofTrace((step,))))
