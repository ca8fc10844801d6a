"""Rule arithmetic, the evaluator, and consequence gating."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOUNDS, make_expr

from asdimlab import engine, geometries, groups, manifolds
from asdimlab.bounds import (
    FINITE_UNKNOWN,
    UNKNOWN,
    DimBound,
    InconsistentBoundError,
    finite,
)
from asdimlab.engine import (
    RULES,
    MalformedTraceError,
    RuleArityError,
    UnknownRuleError,
    apply_rule,
    bound,
    consequences,
    list_rules,
    parse_trace,
    replay,
    serialize_trace,
)
from asdimlab.geometries import UnknownGeometryError
from asdimlab.groups import (
    Amalgam,
    Extension,
    Finite,
    FreeAbelian,
    FreeProduct,
    HNN,
    HyperbolicGroup,
    Lattice,
    Product,
    ProperActionOn,
    RelHyperbolic,
    SurfaceGroup,
    Trivial,
    Union,
)

RULE_IDS = {
    "R-FINITE", "R-INFINITE-LB", "R-EUCLID", "R-SURFACE", "R-LIE-LATTICE",
    "R-PROPER-ACTION", "R-EXTENSION", "R-PRODUCT", "R-UNION", "R-AMALGAM",
    "R-HNN", "R-HYP", "R-RELHYP", "R-NAGATA", "R-ASPH-LB", "R-COMBINE",
}


def b(text):
    return DimBound.parse(text)


# (least inputs, most inputs or None, param count), from README's rule table.
README_ARITY = {
    "R-FINITE": (0, 0, 0),
    "R-INFINITE-LB": (0, 0, 0),
    "R-EUCLID": (0, 0, 1),
    "R-SURFACE": (0, 0, 1),
    "R-LIE-LATTICE": (0, 0, 1),
    "R-PROPER-ACTION": (1, 1, 0),
    "R-EXTENSION": (2, 2, 0),
    "R-PRODUCT": (1, None, 0),
    "R-UNION": (1, None, 0),
    "R-AMALGAM": (3, 3, 0),
    "R-HNN": (2, 2, 0),
    "R-HYP": (0, 1, 0),
    "R-RELHYP": (1, None, 1),
    "R-NAGATA": (0, 0, 1),
    "R-ASPH-LB": (0, 0, 1),
    "R-COMBINE": (1, None, 0),
}


def test_rule_table():
    assert {r.id for r in list_rules()} == RULE_IDS == set(README_ARITY)
    assert len(list_rules()) == 16
    # rules without a literature anchor are flagged as local decisions
    flagged = {rid for rid, rule in RULES.items() if "external/design-decision" in rule.citation}
    assert flagged == {"R-HNN", "R-COMBINE"}


def test_apply_rule_spot_values():
    assert apply_rule("R-FINITE", []) == b("0..0")
    assert apply_rule("R-INFINITE-LB", []) == b("1..?")
    assert apply_rule("R-EUCLID", [], (3,)) == b("3..3")
    assert apply_rule("R-SURFACE", [], (2,)) == b("2..2")
    assert apply_rule("R-SURFACE", [], (0,)) == b("0..0")
    assert apply_rule("R-LIE-LATTICE", [], (4,)) == b("4..4")
    assert apply_rule("R-PROPER-ACTION", [b("2..4")]) == b("0..4")
    assert apply_rule("R-NAGATA", [], (4,)) == b("0..4")
    assert apply_rule("R-EXTENSION", [b("2..2"), b("0..2")]) == b("0..4")
    assert apply_rule("R-PRODUCT", [b("1..1"), b("2..2"), b("0..fin")]) == b("0..fin")
    assert apply_rule("R-UNION", [b("0..2"), b("1..4")]) == b("0..4")
    assert apply_rule("R-AMALGAM", [b("4..4"), b("4..4"), b("3..3")]) == b("0..4")
    assert apply_rule("R-AMALGAM", [b("2..2"), b("0..0"), b("0..?")]) == b("0..?")
    assert apply_rule("R-HNN", [b("4..4"), b("3..3")]) == b("0..4")
    assert apply_rule("R-HYP", []) == b("0..fin")
    assert apply_rule("R-HYP", [b("1..2")]) == b("1..2")
    assert apply_rule("R-RELHYP", [b("0..2")], (0,)) == b("0..fin")
    assert apply_rule("R-RELHYP", [b("0..?")], (0,)) == b("0..?")
    assert apply_rule("R-RELHYP", [b("0..2"), b("0..4")], (1,)) == b("0..4")
    assert apply_rule("R-ASPH-LB", [], (3,)) == b("3..?")
    assert apply_rule("R-COMBINE", [b("1..4"), b("3..?")]) == b("3..4")


def test_amalgam_saturates_through_qualitative_edges():
    assert apply_rule("R-AMALGAM", [b("0..1"), b("0..1"), b("0..fin")]) == b("0..fin")
    assert apply_rule("R-HNN", [b("0..fin"), b("0..1")]) == b("0..fin")


def test_apply_rule_errors():
    with pytest.raises(UnknownRuleError):
        apply_rule("R-NOPE", [])
    with pytest.raises(RuleArityError):
        apply_rule("R-FINITE", [b("0..0")])
    with pytest.raises(RuleArityError):
        apply_rule("R-EUCLID", [])  # missing parameter
    for d in (1, 3):
        with pytest.raises(RuleArityError):
            apply_rule("R-SURFACE", [], (d,))
    with pytest.raises(RuleArityError):
        apply_rule("R-EUCLID", [], (-2,))
    with pytest.raises(RuleArityError):
        apply_rule("R-AMALGAM", [b("0..0"), b("0..0")])
    with pytest.raises(RuleArityError):
        apply_rule("R-HYP", [b("0..0"), b("0..0")])
    with pytest.raises(RuleArityError):
        apply_rule("R-RELHYP", [b("0..2")], (1,))  # ambient flag without ambient input
    with pytest.raises(RuleArityError):
        apply_rule("R-RELHYP", [b("0..2")], (7,))
    with pytest.raises(RuleArityError):
        apply_rule("R-RELHYP", [b("0..2"), b("0..4")], (2,))
    with pytest.raises(InconsistentBoundError):
        apply_rule("R-COMBINE", [b("4..?"), b("0..2")])


@pytest.mark.parametrize("rule_id", sorted(README_ARITY))
def test_every_rule_refuses_inputs_outside_its_arity(rule_id):
    lo, hi, nparams = README_ARITY[rule_id]
    params = (0,) if rule_id == "R-RELHYP" else (2,) * nparams
    assert isinstance(apply_rule(rule_id, [b("0..1")] * lo, params), DimBound)
    refused = [([b("0..1")] * lo, params + (2,))]
    if lo > 0:
        refused.append(([b("0..1")] * (lo - 1), params))
    if hi is not None:
        refused.append(([b("0..1")] * (hi + 1), params))
    if nparams:
        refused += [([b("0..1")] * lo, ()), ([b("0..1")] * lo, (-1,))]
    for inputs, ps in refused:
        with pytest.raises(RuleArityError):
            apply_rule(rule_id, inputs, ps)


def test_every_catalog_lattice_rule_is_an_engine_rule():
    for dim in (1, 2, 3, 4):
        for fact in geometries._BY_DIM[dim]:
            assert fact.lattice_rule in RULES, (fact.name, fact.lattice_rule)
            # the evaluator passes the catalog dimension as the surface param
            assert fact.lattice_rule != "R-SURFACE" or fact.dim == 2


def test_bound_leaves():
    assert bound(Trivial()).bound == b("0..0")
    assert bound(Trivial()).trace.steps == ()
    assert bound(Finite(60)).bound == b("0..0")
    assert bound(FreeAbelian(0)).bound == b("0..0")
    assert bound(FreeAbelian(3)).bound == b("3..3")
    assert bound(SurfaceGroup("spherical")).bound == b("0..0")
    assert bound(SurfaceGroup("hyperbolic")).bound == b("2..2")
    assert bound(HyperbolicGroup()).bound == b("0..fin")
    assert bound(HyperbolicGroup(b("2..3"))).bound == b("2..3")
    assert bound(ProperActionOn(b("0..3"), "cone")).bound == b("0..3")


def test_bound_composites():
    z = FreeAbelian(1)
    z2 = FreeAbelian(2)
    assert bound(Product((z2, z))).bound == b("1..3")
    assert bound(Extension(z2, SurfaceGroup("hyperbolic"))).bound == b("1..4")
    h3 = Lattice("H3", 3, True)
    flat = SurfaceGroup("flat")
    assert bound(Amalgam(h3, h3, flat)).bound == b("1..3")
    assert bound(Amalgam(h3, h3, flat), aspherical_dim=3).bound == b("3..3")
    # HNN infiniteness is not decided structurally, so no lower refinement
    assert bound(HNN(Lattice("H4", 4, False), Lattice("E3", 3, True))).bound == b("0..4")
    assert bound(Union((h3, Lattice("E3", 3, True)))).bound == b("0..3")
    assert bound(FreeProduct((z2, Finite(2)))).bound == b("1..2")


def test_bound_relhyp():
    z2 = FreeAbelian(2)
    assert bound(RelHyperbolic((z2,))).bound == b("0..fin")
    assert bound(RelHyperbolic((z2,), ambient_bound=b("0..4"))).bound == b("0..4")
    # a peripheral with no finiteness information poisons the qualitative route
    assert bound(RelHyperbolic((ProperActionOn(b("0..?"), "x"),))).bound == b("0..?")


def test_bound_lattice_routes():
    # compact model: finite fundamental group
    r = bound(Lattice("S4", 4, True))
    assert r.bound == b("0..0")
    assert [s.rule_id for s in r.trace.steps] == ["R-FINITE"]
    # exact Lie-lattice route
    r = bound(Lattice("Nil4", 4, True), aspherical_dim=4)
    assert r.bound == b("4..4")
    assert "R-LIE-LATTICE" in [s.rule_id for s in r.trace.steps]
    # product-of-models route for the sphere-fiber geometry
    r = bound(Lattice("S2xE", 3, True))
    assert r.bound == b("1..1")
    subjects = [s.subject for s in r.trace.steps]
    assert "model(S2xE)" in subjects
    # Nagata route for the complex hyperbolic plane
    r = bound(Lattice("H2C", 4, True), aspherical_dim=4)
    assert r.bound == b("4..4")
    assert "R-NAGATA" in [s.rule_id for s in r.trace.steps]
    # extension route for the affine-plane geometry
    r = bound(Lattice("F4", 4, True))
    assert r.bound == b("1..4")
    assert "R-EXTENSION" in [s.rule_id for s in r.trace.steps]
    # cusped hyperbolic pieces record the relative-hyperbolicity route too
    r = bound(Lattice("H3", 3, False))
    assert r.bound == b("1..3")
    assert "R-RELHYP" in [s.rule_id for s in r.trace.steps]
    r = bound(Lattice("Sol3", 3, False))
    assert "R-RELHYP" not in [s.rule_id for s in r.trace.steps]


def test_bound_unknown_geometry():
    with pytest.raises(UnknownGeometryError):
        bound(Lattice("Nope", 3, True))


def test_bound_normalizes_first():
    messy = Product((Trivial(), FreeAbelian(2), Product((FreeAbelian(1), Trivial()))))
    tidy = Product((FreeAbelian(2), FreeAbelian(1)))
    assert serialize_trace(bound(messy).trace) == serialize_trace(bound(tidy).trace)


def test_bound_is_deterministic():
    rng = random.Random(777)
    for _ in range(50):
        expr = make_expr(rng, depth=2)
        r1 = bound(expr)
        r2 = bound(expr)
        assert serialize_trace(r1.trace) == serialize_trace(r2.trace)
        assert r1.bound == r2.bound


def _counted_bound(monkeypatch, expr):
    """``bound(expr)`` and how often it called apply_rule and lookup_geometry."""
    counts: Counter = Counter()
    with monkeypatch.context() as m:
        for module, name in ((engine, "apply_rule"), (engine, "lookup_geometry"),
                             (groups, "lookup_geometry")):
            def counted(*args, _original=getattr(module, name), _key=(module.__name__, name)):
                counts[_key] += 1
                return _original(*args)

            m.setattr(module, name, counted)
        result = bound(expr)
    return result, counts


def test_a_repeated_leaf_is_derived_once_per_bound(monkeypatch):
    h3, h2c = Lattice("H3", 3, False), Lattice("H2C", 4, True)
    others = (FreeAbelian(2), h2c, SurfaceGroup("hyperbolic"))
    once, once_counts = _counted_bound(monkeypatch, Product((h3,) + others))
    # 500 equal lattices, the distinct leaves between them
    many, many_counts = _counted_bound(
        monkeypatch, Product((h3,) * 200 + others[:1] + (h3,) * 300 + others[1:])
    )
    # each step of the one-of-each product is derived once, with its checks,
    # and each distinct lattice looks its geometry up once; groups looked it
    # up when the lattice was built, to store its infiniteness
    assert once_counts["asdimlab.engine", "apply_rule"] == len(once.trace.steps)
    assert once_counts["asdimlab.engine", "lookup_geometry"] == 2
    assert once_counts["asdimlab.groups", "lookup_geometry"] == 0
    assert many_counts == once_counts
    block = len(bound(h3).trace.steps)
    assert len(many.trace.steps) == len(once.trace.steps) + 499 * block
    assert replay(many.trace) == many.bound
    assert replay(parse_trace(serialize_trace(many.trace))) == many.bound


def test_inconsistent_bound_raises():
    with pytest.raises(InconsistentBoundError):
        bound(ProperActionOn(b("0..0"), "point"), aspherical_dim=4)


def test_aspherical_root_step():
    r = bound(Lattice("H2xH2", 4, True), aspherical_dim=4)
    assert r.bound == b("4..4")
    assert r.trace.steps[-2].rule_id == "R-ASPH-LB"
    assert r.trace.steps[-1].rule_id == "R-COMBINE"
    # the trivial group still accepts a (vacuous) lower bound of zero
    assert bound(Trivial(), aspherical_dim=0).bound == b("0..0")


def test_consequence_gating():
    fin = consequences(b("1..4"), aspherical=False)
    assert [c.kind for c in fin] == ["CoarseBaumConnes", "Novikov"]
    asph = consequences(b("4..4"), aspherical=True)
    assert [c.kind for c in asph] == [
        "CoarseBaumConnes", "Novikov", "ZeroInSpectrum", "NoPSCMetric",
    ]
    qual = consequences(DimBound(0, FINITE_UNKNOWN), aspherical=False)
    assert [c.kind for c in qual] == ["CoarseBaumConnes", "Novikov"]
    assert consequences(DimBound(1, UNKNOWN), aspherical=True) == ()


def test_every_bound_a_description_compiles_to_has_a_finite_upper_end():
    """compile() builds its group from catalog lattices of dimension 3 or 4,
    cocompact or not, the edge groups and Trivial, joined by Amalgam, HNN,
    Union, FreeProduct (amalgams over Trivial) and ActsOnCover (a proper
    action); bound() adds R-INFINITE-LB and R-ASPH-LB only as inputs of an
    R-COMBINE with another derivation.  Each of these keeps the upper end
    finite, so every description's bound has consequences, and the command
    line prints no empty consequence list."""
    leaves = [Trivial(), *manifolds._EDGE_EXPRS.values()]
    leaves += [Lattice(fact.name, dim, cocompact)
               for dim in (3, 4) for fact in geometries.list_geometries(dim) for cocompact in (True, False)]
    for leaf in leaves:
        assert bound(leaf).bound.upper.is_finite, leaf
    fin = (b("0..3"), DimBound(0, FINITE_UNKNOWN))
    for rule, arity in (("R-PROPER-ACTION", 1), ("R-HNN", 2), ("R-UNION", 2), ("R-AMALGAM", 3)):
        for ins in product(fin, repeat=arity):
            assert apply_rule(rule, ins).upper.is_finite, (rule, ins)
    for derived, unbounded in product(fin, (apply_rule("R-INFINITE-LB", ()), apply_rule("R-ASPH-LB", (), (3,)))):
        assert not unbounded.upper.is_finite
        assert apply_rule("R-COMBINE", (derived, unbounded)).upper.is_finite
        assert consequences(apply_rule("R-COMBINE", (derived, unbounded)), aspherical=True)


def test_consequences_cite_the_proper_action_inequality():
    assert "asdim Γ ≤ asdim M" in RULES["R-PROPER-ACTION"].citation


def test_replay_agrees_on_random_expressions():
    rng = random.Random(20260815)
    for _ in range(300):
        expr = make_expr(rng, depth=rng.randrange(0, 4))
        result = bound(expr)
        assert replay(result.trace) == result.bound


# apply_rule caches each distinct application; these check that the cache
# changes no result, no refusal and no step check.


def test_a_repeated_application_is_checked_at_every_step():
    h3 = Lattice("H3", 3, True)
    lines = serialize_trace(bound(Amalgam(h3, h3, SurfaceGroup("flat"))).trace).splitlines()
    # steps 1 and 4 make the same application; only step 4's bound is edited
    assert lines[1].split("\t")[1:] == lines[4].split("\t")[1:]
    assert lines[4].endswith("\t0..3")
    lines[4] = lines[4][: -len("0..3")] + "0..2"
    with pytest.raises(MalformedTraceError, match=r"^step 4 records 0\.\.2, arithmetic gives 0\.\.3$"):
        replay(parse_trace("\n".join(lines)))


def test_a_refused_application_is_refused_every_time():
    for _ in range(2):
        with pytest.raises(RuleArityError, match="R-SURFACE param must be 0 or 2, got 1"):
            apply_rule("R-SURFACE", [], [1])


@pytest.mark.parametrize(
    "rule_id, inputs",
    [
        ("R-HYP", (3,)),
        ("R-PRODUCT", (DimBound.exact(1), 2)),
        ("R-UNION", ("0..1",)),
        ("R-COMBINE", (DimBound.exact(1), finite(1))),
        ("R-PROPER-ACTION", ([0, 1],)),
    ],
    ids=["int", "int-after-a-bound", "str", "extended-dim", "unhashable"],
)
def test_an_input_that_is_not_a_bound_is_refused(rule_id, inputs):
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(RuleArityError, match=rf"^{rule_id} inputs must be DimBound values"):
            apply_rule(rule_id, inputs)
    step = engine.TraceStep(0, rule_id, "x", DimBound.exact(1), literals=tuple(inputs))
    with pytest.raises(MalformedTraceError, match=r"^step 0 does not replay: "):
        replay(engine.ProofTrace((step,)))


def test_a_leaf_is_written_once_per_bound(monkeypatch):
    h3 = Lattice("H3", 3, False)
    block = len(bound(h3).trace.steps)
    written = Counter()
    original = groups.GroupExpr.frame

    def counted(self):
        written[self] += 1
        return original(self)

    monkeypatch.setattr(groups.GroupExpr, "frame", counted)
    result = bound(Product((h3,) * 300 + (FreeAbelian(2), Lattice("H3", 3, False), FreeAbelian(2))))
    # equal leaves share one block of steps, each occurrence named alike
    assert written == {h3: 1, FreeAbelian(2): 1}
    assert sum(step.subject == "Lattice(H3,3,cusped)" for step in result.trace.steps) == 301 * block


@pytest.mark.parametrize("param", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_a_param_that_is_not_an_int_is_refused(param):
    assert apply_rule("R-EUCLID", [], [1]) == DimBound.exact(1)
    with pytest.raises(RuleArityError, match=r"^R-EUCLID param must be an int, got "):
        apply_rule("R-EUCLID", [], [param])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_a_cached_application_equals_the_rule_arithmetic(data):
    rule = data.draw(st.sampled_from(list_rules()))
    lo, hi, nparams = rule.arity
    ins = data.draw(st.lists(BOUNDS, min_size=lo, max_size=lo + 3 if hi is None else hi))
    ps = data.draw(st.lists(st.integers(0, 4), min_size=nparams, max_size=nparams))

    def outcome(apply):
        try:
            return apply()
        except (RuleArityError, InconsistentBoundError) as exc:
            return type(exc), str(exc)

    outcome(lambda: apply_rule(rule.id, ins, ps))  # warm the cache
    cached = outcome(lambda: apply_rule(rule.id, ins, ps))
    assert cached == outcome(lambda: rule.arith(tuple(ins), tuple(ps)))
