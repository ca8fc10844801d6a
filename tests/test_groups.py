"""Expression tree construction, normalization, infiniteness, canonical form."""

import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOUNDS, make_cover_expr, make_expr

from asdimlab import groups
from asdimlab.bounds import DimBound, finite
from asdimlab.engine import bound, parse_trace, replay, serialize_trace
from asdimlab.geometries import UnknownGeometryError, list_geometries, lookup_geometry
from asdimlab.groups import (
    ActsOnCover,
    Amalgam,
    CanonicalFormError,
    Extension,
    Finite,
    FreeAbelian,
    FreeProduct,
    HNN,
    HyperbolicGroup,
    InfinitenessStatus,
    Lattice,
    Product,
    ProperActionOn,
    RelHyperbolic,
    SurfaceGroup,
    Trivial,
    Union,
    is_infinite,
    normalize,
    parse_canonical,
    to_canonical,
)

FIN = InfinitenessStatus.FINITE
INF = InfinitenessStatus.INFINITE
UND = InfinitenessStatus.UNDETERMINED


def test_constructor_validation():
    with pytest.raises(ValueError):
        Finite(0)
    with pytest.raises(ValueError):
        FreeAbelian(-1)
    with pytest.raises(ValueError):
        SurfaceGroup("elliptic")
    with pytest.raises(ValueError):
        Lattice("bad name", 3, True)
    with pytest.raises(ValueError):
        Lattice("H3", 0, True)
    with pytest.raises(ValueError):
        Product(())
    with pytest.raises(ValueError):
        Union(())


def test_factors_coerced_to_tuples():
    p = Product([FreeAbelian(1), FreeAbelian(2)])
    assert isinstance(p.factors, tuple)


def test_normalize_flattens_and_drops_trivial():
    z = FreeAbelian(1)
    t = Trivial()
    assert normalize(Product((t, z, Product((z, t))))) == Product((z, z))
    assert normalize(Product((t, t))) == Trivial()
    assert normalize(Product((t, z))) == z
    # free products drop trivial factors too
    assert normalize(FreeProduct((t, z))) == z
    assert normalize(FreeProduct((z, FreeProduct((z, z))))) == FreeProduct((z, z, z))


def test_normalize_union_keeps_trivial_parts():
    t = Trivial()
    z = FreeAbelian(1)
    u = normalize(Union((t, Union((z, t)))))
    assert u == Union((t, z, t))
    assert normalize(Union((z,))) == z


def test_normalize_recurses_into_edges():
    z2 = FreeAbelian(2)
    inner = Product((Trivial(), z2))
    e = normalize(Amalgam(inner, inner, inner))
    assert e == Amalgam(z2, z2, z2)
    assert normalize(HNN(inner, inner)) == HNN(z2, z2)
    assert normalize(Extension(inner, inner)) == Extension(z2, z2)


def test_is_infinite_base_cases():
    assert is_infinite(Trivial()) is FIN
    assert is_infinite(Finite(60)) is FIN
    assert is_infinite(FreeAbelian(0)) is FIN
    assert is_infinite(FreeAbelian(1)) is INF
    assert is_infinite(SurfaceGroup("spherical")) is FIN
    assert is_infinite(SurfaceGroup("flat")) is INF
    assert is_infinite(SurfaceGroup("hyperbolic")) is INF
    # compact model: lattices are finite; noncompact model: infinite
    assert is_infinite(Lattice("S3", 3, True)) is FIN
    assert is_infinite(Lattice("H3", 3, True)) is INF
    assert is_infinite(Lattice("Mystery", 3, True)) is UND


def test_is_infinite_composites():
    z = FreeAbelian(1)
    f = Finite(2)
    assert is_infinite(Product((f, z))) is INF
    assert is_infinite(Product((f, f))) is UND
    assert is_infinite(FreeProduct((f, z))) is INF
    assert is_infinite(Amalgam(z, f, f)) is INF
    assert is_infinite(Extension(f, z)) is INF
    assert is_infinite(Extension(f, f)) is UND
    # witnesses that stay undetermined by design
    assert is_infinite(HNN(z, z)) is UND
    assert is_infinite(Union((z, z))) is UND
    assert is_infinite(HyperbolicGroup()) is UND
    assert is_infinite(ProperActionOn(DimBound(0, finite(3)), "x")) is UND
    assert is_infinite(RelHyperbolic((z,))) is UND


def test_is_infinite_decides_each_distinct_node_once():
    # a tree of 2**201 leaf occurrences but only 203 distinct nodes
    x = Product((Finite(2), FreeAbelian(1)))
    for _ in range(200):
        x = Product((x, x))
    start = time.perf_counter()
    assert is_infinite(x) is INF
    assert time.perf_counter() - start < 1.0


def test_canonical_examples():
    assert to_canonical(Trivial()) == "Trivial"
    assert to_canonical(Finite()) == "Finite"
    assert to_canonical(Finite(60)) == "Finite(60)"
    assert to_canonical(FreeAbelian(2)) == "FreeAbelian(2)"
    assert to_canonical(Lattice("SL2~xE", 4, False)) == "Lattice(SL2~xE,4,cusped)"
    assert to_canonical(SurfaceGroup("flat")) == "SurfaceGroup(flat)"
    assert (
        to_canonical(ProperActionOn(DimBound(0, finite(3)), "flat cone"))
        == 'ProperActionOn(0..3,"flat cone")'
    )
    assert to_canonical(HyperbolicGroup()) == "HyperbolicGroup"
    assert to_canonical(HyperbolicGroup(DimBound(1, finite(2)))) == "HyperbolicGroup(1..2)"
    amb = RelHyperbolic((FreeAbelian(2),), DimBound(0, finite(3)))
    assert to_canonical(amb) == "RelHyperbolic(FreeAbelian(2),ambient=0..3)"


def test_canonical_escapes_labels():
    label = 'a "quoted" \\ tab\there\nnewline'
    text = to_canonical(ProperActionOn(DimBound(0, finite(1)), label))
    back = parse_canonical(text)
    assert isinstance(back, ProperActionOn)
    assert back.label == label


def _int_refusal(digits: str) -> str:
    try:
        int(digits)
    except ValueError as exc:  # worded by the interpreter
        return str(exc)
    raise AssertionError("int() converted it")


def test_parse_canonical_errors_carry_positions():
    bad = {
        "": "offset 0: expected a name, found ''",
        "Lattice(": "offset 8: expected a name, found ''",
        "Bogus(1)": "offset 0: unknown expression head 'Bogus'",
        "FreeAbelian(x)": "offset 13: expected an integer, found 'x'",
        "Finite(60) trailing": "offset 10: trailing input after expression",
        # reported at the end of the word; offset 23, after the ')', before
        # the cocompact reader took over the check
        "Lattice(H3,3,sometimes)": "offset 22: expected cocompact or cusped, found 'sometimes'",
        'ProperActionOn(0..3,"unterminated)': "offset 34: unterminated string",
        "HyperbolicGroup(4..2)": "offset 20: lower bound 4 exceeds upper bound 2",
        "Finite(0)": "offset 0: Finite.order must be an int >= 1, got 0",
        "Lattice(H3,0,cocompact)": "offset 0: Lattice.dim must be an int >= 1, got 0",
        "FreeAbelian(" + "1" * 5000 + ")": "offset 5012: " + _int_refusal("1" * 5000),
        "Product(FreeAbelian(1)": "offset 22: expected ')', found ''",
        "FreeAbelian 1": "offset 11: expected '(', found ' '",
        'ProperActionOn(0..1,"a\\q")': "offset 23: bad escape \\q",
    }
    for text, message in bad.items():
        with pytest.raises(CanonicalFormError) as info:
            parse_canonical(text)
        assert str(info.value) == message, text


def test_parse_canonical_counts_arguments():
    with pytest.raises(CanonicalFormError, match=r"^offset 0: Amalgam takes 3 arguments, got 2$"):
        parse_canonical("Amalgam(Trivial,Trivial)")


def test_canonical_round_trip_random():
    rng = random.Random(4031)
    for _ in range(1000):
        expr = make_expr(rng, depth=rng.randrange(0, 4))
        text = to_canonical(expr)
        assert parse_canonical(text) == expr, text


def test_normalize_idempotent_random():
    rng = random.Random(90125)
    for _ in range(500):
        expr = make_expr(rng, depth=rng.randrange(0, 4))
        n1 = normalize(expr)
        assert normalize(n1) == n1


def test_acts_on_cover_round_trips_and_normalizes_inside():
    rng = random.Random(2718)
    for _ in range(300):
        expr = make_cover_expr(rng, depth=rng.randrange(0, 4))
        assert parse_canonical(to_canonical(expr)) == expr
        n1 = normalize(expr)
        assert normalize(n1) == n1
        cover = expr if isinstance(expr, ActsOnCover) else expr.factors[0]
        assert normalize(cover) == ActsOnCover(normalize(cover.space))
        assert is_infinite(cover) is UND


B01 = DimBound(0, finite(1))

# Each field kind's valid values, as Hypothesis strategies.
KIND_VALUES = {
    "natural": st.integers(0, 10**30),
    "positive": st.integers(1, 10**30),
    "name": st.text(sorted(groups._NAME_CHARS), min_size=1, max_size=12),
    "surface": st.sampled_from(groups.SURFACE_KINDS),
    "cocompact": st.booleans(),
    "bound": BOUNDS,
    "label": st.text(max_size=20),
}
# Values of other kinds and types, which a field may or may not accept.
OTHERS = st.sampled_from(
    [None, True, False, 0, 1, -1, 2.0, "", "0..1", "H3", "cusped", B01, finite(1)]
)


def _fields(*kinds):
    return st.tuples(*[KIND_VALUES[kind] | OTHERS for kind in kinds])


CATALOG = [fact for dim in (2, 3, 4) for fact in list_geometries(dim)]
# (variant, constructor arguments): every leaf, and the ambient bound of RelHyperbolic.
CASES = st.one_of(
    st.tuples(st.just(Trivial), st.just(())),
    st.tuples(st.just(Finite), _fields("positive")),
    st.tuples(st.just(FreeAbelian), _fields("natural")),
    st.tuples(st.just(SurfaceGroup), _fields("surface")),
    st.tuples(st.just(Lattice), _fields("name", "positive", "cocompact")),
    st.tuples(st.just(Lattice), st.tuples(st.sampled_from(CATALOG), st.booleans()).map(
        lambda t: (t[0].name, t[0].dim, t[1]))),
    st.tuples(st.just(ProperActionOn), _fields("bound", "label")),
    st.tuples(st.just(HyperbolicGroup), _fields("bound")),
    st.tuples(st.just(RelHyperbolic),
              st.tuples(st.just((FreeAbelian(1),)), KIND_VALUES["bound"] | OTHERS)),
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(CASES)
def test_every_accepted_leaf_round_trips_and_bounds(case):
    make, args = case
    try:
        expr = make(*args)
    except ValueError:
        return
    text = to_canonical(expr)
    assert parse_canonical(text) == expr, text
    if isinstance(expr, Lattice):
        try:
            lookup_geometry(expr.geometry, expr.dim)
        except UnknownGeometryError:
            with pytest.raises(UnknownGeometryError):
                bound(expr)
            return
    result = bound(expr)
    assert type(result.bound) is DimBound
    assert replay(result.trace) == result.bound
    assert replay(parse_trace(serialize_trace(result.trace))) == result.bound


@pytest.mark.parametrize(
    "make, args, message",
    [
        (FreeAbelian, (True,), "FreeAbelian.rank must be an int >= 0, got True"),
        (FreeAbelian, (2.0,), "FreeAbelian.rank must be an int >= 0, got 2.0"),
        (FreeAbelian, (-1,), "FreeAbelian.rank must be an int >= 0, got -1"),
        (FreeAbelian, (10**5000,),
         "FreeAbelian.rank must be an int >= 0, got an int too long to write"),
        (Finite, (True,), "Finite.order must be an int >= 1, got True"),
        (Finite, (2.0,), "Finite.order must be an int >= 1, got 2.0"),
        (Lattice, ("H4", 4.0, True), "Lattice.dim must be an int >= 1, got 4.0"),
        (Lattice, ("H4", True, True), "Lattice.dim must be an int >= 1, got True"),
        (Lattice, ("H4", 10**5000, True),
         "Lattice.dim must be an int >= 1, got an int too long to write"),
        (Lattice, ("H4", 4, 1), "Lattice.cocompact must be a bool, got 1"),
        (Lattice, (4, 4, True),
         "Lattice.geometry must be a nonempty str of ASCII letters, digits, '_' and '~', got 4"),
        (Lattice, ("bad name", 3, True), "Lattice.geometry must be a nonempty str of ASCII"
         " letters, digits, '_' and '~', got 'bad name'"),
        (SurfaceGroup, (2,),
         "SurfaceGroup.kind must be one of ('spherical', 'flat', 'hyperbolic'), got 2"),
        (HyperbolicGroup, (3,), "HyperbolicGroup.witness_bound must be a DimBound, got 3"),
        (HyperbolicGroup, ("0..1",),
         "HyperbolicGroup.witness_bound must be a DimBound, got '0..1'"),
        (ProperActionOn, ("0..1", "x"),
         "ProperActionOn.space_bound must be a DimBound, got '0..1'"),
        (ProperActionOn, (3, "x"), "ProperActionOn.space_bound must be a DimBound, got 3"),
        (ProperActionOn, (B01, 7), "ProperActionOn.label must be a str, got 7"),
        (ProperActionOn, (B01, None), "ProperActionOn.label must be a str, got None"),
        (RelHyperbolic, ((FreeAbelian(1),), 3),
         "RelHyperbolic.ambient_bound must be a DimBound, got 3"),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_a_wrong_typed_field_is_refused_at_construction(make, args, message):
    with pytest.raises(ValueError) as info:
        make(*args)
    assert str(info.value) == message


def test_the_longest_int_the_interpreter_writes_is_accepted_and_one_more_digit_is_not():
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("this interpreter writes ints of any length")
    longest = Finite(10**limit - 1)
    assert parse_canonical(to_canonical(longest)) == longest
    with pytest.raises(ValueError, match="^Finite.order must be an int >= 1, got an int too long"):
        Finite(10**limit)
