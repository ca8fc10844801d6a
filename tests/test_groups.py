"""Expression tree construction, normalization, infiniteness, canonical form."""

import random

import pytest

from conftest import make_cover_expr, make_expr

from asdimlab.bounds import DimBound, finite
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


def test_parse_canonical_errors_carry_positions():
    bad = [
        "",
        "Lattice(",
        "Bogus(1)",
        "FreeAbelian(x)",
        "Finite(60) trailing",
        "Lattice(H3,3,sometimes)",
        'ProperActionOn(0..3,"unterminated)',
        "HyperbolicGroup(4..2)",
        "Finite(0)",
        "Lattice(H3,0,cocompact)",
        "FreeAbelian(" + "1" * 5000 + ")",
    ]
    for text in bad:
        with pytest.raises(CanonicalFormError, match=r"^offset \d+: "):
            parse_canonical(text)


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
