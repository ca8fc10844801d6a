import json

import pytest

from conftest import GOLDEN

from asdimlab import engine
from asdimlab.engine import lattice_bound
from asdimlab.geometries import (
    GEOMETRY_CLASSES,
    UnknownGeometryError,
    UnsupportedDimensionError,
    fact_record,
    factor_facts,
    list_geometries,
    lookup_geometry,
)
from asdimlab.groups import Lattice

DIM3_ORDER = ["S3", "E3", "Nil3", "Sol3", "S2xE", "H2xE", "SL2~", "H3"]
DIM4_ORDER = [
    "S4", "CP2", "S2xS2", "E4", "Nil4", "Sol4_0", "Sol4_1", "Sol4_mn",
    "S3xE", "S2xE2", "S2xH2", "Nil3xE", "H3xE", "H2xE2", "H2xH2",
    "SL2~xE", "F4", "H4", "H2C",
]
ASPHERICAL_DIM4 = {
    "E4", "Nil4", "Sol4_0", "Sol4_1", "Sol4_mn", "Nil3xE",
    "H3xE", "H2xE2", "H2xH2", "SL2~xE", "H4", "H2C",
}


def test_catalog_sizes_and_order():
    assert [f.name for f in list_geometries(2)] == ["S2", "E2", "H2"]
    assert [f.name for f in list_geometries(3)] == DIM3_ORDER
    assert [f.name for f in list_geometries(4)] == DIM4_ORDER


def test_unsupported_dimensions():
    for dim in (0, 1, 5):
        with pytest.raises(UnsupportedDimensionError):
            list_geometries(dim)


def test_lookup_errors_name_the_valid_choices():
    with pytest.raises(UnknownGeometryError) as info:
        lookup_geometry("H3", 4)
    assert "H3" in str(info.value)
    assert "valid names for dim 4" in str(info.value)


def test_record_invariants():
    for dim in (2, 3, 4):
        for fact in list_geometries(dim):
            assert fact.dim == dim
            assert fact.klass in GEOMETRY_CLASSES
            # model spaces have an exactly known dimension value
            assert fact.model_asdim.upper.is_number
            assert fact.model_asdim.lower == fact.model_asdim.upper.value
            assert fact.model_asdim.lower <= dim
            lattice = lattice_bound(fact)
            assert lattice.upper.is_number
            assert lattice.upper.value <= dim
            if fact.compact_model:
                assert str(lattice) == "0..0"
                assert not fact.aspherical_model
            if fact.aspherical_model:
                # closed quotients of contractible models hit the dimension
                assert str(lattice) == f"{dim}..{dim}"


def test_aspherical_dim4_set():
    got = {f.name for f in list_geometries(4) if f.aspherical_model}
    assert got == ASPHERICAL_DIM4
    assert len(got) == 12
    assert not lookup_geometry("F4", 4).aspherical_model


def test_compact_models():
    compact = {f.name for dim in (2, 3, 4) for f in list_geometries(dim) if f.compact_model}
    assert compact == {"S2", "S3", "S4", "CP2", "S2xS2"}


def test_factor_facts():
    s2xe = lookup_geometry("S2xE", 3)
    names = [f.name for f in factor_facts(s2xe)]
    assert names == ["S2", "E1"]
    nil3xe = lookup_geometry("Nil3xE", 4)
    assert [f.name for f in factor_facts(nil3xe)] == ["Nil3", "E1"]
    assert factor_facts(lookup_geometry("H4", 4)) == ()


def test_engine_reproduces_every_lattice_bound():
    """The derived lattice intervals are those the catalog printed when it
    stored them by hand (the structured goldens), and each replays."""
    for dim in (2, 3, 4):
        golden = json.loads((GOLDEN / f"catalog_dim{dim}.json").read_text())["geometries"]
        facts = list_geometries(dim)
        assert [g["name"] for g in golden] == [f.name for f in facts]
        for fact, record in zip(facts, golden):
            adim = dim if fact.aspherical_model else None
            result = engine.bound(Lattice(fact.name, dim, True), aspherical_dim=adim)
            assert engine.replay(result.trace) == result.bound == lattice_bound(fact)
            lattice = {"lower": result.bound.lower, "upper": str(result.bound.upper)}
            assert lattice == record["lattice_asdim"], fact.name


def test_cusped_lattices_stay_within_model():
    for dim in (2, 3, 4):
        for fact in list_geometries(dim):
            result = engine.bound(Lattice(fact.name, dim, False))
            assert result.bound.upper <= fact.model_asdim.upper, fact.name


def test_fact_record_is_json_ready():
    fact = lookup_geometry("H2C", 4)
    rec = fact_record(fact, lattice_bound(fact))
    text = json.dumps(rec)
    assert '"H2C"' in text
    assert rec["model_asdim"] == {"lower": 4, "upper": "4"}
    assert rec["lattice_asdim"] == {"lower": 4, "upper": "4"}
    assert rec["lattice_rule"] == "R-NAGATA"
