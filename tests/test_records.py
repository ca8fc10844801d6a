"""The immutable records of the bound and catalog path: frozen-dataclass value
semantics, with no method generated for any one class."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from asdimlab import engine, geometries, groups, manifolds
from asdimlab.bounds import DimBound
from asdimlab.engine import RULES, BoundResult, Consequence, ProofTrace, TraceStep
from asdimlab.geometries import lookup_geometry
from asdimlab.groups import (
    HNN,
    ActsOnCover,
    Amalgam,
    Extension,
    Finite,
    FreeAbelian,
    FreeProduct,
    HyperbolicGroup,
    Lattice,
    Product,
    ProperActionOn,
    RelHyperbolic,
    SurfaceGroup,
    Trivial,
    Union,
)
from asdimlab.manifolds import (
    AsphericityVerdict,
    DecompGraph,
    GeometricPiece,
    GraphEdge,
    GraphVertex,
    ManifoldDesc,
)

# Each record class and its field names, in declaration order.
FIELDS = {
    "Trivial": (),
    "Finite": ("order",),
    "FreeAbelian": ("rank",),
    "SurfaceGroup": ("kind",),
    "Lattice": ("geometry", "dim", "cocompact"),
    "Product": ("factors",),
    "FreeProduct": ("factors",),
    "Amalgam": ("left", "right", "edge"),
    "HNN": ("base", "edge"),
    "Extension": ("kernel", "quotient"),
    "Union": ("parts",),
    "ActsOnCover": ("space",),
    "ProperActionOn": ("space_bound", "label"),
    "HyperbolicGroup": ("witness_bound",),
    "RelHyperbolic": ("peripherals", "ambient_bound"),
    "Rule": ("id", "description", "citation", "shape", "arity", "arith"),
    "ProofTrace": ("steps",),
    "BoundResult": ("bound", "trace"),
    "Consequence": ("kind", "condition", "citation"),
    "GeometryFact": ("name", "dim", "klass", "model_asdim", "lattice_rule",
                     "aspherical_model", "compact_model", "factors"),
    "GeometricPiece": ("name", "geometry"),
    "GraphVertex": ("id", "geometry"),
    "GraphEdge": ("source", "target", "edge_type"),
    "DecompGraph": ("name", "vertices", "edges", "pi1_injective", "pos", "tree"),
    "ManifoldDesc": ("dim", "summands", "alexandrov", "singular_set_nonempty"),
    "AsphericityVerdict": ("status", "reason"),
}


def record_classes() -> list[type]:
    """The dataclass-declared classes that the four modules define."""
    return [cls for module in (groups, engine, geometries, manifolds)
            for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
            and dataclasses.is_dataclass(cls)]


A, B, C = FreeAbelian(1), FreeAbelian(2), Trivial()
BOUND = DimBound.parse("0..3")
STEP = TraceStep(0, "R-EUCLID", "FreeAbelian(2)", DimBound.exact(2), (), (), (2,))
VERTICES = (GraphVertex("a", "H4"), GraphVertex("b", "H4"))
GRAPH = DecompGraph("g", VERTICES, (GraphEdge("a", "b", "flat3"),), True, (3, 5))
SAMPLES = [
    Trivial(), Finite(6), Finite(), FreeAbelian(2), SurfaceGroup("flat"), Lattice("H4", 4, True),
    Product((A, B)), FreeProduct((A, C)), Amalgam(A, B, C), HNN(A, C), Extension(A, B),
    Union((A,)), ActsOnCover(B), ProperActionOn(BOUND, 'a "label"\n'), HyperbolicGroup(),
    HyperbolicGroup(BOUND), RelHyperbolic((A, B)), RelHyperbolic((A,), BOUND),
    RULES["R-SURFACE"], ProofTrace((STEP,)), BoundResult(DimBound.exact(2), ProofTrace((STEP,))),
    Consequence("Novikov", "a condition", "a citation"), lookup_geometry("H2xE", 3),
    GeometricPiece("m", "H3"), VERTICES[0], GraphEdge("a", "b", "flat3"), GRAPH,
    ManifoldDesc(4, (GeometricPiece("m", "H4"), GRAPH), True, False),
    AsphericityVerdict("Aspherical", "a reason"),
]


def test_the_samples_cover_every_record_class_and_their_fields():
    classes = record_classes()
    assert {cls.__name__ for cls in classes} == set(FIELDS) == {type(v).__name__ for v in SAMPLES}
    for cls in classes:
        assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls.__name__]


def test_no_record_class_carries_methods_of_its_own_making():
    for cls in record_classes():
        own = set(vars(cls)) & {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__",
                                "__delattr__"}
        assert not own, f"{cls.__name__} defines {sorted(own)}"


def test_repr_is_the_dataclass_text():
    assert repr(FreeAbelian(2)) == "FreeAbelian(rank=2)"
    assert repr(GraphVertex("a", "H4")) == "GraphVertex(id='a', geometry='H4')"
    assert repr(Finite()) == "Finite(order=None)"
    assert repr(Product((A, C))) == "Product(factors=(FreeAbelian(rank=1), Trivial()))"
    assert repr(DecompGraph("g", VERTICES[:1], (), False)) == (
        "DecompGraph(name='g', vertices=(GraphVertex(id='a', geometry='H4'),), edges=(),"
        " pi1_injective=False, pos=(1, 1))"
    )
    assert repr(RULES["R-FINITE"]).startswith("Rule(id='R-FINITE', description=")
    assert repr(RULES["R-FINITE"]).endswith(", shape='no inputs, no params -> [0,0]')")


def test_equality_and_hash_skip_the_fields_declared_without_compare():
    moved = DecompGraph("g", GRAPH.vertices, GRAPH.edges, True, (9, 9))
    assert moved == GRAPH and hash(moved) == hash(GRAPH) and moved.tree == GRAPH.tree
    rule = RULES["R-FINITE"]
    other = dataclasses.replace(rule, arith=lambda ins, ps: None)
    assert other == rule and hash(other) == hash(rule)
    assert dataclasses.replace(rule, description="said otherwise") != rule


def test_equality_needs_the_same_class_and_the_same_fields():
    assert FreeAbelian(2) == FreeAbelian(2) and hash(FreeAbelian(2)) == hash(FreeAbelian(2))
    assert FreeAbelian(2) != FreeAbelian(3)
    assert Product((A, B)) != FreeProduct((A, B))
    assert Trivial() == Trivial() and Trivial() != Finite(1)
    assert GraphVertex("a", "H4") != ("a", "H4")
    assert {Lattice("H4", 4, True): 1}.get(Lattice("H4", 4, True)) == 1


@pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
def test_a_record_refuses_assignment_and_deletion(value):
    for name in [*FIELDS[type(value).__name__], "other"]:
        frozen = dataclasses.FrozenInstanceError
        with pytest.raises(frozen, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 1)
        with pytest.raises(frozen, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)


@pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
def test_a_record_copies_and_pickles_to_an_equal_value(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
        for f in dataclasses.fields(value):
            assert getattr(twin, f.name) == getattr(value, f.name), f.name


def test_keyword_construction_and_defaults():
    assert Lattice(geometry="H4", dim=4, cocompact=True) == Lattice("H4", 4, True)
    assert Lattice("H4", cocompact=True, dim=4) == Lattice("H4", 4, True)
    assert Finite().order is None and HyperbolicGroup().witness_bound is None
    assert RelHyperbolic(peripherals=[A]).ambient_bound is None
    assert RelHyperbolic([A]).peripherals == (A,)
    assert DecompGraph("g", VERTICES[:1], (), False).pos == (1, 1)
    desc = ManifoldDesc(dim=3, summands=(GeometricPiece("m", "H3"),))
    assert (desc.alexandrov, desc.singular_set_nonempty) == (False, False)
    assert dataclasses.replace(FreeAbelian(2), rank=5) == FreeAbelian(5)
    with pytest.raises(ValueError, match="FreeAbelian.rank must be"):
        FreeAbelian(rank=-1)
    with pytest.raises(ValueError, match="bad verdict status"):
        AsphericityVerdict(status="Maybe", reason="")


@pytest.mark.parametrize(
    "make",
    [lambda: FreeAbelian(), lambda: FreeAbelian(1, 2), lambda: FreeAbelian(1, rank=2),
     lambda: FreeAbelian(size=2), lambda: GraphVertex("a")],
    ids=["missing", "too-many", "twice", "unknown-keyword", "missing-second"],
)
def test_a_call_that_does_not_fit_the_fields_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()
