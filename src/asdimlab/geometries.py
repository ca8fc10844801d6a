"""Model-geometry catalog for dimensions 2, 3, and 4.

Each entry is a ``GeometryFact`` describing one homogeneous model geometry
and the asymptotic-dimension data the rules engine consumes:

    name             canonical ASCII identifier ("E4", "SL2~xE", "Sol4_mn", ...)
    dim              dimension of the model space
    klass            coarse classification bucket: spherical-type, euclidean,
                     real-hyperbolic, complex-hyperbolic, nil, sol, product,
                     or F4-type
    model_asdim      asymptotic dimension of the model space itself
    lattice_rule     id of the engine rule that bounds lattices in the model
    aspherical_model whether closed manifolds modeled on it are aspherical
    compact_model    whether the model space is compact (quotients then have
                     finite fundamental group)
    factors          names of lower-dimensional catalog entries when the
                     geometry is a genuine metric product, else None

Lattice bounds are not stored: ``engine.lattice_bound`` derives them.

Conventions baked into the data:

  * "SL2~" is the universal cover of SL(2,R).  It fibers over the hyperbolic
    plane as a twisted line bundle, so it sits in the "product" bucket but
    records no factors; its lattice bound comes from the Lie-lattice rule
    (Carlsson-Goldfarb), not from product arithmetic.
  * "Sol4_mn" stands for the whole two-parameter family of solvable
    geometries; the parameters never affect any attribute stored here.
  * "F4" is the isometry class of the contractible homogeneous space of the
    planar affine group R^2 x| SL(2,R).  It admits finite-volume but no
    closed quotients, so aspherical_model is False even though the model is
    contractible; its lattice bound is the kernel-plus-base extension bound.
  * Cusped (non-cocompact) lattices in the real and complex hyperbolic
    geometries get upper bounds only; no exact value is recorded for them.
  * A single 1-dimensional entry "E1" exists for product bookkeeping.  It is
    reachable through lookup_geometry but list_geometries serves only
    dimensions 2, 3 and 4.
"""

from __future__ import annotations

from . import Refusal
from .bounds import DimBound, _Record, record

GEOMETRY_CLASSES = (
    "spherical-type",
    "euclidean",
    "real-hyperbolic",
    "complex-hyperbolic",
    "nil",
    "sol",
    "product",
    "F4-type",
)


class UnknownGeometryError(Refusal):
    """Lookup of a geometry name that does not exist at the given dimension."""


class UnsupportedDimensionError(Refusal):
    """list_geometries called outside dimensions {2, 3, 4}."""


@record
class GeometryFact(_Record):
    name: str
    dim: int
    klass: str
    model_asdim: DimBound
    lattice_rule: str
    aspherical_model: bool
    compact_model: bool
    factors: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.klass not in GEOMETRY_CLASSES:
            raise ValueError(f"bad geometry class {self.klass!r}")


def _fact(name, dim, klass, model, *rest):
    return GeometryFact(name, dim, klass, DimBound.parse(model), *rest)


# Catalog rows, in canonical listing order per dimension.  The booleans are
# (aspherical_model, compact_model).
_DIM1 = (
    _fact("E1", 1, "euclidean", "1..1", "R-EUCLID", True, False),
)

_DIM2 = (
    _fact("S2", 2, "spherical-type", "0..0", "R-FINITE", False, True),
    _fact("E2", 2, "euclidean", "2..2", "R-SURFACE", True, False),
    _fact("H2", 2, "real-hyperbolic", "2..2", "R-SURFACE", True, False),
)

_DIM3 = (
    _fact("S3", 3, "spherical-type", "0..0", "R-FINITE", False, True),
    _fact("E3", 3, "euclidean", "3..3", "R-LIE-LATTICE", True, False),
    _fact("Nil3", 3, "nil", "3..3", "R-LIE-LATTICE", True, False),
    _fact("Sol3", 3, "sol", "3..3", "R-LIE-LATTICE", True, False),
    _fact("S2xE", 3, "product", "1..1", "R-PRODUCT", False, False, ("S2", "E1")),
    _fact("H2xE", 3, "product", "3..3", "R-PRODUCT", True, False, ("H2", "E1")),
    _fact("SL2~", 3, "product", "3..3", "R-LIE-LATTICE", True, False),
    _fact("H3", 3, "real-hyperbolic", "3..3", "R-PROPER-ACTION", True, False),
)

_DIM4 = (
    _fact("S4", 4, "spherical-type", "0..0", "R-FINITE", False, True),
    _fact("CP2", 4, "spherical-type", "0..0", "R-FINITE", False, True),
    _fact("S2xS2", 4, "product", "0..0", "R-FINITE", False, True, ("S2", "S2")),
    _fact("E4", 4, "euclidean", "4..4", "R-LIE-LATTICE", True, False),
    _fact("Nil4", 4, "nil", "4..4", "R-LIE-LATTICE", True, False),
    _fact("Sol4_0", 4, "sol", "4..4", "R-LIE-LATTICE", True, False),
    _fact("Sol4_1", 4, "sol", "4..4", "R-LIE-LATTICE", True, False),
    _fact("Sol4_mn", 4, "sol", "4..4", "R-LIE-LATTICE", True, False),
    _fact("S3xE", 4, "product", "1..1", "R-PRODUCT", False, False, ("S3", "E1")),
    _fact("S2xE2", 4, "product", "2..2", "R-PRODUCT", False, False, ("S2", "E2")),
    _fact("S2xH2", 4, "product", "2..2", "R-PRODUCT", False, False, ("S2", "H2")),
    _fact("Nil3xE", 4, "product", "4..4", "R-LIE-LATTICE", True, False, ("Nil3", "E1")),
    _fact("H3xE", 4, "product", "4..4", "R-PRODUCT", True, False, ("H3", "E1")),
    _fact("H2xE2", 4, "product", "4..4", "R-PRODUCT", True, False, ("H2", "E2")),
    _fact("H2xH2", 4, "product", "4..4", "R-PRODUCT", True, False, ("H2", "H2")),
    _fact("SL2~xE", 4, "product", "4..4", "R-PRODUCT", True, False, ("SL2~", "E1")),
    _fact("F4", 4, "F4-type", "4..4", "R-EXTENSION", False, False),
    _fact("H4", 4, "real-hyperbolic", "4..4", "R-PROPER-ACTION", True, False),
    _fact("H2C", 4, "complex-hyperbolic", "4..4", "R-NAGATA", True, False),
)

_BY_DIM: dict[int, tuple[GeometryFact, ...]] = {1: _DIM1, 2: _DIM2, 3: _DIM3, 4: _DIM4}
_INDEX: dict[tuple[str, int], GeometryFact] = {
    (f.name, f.dim): f for facts in _BY_DIM.values() for f in facts
}
# Names are globally unique across dimensions, which lets product factors be
# recorded by name alone.
_BY_NAME: dict[str, GeometryFact] = {f.name: f for facts in _BY_DIM.values() for f in facts}
assert len(_BY_NAME) == len(_INDEX)


def lookup_geometry(name: str, dim: int) -> GeometryFact:
    """Return the immutable fact record for a geometry at a dimension.

    Raises UnknownGeometryError naming the offending identifier and listing
    the valid names for that dimension.
    """
    fact = _INDEX.get((name, dim))
    if fact is None:
        valid = ", ".join(f.name for f in _BY_DIM.get(dim, ()))
        detail = f"valid names for dim {dim}: {valid}" if valid else f"no geometries at dim {dim}"
        raise UnknownGeometryError(f"unknown geometry {name!r} at dim {dim} ({detail})")
    return fact


def list_geometries(dim: int) -> tuple[GeometryFact, ...]:
    """All catalog entries at a dimension, in canonical order."""
    if dim not in (2, 3, 4):
        raise UnsupportedDimensionError(f"catalog serves dims 2, 3 and 4, not {dim}")
    return _BY_DIM[dim]


def factor_facts(fact: GeometryFact) -> tuple[GeometryFact, ...]:
    """Resolve a product geometry's factor names to their fact records."""
    if fact.factors is None:
        return ()
    return tuple(_BY_NAME[name] for name in fact.factors)


def fact_record(fact: GeometryFact, lattice_asdim: DimBound) -> dict:
    """Flatten a fact and its derived lattice bound into a plain dict for export."""
    return {
        "name": fact.name,
        "dim": fact.dim,
        "class": fact.klass,
        "model_asdim": {"lower": fact.model_asdim.lower, "upper": str(fact.model_asdim.upper)},
        "lattice_asdim": {"lower": lattice_asdim.lower, "upper": str(lattice_asdim.upper)},
        "lattice_rule": fact.lattice_rule,
        "aspherical_model": fact.aspherical_model,
        "compact_model": fact.compact_model,
        "factors": list(fact.factors) if fact.factors is not None else None,
    }
