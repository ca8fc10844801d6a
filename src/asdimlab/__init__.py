"""Certified asymptotic-dimension bounds for manifold fundamental groups.

The package derives interval bounds on the asymptotic dimension of
fundamental groups built from geometric pieces (closed geometric
manifolds in dimensions three and four, graph-of-groups decompositions,
connected sums, and three-dimensional Alexandrov spaces), records every
derivation as a replayable trace, and includes a small laboratory for
finite-scale cover experiments in Cayley balls.

Importing the package loads none of its submodules.  A public name, or a
submodule such as ``asdimlab.coarse``, is imported when it is first read.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "bounds": "FINITE_UNKNOWN UNKNOWN DimBound ExtendedDim InconsistentBoundError finite",
    "coarse": "BallBudgetError CoverReport CoverWitness FiniteMetricSpace GroupSpec"
    " SearchResult WitnessFormatError brick_cover cayley_ball format_witness"
    " min_families_exhaustive parse_group_spec parse_witness verify_cover",
    "engine": "BoundResult Consequence MalformedTraceError ProofTrace Rule RuleArityError"
    " TraceStep UnknownRuleError apply_rule bound consequences list_rules parse_trace"
    " replay serialize_trace",
    "geometries": "GeometryFact UnknownGeometryError UnsupportedDimensionError"
    " lookup_geometry list_geometries",
    "groups": "Amalgam CanonicalFormError Extension Finite FreeAbelian FreeProduct GroupExpr"
    " HNN HyperbolicGroup InfinitenessStatus Lattice Product ProperActionOn RelHyperbolic"
    " SurfaceGroup Trivial Union is_infinite normalize parse_canonical to_canonical",
    "manifolds": "AsphericityVerdict CompileResult ManifoldDesc ManifoldParseError"
    " OutsideClassifiedCasesError compile connected_sum_with_handles parse_manifold render",
}
_SUBMODULES = (*_EXPORTS, "cli")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
