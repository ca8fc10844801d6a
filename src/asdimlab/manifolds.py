"""Manifold-description DSL: parsing, rendering, and compilation to groups.

A program describes a closed 3- or 4-manifold as a connected sum of
summands, each either a single geometric piece or a decomposition graph
whose vertices are geometric pieces and whose edges are the gluing
cross-sections.  Grammar (line breaks insignificant, comments run from
"--" to end of line):

    program    :=  header statement* ;
    header     :=  "dim" INT ";" ;                      -- INT is 3 or 4
    statement  :=  piece | graph | sum | alexandrov ;
    piece      :=  "piece" NAME GEO ";" ;
    graph      :=  "graph" NAME "{" vertexdecl* edgedecl*
                   "pi1_injective" BOOL ";" "}" ;
    vertexdecl :=  "v" NAME GEO ";" ;
    edgedecl   :=  "e" NAME NAME EDGETYPE ";" ;
    sum        :=  "sum" NAME ("#" NAME)* ";" ;
    alexandrov :=  "alexandrov" BOOL ";" ;

Edge types are flat3/nil3 in dim-4 programs and torus2/klein2/surface2 in
dim-3 programs.  A program must declare at least one summand; when it
declares more than one, exactly one sum statement must list every declared
name exactly once (the sum fixes the summand order).  Decomposition graphs
must be nonempty and connected.  The alexandrov statement is allowed in
dim-3 programs only; its presence marks the input as an Alexandrov space
presented through a smooth branched double cover, and its boolean records
whether the singular set is nonempty.

Compilation turns the description into a group expression by the usual
pushout reading of gluings: pieces become lattices in their model
geometry, injective graphs become iterated amalgams over a deterministic
breadth-first spanning tree with HNN layers for the leftover edges,
non-injective graphs become subspace unions, and connected sums become
free products.  An Alexandrov space becomes a group acting on the
universal cover of its smooth branched double cover, whose group is
compiled the same way.  Compilation derives no bound; the engine does.
The asphericity verdict follows the classification of
geometric decompositions of closed 4-manifolds (Hillman) and its dim-3
counterpart; vertex-geometry mixtures outside the classified cases raise
OutsideClassifiedCasesError, the compiler's only failure mode.

The parser lexes the text with one regular-expression split and reads
each statement straight off the token list; a position is worked out, from
the token lengths, only for a refusal and for each graph's ``pos``.
"""

from __future__ import annotations

import re
from collections import deque, namedtuple

from . import Refusal
from .bounds import _Record, field, record
from .geometries import UnknownGeometryError, lookup_geometry
from .groups import (
    ActsOnCover,
    Amalgam,
    FreeProduct,
    GroupExpr,
    HNN,
    Lattice,
    SurfaceGroup,
    Union,
    _NAME_CHARS,
)

RESERVED_WORDS = frozenset(
    ("dim", "piece", "graph", "v", "e", "sum", "alexandrov", "pi1_injective", "true", "false")
)

EDGE_TYPES_BY_DIM = {4: ("flat3", "nil3"), 3: ("torus2", "klein2", "surface2")}

VERDICT_STATUSES = ("Aspherical", "NotAspherical", "Undetermined")


class ManifoldParseError(Refusal):
    """Syntax or source-level semantic error, carrying a (line, col) position."""


class OutsideClassifiedCasesError(Refusal):
    """A decomposition graph mixes geometries no classified case covers."""


@record
class GeometricPiece(_Record):
    name: str
    geometry: str


@record
class GraphVertex(_Record):
    id: str
    geometry: str


@record
class GraphEdge(_Record):
    source: str
    target: str
    edge_type: str


@record
class DecompGraph(_Record):
    name: str
    vertices: tuple[GraphVertex, ...]
    edges: tuple[GraphEdge, ...]
    pi1_injective: bool
    pos: tuple[int, int] = field(default=(1, 1), compare=False)
    # _spanning_tree(self), walked once when the graph is made.
    tree: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tree", _spanning_tree(self))


Summand = GeometricPiece | DecompGraph


@record
class ManifoldDesc(_Record):
    dim: int
    summands: tuple[Summand, ...]
    alexandrov: bool = False
    singular_set_nonempty: bool = False


@record
class AsphericityVerdict(_Record):
    status: str
    reason: str

    def __post_init__(self) -> None:
        if self.status not in VERDICT_STATUSES:
            raise ValueError(f"bad verdict status {self.status!r}")


class CompileResult(namedtuple("CompileResult", "expr verdict")):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Lexer and parser


# One split of the whole text.  Each match is the blanks, line breaks and
# comments before a token, then the token, so the parts run: "" (between two
# matches), the blanks before token k, token k, for k = 0, 1, ...  The longest
# blanks come first and some token always follows, so no match backs up into
# a comment.  An unexpected character takes the rest of the input as one
# token; the end of input is "", twice when trailing blanks come before it.
_LEXEME = re.compile(
    r"([ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*)"
    f"([;{{}}#]|[{re.escape(''.join(sorted(_NAME_CHARS)))}]+|\\Z|(?s:.+))"
)

_PUNCTUATION = frozenset(";{}#")
_NOT_NAMES = _PUNCTUATION | {""}  # "" is the end of input
_NOT_VERTEX_NAMES = _NOT_NAMES | RESERVED_WORDS


def _describe(token: str) -> str:
    return repr(token) if token else "end of input"


class _Source:
    """A text's tokens, and the checks that refuse token k at its position:
    the lengths of the parts before it, counted on from the last position
    asked for, so that increasing ones cost time linear in the text.  A
    comment takes up no columns, so the end of input after one on the last
    line sits at the comment's start."""

    def __init__(self, text: str):
        parts = _LEXEME.split(text)
        self.text, self.parts, self.tokens = text, parts, parts[2::3]
        # No token holds "-", so a "--" on the last line starts a comment.
        comment = text.find("--", text.rfind("\n") + 1)
        self.end = comment if comment >= 0 else len(text)
        self.part, self.part_offset = 2, len(parts[1])  # token 0 and where it starts
        self.offset, self.line, self.line_start = 0, 1, 0
        # before any grammar error: an unexpected character ends the tokens
        last = self.tokens[-2] if len(self.tokens) > 1 else ""
        if last and last[0] not in _NAME_CHARS and last[0] not in _PUNCTUATION:
            raise ManifoldParseError(f"unexpected character {last[0]!r}", *self.at(len(text) - len(last)))
        self.tokens += ("",) * 4  # so that a statement may read past the end

    def at(self, offset: int) -> tuple[int, int]:
        if offset < self.offset:
            self.offset, self.line, self.line_start = 0, 1, 0
        text = self.text
        self.line += text.count("\n", self.offset, offset)
        self.line_start = max(self.line_start, text.rfind("\n", self.offset, offset) + 1)
        self.offset = offset
        return self.line, offset - self.line_start + 1

    def position(self, k: int) -> tuple[int, int]:
        parts, part = self.parts, 3 * k + 2
        if part >= len(parts) or not parts[part]:
            return self.at(self.end)
        if part < self.part:
            self.part, self.part_offset = 2, len(parts[1])
        self.part_offset += sum(map(len, parts[self.part : part]))
        self.part = part
        return self.at(self.part_offset)

    def fail(self, k: int, message: str) -> None:
        raise ManifoldParseError(message, *self.position(k))

    def expect(self, k: int, token: str) -> None:
        if self.tokens[k] != token:
            self.fail(k, f"expected {token!r}, found {_describe(self.tokens[k])}")

    def name(self, k: int, what: str) -> str:
        token = self.tokens[k]
        if token in _NOT_NAMES:
            self.fail(k, f"expected {what}, found {_describe(token)}")
        return token

    def fresh(self, k: int, what: str, taken: set[str]) -> str:
        token = self.name(k, what)
        if token in RESERVED_WORDS:
            self.fail(k, f"{token!r} is a reserved word")
        if token in taken:
            self.fail(k, f"duplicate name {token!r}")
        return token

    def geometry(self, k: int, dim: int, known: set[str]) -> str:
        """A geometry name, looked up once per parse."""
        token = self.name(k, "a geometry name")
        if token not in known:
            try:
                lookup_geometry(token, dim)
            except UnknownGeometryError as exc:
                self.fail(k, str(exc))
            known.add(token)
        return token

    def boolean(self, k: int) -> bool:
        token = self.tokens[k]
        if token not in ("true", "false"):
            self.fail(k, f"expected 'true' or 'false', found {_describe(token)}")
        return token == "true"

    def refuse_edge(self, k: int, ids: set[str], dim: int) -> None:
        """Refuse the edge declaration at token k, one part of which is wrong."""
        for end in (k + 1, k + 2):
            self.name(end, "a vertex name")
        for end in (k + 1, k + 2):
            if self.tokens[end] not in ids:
                self.fail(end, f"edge endpoint {self.tokens[end]!r} is not a declared vertex")
        edge_type = self.name(k + 3, "an edge type")
        if edge_type not in EDGE_TYPES_BY_DIM[dim]:
            allowed = "/".join(EDGE_TYPES_BY_DIM[dim])
            self.fail(k + 3, f"edge type {edge_type!r} is not valid in a dim-{dim} program (use {allowed})")
        self.expect(k + 4, ";")


def parse_manifold(text: str) -> ManifoldDesc:
    """Parse DSL source into a ManifoldDesc.

    All source-level checks happen here, with positions: syntax, unknown
    geometries, dimension mismatches, undeclared vertices or summands,
    disconnected graphs, and sum-statement coverage.
    """
    src = _Source(text)
    tokens = src.tokens
    src.expect(0, "dim")
    if src.name(1, "a dimension") not in ("3", "4"):
        src.fail(1, f"dimension must be 3 or 4, found {_describe(tokens[1])}")
    dim = int(tokens[1])
    src.expect(2, ";")
    edge_types = EDGE_TYPES_BY_DIM[dim]

    known: set[str] = set()  # geometry names looked up
    declared: set[str] = set()
    summands: list[Summand] = []
    sum_at: int | None = None  # the sum statement's token, and those of the names it lists
    listed_at: list[int] = []
    alexandrov = False
    singular = False

    i = 3
    while tokens[i]:
        word = tokens[i]
        if word == "piece":
            name = src.fresh(i + 1, "a summand name", declared)
            declared.add(name)
            geometry = src.geometry(i + 2, dim, known)
            src.expect(i + 3, ";")
            summands.append(GeometricPiece(name, geometry))
            i += 4
        elif word == "graph":
            at = i + 1
            name = src.fresh(at, "a graph name", declared)
            declared.add(name)
            src.expect(i + 2, "{")
            i += 3
            ids: set[str] = set()
            vertices: list[GraphVertex] = []
            while tokens[i] == "v":
                vid, geometry, semi = tokens[i + 1], tokens[i + 2], tokens[i + 3]
                if vid in ids or vid in _NOT_VERTEX_NAMES or geometry not in known or semi != ";":
                    src.fresh(i + 1, "a vertex name", ids)
                    src.geometry(i + 2, dim, known)
                    src.expect(i + 3, ";")
                ids.add(vid)
                vertices.append(GraphVertex(vid, geometry))
                i += 4
            edges: list[GraphEdge] = []
            while tokens[i] == "e":
                a, b, edge_type, semi = tokens[i + 1 : i + 5]
                if a not in ids or b not in ids or edge_type not in edge_types or semi != ";":
                    src.refuse_edge(i, ids, dim)
                edges.append(GraphEdge(a, b, edge_type))
                i += 5
            src.expect(i, "pi1_injective")
            injective = src.boolean(i + 1)
            src.expect(i + 2, ";")
            src.expect(i + 3, "}")
            i += 4
            if not vertices:
                src.fail(at, f"graph {name!r} declares no vertices")
            graph = DecompGraph(name, tuple(vertices), tuple(edges), injective, pos=src.position(at))
            if len(graph.tree[0]) != len(vertices) - 1:
                src.fail(at, f"graph {name!r} is not connected")
            summands.append(graph)
        elif word == "sum":
            if sum_at is not None:
                src.fail(i, "duplicate sum statement")
            sum_at, listed_at = i, [i + 1]
            while tokens[listed_at[-1] + 1] == "#":
                listed_at.append(listed_at[-1] + 2)
            for k in listed_at:
                src.name(k, "a summand name")
            i = listed_at[-1] + 1
            src.expect(i, ";")
            i += 1
        elif word == "alexandrov":
            if dim != 3:
                src.fail(i, "alexandrov applies to dim-3 programs only")
            if alexandrov:
                src.fail(i, "duplicate alexandrov statement")
            alexandrov = True
            singular = src.boolean(i + 1)
            src.expect(i + 2, ";")
            i += 3
        else:
            src.fail(i, f"expected piece, graph, sum or alexandrov, found {_describe(word)}")

    if not summands:
        src.fail(i, "program declares no summands")
    if sum_at is None:
        if len(summands) > 1:
            src.fail(i, "programs with more than one summand need a sum statement")
        return ManifoldDesc(dim, tuple(summands), alexandrov, singular)
    listed: set[str] = set()
    for k in listed_at:
        name = tokens[k]
        if name not in declared:
            src.fail(k, f"sum references undeclared summand {name!r}")
        if name in listed:
            src.fail(k, f"summand {name!r} listed twice in sum")
        listed.add(name)
    missing = [s.name for s in summands if s.name not in listed]
    if missing:
        src.fail(sum_at, "sum omits declared summands: " + ", ".join(missing))
    by_name = {s.name: s for s in summands}
    return ManifoldDesc(dim, tuple([by_name[tokens[k]] for k in listed_at]), alexandrov, singular)


# ---------------------------------------------------------------------------
# Rendering


def render(desc: ManifoldDesc) -> str:
    """Emit canonical DSL source. For parser-produced descriptions,
    parse_manifold(render(desc)) == desc."""
    lines = [f"dim {desc.dim};"]
    for s in desc.summands:
        if isinstance(s, GeometricPiece):
            lines.append(f"piece {s.name} {s.geometry};")
        else:
            lines.append(f"graph {s.name} {{")
            for v in s.vertices:
                lines.append(f"  v {v.id} {v.geometry};")
            for e in s.edges:
                lines.append(f"  e {e.source} {e.target} {e.edge_type};")
            flag = "true" if s.pi1_injective else "false"
            lines.append(f"  pi1_injective {flag};")
            lines.append("}")
    if len(desc.summands) > 1:
        lines.append("sum " + " # ".join(s.name for s in desc.summands) + ";")
    if desc.alexandrov:
        flag = "true" if desc.singular_set_nonempty else "false"
        lines.append(f"alexandrov {flag};")
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Compilation

_EDGE_EXPRS = {
    "flat3": Lattice("E3", 3, True),
    "nil3": Lattice("Nil3", 3, True),
    "torus2": SurfaceGroup("flat"),
    "klein2": SurfaceGroup("flat"),
    "surface2": SurfaceGroup("hyperbolic"),
}

_SPHERE_FIBER_CASE = frozenset(("S2xE2", "S2xH2"))
_MIXED_HYPERBOLIC_CASE = frozenset(("H4", "H3xE", "H2xE2", "SL2~xE"))
_COMPLEX_AFFINE_CASE = frozenset(("H2C", "F4"))


def _piece_verdict(geometry: str, dim: int) -> AsphericityVerdict:
    fact = lookup_geometry(geometry, dim)
    if fact.compact_model:
        return AsphericityVerdict(
            "NotAspherical",
            f"the {geometry} model is compact; closed quotients have finite"
            " fundamental group and essential spheres",
        )
    if fact.aspherical_model:
        return AsphericityVerdict(
            "Aspherical",
            f"closed geometric manifold; the {geometry} model is a contractible"
            " homogeneous space",
        )
    if fact.klass == "F4-type":
        return AsphericityVerdict(
            "NotAspherical",
            "the affine-plane geometry admits finite-volume but no closed"
            " quotients, so the closed-aspherical lower bound does not apply",
        )
    return AsphericityVerdict(
        "NotAspherical",
        f"the {geometry} model has a compact spherical factor; its quotients"
        " are never aspherical",
    )


def _spanning_tree(graph: DecompGraph) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Deterministic breadth-first spanning tree.

    Returns (tree, rest): tree edges as (from-vertex, to-vertex, edge index)
    in discovery order, and the remaining edge indices in declaration order.
    The root is the first declared vertex; ties are broken by neighbor index,
    then edge declaration index.
    """
    index = {v.id: i for i, v in enumerate(graph.vertices)}
    incident: list[list[tuple[int, int]]] = [[] for _ in graph.vertices]
    for k, e in enumerate(graph.edges):
        a, b = index[e.source], index[e.target]
        incident[a].append((b, k))
        if a != b:
            incident[b].append((a, k))
    for lst in incident:
        lst.sort()
    visited = {0}
    tree: list[tuple[int, int, int]] = []
    used: set[int] = set()
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w, k in incident[u]:
            if w not in visited:
                visited.add(w)
                used.add(k)
                tree.append((u, w, k))
                queue.append(w)
    rest = [k for k in range(len(graph.edges)) if k not in used]
    return tree, rest


def _graph_expr(graph: DecompGraph, dim: int) -> GroupExpr:
    # one checked constructor call per distinct geometry, in order of first use
    geometries = dict.fromkeys(v.geometry for v in graph.vertices)
    lattices = {geometry: Lattice(geometry, dim, False) for geometry in geometries}
    vertex_exprs = [lattices[v.geometry] for v in graph.vertices]
    if not graph.pi1_injective:
        return Union(tuple(vertex_exprs))
    tree, rest = graph.tree
    expr = vertex_exprs[0]
    for _, w, k in tree:
        expr = Amalgam(expr, vertex_exprs[w], _EDGE_EXPRS[graph.edges[k].edge_type])
    for k in rest:
        expr = HNN(expr, _EDGE_EXPRS[graph.edges[k].edge_type])
    return expr


def _graph_verdict(graph: DecompGraph, dim: int) -> AsphericityVerdict:
    geometries = frozenset(v.geometry for v in graph.vertices)
    if dim == 4:
        if geometries <= _SPHERE_FIBER_CASE:
            verdict = AsphericityVerdict(
                "NotAspherical",
                "orbifold bundle with spherical fibers; the total space is never"
                " aspherical",
            )
        elif geometries == frozenset(("H2xH2",)):
            verdict = AsphericityVerdict(
                "Undetermined",
                "pieces modeled on the product of two hyperbolic planes; both"
                " aspherical and non-aspherical examples occur",
            )
        elif geometries <= _MIXED_HYPERBOLIC_CASE:
            verdict = AsphericityVerdict(
                "Aspherical",
                "aspherical geometric pieces glued along flat or nilpotent"
                " cross-sections; the total space is aspherical",
            )
        elif geometries <= _COMPLEX_AFFINE_CASE:
            verdict = AsphericityVerdict(
                "Aspherical",
                "complex-hyperbolic and affine-plane pieces; the total space is"
                " aspherical",
            )
        else:
            raise OutsideClassifiedCasesError(
                f"outside classified cases: graph {graph.name!r} mixes geometries"
                f" {{{', '.join(sorted(geometries))}}}",
                graph.pos[0],
                graph.pos[1],
            )
    else:
        aspherical = all(lookup_geometry(v.geometry, 3).aspherical_model for v in graph.vertices)
        if graph.pi1_injective and aspherical:
            verdict = AsphericityVerdict(
                "Aspherical",
                "aspherical three-dimensional pieces glued along incompressible"
                " surfaces",
            )
        else:
            verdict = AsphericityVerdict(
                "Undetermined",
                "three-dimensional decomposition without injectivity or with"
                " non-aspherical pieces; asphericity is not decided",
            )
    if any(e.edge_type == "klein2" for e in graph.edges):
        verdict = AsphericityVerdict(
            verdict.status,
            verdict.reason + "; non-orientable gluings handled through the"
            " orientation double cover",
        )
    return verdict


def _lone_piece(s: Summand) -> str | None:
    """The geometry of a piece or a one-vertex edgeless graph, else None."""
    if isinstance(s, GeometricPiece):
        return s.geometry
    if isinstance(s, DecompGraph) and len(s.vertices) == 1 and not s.edges:
        return s.vertices[0].geometry
    return None


def _summand_expr(s: Summand, dim: int) -> GroupExpr:
    geometry = _lone_piece(s)
    return _graph_expr(s, dim) if geometry is None else Lattice(geometry, dim, True)


def _summand_verdict(s: Summand, dim: int) -> AsphericityVerdict:
    geometry = _lone_piece(s)
    return _graph_verdict(s, dim) if geometry is None else _piece_verdict(geometry, dim)


def _is_sphere_type(s: Summand, dim: int) -> bool:
    geometry = _lone_piece(s)
    return geometry is not None and lookup_geometry(geometry, dim).compact_model


def compile(desc: ManifoldDesc) -> CompileResult:
    """Compile a description to (group expression, asphericity verdict).

    Total over parser output: the only failure mode is
    OutsideClassifiedCasesError for unclassified graph mixtures.
    """
    if desc.alexandrov:
        inner_expr, inner_verdict = compile(ManifoldDesc(desc.dim, desc.summands))
        if desc.singular_set_nonempty:
            verdict = AsphericityVerdict(
                "Undetermined",
                "Alexandrov space with nonempty singular set; asphericity of the"
                " quotient is not decided",
            )
        else:
            verdict = AsphericityVerdict(
                inner_verdict.status,
                inner_verdict.reason + "; empty singular set, so the smooth verdict"
                " stands",
            )
        return CompileResult(ActsOnCover(inner_expr), verdict)

    exprs = [_summand_expr(s, desc.dim) for s in desc.summands]
    if len(exprs) == 1:
        return CompileResult(exprs[0], _summand_verdict(desc.summands[0], desc.dim))
    if any(_is_sphere_type(s, desc.dim) for s in desc.summands):
        verdict = AsphericityVerdict(
            "NotAspherical",
            "nontrivial connected sum with a compact spherical-type summand",
        )
    else:
        verdict = AsphericityVerdict(
            "NotAspherical",
            "nontrivial connected sum of more than one infinite-group summand",
        )
    return CompileResult(FreeProduct(tuple(exprs)), verdict)


def connected_sum_with_handles(desc: ManifoldDesc, k: int) -> ManifoldDesc:
    """Append k handle summands, each an S3xE piece: its lattice is
    virtually infinite cyclic, with bound 1..1.

    Dim-4 only. Handle names are handle1, handle2, ... with collisions
    against existing summand names skipped.
    """
    if desc.dim != 4:
        raise ValueError("handle sums are a dim-4 operation")
    if k < 0:
        raise ValueError(f"handle count must be non-negative, got {k}")
    taken = {s.name for s in desc.summands}
    handles: list[GeometricPiece] = []
    counter = 1
    while len(handles) < k:
        name = f"handle{counter}"
        counter += 1
        if name in taken:
            continue
        taken.add(name)
        handles.append(GeometricPiece(name, "S3xE"))
    return ManifoldDesc(
        desc.dim,
        desc.summands + tuple(handles),
        desc.alexandrov,
        desc.singular_set_nonempty,
    )
