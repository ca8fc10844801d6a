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
# Lexer


class _Token(namedtuple("_Token", "text offset kind")):
    # kind: "name", "punct" or "eof"
    __slots__ = ()

    def describe(self) -> str:
        return "end of input" if self.kind == "eof" else repr(self.text)


# One match per token: the blanks, line breaks and comments before it, then
# one alternative per lexeme, the name of the group that matched being its
# kind.  The end-of-input alternative lets the last match take the trailing
# blanks, so they are read once, not retried position by position, and an
# unexpected character takes the rest of the input, so it ends the tokens.
_LEXEME = re.compile(
    r"(?:[ \t\r\n]+|--[^\n]*)*"
    f"(?:(?P<punct>[;{{}}#])|(?P<name>[{re.escape(''.join(sorted(_NAME_CHARS)))}]+)"
    r"|(?P<eof>\Z)|(?P<other>.)(?s:.*))"
)


class _Lines:
    """1-based (line, col) of offsets into a text.  Each answer starts from
    the last one, so offsets asked for in increasing order cost time linear
    in the text in total."""

    def __init__(self, text: str):
        self.text = text
        self.offset, self.line, self.line_start = 0, 1, 0

    def at(self, offset: int) -> tuple[int, int]:
        if offset < self.offset:
            self.offset, self.line, self.line_start = 0, 1, 0
        text = self.text
        self.line += text.count("\n", self.offset, offset)
        self.line_start = max(self.line_start, text.rfind("\n", self.offset, offset) + 1)
        self.offset = offset
        return self.line, offset - self.line_start + 1


def _lex(text: str) -> list[_Token]:
    """Tokens with their offsets, one regular-expression match each.  A
    comment takes up no columns, so end of input right after one sits at
    the comment's start."""
    new = tuple.__new__
    tokens = [
        new(_Token, (m.group(kind), m.start(kind), kind))
        for m in _LEXEME.finditer(text)
        for kind in (m.lastgroup,)
    ]
    # A last match that is not empty leaves room for one more, an empty eof.
    if len(tokens) > 1 and tokens[-2].kind in ("eof", "other"):
        del tokens[-1]
    last = tokens[-1]
    if last.kind == "other":
        raise ManifoldParseError(f"unexpected character {last.text!r}", *_Lines(text).at(last.offset))
    # No token holds "-", so a "--" on the last line starts a comment.
    comment = text.find("--", text.rfind("\n") + 1)
    if comment >= 0:
        tokens[-1] = new(_Token, ("", comment, "eof"))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0
        self.lines = _Lines(text)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str) -> None:
        raise ManifoldParseError(message, *self.lines.at(tok.offset))

    def expect_punct(self, ch: str) -> _Token:
        tok = self.advance()
        if tok.kind != "punct" or tok.text != ch:
            self.fail(tok, f"expected {ch!r}, found {tok.describe()}")
        return tok

    def expect_name(self, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != "name":
            self.fail(tok, f"expected {what}, found {tok.describe()}")
        return tok

    def expect_keyword(self, word: str) -> _Token:
        tok = self.advance()
        if tok.kind != "name" or tok.text != word:
            self.fail(tok, f"expected '{word}', found {tok.describe()}")
        return tok

    def expect_bool(self) -> bool:
        tok = self.expect_name("'true' or 'false'")
        if tok.text not in ("true", "false"):
            self.fail(tok, f"expected 'true' or 'false', found {tok.describe()}")
        return tok.text == "true"

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text == word

    def geometry(self, dim: int) -> str:
        tok = self.expect_name("a geometry name")
        try:
            lookup_geometry(tok.text, dim)
        except UnknownGeometryError as exc:
            self.fail(tok, str(exc))
        return tok.text

    def fresh_name(self, what: str, taken: dict[str, _Token]) -> str:
        tok = self.expect_name(what)
        if tok.text in RESERVED_WORDS:
            self.fail(tok, f"{tok.text!r} is a reserved word")
        if tok.text in taken:
            self.fail(tok, f"duplicate name {tok.text!r}")
        taken[tok.text] = tok
        return tok.text


def parse_manifold(text: str) -> ManifoldDesc:
    """Parse DSL source into a ManifoldDesc.

    All source-level checks happen here, with positions: syntax, unknown
    geometries, dimension mismatches, undeclared vertices or summands,
    disconnected graphs, and sum-statement coverage.
    """
    p = _Parser(text)
    p.expect_keyword("dim")
    dim_tok = p.expect_name("a dimension")
    if dim_tok.text not in ("3", "4"):
        p.fail(dim_tok, f"dimension must be 3 or 4, found {dim_tok.describe()}")
    dim = int(dim_tok.text)
    p.expect_punct(";")

    declared: dict[str, _Token] = {}
    summands: list[Summand] = []
    sum_names: list[_Token] | None = None
    sum_tok: _Token | None = None
    alexandrov = False
    singular = False

    while p.peek().kind != "eof":
        tok = p.peek()
        if p.at_keyword("piece"):
            p.advance()
            name = p.fresh_name("a summand name", declared)
            geometry = p.geometry(dim)
            p.expect_punct(";")
            summands.append(GeometricPiece(name, geometry))
        elif p.at_keyword("graph"):
            p.advance()
            name_tok = p.peek()
            name = p.fresh_name("a graph name", declared)
            p.expect_punct("{")
            vert_tokens: dict[str, _Token] = {}
            vertices: list[GraphVertex] = []
            while p.at_keyword("v"):
                p.advance()
                vid = p.fresh_name("a vertex name", vert_tokens)
                vertices.append(GraphVertex(vid, p.geometry(dim)))
                p.expect_punct(";")
            edges: list[GraphEdge] = []
            while p.at_keyword("e"):
                p.advance()
                a_tok = p.expect_name("a vertex name")
                b_tok = p.expect_name("a vertex name")
                for t in (a_tok, b_tok):
                    if t.text not in vert_tokens:
                        p.fail(t, f"edge endpoint {t.text!r} is not a declared vertex")
                type_tok = p.expect_name("an edge type")
                if type_tok.text not in EDGE_TYPES_BY_DIM[dim]:
                    allowed = "/".join(EDGE_TYPES_BY_DIM[dim])
                    p.fail(
                        type_tok,
                        f"edge type {type_tok.text!r} is not valid in a dim-{dim} program"
                        f" (use {allowed})",
                    )
                p.expect_punct(";")
                edges.append(GraphEdge(a_tok.text, b_tok.text, type_tok.text))
            p.expect_keyword("pi1_injective")
            injective = p.expect_bool()
            p.expect_punct(";")
            p.expect_punct("}")
            if not vertices:
                p.fail(name_tok, f"graph {name!r} declares no vertices")
            graph = DecompGraph(
                name, tuple(vertices), tuple(edges), injective, pos=p.lines.at(name_tok.offset)
            )
            if len(graph.tree[0]) != len(vertices) - 1:
                p.fail(name_tok, f"graph {name!r} is not connected")
            summands.append(graph)
        elif p.at_keyword("sum"):
            tok = p.advance()
            if sum_names is not None:
                p.fail(tok, "duplicate sum statement")
            sum_tok = tok
            sum_names = [p.expect_name("a summand name")]
            while p.peek().kind == "punct" and p.peek().text == "#":
                p.advance()
                sum_names.append(p.expect_name("a summand name"))
            p.expect_punct(";")
        elif p.at_keyword("alexandrov"):
            tok = p.advance()
            if dim != 3:
                p.fail(tok, "alexandrov applies to dim-3 programs only")
            if alexandrov:
                p.fail(tok, "duplicate alexandrov statement")
            alexandrov = True
            singular = p.expect_bool()
            p.expect_punct(";")
        else:
            p.fail(tok, f"expected piece, graph, sum or alexandrov, found {tok.describe()}")

    eof = p.peek()
    if not summands:
        p.fail(eof, "program declares no summands")
    if sum_names is None:
        if len(summands) > 1:
            p.fail(eof, "programs with more than one summand need a sum statement")
        ordered = summands
    else:
        listed: dict[str, _Token] = {}
        for tok in sum_names:
            if tok.text not in declared:
                p.fail(tok, f"sum references undeclared summand {tok.text!r}")
            if tok.text in listed:
                p.fail(tok, f"summand {tok.text!r} listed twice in sum")
            listed[tok.text] = tok
        missing = [n for n in declared if n not in listed]
        if missing:
            assert sum_tok is not None
            p.fail(sum_tok, "sum omits declared summands: " + ", ".join(missing))
        by_name = {s.name: s for s in summands}
        ordered = [by_name[tok.text] for tok in sum_names]
    return ManifoldDesc(dim, tuple(ordered), alexandrov, singular)


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
    vertex_exprs = [Lattice(v.geometry, dim, False) for v in graph.vertices]
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
