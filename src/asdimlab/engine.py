"""Bound-derivation engine.

Evaluates a ``GroupExpr`` bottom-up, applying one inequality rule per node
(plus lower-bound and bookkeeping rules where they help), and returns the
componentwise-best ``DimBound`` together with a replayable proof trace.

Every rule is registered with a citation.  Rules whose justification is a
published theorem cite it by content and author; the two rules that are
engineering choices rather than literature carry the marker
"external/design-decision" in their citation text and are never presented
as anything else.

Each rule is one ``Rule`` record in ``RULES``: its arity and its arithmetic,
which is deliberately tiny, sit beside its citation.  ``bound`` is
observationally equivalent to folding ``apply_rule`` over the trace it
emits, which is what ``replay`` checks.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Callable, Sequence
from types import MappingProxyType

from . import Refusal, split_records as trace_lines
from .bounds import (
    FINITE_UNKNOWN,
    UNKNOWN,
    DimBound,
    _Record,
    field,
    finite,
    natural_int,
    record,
)
from .geometries import GeometryFact, factor_facts, lookup_geometry
from .groups import (
    ActsOnCover,
    Amalgam,
    Extension,
    Finite,
    FreeAbelian,
    FreeProduct,
    GroupExpr,
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
    is_infinite,  # noqa: F401 -- kept for bench/spans.py, which patches this name
    normalize,
    postorder,
    to_canonical,  # noqa: F401 -- kept for bench/spans.py, which patches this name
)


class UnknownRuleError(Refusal):
    pass


class RuleArityError(Refusal):
    pass


class MalformedTraceError(Refusal):
    pass


@record
class Rule(_Record):
    """One inequality rule, stated once: its id, what it says, its source,
    its input shape, and the two facts ``apply_rule`` runs on.

    ``arity`` is (least inputs, most inputs or None, param count).  ``arith``
    maps the inputs and params to the produced bound; it also refuses, with
    ``RuleArityError``, any param outside the rule's domain.
    """

    id: str
    description: str
    citation: str
    shape: str
    arity: tuple[int, int | None, int] = field(repr=False)
    arith: Callable[..., DimBound] = field(repr=False, compare=False)


def _sum_uppers(inputs):
    total = finite(0)
    for b in inputs:
        total = total + b.upper
    return total


def _surface(inputs, params):
    if params[0] not in (0, 2):
        raise RuleArityError(f"R-SURFACE param must be 0 or 2, got {params[0]}")
    return DimBound.exact(params[0])


def _relhyp(inputs, params):
    if params[0] not in (0, 1):
        raise RuleArityError(f"R-RELHYP param must be 0 or 1, got {params[0]}")
    if params[0] == 1:
        if len(inputs) < 2:
            raise RuleArityError("R-RELHYP with an ambient bound needs >= 2 inputs")
        return DimBound(0, inputs[-1].upper)
    if all(b.upper.is_finite for b in inputs):
        return DimBound(0, FINITE_UNKNOWN)
    return DimBound(0, UNKNOWN)


_RULES = (
    Rule(
        "R-FINITE",
        "finite groups have asymptotic dimension zero",
        "a finitely generated group has asymptotic dimension zero exactly when it is finite",
        "no inputs, no params -> [0,0]",
        (0, 0, 0),
        lambda ins, ps: DimBound.exact(0),
    ),
    Rule(
        "R-INFINITE-LB",
        "infinite groups have asymptotic dimension at least one",
        "an infinite finitely generated group has asymptotic dimension at least one"
        " (contrapositive of the dimension-zero characterization)",
        "no inputs, no params -> [1,?]",
        (0, 0, 0),
        lambda ins, ps: DimBound(1, UNKNOWN),
    ),
    Rule(
        "R-EUCLID",
        "free abelian groups have exact asymptotic dimension equal to their rank",
        "the free abelian group of rank n has asymptotic dimension exactly n",
        "no inputs, params (n,) -> [n,n]",
        (0, 0, 1),
        lambda ins, ps: DimBound.exact(ps[0]),
    ),
    Rule(
        "R-SURFACE",
        "closed-surface groups: dimension zero (spherical) or exactly two (flat, hyperbolic)",
        "fundamental groups of closed surfaces: finite in the spherical case,"
        " asymptotic dimension two in the flat and hyperbolic cases",
        "no inputs, params (d,) with d in {0,2} -> [d,d]",
        (0, 0, 1),
        _surface,
    ),
    Rule(
        "R-LIE-LATTICE",
        "cocompact lattices in Lie groups have exact asymptotic dimension dim(G/K)",
        "Carlsson-Goldfarb: a cocompact lattice in a connected Lie group G with"
        " maximal compact subgroup K has asymptotic dimension dim(G/K)",
        "no inputs, params (d,) -> [d,d]",
        (0, 0, 1),
        lambda ins, ps: DimBound.exact(ps[0]),
    ),
    Rule(
        "R-PROPER-ACTION",
        "a properly acting group is bounded by the space it acts on",
        "a group Γ acting properly and isometrically on a proper metric space M"
        " satisfies asdim Γ ≤ asdim M",
        "one input -> [0, upper(input)]",
        (1, 1, 0),
        lambda ins, ps: DimBound(0, ins[0].upper),
    ),
    Rule(
        "R-EXTENSION",
        "group extensions are bounded by kernel plus quotient",
        "Bell-Dranishnikov extension theorem: for 1 -> K -> G -> Q -> 1,"
        " asdim G ≤ asdim K + asdim Q",
        "two inputs -> [0, upper(K) + upper(Q)]",
        (2, 2, 0),
        lambda ins, ps: DimBound(0, _sum_uppers(ins)),
    ),
    Rule(
        "R-PRODUCT",
        "direct products are bounded by the sum of the factors",
        "the asymptotic dimension of a direct product is at most the sum of the"
        " asymptotic dimensions of its factors",
        ">=1 inputs -> [0, sum of uppers]",
        (1, None, 0),
        lambda ins, ps: DimBound(0, _sum_uppers(ins)),
    ),
    Rule(
        "R-UNION",
        "finite unions of subspaces are bounded by the largest piece",
        "Bell-Dranishnikov finite union theorem: a space covered by finitely many"
        " subspaces has asymptotic dimension at most the maximum over the subspaces",
        ">=1 inputs -> [0, max of uppers]",
        (1, None, 0),
        lambda ins, ps: DimBound(0, max(b.upper for b in ins)),
    ),
    Rule(
        "R-AMALGAM",
        "amalgamated products over an edge group",
        "Bell-Dranishnikov: asdim(A *_C B) ≤ max{asdim A, asdim B, asdim C + 1}",
        "three inputs (A, B, C) -> [0, max{upper(A), upper(B), upper(C)+1}]",
        (3, 3, 0),
        lambda ins, ps: DimBound(0, max(ins[0].upper, ins[1].upper, ins[2].upper + finite(1))),
    ),
    Rule(
        "R-HNN",
        "HNN extensions over an edge group",
        "external/design-decision: HNN analogue of the amalgam bound,"
        " asdim(A *_C) ≤ max{asdim A, asdim C + 1}; adopted without a literature anchor",
        "two inputs (A, C) -> [0, max{upper(A), upper(C)+1}]",
        (2, 2, 0),
        lambda ins, ps: DimBound(0, max(ins[0].upper, ins[1].upper + finite(1))),
    ),
    Rule(
        "R-HYP",
        "hyperbolic groups have finite asymptotic dimension",
        "Gromov-hyperbolic groups have finite asymptotic dimension (Roe)",
        "zero or one input -> witness bound if given, else [0,fin]",
        (0, 1, 0),
        lambda ins, ps: ins[0] if ins else DimBound(0, FINITE_UNKNOWN),
    ),
    Rule(
        "R-RELHYP",
        "relatively hyperbolic groups inherit finiteness from their peripherals",
        "Osin: a group hyperbolic relative to peripheral subgroups of finite"
        " asymptotic dimension has finite asymptotic dimension",
        "peripheral inputs (+ ambient input last when params=(1,)) -> [0, fin/ambient]",
        (1, None, 1),
        _relhyp,
    ),
    Rule(
        "R-NAGATA",
        "Nagata dimension bounds asymptotic dimension from above",
        "Lang-Schlichenmaier: asymptotic dimension is at most Nagata dimension;"
        " for the complex hyperbolic plane the Nagata dimension is four",
        "no inputs, params (n,) -> [0,n]",
        (0, 0, 1),
        lambda ins, ps: DimBound(0, finite(ps[0])),
    ),
    Rule(
        "R-ASPH-LB",
        "closed aspherical n-manifolds force a lower bound of n",
        "for a closed aspherical n-manifold, asdim π1 ≥ cd π1 = n"
        " (cohomological-dimension lower bound)",
        "no inputs, params (n,) -> [n,?]",
        (0, 0, 1),
        lambda ins, ps: DimBound(ps[0], UNKNOWN),
    ),
    Rule(
        "R-COMBINE",
        "componentwise best of several derivations for the same group",
        "external/design-decision: componentwise best of independently derived"
        " bounds (max of lowers, min of uppers); bookkeeping, not a theorem",
        ">=1 inputs -> [max of lowers, min of uppers]",
        (1, None, 0),
        lambda ins, ps: DimBound(max(b.lower for b in ins), min(b.upper for b in ins)),
    ),
)

RULES = MappingProxyType({rule.id: rule for rule in _RULES})


def list_rules() -> tuple[Rule, ...]:
    return _RULES


def apply_rule(
    rule_id: str,
    inputs: Sequence[DimBound],
    params: Sequence[int] = (),
) -> DimBound:
    """Pure arithmetic of a single rule application.  Every call checks the
    rule id, input count, inputs (``DimBound``) and params (non-negative ``int``);
    the arithmetic is then cached by (rule id, inputs, params), never a refusal."""
    rule = RULES.get(rule_id)
    if rule is None:
        raise UnknownRuleError(f"unknown rule {rule_id!r}")
    lo, hi, nparams = rule.arity
    ins = tuple(inputs)
    ps = tuple(params)
    if len(ins) < lo or (hi is not None and len(ins) > hi):
        raise RuleArityError(f"{rule_id} takes {rule.shape}; got {len(ins)} inputs")
    if len(ps) != nparams:
        raise RuleArityError(f"{rule_id} takes {nparams} params; got {len(ps)}")
    if nparams and type(ps[0]) is not int:
        raise RuleArityError(f"{rule_id} param must be an int, got {ps[0]!r}")
    if nparams and ps[0] < 0:
        raise RuleArityError(f"{rule_id} param must be non-negative, got {ps[0]}")
    for b in ins:
        if type(b) is not DimBound:
            raise RuleArityError(f"{rule_id} inputs must be DimBound values, got {b!r}")
    return _arith(rule_id, ins, ps)


@functools.lru_cache(maxsize=1024)
def _arith(rule_id: str, ins: tuple[DimBound, ...], ps: tuple[int, ...]) -> DimBound:
    return RULES[rule_id].arith(ins, ps)


# ---------------------------------------------------------------------------
# Proof traces


class TraceStep(namedtuple("TraceStep", "index rule_id subject produced refs literals params",
                           defaults=((), (), ()))):
    """One rule application in SSA form, a tuple of its seven fields.

    ``refs`` point at earlier steps whose produced bounds feed this one;
    ``literals`` are bounds injected from outside the trace (catalog values,
    witness bounds); ``params`` are the rule's integer parameters.  Inputs
    are assembled as refs-then-literals, in order.
    """

    __slots__ = ()


@record
class ProofTrace(_Record):
    steps: tuple[TraceStep, ...]


@record
class BoundResult(_Record):
    bound: DimBound
    trace: ProofTrace


def replay(trace: ProofTrace) -> DimBound:
    """Check every step's recorded bound against ``apply_rule``, which
    computes each distinct application once; return the final bound.

    The empty trace is the degenerate derivation for the trivial group and
    replays to [0,0].  Any inconsistency (bad indices, dangling refs, rule
    arithmetic disagreeing with the recorded bound) raises
    MalformedTraceError.
    """
    produced: list[DimBound] = []
    for pos, step in enumerate(trace.steps):
        if step.index != pos:
            raise MalformedTraceError(f"step {pos} carries index {step.index}")
        for r in step.refs:
            if r < 0 or r >= pos:
                raise MalformedTraceError(f"step {pos} references step {r}")
        ins = tuple([produced[r] for r in step.refs]) + tuple(step.literals)
        try:
            recomputed = apply_rule(step.rule_id, ins, step.params)
        except ValueError as exc:
            raise MalformedTraceError(f"step {pos} does not replay: {exc}") from exc
        # bounds are shared, so identity settles nearly every step without __eq__
        if recomputed is not step.produced and recomputed != step.produced:
            raise MalformedTraceError(
                f"step {pos} records {step.produced}, arithmetic gives {recomputed}"
            )
        produced.append(recomputed)
    if not produced:
        return DimBound.exact(0)
    return produced[-1]


def serialize_trace(trace: ProofTrace) -> str:
    """Line format: index, rule id, subject with input tokens, bound.

    Fields are tab-separated.  Input tokens follow the subject after
    " <- ": "@i" for step references, "l..u" for literal bounds, bare
    integers for params.  The fields of every step go into one list that
    is joined once, so each subject is copied once.
    """
    out: list[str] = []
    for index, rule_id, subject, produced, refs, literals, params in trace.steps:
        out += (str(index), "\t", rule_id, "\t", subject)
        if refs or literals or params:
            tokens = [f"@{r}" for r in refs]
            tokens += map(str, literals)
            tokens += map(str, params)
            out += (" <- ", " ".join(tokens))
        out += ("\t", str(produced), "\n")
    return "".join(out)


def parse_trace(text: str) -> ProofTrace:
    # A trace repeats a handful of distinct bound tokens; parse each once.
    bounds: dict[str, DimBound] = {}

    def parse_bound(token: str) -> DimBound:
        parsed = bounds.get(token)
        if parsed is None:
            parsed = bounds[token] = DimBound.parse(token)
        return parsed

    new = tuple.__new__
    steps = []
    for lineno, line in enumerate(trace_lines(text)):
        fields = line.split("\t")
        if len(fields) != 4:
            raise MalformedTraceError(f"line {lineno + 1}: expected 4 fields, got {len(fields)}")
        raw_index, rule_id, subject_field, raw_bound = fields
        try:
            # a well-formed trace numbers its steps by line
            index = lineno if raw_index == str(lineno) else natural_int(raw_index)
            produced = parse_bound(raw_bound)
        except ValueError as exc:
            raise MalformedTraceError(f"line {lineno + 1}: {exc}") from exc
        subject = subject_field
        refs = literals = params = ()
        head, arrow, tail = subject_field.rpartition(" <- ")
        # Input tokens never hold '"', so a tail that does is part of a label.
        if arrow and '"' not in tail:
            subject = head
            refs, literals, params = [], [], []
            for token in tail.split(" "):
                try:
                    if token.startswith("@"):
                        refs.append(natural_int(token[1:]))
                    elif ".." in token:
                        literals.append(parse_bound(token))
                    else:
                        params.append(natural_int(token))
                except ValueError as exc:
                    raise MalformedTraceError(f"line {lineno + 1}: bad token {token!r}") from exc
            refs, literals, params = tuple(refs), tuple(literals), tuple(params)
        steps.append(new(TraceStep, (index, rule_id, subject, produced, refs, literals, params)))
    return ProofTrace(tuple(steps))


# ---------------------------------------------------------------------------
# Consequences


@record
class Consequence(_Record):
    kind: str
    condition: str
    citation: str


def consequences(bound: DimBound, aspherical: bool) -> tuple[Consequence, ...]:
    """Corollary-level conclusions supported by a derived bound.

    Finite upper bound (numeric or qualitative) gives the coarse
    Baum-Connes and Novikov conclusions; the two geometric conclusions
    additionally need asphericity.
    """
    if not bound.upper.is_finite:
        return ()
    out = [
        Consequence(
            "CoarseBaumConnes",
            "finite asymptotic-dimension upper bound",
            "Yu: the coarse Baum-Connes conjecture holds for proper metric spaces"
            " of finite asymptotic dimension",
        ),
        Consequence(
            "Novikov",
            "finite asymptotic-dimension upper bound",
            "finite asymptotic dimension gives a coarse embedding into Hilbert space;"
            " the Novikov conjecture follows by descent (Yu)",
        ),
    ]
    if aspherical:
        out.append(
            Consequence(
                "ZeroInSpectrum",
                "finite upper bound together with asphericity",
                "the zero-in-the-spectrum conclusion holds for uniformly contractible"
                " manifolds satisfying the coarse Baum-Connes conjecture",
            )
        )
        out.append(
            Consequence(
                "NoPSCMetric",
                "finite upper bound together with asphericity",
                "a closed aspherical manifold whose fundamental group satisfies the"
                " coarse Baum-Connes conjecture carries no metric of positive scalar"
                " curvature",
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# The evaluator


class _Evaluator:
    """One bound derivation: the trace so far, and where each distinct leaf's
    steps first appear in it.

    ``eval`` keeps, for each finished node, its final step index and
    canonical text on a stack, and derives a node's own from its children's
    entries.  A leaf is derived, with ``apply_rule``'s checks, at its first
    occurrence only.  ``leaves`` maps the leaf, one node per value, to its
    first block of steps, final step and text; every later occurrence
    appends a copy of the block, its indices and refs shifted to its own
    position.
    """

    def __init__(self) -> None:
        self.steps: list[TraceStep] = []
        self.leaves: dict[GroupExpr, tuple[int, int, int, str]] = {}

    def emit(self, rule_id, subject, refs=(), literals=(), params=()):
        steps = self.steps
        produced = apply_rule(rule_id, tuple([steps[r].produced for r in refs]) + literals, params)
        steps.append(TraceStep(len(steps), rule_id, subject, produced, refs, literals, params))
        return len(steps) - 1

    def eval(self, expr: GroupExpr) -> tuple[int, str]:
        """Emit the derivation of every node, children first; the root's entry.

        ``done`` holds the entry of each finished node whose parent has not
        finished yet, so a node's children are its top entries.
        """
        done: list[tuple[int, str]] = []
        for node in postorder(expr):
            derive = _DERIVE.get(type(node))
            if derive is None:
                raise TypeError(f"not a GroupExpr: {node!r}")
            n = len(node.children())
            if not n:
                done.append(self._leaf(node, derive))
                continue
            head, tail = node.frame()
            kids = done[len(done) - n:]
            del done[len(done) - n:]
            subject = head + ",".join([k[1] for k in kids]) + tail
            idx = derive(self, node, subject, kids)
            if node._status is InfinitenessStatus.INFINITE:
                # A composite forced infinite gains the infinite-group lower
                # bound; a leaf's own steps carry its lower bound.
                lb = self.emit("R-INFINITE-LB", subject)
                idx = self.emit("R-COMBINE", subject, (idx, lb))
            done.append((idx, subject))
        return done[0]

    def _leaf(self, node: GroupExpr, derive) -> tuple[int, str]:
        """A leaf's entry: derived at its first occurrence, copied after."""
        steps = self.steps
        base = len(steps)
        known = self.leaves.get(node)
        if known is None:
            subject = node.frame()[0]
            final = derive(self, node, subject, ())
            self.leaves[node] = base, len(steps), final, subject
            return final, subject
        start, stop, final, subject = known
        shift = base - start
        new = tuple.__new__
        steps.extend([
            new(TraceStep, (i + shift, rule, text, produced,
                            tuple([r + shift for r in refs]) if refs else refs, literals, params))
            for i, rule, text, produced, refs, literals, params in steps[start:stop]
        ])
        return final + shift, subject

    def _free_product(self, expr: FreeProduct, subject: str, kids) -> int:
        # Iterated amalgam over a single shared trivial edge group, each
        # step named by the free product of the factors up to its own.
        edge = self.emit("R-FINITE", "Trivial")
        head, tail = expr.frame()
        acc, prefix = kids[0][0], head + kids[0][1]
        for ref, text in kids[1:]:
            prefix += "," + text
            acc = self.emit("R-AMALGAM", prefix + tail, refs=(acc, ref, edge))
        return acc

    def _lattice(self, expr: Lattice, subject: str, kids) -> int:
        fact = lookup_geometry(expr.geometry, expr.dim)
        if fact.compact_model:
            return self.emit("R-FINITE", subject)
        candidates = [self.emit("R-INFINITE-LB", subject)]
        rule = fact.lattice_rule
        if expr.cocompact and rule in ("R-LIE-LATTICE", "R-EUCLID", "R-SURFACE"):
            candidates.append(self.emit(rule, subject, params=(fact.dim,)))
        elif rule == "R-NAGATA":
            model = self.emit(
                "R-NAGATA", f"model({fact.name})", params=(fact.model_asdim.upper.value,)
            )
            candidates.append(self.emit("R-PROPER-ACTION", subject, refs=(model,)))
        elif rule == "R-PRODUCT":
            lits = tuple(ff.model_asdim for ff in factor_facts(fact))
            model = self.emit("R-PRODUCT", f"model({fact.name})", literals=lits)
            candidates.append(self.emit("R-PROPER-ACTION", subject, refs=(model,)))
        elif rule == "R-EXTENSION":
            # Flat torus fiber over a finite-area hyperbolic orbifold base.
            lits = (DimBound.exact(2), DimBound(0, finite(2)))
            candidates.append(self.emit("R-EXTENSION", subject, literals=lits))
        else:
            candidates.append(
                self.emit("R-PROPER-ACTION", subject, literals=(fact.model_asdim,))
            )
        if not expr.cocompact and fact.klass in ("real-hyperbolic", "complex-hyperbolic"):
            # Cusped pieces: the qualitative relative-hyperbolicity route is
            # recorded alongside the numeric one, not merged into it.
            peripheral = DimBound(0, finite(fact.dim - 1))
            candidates.append(self.emit("R-RELHYP", subject, literals=(peripheral,), params=(0,)))
        return self.emit("R-COMBINE", subject, tuple(candidates))


def _step(make: Callable[..., tuple[str, tuple[DimBound, ...], tuple[int, ...]]]):
    """A variant derived in the one step ``make(node)``, a (rule, literals,
    params) triple whose refs are the node's children's final steps."""

    def derive(ev: _Evaluator, node: GroupExpr, subject: str, kids) -> int:
        rule, literals, params = make(node)
        return ev.emit(rule, subject, tuple([k[0] for k in kids]), literals, params)

    return derive


# How each variant is derived from its children's stack entries.
_DERIVE = {
    Trivial: _step(lambda e: ("R-FINITE", (), ())),
    Finite: _step(lambda e: ("R-FINITE", (), ())),
    FreeAbelian: _step(lambda e: ("R-EUCLID", (), (e.rank,)) if e.rank else ("R-FINITE", (), ())),
    SurfaceGroup: _step(lambda e: ("R-SURFACE", (), (0 if e.kind == "spherical" else 2,))),
    Lattice: _Evaluator._lattice,
    ProperActionOn: _step(lambda e: ("R-PROPER-ACTION", (e.space_bound,), ())),
    HyperbolicGroup: _step(
        lambda e: ("R-HYP", () if e.witness_bound is None else (e.witness_bound,), ())
    ),
    RelHyperbolic: _step(
        lambda e: ("R-RELHYP", (), (0,))
        if e.ambient_bound is None
        else ("R-RELHYP", (e.ambient_bound,), (1,))
    ),
    Product: _step(lambda e: ("R-PRODUCT", (), ())),
    FreeProduct: _Evaluator._free_product,
    Amalgam: _step(lambda e: ("R-AMALGAM", (), ())),
    HNN: _step(lambda e: ("R-HNN", (), ())),
    Extension: _step(lambda e: ("R-EXTENSION", (), ())),
    Union: _step(lambda e: ("R-UNION", (), ())),
    ActsOnCover: _step(lambda e: ("R-PROPER-ACTION", (), ())),
}


def bound(expr: GroupExpr, aspherical_dim: int | None = None) -> BoundResult:
    """Best derivable bound for an expression, with its proof trace.

    ``aspherical_dim`` injects the closed-aspherical-manifold lower bound at
    the root; asphericity itself is a manifold-level fact decided by the
    caller, not inferred here.  Raises InconsistentBoundError when a lower
    bound provably exceeds a numeric upper bound.

    One iterative walk over the normalized expression emits the trace, at
    any nesting depth.  Rules are applied, with their checks, once per
    composite step and once per step of each distinct (interned) leaf; every
    repeated leaf appends a copy of its first derivation's steps.  So the cost
    is the distinct leaves' derivations plus a tuple per step and the bytes
    of the subjects of the composites.
    """
    expr = normalize(expr)
    if isinstance(expr, Trivial) and aspherical_dim is None:
        return BoundResult(DimBound.exact(0), ProofTrace(()))
    ev = _Evaluator()
    idx, subject = ev.eval(expr)
    if aspherical_dim is not None:
        lb = ev.emit("R-ASPH-LB", subject, params=(aspherical_dim,))
        idx = ev.emit("R-COMBINE", subject, (idx, lb))
    return BoundResult(ev.steps[idx].produced, ProofTrace(tuple(ev.steps)))


def lattice_bound(fact: GeometryFact) -> DimBound:
    """The catalog's lattice bound: a cocompact lattice's, with the
    closed-aspherical lower bound where closed quotients are aspherical."""
    adim = fact.dim if fact.aspherical_model else None
    return bound(Lattice(fact.name, fact.dim, True), aspherical_dim=adim).bound
