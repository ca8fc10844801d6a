"""Bound-derivation engine.

Evaluates a ``GroupExpr`` bottom-up, applying one inequality rule per node
(plus lower-bound and bookkeeping rules where they help), and returns the
componentwise-best ``DimBound`` together with a replayable proof trace.

Every rule is registered with a citation.  Rules whose justification is a
published theorem cite it by content and author; the two rules that are
engineering choices rather than literature carry the marker
"external/design-decision" in their citation text and are never presented
as anything else.

Rule arithmetic is deliberately tiny; each rule is one line.  ``bound`` is
observationally equivalent to folding ``apply_rule`` over the trace it
emits, which is what ``replay`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

from .bounds import (
    FINITE_UNKNOWN,
    UNKNOWN,
    DimBound,
    InconsistentBoundError,
    finite,
    natural_int,
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
    is_infinite,
    normalize,
    postorder,
    to_canonical,  # noqa: F401 -- kept for bench/spans.py, which patches this name
)


class UnknownRuleError(Exception):
    pass


class RuleArityError(Exception):
    pass


class MalformedTraceError(Exception):
    pass


@dataclass(frozen=True)
class Rule:
    id: str
    description: str
    citation: str
    shape: str


def _sum_uppers(inputs):
    total = finite(0)
    for b in inputs:
        total = total + b.upper
    return total


def _max_uppers(inputs):
    return max(b.upper for b in inputs)


def _relhyp(inputs, params):
    if params[0] == 1:
        return DimBound(0, inputs[-1].upper)
    if all(b.upper.is_finite for b in inputs):
        return DimBound(0, FINITE_UNKNOWN)
    return DimBound(0, UNKNOWN)


def _combine(inputs):
    return DimBound(max(b.lower for b in inputs), min(b.upper for b in inputs))


# id -> (rule record, (min inputs, max inputs or None, param count), arithmetic)
_TABLE = {
    "R-FINITE": (
        Rule(
            "R-FINITE",
            "finite groups have asymptotic dimension zero",
            "a finitely generated group has asymptotic dimension zero exactly when it is finite",
            "no inputs, no params -> [0,0]",
        ),
        (0, 0, 0),
        lambda ins, ps: DimBound.exact(0),
    ),
    "R-INFINITE-LB": (
        Rule(
            "R-INFINITE-LB",
            "infinite groups have asymptotic dimension at least one",
            "an infinite finitely generated group has asymptotic dimension at least one"
            " (contrapositive of the dimension-zero characterization)",
            "no inputs, no params -> [1,?]",
        ),
        (0, 0, 0),
        lambda ins, ps: DimBound(1, UNKNOWN),
    ),
    "R-EUCLID": (
        Rule(
            "R-EUCLID",
            "free abelian groups have exact asymptotic dimension equal to their rank",
            "the free abelian group of rank n has asymptotic dimension exactly n",
            "no inputs, params (n,) -> [n,n]",
        ),
        (0, 0, 1),
        lambda ins, ps: DimBound.exact(ps[0]),
    ),
    "R-SURFACE": (
        Rule(
            "R-SURFACE",
            "closed-surface groups: dimension zero (spherical) or exactly two (flat, hyperbolic)",
            "fundamental groups of closed surfaces: finite in the spherical case,"
            " asymptotic dimension two in the flat and hyperbolic cases",
            "no inputs, params (d,) with d in {0,2} -> [d,d]",
        ),
        (0, 0, 1),
        lambda ins, ps: DimBound.exact(ps[0]),
    ),
    "R-LIE-LATTICE": (
        Rule(
            "R-LIE-LATTICE",
            "cocompact lattices in Lie groups have exact asymptotic dimension dim(G/K)",
            "Carlsson-Goldfarb: a cocompact lattice in a connected Lie group G with"
            " maximal compact subgroup K has asymptotic dimension dim(G/K)",
            "no inputs, params (d,) -> [d,d]",
        ),
        (0, 0, 1),
        lambda ins, ps: DimBound.exact(ps[0]),
    ),
    "R-PROPER-ACTION": (
        Rule(
            "R-PROPER-ACTION",
            "a properly acting group is bounded by the space it acts on",
            "a group Γ acting properly and isometrically on a proper metric space M"
            " satisfies asdim Γ ≤ asdim M",
            "one input -> [0, upper(input)]",
        ),
        (1, 1, 0),
        lambda ins, ps: DimBound(0, ins[0].upper),
    ),
    "R-EXTENSION": (
        Rule(
            "R-EXTENSION",
            "group extensions are bounded by kernel plus quotient",
            "Bell-Dranishnikov extension theorem: for 1 -> K -> G -> Q -> 1,"
            " asdim G ≤ asdim K + asdim Q",
            "two inputs -> [0, upper(K) + upper(Q)]",
        ),
        (2, 2, 0),
        lambda ins, ps: DimBound(0, _sum_uppers(ins)),
    ),
    "R-PRODUCT": (
        Rule(
            "R-PRODUCT",
            "direct products are bounded by the sum of the factors",
            "the asymptotic dimension of a direct product is at most the sum of the"
            " asymptotic dimensions of its factors",
            ">=1 inputs -> [0, sum of uppers]",
        ),
        (1, None, 0),
        lambda ins, ps: DimBound(0, _sum_uppers(ins)),
    ),
    "R-UNION": (
        Rule(
            "R-UNION",
            "finite unions of subspaces are bounded by the largest piece",
            "Bell-Dranishnikov finite union theorem: a space covered by finitely many"
            " subspaces has asymptotic dimension at most the maximum over the subspaces",
            ">=1 inputs -> [0, max of uppers]",
        ),
        (1, None, 0),
        lambda ins, ps: DimBound(0, _max_uppers(ins)),
    ),
    "R-AMALGAM": (
        Rule(
            "R-AMALGAM",
            "amalgamated products over an edge group",
            "Bell-Dranishnikov: asdim(A *_C B) ≤ max{asdim A, asdim B, asdim C + 1}",
            "three inputs (A, B, C) -> [0, max{upper(A), upper(B), upper(C)+1}]",
        ),
        (3, 3, 0),
        lambda ins, ps: DimBound(0, max(ins[0].upper, ins[1].upper, ins[2].upper + finite(1))),
    ),
    "R-HNN": (
        Rule(
            "R-HNN",
            "HNN extensions over an edge group",
            "external/design-decision: HNN analogue of the amalgam bound,"
            " asdim(A *_C) ≤ max{asdim A, asdim C + 1}; adopted without a literature anchor",
            "two inputs (A, C) -> [0, max{upper(A), upper(C)+1}]",
        ),
        (2, 2, 0),
        lambda ins, ps: DimBound(0, max(ins[0].upper, ins[1].upper + finite(1))),
    ),
    "R-HYP": (
        Rule(
            "R-HYP",
            "hyperbolic groups have finite asymptotic dimension",
            "Gromov-hyperbolic groups have finite asymptotic dimension (Roe)",
            "zero or one input -> witness bound if given, else [0,fin]",
        ),
        (0, 1, 0),
        lambda ins, ps: ins[0] if ins else DimBound(0, FINITE_UNKNOWN),
    ),
    "R-RELHYP": (
        Rule(
            "R-RELHYP",
            "relatively hyperbolic groups inherit finiteness from their peripherals",
            "Osin: a group hyperbolic relative to peripheral subgroups of finite"
            " asymptotic dimension has finite asymptotic dimension",
            "peripheral inputs (+ ambient input last when params=(1,)) -> [0, fin/ambient]",
        ),
        (1, None, 1),
        _relhyp,
    ),
    "R-NAGATA": (
        Rule(
            "R-NAGATA",
            "Nagata dimension bounds asymptotic dimension from above",
            "Lang-Schlichenmaier: asymptotic dimension is at most Nagata dimension;"
            " for the complex hyperbolic plane the Nagata dimension is four",
            "no inputs, params (n,) -> [0,n]",
        ),
        (0, 0, 1),
        lambda ins, ps: DimBound(0, finite(ps[0])),
    ),
    "R-ASPH-LB": (
        Rule(
            "R-ASPH-LB",
            "closed aspherical n-manifolds force a lower bound of n",
            "for a closed aspherical n-manifold, asdim π1 ≥ cd π1 = n"
            " (cohomological-dimension lower bound)",
            "no inputs, params (n,) -> [n,?]",
        ),
        (0, 0, 1),
        lambda ins, ps: DimBound(ps[0], UNKNOWN),
    ),
    "R-COMBINE": (
        Rule(
            "R-COMBINE",
            "componentwise best of several derivations for the same group",
            "external/design-decision: componentwise best of independently derived"
            " bounds (max of lowers, min of uppers); bookkeeping, not a theorem",
            ">=1 inputs -> [max of lowers, min of uppers]",
        ),
        (1, None, 0),
        lambda ins, ps: _combine(ins),
    ),
}

RULES = MappingProxyType({rid: entry[0] for rid, entry in _TABLE.items()})


def list_rules() -> tuple[Rule, ...]:
    return tuple(entry[0] for entry in _TABLE.values())


def apply_rule(
    rule_id: str,
    inputs: Sequence[DimBound],
    params: Sequence[int] = (),
) -> DimBound:
    """Pure arithmetic of a single rule application."""
    entry = _TABLE.get(rule_id)
    if entry is None:
        raise UnknownRuleError(f"unknown rule {rule_id!r}")
    rule, (lo, hi, nparams), arith = entry
    ins = tuple(inputs)
    ps = tuple(params)
    if len(ins) < lo or (hi is not None and len(ins) > hi):
        raise RuleArityError(f"{rule_id} takes {rule.shape}; got {len(ins)} inputs")
    if len(ps) != nparams:
        raise RuleArityError(f"{rule_id} takes {nparams} params; got {len(ps)}")
    if rule_id == "R-SURFACE" and ps[0] not in (0, 2):
        raise RuleArityError(f"R-SURFACE param must be 0 or 2, got {ps[0]}")
    if nparams and ps[0] < 0:
        raise RuleArityError(f"{rule_id} param must be non-negative, got {ps[0]}")
    if rule_id == "R-RELHYP":
        if ps[0] not in (0, 1):
            raise RuleArityError(f"R-RELHYP param must be 0 or 1, got {ps[0]}")
        if ps[0] == 1 and len(ins) < 2:
            raise RuleArityError("R-RELHYP with an ambient bound needs >= 2 inputs")
    return arith(ins, ps)


# ---------------------------------------------------------------------------
# Proof traces


@dataclass(frozen=True)
class TraceStep:
    """One rule application in SSA form.

    ``refs`` point at earlier steps whose produced bounds feed this one;
    ``literals`` are bounds injected from outside the trace (catalog values,
    witness bounds); ``params`` are the rule's integer parameters.  Inputs
    are assembled as refs-then-literals, in order.
    """

    index: int
    rule_id: str
    subject: str
    produced: DimBound
    refs: tuple[int, ...] = ()
    literals: tuple[DimBound, ...] = ()
    params: tuple[int, ...] = ()


@dataclass(frozen=True)
class ProofTrace:
    steps: tuple[TraceStep, ...]


@dataclass(frozen=True)
class BoundResult:
    bound: DimBound
    trace: ProofTrace


def replay(trace: ProofTrace) -> DimBound:
    """Recompute the final bound from the steps alone.

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
        ins = [produced[r] for r in step.refs] + list(step.literals)
        try:
            recomputed = apply_rule(step.rule_id, ins, step.params)
        except (UnknownRuleError, RuleArityError, InconsistentBoundError, ValueError) as exc:
            raise MalformedTraceError(f"step {pos} does not replay: {exc}") from exc
        if recomputed != step.produced:
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
    integers for params.
    """
    lines = []
    for s in trace.steps:
        tokens = (
            [f"@{r}" for r in s.refs]
            + [str(b) for b in s.literals]
            + [str(p) for p in s.params]
        )
        subject = s.subject if not tokens else f"{s.subject} <- {' '.join(tokens)}"
        lines.append(f"{s.index}\t{s.rule_id}\t{subject}\t{s.produced}")
    return "".join(line + "\n" for line in lines)


def parse_trace(text: str) -> ProofTrace:
    # A trace repeats a handful of distinct bound tokens; parse each once.
    bounds: dict[str, DimBound] = {}

    def parse_bound(token: str) -> DimBound:
        parsed = bounds.get(token)
        if parsed is None:
            parsed = bounds[token] = DimBound.parse(token)
        return parsed

    steps = []
    for lineno, line in enumerate(text.splitlines()):
        fields = line.split("\t")
        if len(fields) != 4:
            raise MalformedTraceError(f"line {lineno + 1}: expected 4 fields, got {len(fields)}")
        raw_index, rule_id, subject_field, raw_bound = fields
        try:
            index = natural_int(raw_index)
            produced = parse_bound(raw_bound)
        except (ValueError, InconsistentBoundError) as exc:
            raise MalformedTraceError(f"line {lineno + 1}: {exc}") from exc
        subject = subject_field
        refs: list[int] = []
        literals: list[DimBound] = []
        params: list[int] = []
        if " <- " in subject_field:
            subject, _, tail = subject_field.rpartition(" <- ")
            for token in tail.split(" "):
                try:
                    if token.startswith("@"):
                        refs.append(natural_int(token[1:]))
                    elif ".." in token:
                        literals.append(parse_bound(token))
                    else:
                        params.append(natural_int(token))
                except (ValueError, InconsistentBoundError) as exc:
                    raise MalformedTraceError(f"line {lineno + 1}: bad token {token!r}") from exc
        steps.append(
            TraceStep(index, rule_id, subject, produced, tuple(refs), tuple(literals), tuple(params))
        )
    return ProofTrace(tuple(steps))


# ---------------------------------------------------------------------------
# Consequences


@dataclass(frozen=True)
class Consequence:
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


# Composite variants whose upper bound is one rule over their parts' bounds.
_PART_RULES = {
    Product: "R-PRODUCT",
    ActsOnCover: "R-PROPER-ACTION",
    Amalgam: "R-AMALGAM",
    HNN: "R-HNN",
    Extension: "R-EXTENSION",
    Union: "R-UNION",
}


class _Evaluator:
    """One bound derivation: the trace so far plus per-node memos.

    ``subjects`` and ``status`` map ``id(node)`` to the node's canonical text
    and infiniteness.  Both are filled during the walk from the children's
    entries, so each distinct node costs O(children) calls however often it
    occurs; the caller keeps the expression alive while the memos are used.
    """

    def __init__(self) -> None:
        self.steps: list[TraceStep] = []
        self.subjects: dict[int, str] = {}
        self.status: dict[int, InfinitenessStatus] = {}

    def emit(self, rule_id, subject, refs=(), literals=(), params=()):
        ins = [self.steps[r].produced for r in refs] + list(literals)
        produced = apply_rule(rule_id, ins, params)
        step = TraceStep(
            index=len(self.steps),
            rule_id=rule_id,
            subject=subject,
            produced=produced,
            refs=tuple(refs),
            literals=tuple(literals),
            params=tuple(params),
        )
        self.steps.append(step)
        return step.index

    def combine(self, subject, candidates):
        if len(candidates) == 1:
            return candidates[0]
        return self.emit("R-COMBINE", subject, refs=tuple(candidates))

    def _lb_refined(self, expr, subject, main_idx):
        # Append the infinite-group lower bound when the structural predicate
        # forces it; UNDETERMINED never produces a lower bound.
        if is_infinite(expr, self.status) is InfinitenessStatus.INFINITE:
            lb = self.emit("R-INFINITE-LB", subject)
            return self.combine(subject, [main_idx, lb])
        return main_idx

    def subject(self, expr: GroupExpr) -> str:
        key = id(expr)
        text = self.subjects.get(key)
        if text is None:
            head, tail = expr.frame()
            text = head + ",".join([self.subjects[id(k)] for k in expr.children()]) + tail
            self.subjects[key] = text
        return text

    def eval(self, expr: GroupExpr) -> int:
        """Emit the derivation of every node, children first; the root's step index.

        ``done`` holds the final step index of each finished node whose
        parent has not finished yet, so a node's children are its top entries.
        """
        done: list[int] = []
        for node in postorder(expr):
            n = len(node.children())
            refs = tuple(done[len(done) - n:])
            del done[len(done) - n:]
            done.append(self._node(node, self.subject(node), refs))
        return done[0]

    def _node(self, expr: GroupExpr, subject: str, refs: tuple[int, ...]) -> int:
        rule = _PART_RULES.get(type(expr))
        if rule is not None:
            return self._lb_refined(expr, subject, self.emit(rule, subject, refs=refs))
        if isinstance(expr, (Trivial, Finite)):
            return self.emit("R-FINITE", subject)
        if isinstance(expr, FreeAbelian):
            if expr.rank == 0:
                return self.emit("R-FINITE", subject)
            return self.emit("R-EUCLID", subject, params=(expr.rank,))
        if isinstance(expr, SurfaceGroup):
            d = 0 if expr.kind == "spherical" else 2
            return self.emit("R-SURFACE", subject, params=(d,))
        if isinstance(expr, Lattice):
            return self._lattice(expr, subject)
        if isinstance(expr, FreeProduct):
            return self._free_product(expr, subject, refs)
        if isinstance(expr, ProperActionOn):
            return self.emit("R-PROPER-ACTION", subject, literals=(expr.space_bound,))
        if isinstance(expr, HyperbolicGroup):
            lits = () if expr.witness_bound is None else (expr.witness_bound,)
            return self.emit("R-HYP", subject, literals=lits)
        if isinstance(expr, RelHyperbolic):
            if expr.ambient_bound is None:
                return self.emit("R-RELHYP", subject, refs=refs, params=(0,))
            return self.emit(
                "R-RELHYP", subject, refs=refs, literals=(expr.ambient_bound,), params=(1,)
            )
        raise TypeError(f"not a GroupExpr: {expr!r}")

    def _free_product(self, expr: FreeProduct, subject: str, factor_refs: tuple[int, ...]):
        # Iterated amalgam over a single shared trivial edge group, each
        # step named by the free product of the factors up to its own.
        edge = self.emit("R-FINITE", "Trivial")
        head, tail = expr.frame()
        prefix, acc = head + self.subjects[id(expr.factors[0])], factor_refs[0]
        for factor, ref in zip(expr.factors[1:], factor_refs[1:]):
            prefix += "," + self.subjects[id(factor)]
            acc = self.emit("R-AMALGAM", prefix + tail, refs=(acc, ref, edge))
        return self._lb_refined(expr, subject, acc)

    def _lattice(self, expr: Lattice, subject: str):
        fact = lookup_geometry(expr.geometry, expr.dim)
        if fact.compact_model:
            return self.emit("R-FINITE", subject)
        candidates = [self.emit("R-INFINITE-LB", subject)]
        rule = fact.lattice_rule
        if expr.cocompact and rule in ("R-LIE-LATTICE", "R-EUCLID", "R-SURFACE"):
            param = 2 if rule == "R-SURFACE" else fact.dim
            candidates.append(self.emit(rule, subject, params=(param,)))
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
        return self.combine(subject, candidates)


def bound(expr: GroupExpr, aspherical_dim: int | None = None) -> BoundResult:
    """Best derivable bound for an expression, with its proof trace.

    ``aspherical_dim`` injects the closed-aspherical-manifold lower bound at
    the root; asphericity itself is a manifold-level fact decided by the
    caller, not inferred here.  Raises InconsistentBoundError when a lower
    bound provably exceeds a numeric upper bound.

    One iterative walk over the normalized expression emits the trace; its
    cost is linear in the number of expression nodes plus the bytes of the
    subjects it writes, at any nesting depth.
    """
    expr = normalize(expr)
    if isinstance(expr, Trivial) and aspherical_dim is None:
        return BoundResult(DimBound.exact(0), ProofTrace(()))
    ev = _Evaluator()
    idx = ev.eval(expr)
    if aspherical_dim is not None:
        subject = ev.subjects[id(expr)]
        lb = ev.emit("R-ASPH-LB", subject, params=(aspherical_dim,))
        idx = ev.combine(subject, [idx, lb])
    return BoundResult(ev.steps[idx].produced, ProofTrace(tuple(ev.steps)))


def lattice_bound(fact: GeometryFact) -> DimBound:
    """The catalog's lattice bound: a cocompact lattice's, with the
    closed-aspherical lower bound where closed quotients are aspherical."""
    adim = fact.dim if fact.aspherical_model else None
    return bound(Lattice(fact.name, fact.dim, True), aspherical_dim=adim).bound
