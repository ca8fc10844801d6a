"""Seeded input generators for the four workloads.

A workload's inputs come in decks: deck i of seed s is a list of plain
data (DSL text, instance tuples, argv templates) built from
random.Random(f"{workload}:{s}:{i}") alone, so the same seed always gives
byte-identical inputs.  Each deck has a fixed composition of slots (size
tier, family class) and the seed fills in the details and the order, so
every deck costs about the same.  A run cycles through the same few decks
(its op set) again and again; see run.py.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from make_search_table import SEARCH_B, SEARCH_BALLS, SEARCH_D
from reference import BAD_FIXTURES, FIXTURES, PIECES

EDGE_TYPES = {4: ("flat3", "nil3"), 3: ("torus2", "klein2", "surface2")}
GRAPH_POOLS = {
    "d4.hyp": ("H4", "H3xE", "H2xE2", "SL2~xE"),
    "d4.cplx": ("H2C", "F4"),
    "d4.sph": ("S2xE2", "S2xH2"),
    "d4.h2xh2": ("H2xH2",),
    "d3.asph": ("E3", "Nil3", "Sol3", "H2xE", "SL2~", "H3"),
}
D3_NON_ASPHERICAL = ("S2xE", "S3")
ASPHERICAL_PIECES = {d: tuple(g for g, (_, v) in PIECES[d].items() if v == "Aspherical") for d in (3, 4)}
CERTIFY_KINDS = (
    "d4.hyp", "d4.cplx", "d4.sph", "d4.h2xh2", "d3.asph", "d3.mixed", "d3.alex", "d4.sum", "d3.sum",
)
SHAPES = ("chain", "star", "tree")


def rng_for(workload: str, seed: int, deck: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{deck}")


# ---------------------------------------------------------------------------
# certify


@dataclass(frozen=True)
class CertifyCase:
    family: str  # key into reference.FIXTURES (as "fixture:<path>") or reference.FAMILIES
    text: str
    vertices: int  # total graph vertices, 0 for fixtures


def _edges(rng: random.Random, n: int, shape: str, loops: int) -> list[tuple[int, int]]:
    if shape == "chain":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        hub = rng.randrange(n)
        edges = [(hub, i) for i in range(n) if i != hub]
    else:
        edges = [(rng.randrange(i), i) for i in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(loops)]
    return [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]


def _graph(rng, name, dim, geometries, injective, loops, shape) -> list[str]:
    n = len(geometries)
    lines = [f"graph {name} {{"]
    lines += [f"  v v{i} {g};" for i, g in enumerate(geometries)]
    etypes = EDGE_TYPES[dim]
    lines += [f"  e v{a} v{b} {rng.choice(etypes)};" for a, b in _edges(rng, n, shape, loops)]
    lines += [f"  pi1_injective {'true' if injective else 'false'};", "}"]
    return lines


def _pool_graph(rng, kind, n, injective, loops, name="g", shape=None):
    """Graph lines plus its family suffix, for one of the graph kinds."""
    dim = 3 if kind.startswith("d3") else 4
    if kind == "d3.mixed":
        geos = [rng.choice(GRAPH_POOLS["d3.asph"] + D3_NON_ASPHERICAL) for _ in range(n)]
        geos[0] = rng.choice(GRAPH_POOLS["d3.asph"])
        geos[1] = rng.choice(D3_NON_ASPHERICAL)
        rng.shuffle(geos)
    else:
        geos = [rng.choice(GRAPH_POOLS[kind]) for _ in range(n)]
    suffix = ("loops" if loops else "tree") if injective else "union"
    return _graph(rng, name, dim, geos, injective, loops, shape or rng.choice(SHAPES)), suffix


def certify_case(rng: random.Random, kind: str, n: int, injective: bool, shape: str | None = None) -> CertifyCase:
    """One generated description with n >= 2 graph vertices in total; the
    seed picks the graph's shape unless it is given."""
    loops = rng.choice((0, 0, 1, 2, 3)) if n > 2 else 0
    if kind in GRAPH_POOLS or kind == "d3.mixed":
        dim = 3 if kind.startswith("d3") else 4
        lines, suffix = _pool_graph(rng, kind, n, injective, loops, shape=shape)
        family = f"{kind}.{suffix}"
        body = [f"dim {dim};"] + lines
    elif kind == "d3.alex":
        lines, _ = _pool_graph(rng, "d3.asph", n, True, loops, shape=shape)
        singular = rng.random() < 0.5
        family = "d3.alex.singular" if singular else "d3.alex.empty"
        body = ["dim 3;"] + lines + [f"alexandrov {'true' if singular else 'false'};"]
    else:
        dim = 4 if kind == "d4.sum" else 3
        graph_kinds = [k for k in (*GRAPH_POOLS, "d3.mixed") if k.startswith(f"d{dim}")]
        names = ["s0"]
        body = [f"dim {dim};", f"piece s0 {rng.choice(ASPHERICAL_PIECES[dim])};"]
        for j in range(1, rng.randint(2, 5)):
            names.append(f"s{j}")
            body.append(f"piece s{j} {rng.choice(tuple(PIECES[dim]))};")
        graph_lines, _ = _pool_graph(rng, rng.choice(graph_kinds), n, injective, loops, name="g", shape=shape)
        body += graph_lines
        names.insert(rng.randrange(1, len(names) + 1), "g")
        body.append("sum " + " # ".join(names) + ";")
        family = kind
    return CertifyCase(family, "".join(line + "\n" for line in body), n)


def _stratified(rng: random.Random, lo: int, hi: int, slots: int, log: bool, jitter: float = 0.5) -> list[int]:
    """One value per equal slice of [lo, hi] (of log-space when log), drawn
    from the middle `jitter` share of its slice, so decks of any seed cost
    alike."""
    out = []
    for j in range(slots):
        u = (j + 0.5 + jitter * (rng.random() - 0.5)) / slots
        out.append(round(lo * (hi / lo) ** u) if log else round(lo + (hi - lo) * u))
    return out


CERTIFY_FIXTURE_SLOTS = 6
CERTIFY_SMALL_SLOTS = 21
# Medium slots j = 0..9 span 31..280 vertices log-uniformly; these three
# are non-injective (cheap unions), the rest injective (iterated amalgams).
CERTIFY_MEDIUM_UNIONS = (1, 5, 8)
CERTIFY_MEDIUM_SLOTS = 10
# Deep slots span 400..1000 vertices and are non-injective (unions): an
# injective graph that deep raises RecursionError in the engine today, so
# those go to the traced run's probe (deep_probe_cases) instead, where the
# failures are counted without failing the timed ops.  An Alexandrov space
# is always injective, so it has no deep slot.
CERTIFY_DEEP_SLOTS = 3
CERTIFY_DEEP_KINDS = tuple(k for k in CERTIFY_KINDS if k != "d3.alex")
# The probe: one injective graph per (kind, size); each should bound to its
# family's reference interval.
DEEP_PROBE_KINDS = ("d4.hyp", "d4.cplx", "d3.asph", "d3.alex", "d4.sum")
DEEP_PROBE_SIZES = (400, 700, 1000)


def deep_probe_cases(seed: int) -> list[CertifyCase]:
    rng = rng_for("certify-probe", seed, 0)
    return [certify_case(rng, kind, n, injective=True) for kind in DEEP_PROBE_KINDS for n in DEEP_PROBE_SIZES]


def anchor_case() -> CertifyCase:
    """A 300-vertex injective chain of F4 pieces, the longest subjects per
    vertex of any generated graph: every run starts with it, so peak memory
    does not depend on which large graphs a seed happens to draw."""
    lines = ["dim 4;", "graph g {"] + [f"  v v{i} F4;" for i in range(300)]
    lines += [f"  e v{i} v{i + 1} flat3;" for i in range(299)] + ["  pi1_injective true;", "}"]
    return CertifyCase("d4.cplx.tree", "".join(line + "\n" for line in lines), 300)


def certify_deck(seed: int, deck: int, fixtures_dir: Path) -> list[CertifyCase]:
    rng = rng_for("certify", seed, deck)
    order = sorted(FIXTURES)
    random.Random(f"certify-fixtures:{seed}").shuffle(order)
    cases = []
    for j in range(CERTIFY_FIXTURE_SLOTS):
        rel = order[(deck * CERTIFY_FIXTURE_SLOTS + j) % len(order)]
        cases.append(CertifyCase(f"fixture:{rel}", (fixtures_dir / rel).read_text(), 0))
    kinds = list(CERTIFY_KINDS)
    rng.shuffle(kinds)
    for j, n in enumerate(_stratified(rng, 2, 30, CERTIFY_SMALL_SLOTS, log=False)):
        cases.append(certify_case(rng, kinds[j % len(kinds)], n, injective=j % 3 != 2))
    # medium and deep slots set the tail latencies: they take their kinds
    # (the cost per vertex) and shapes in a fixed rotation and their sizes
    # from the middle tenth of their slices
    for j, n in enumerate(_stratified(rng, 31, 280, CERTIFY_MEDIUM_SLOTS, log=True, jitter=0.1)):
        kind = CERTIFY_KINDS[(deck * CERTIFY_MEDIUM_SLOTS + j) % len(CERTIFY_KINDS)]
        shape = SHAPES[(deck + j) % len(SHAPES)]
        cases.append(certify_case(rng, kind, n, j not in CERTIFY_MEDIUM_UNIONS, shape))
    for j, n in enumerate(_stratified(rng, 400, 1000, CERTIFY_DEEP_SLOTS, log=False, jitter=0.1)):
        kind = CERTIFY_DEEP_KINDS[(deck * CERTIFY_DEEP_SLOTS + j) % len(CERTIFY_DEEP_KINDS)]
        shape = SHAPES[(deck + j) % len(SHAPES)]
        cases.append(certify_case(rng, kind, n, False, shape))
    rng.shuffle(cases)
    return [anchor_case()] + cases if deck == 0 else cases


# ---------------------------------------------------------------------------
# cover


@dataclass(frozen=True)
class CoverCase:
    op: str  # "ball" or "brick"
    family: str  # GroupSpec family, "FreeAbelian" for bricks
    rank: int
    radius: int
    D: int = 0  # brick separation


# Light ball radii per spec, chosen so one build takes roughly 1..150 ms.
BALL_RADII = {
    ("FreeAbelian", 1): (100, 1500),
    ("FreeAbelian", 2): (8, 25),
    ("FreeAbelian", 3): (3, 9),
    ("FreeGroup", 1): (20, 150),
    ("FreeGroup", 2): (2, 5),
    ("Heisenberg3", 0): (2, 5),
}
# Brick cycles: per rank, a (D, radius) grid in three cost tiers (cheap,
# middle, dear).  Light deck j takes a cell of tier j % 3 per rank, the seed
# picking the cell where a tier has two and the order, so three light decks
# cost the same for every seed (the rank-2 and rank-3 cells set the tail
# latencies).  Rank-1 radii stay small enough that verifying all
# same-family subset pairs takes well under a second.
BRICK_GRIDS = {
    1: (((5, 200), (2, 200)), ((3, 300), (4, 300)), ((1, 200), (2, 300))),
    2: (((1, 12),), ((2, 20),), ((2, 28),)),
    3: (((1, 8),), ((2, 10),), ((3, 12),)),
}
# Brick covers that leave one family empty: format_witness writes family
# indices that parse_witness rejects as not contiguous today.  They stay out
# of the timed decks and form the traced run's round-trip probe.
BRICK_PROBE = ((2, 2, 4), (2, 3, 6), (3, 2, 5), (3, 1, 3), (3, 2, 8), (3, 3, 10))
# Deck 0 of every seed is this fixed list of heavy ops, so every pass over
# a run's op set builds the Z^2 radius-60 ball (two 214 MB distance
# matrices in one brick cycle) and the other large balls once; decks 1, 2,
# ... are light.
COVER_HEAVY = (
    CoverCase("brick", "FreeAbelian", 2, 60, 5),
    CoverCase("brick", "FreeAbelian", 1, 2000, 2),
    CoverCase("ball", "FreeAbelian", 3, 12),
    CoverCase("ball", "FreeGroup", 2, 6),
    CoverCase("ball", "Heisenberg3", 0, 7),
    CoverCase("ball", "FreeAbelian", 1, 3000),
    CoverCase("ball", "FreeGroup", 1, 200),
    # with the light decks' dearest bricks these make a cluster of ops of
    # 140-280 ms, and the 90th percentile falls inside it, not on its edge
    CoverCase("ball", "FreeAbelian", 2, 36),
    CoverCase("ball", "FreeAbelian", 3, 11),
    CoverCase("ball", "FreeGroup", 1, 180),
)
# Four balls per spec and deck at the midpoints of four slices of the light
# range: ball cost grows with the square or cube of the radius, so the seed
# only orders them.
COVER_BALL_SLOTS = 4


def cover_deck(seed: int, deck: int) -> list[CoverCase]:
    if deck == 0:
        return list(COVER_HEAVY)
    rng = rng_for("cover", seed, deck)
    cases = []
    for (family, rank), (lo, hi) in BALL_RADII.items():
        for r in _stratified(rng, lo, hi, COVER_BALL_SLOTS, log=False, jitter=0.0):
            cases.append(CoverCase("ball", family, rank, r))
    for rank, tiers in BRICK_GRIDS.items():
        D, r = rng.choice(tiers[deck % len(tiers)])
        cases.append(CoverCase("brick", "FreeAbelian", rank, r, D))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# search


@dataclass(frozen=True)
class SearchCase:
    family: str
    rank: int
    radius: int
    D: int
    B: int
    k_max: int


# Deep instances (D=4, B=3 on the 13- and 17-point balls) search every
# colouring up to k=3 or 4; k_max=3 gives k=none, k_max=4 gives k=4.
SEARCH_DEEP_BALLS = (("Heisenberg3", 0, 2), ("FreeGroup", 2, 2), ("FreeGroup", 2, 2), ("FreeAbelian", 2, 2))
SEARCH_SHALLOW_SLOTS = 16


def _is_deep(family, rank, radius, D, B) -> bool:
    return (family, rank, radius) in SEARCH_DEEP_BALLS and (D, B) == (4, 3)


SHALLOW_INSTANCES = tuple(
    (f, rk, r, D, B)
    for f, rk, r in SEARCH_BALLS
    for D in SEARCH_D
    for B in SEARCH_B
    if not _is_deep(f, rk, r, D, B)
)


def search_deck(seed: int, deck: int) -> list[SearchCase]:
    """Shallow slots walk the balls in a fixed cycle, so each run sees every
    ball about equally often, and k_max in another; the seed picks D and B."""
    rng = rng_for("search", seed, deck)
    cases = []
    for j in range(SEARCH_SHALLOW_SLOTS):
        ball = SEARCH_BALLS[(deck * SEARCH_SHALLOW_SLOTS + j) % len(SEARCH_BALLS)]
        pool = [inst for inst in SHALLOW_INSTANCES if inst[:3] == ball]
        cases.append(SearchCase(*rng.choice(pool), 1 + (deck + j) % 4))
    # deep slots alternate k_max 3 (k=none) and 4 (k=4) by deck, so every
    # run of an even number of decks has as many of each
    cases += [SearchCase(f, rk, r, 4, 3, 3 + (deck + i) % 2) for i, (f, rk, r) in enumerate(SEARCH_DEEP_BALLS)]
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# cli


@dataclass(frozen=True)
class CliCase:
    kind: str  # one of CLI_KINDS
    argv: tuple[str, ...]  # after "python -m asdimlab.cli"; "{witness}" is a placeholder
    golden: str | None = None  # file name under tests/golden when byte equality applies
    tamper: bool = False  # cover_verify: overstate B first, so exit 1 is expected


CLI_KINDS = (
    "bound", "bound_trace", "bound_structured", "error", "catalog", "catalog_structured",
    "cover_build", "cover_build_file", "cover_verify", "cover_search",
)


# (rank, D, radius) of the witness each deck builds to a file and verifies,
# in three tiers of like size: deck j takes a cell of tier j % 3, the seed
# picking which, so every run of three decks builds one Z^3 radius-10 ball
# (the largest child process of the mix) and costs about the same.
CLI_BUILD_TIERS = (
    ((1, 1, 20), (1, 2, 40), (1, 3, 60)),
    ((2, 1, 6), (2, 2, 10), (2, 1, 5), (2, 2, 12)),
    ((3, 1, 10), (3, 2, 10)),
)
CLI_BUILD_GRID = tuple(cell for tier in CLI_BUILD_TIERS for cell in tier)


def cli_deck(seed: int, deck: int) -> list[CliCase]:
    """One command of each kind; cover_verify reads what cover_build_file wrote."""
    rng = rng_for("cli", seed, deck)
    good = sorted(FIXTURES)
    fx = "tests/fixtures/"
    cases = []
    pick = rng.choice(good)
    cases.append(CliCase("bound", ("bound", fx + pick)))
    if rng.random() < 0.25:
        cases.append(CliCase("bound_trace", ("bound", fx + "d3_h3.mfd", "--trace"), "h3_text.txt"))
    else:
        cases.append(CliCase("bound_trace", ("bound", fx + rng.choice(good), "--trace")))
    if rng.random() < 0.25:
        cases.append(CliCase("bound_structured", ("bound", fx + "five_summands.mfd", "--format",
                                                  "structured", "--trace"), "five_summands_structured.json"))
    else:
        cases.append(CliCase("bound_structured", ("bound", fx + rng.choice(good), "--trace", "--format",
                                                  "structured")))
    cases.append(CliCase("error", ("bound", fx + "bad/" + rng.choice(BAD_FIXTURES))))
    cases.append(CliCase("catalog", ("catalog", "--dim", str(rng.choice((2, 3, 4))))))
    dim = rng.choice((2, 3, 4))
    cases.append(CliCase("catalog_structured", ("catalog", "--dim", str(dim), "--format", "structured"),
                         "catalog_dim3.json" if dim == 3 else None))
    if rng.random() < 0.25:
        cases.append(CliCase("cover_build", ("cover", "build", "--rank", "1", "-D", "2", "--radius", "8"),
                             "brick_r1.txt"))
    else:
        rank = rng.randint(1, 2)
        radius = rng.randint(5, 60) if rank == 1 else rng.randint(3, 12)
        cases.append(CliCase("cover_build", ("cover", "build", "--rank", str(rank), "-D",
                                             str(rng.randint(1, 3)), "--radius", str(radius))))
    rank, D, radius = rng.choice(CLI_BUILD_TIERS[deck % len(CLI_BUILD_TIERS)])
    cases.append(CliCase("cover_build_file", ("cover", "build", "--rank", str(rank), "-D", str(D),
                                              "--radius", str(radius), "-o", "{witness}")))
    cases.append(CliCase("cover_verify", ("cover", "verify", "{witness}"), tamper=rng.random() < 0.5))
    f, rk, r, D, B = rng.choice(SHALLOW_INSTANCES)
    spec = f if f == "Heisenberg3" else f"{f}({rk})"
    cases.append(CliCase("cover_search", ("cover", "search", "--group", spec, "--radius", str(r), "-D",
                                          str(D), "-B", str(B), "--k-max", str(rng.randint(1, 4)))))
    head, tail = cases[:7], cases[7:]
    rng.shuffle(head)
    # keep build-to-file before verify; place the pair at a seeded position
    pair = tail[:2]
    rest = head + [tail[2]]
    rng.shuffle(rest)
    at = rng.randrange(len(rest) + 1)
    return rest[:at] + pair + rest[at:]
