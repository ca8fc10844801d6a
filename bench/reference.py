"""Independent references for the benchmark's output checks.

Nothing here imports asdimlab.  The expected intervals and verdicts are
written out by hand from the rule table and the classification rules in
the package README; the Cayley balls, word metrics and the minimal family
search are re-implemented from their definitions.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEARCH_TABLE = HERE / "search_table.json"

# ---------------------------------------------------------------------------
# certify: expected (interval, verdict status)

ASPH, NOT, UNDET = "Aspherical", "NotAspherical", "Undetermined"

# Closed geometric pieces, one per catalog geometry.  Cocompact lattices get
# their exact value; compact models are finite; the non-aspherical product
# and affine geometries keep the model's upper bound above an infinite-group
# lower bound of one.
PIECES = {
    3: {
        "S3": ("0..0", NOT), "E3": ("3..3", ASPH), "Nil3": ("3..3", ASPH),
        "Sol3": ("3..3", ASPH), "S2xE": ("1..1", NOT), "H2xE": ("3..3", ASPH),
        "SL2~": ("3..3", ASPH), "H3": ("3..3", ASPH),
    },
    4: {
        "S4": ("0..0", NOT), "CP2": ("0..0", NOT), "S2xS2": ("0..0", NOT),
        "E4": ("4..4", ASPH), "Nil4": ("4..4", ASPH), "Sol4_0": ("4..4", ASPH),
        "Sol4_1": ("4..4", ASPH), "Sol4_mn": ("4..4", ASPH), "S3xE": ("1..1", NOT),
        "S2xE2": ("1..2", NOT), "S2xH2": ("1..2", NOT), "Nil3xE": ("4..4", ASPH),
        "H3xE": ("4..4", ASPH), "H2xE2": ("4..4", ASPH), "H2xH2": ("4..4", ASPH),
        "SL2~xE": ("4..4", ASPH), "F4": ("1..4", NOT), "H4": ("4..4", ASPH),
        "H2C": ("4..4", ASPH),
    },
}

CATALOG_NAMES = {
    2: ("S2", "E2", "H2"),
    3: tuple(PIECES[3]),
    4: tuple(PIECES[4]),
}


def _fixture_name(geometry: str) -> str:
    return geometry.lower().replace("~", "t") + ".mfd"


# The good fixtures under tests/fixtures, keyed by path relative to it.
FIXTURES = {
    "alex_empty.mfd": ("3..3", ASPH),
    "alex_graph.mfd": ("0..3", UNDET),
    "alex_sing.mfd": ("0..3", UNDET),
    "aspherical_tree.mfd": ("4..4", ASPH),
    "d3_graph_klein.mfd": ("3..3", ASPH),
    "d3_graph_surface.mfd": ("3..3", ASPH),
    "d3_graph_torus.mfd": ("3..3", ASPH),
    "d3_graph_union.mfd": ("0..3", UNDET),
    "d3_h3.mfd": ("3..3", ASPH),
    "d3_s2xe.mfd": ("1..1", NOT),
    "d3_sol3.mfd": ("3..3", ASPH),
    "five_summands.mfd": ("1..4", NOT),
    "h2c_f4_tree.mfd": ("4..4", ASPH),
    "h2xh2_pair.mfd": ("1..4", UNDET),
    "h4_loop.mfd": ("4..4", ASPH),
    "orbifold_union.mfd": ("0..2", NOT),
    "sum_e4_s4.mfd": ("1..4", NOT),
    "sum_three.mfd": ("1..3", NOT),
}
for _dim in (3, 4):
    for _geo, _row in PIECES[_dim].items():
        FIXTURES[f"dim{_dim}/{_fixture_name(_geo)}"] = _row

BAD_FIXTURES = (
    "alexandrov_dim4.mfd", "alexandrov_dup.mfd", "dim5.mfd", "disconnected.mfd",
    "dup_name.mfd", "edge_bad_endpoint.mfd", "edge_bad_type.mfd", "empty_graph.mfd",
    "missing_pi1.mfd", "missing_semicolon.mfd", "no_dim.mfd", "outside_cases.mfd",
    "reserved_name.mfd", "sum_dup.mfd", "sum_omits.mfd", "sum_undeclared.mfd",
    "two_summands_no_sum.mfd", "unexpected_char.mfd", "unknown_geometry.mfd",
    "wrong_dim_geometry.mfd",
)

# Generated families (see gen.py).  Suffixes: .tree = pi1-injective with a
# spanning-tree edge set (top node an amalgam, so infinite), .loops =
# injective with extra edges (top node an HNN extension, which gets no
# automatic lower bound), .union = not injective (a subspace union, which
# gets none either).  Aspherical verdicts add the R-ASPH-LB lower bound.
FAMILIES = {
    # dim-4 {H4,H3xE,H2xE2,SL2~xE}: every upper is 4, edges add 3+1.
    "d4.hyp.tree": ("4..4", ASPH),
    "d4.hyp.loops": ("4..4", ASPH),
    "d4.hyp.union": ("4..4", ASPH),
    # dim-4 {H2C,F4}: Nagata and the F4 extension both give 4.
    "d4.cplx.tree": ("4..4", ASPH),
    "d4.cplx.loops": ("4..4", ASPH),
    "d4.cplx.union": ("4..4", ASPH),
    # dim-4 {S2xE2,S2xH2}: pieces are 1..2, gluing lifts the upper to 4.
    "d4.sph.tree": ("1..4", NOT),
    "d4.sph.loops": ("0..4", NOT),
    "d4.sph.union": ("0..2", NOT),
    # dim-4 {H2xH2}: undetermined, so no asphericity lower bound.
    "d4.h2xh2.tree": ("1..4", UNDET),
    "d4.h2xh2.loops": ("0..4", UNDET),
    "d4.h2xh2.union": ("0..4", UNDET),
    # dim-3 aspherical pieces glued along surfaces.
    "d3.asph.tree": ("3..3", ASPH),
    "d3.asph.loops": ("3..3", ASPH),
    "d3.asph.union": ("0..3", UNDET),
    # dim-3 with at least one S2xE or S3 vertex and one aspherical vertex.
    "d3.mixed.tree": ("1..3", UNDET),
    "d3.mixed.loops": ("0..3", UNDET),
    "d3.mixed.union": ("0..3", UNDET),
    # dim-3 Alexandrov spaces over an injective aspherical graph.
    "d3.alex.empty": ("3..3", ASPH),
    "d3.alex.singular": ("0..3", UNDET),
    # Connected sums whose first summand is a closed aspherical piece.
    "d4.sum": ("1..4", NOT),
    "d3.sum": ("1..3", NOT),
}


def expected_certify(family: str) -> tuple[str, str]:
    if family.startswith("fixture:"):
        return FIXTURES[family[len("fixture:"):]]
    return FAMILIES[family]


# ---------------------------------------------------------------------------
# coarse: balls and metrics from their definitions


def ball_count(family: str, rank: int, r: int) -> int:
    """Point count of the radius-r ball, by counting lattice points or words."""
    if family == "FreeAbelian":
        return sum(1 for p in product(range(-r, r + 1), repeat=rank) if sum(map(abs, p)) <= r)
    if family == "FreeGroup":
        # 1 + sum over lengths 1..r of 2k(2k-1)^(len-1) reduced words
        return 1 + sum(2 * rank * (2 * rank - 1) ** (n - 1) for n in range(1, r + 1))
    return len(heisenberg_ball(r))


def _heis_moves(p):
    a, b, c = p
    return ((a + 1, b, c), (a - 1, b, c), (a, b + 1, c + a), (a, b - 1, c - a))


def heisenberg_ball(r: int) -> dict[tuple[int, int, int], int]:
    """Word lengths of the radius-r ball of the integer Heisenberg group."""
    seen = {(0, 0, 0): 0}
    queue = deque([(0, 0, 0)])
    while queue:
        p = queue.popleft()
        if seen[p] == r:
            continue
        for q in _heis_moves(p):
            if q not in seen:
                seen[q] = seen[p] + 1
                queue.append(q)
    return seen


def induced_distances(points, source) -> dict:
    """Breadth-first distances from source inside the given Heisenberg point set."""
    inside = set(points)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        p = queue.popleft()
        for q in _heis_moves(p):
            if q in inside and q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


def word_distance(family: str, u, v) -> int:
    """Distance between two points that are not Heisenberg elements."""
    if family == "FreeAbelian":
        return sum(abs(a - b) for a, b in zip(u, v))
    common = 0
    for a, b in zip(u, v):
        if a != b:
            break
        common += 1
    return len(u) + len(v) - 2 * common


def distance_table(family: str, points) -> list[list[int]]:
    """Full distance table of a small point list (used for <= 24 points)."""
    if family == "Heisenberg3":
        rows = []
        for p in points:
            d = induced_distances(points, p)
            rows.append([d[q] for q in points])
        return rows
    return [[word_distance(family, p, q) for q in points] for p in points]


def ball_points(family: str, rank: int, r: int) -> list:
    """The ball in the package's documented canonical order."""
    if family == "FreeAbelian":
        pts = [p for p in product(range(-r, r + 1), repeat=rank) if sum(map(abs, p)) <= r]
        return sorted(pts, key=lambda p: (sum(map(abs, p)), p))
    if family == "FreeGroup":
        letters = (1, -1, 2, -2)[: 2 * rank]
        words, level = [()], [()]
        for _ in range(r):
            level = [w + (x,) for w in level for x in letters if not (w and w[-1] == -x)]
            words.extend(level)
        return words
    lengths = heisenberg_ball(r)
    return sorted(lengths, key=lambda p: (lengths[p], p))


# ---------------------------------------------------------------------------
# search: minimal number of families of a (D, B)-cover


def min_families(dist, D: int, B: int, k_cap: int = 4) -> int | None:
    """Smallest k <= k_cap admitting a (D, B)-cover, else None.

    A cover can be shrunk to one family per point; a family's subsets must
    then be unions of the components of its points under distance <= D, and
    the components themselves are the best choice.  So k families suffice
    exactly when some k-colouring has all colour-class components of
    diameter <= B.  Backtracking with bitmasks; colourings are enumerated
    up to renaming of colours.
    """
    n = len(dist)
    near = [sum(1 << j for j in range(n) if j != i and dist[i][j] <= D) for i in range(n)]
    far = [sum(1 << j for j in range(n) if dist[i][j] > B) for i in range(n)]

    def component(members: int, start: int) -> int:
        comp = frontier = 1 << start
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow = near[low.bit_length() - 1] & members & ~comp
            comp |= grow
            frontier |= grow
        return comp

    def feasible(k: int) -> bool:
        classes = [0] * k

        def place(i: int, used: int) -> bool:
            if i == n:
                return True
            for c in range(min(used + 1, k)):
                members = classes[c] | (1 << i)
                comp = component(members, i)
                bits, ok = comp, True
                while bits:
                    low = bits & -bits
                    bits ^= low
                    if far[low.bit_length() - 1] & comp:
                        ok = False
                        break
                if ok:
                    classes[c] = members
                    if place(i + 1, max(used, c + 1)):
                        return True
                    classes[c] ^= 1 << i
            return False

        return place(0, 0)

    for k in range(1, k_cap + 1):
        if feasible(k):
            return k
    return None


def min_families_brute(dist, D: int, B: int, k_cap: int = 4) -> int | None:
    """Literal enumeration of every colouring; for the smallest spaces only."""
    n = len(dist)
    for k in range(1, k_cap + 1):
        for colors in product(range(k), repeat=n):
            if _colouring_ok(dist, D, B, colors):
                return k
    return None


def _colouring_ok(dist, D: int, B: int, colors) -> bool:
    n = len(dist)
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        comp, stack = [s], [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            for w in range(n):
                if not seen[w] and colors[w] == colors[s] and dist[u][w] <= D:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        if any(dist[a][b] > B for a in comp for b in comp):
            return False
    return True


def check_cover(dist, families, D: int, B: int, n: int) -> str | None:
    """Independent check of a cover witness; returns a problem or None."""
    covered = set()
    for f, family in enumerate(families):
        for s, subset in enumerate(family):
            if not subset or any(not 0 <= i < n for i in subset):
                return f"family {f} subset {s} is empty or out of range"
            covered.update(subset)
            if max(dist[a][b] for a in subset for b in subset) > B:
                return f"family {f} subset {s} is wider than B={B}"
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                gap = min(dist[i][j] for i in family[a] for j in family[b])
                if gap <= D:
                    return f"family {f}: subsets {a} and {b} are {gap} <= D apart"
    if len(covered) != n:
        return f"{n - len(covered)} points uncovered"
    return None


def load_search_table() -> dict[tuple[str, int, int, int, int], int | None]:
    """(family, rank, radius, D, B) -> minimal k <= 4, or None above 4."""
    rows = json.loads(SEARCH_TABLE.read_text())["rows"]
    return {(f, rk, r, d, b): k for f, rk, r, d, b, k in rows}


def expected_k(table, family: str, rank: int, r: int, D: int, B: int, k_max: int):
    k = table[(family, rank, r, D, B)]
    return k if k is not None and k <= k_max else None
