"""Finite-scale cover laboratory.

Builds balls in Cayley graphs of a few sample groups, constructs and
verifies (D, B)-covers (families of uniformly bounded subsets in which
distinct subsets of the same family are more than D apart), and
brute-forces the minimal family count on tiny instances as an independent
oracle.

Everything here is a fixed-scale experiment: a witness certifies one
(D, B) pair on one finite ball and never an asymptotic invariant.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

DEFAULT_POINT_BUDGET = 200_000
# Largest dense int32 distance matrix a FreeGroup or Heisenberg3 ball may
# ask for: 2 GiB, that is at most 23,170 points.  Zn balls hold no matrix.
MATRIX_BYTE_BUDGET = 2 * 1024**3
# Most points min_families_exhaustive searches.
SEARCH_POINT_LIMIT = 24


class BallBudgetError(Exception):
    """A requested ball or search instance exceeds the configured budget."""


class WitnessFormatError(Exception):
    """Syntactically invalid witness text, carrying the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.message = message
        self.line = line


@dataclass(frozen=True)
class GroupSpec:
    """Sample group for desk-scale experiments.

    family is "FreeAbelian" (rank 1..3), "FreeGroup" (rank 1..2) or
    "Heisenberg3" (rank unused, kept 0); generating sets are the standard
    symmetric ones.
    """

    family: str
    rank: int = 0

    def __post_init__(self) -> None:
        if self.family == "FreeAbelian":
            if not 1 <= self.rank <= 3:
                raise ValueError(f"FreeAbelian rank must be 1..3, got {self.rank}")
        elif self.family == "FreeGroup":
            if not 1 <= self.rank <= 2:
                raise ValueError(f"FreeGroup rank must be 1..2, got {self.rank}")
        elif self.family == "Heisenberg3":
            if self.rank != 0:
                raise ValueError("Heisenberg3 takes no rank")
        else:
            raise ValueError(f"unknown group family {self.family!r}")

    def __str__(self) -> str:
        if self.family == "Heisenberg3":
            return "Heisenberg3"
        return f"{self.family}({self.rank})"


def parse_group_spec(text: str) -> GroupSpec:
    text = text.strip()
    if text == "Heisenberg3":
        return GroupSpec("Heisenberg3")
    for family in ("FreeAbelian", "FreeGroup"):
        prefix = family + "("
        if text.startswith(prefix) and text.endswith(")"):
            inner = text[len(prefix):-1]
            if not inner.isdigit():
                raise ValueError(f"bad group spec {text!r}")
            return GroupSpec(family, int(inner))
    raise ValueError(f"bad group spec {text!r}")


class FiniteMetricSpace:
    """An indexed point set with integer distances.

    dist is a dense int32 matrix, or for a free abelian ball an L1Distances
    oracle that computes entries on demand.  Readers use only what both
    offer: dist.shape, dist[i, j] and the block dist[np.ix_(rows, cols)].
    A matrix's memory is quadratic in the point count; cayley_ball, the
    one place that refuses a ball, refuses a FreeGroup or Heisenberg3 ball
    whose matrix would exceed MATRIX_BYTE_BUDGET before building it.
    """

    def __init__(self, points, dist, label: str):
        self.points = tuple(points)
        self.dist = dist
        self.label = label

    def __len__(self) -> int:
        return len(self.points)

    def check_metric(self) -> None:
        """Exhaustive metric axioms check; meant for small test spaces."""
        import numpy as np

        n = len(self.points)
        if self.dist.shape != (n, n):
            raise ValueError("distance matrix shape mismatch")
        every = range(n)
        d = self.dist[np.ix_(every, every)]
        if np.any(np.diagonal(d) != 0):
            raise ValueError("nonzero diagonal")
        if np.any(d != d.T):
            raise ValueError("asymmetric distances")
        if n > 1 and np.min(d + np.eye(n, dtype=d.dtype) * (1 + np.max(d))) <= 0:
            raise ValueError("non-positive off-diagonal distance")
        for k in range(n):
            through_k = d[:, k : k + 1] + d[k : k + 1, :]
            if np.any(d > through_k):
                raise ValueError(f"triangle inequality fails through point {k}")


def _ball_count(spec: GroupSpec, r: int, limit: int) -> int:
    """Closed-form point count of a FreeAbelian or FreeGroup ball, or
    limit + 1 when it is larger than limit.

    Every ball of radius r holds the 2r + 1 powers of one generator, and a
    FreeGroup(2) ball more than 2**r words, so a huge radius is refused
    without forming a huge count.
    """
    if 2 * r + 1 > limit:
        return limit + 1
    if spec.rank == 1:
        count = 2 * r + 1
    elif spec.family == "FreeGroup":
        count = 2 * 3**r - 1 if r < limit.bit_length() else limit + 1
    elif spec.rank == 2:
        count = 2 * r * r + 2 * r + 1
    else:
        count = (4 * r**3 + 6 * r**2 + 8 * r + 3) // 3
    return min(count, limit + 1)


def cayley_ball(
    spec: GroupSpec, radius: int, point_budget: int = DEFAULT_POINT_BUDGET
) -> FiniteMetricSpace:
    """Ball of the given radius around the identity, in the word metric.

    Free abelian and free groups get true word-length distances from closed
    forms: a free abelian ball keeps its coordinates in one int32 array and
    computes L1 distances on demand (L1Distances), a free group ball holds
    a dense matrix.  Heisenberg3 uses breadth-first distances inside the ball
    (induced-ball metric), which can exceed the group's word metric near
    the boundary; the label carries a "metric=induced-ball" caveat so
    downstream output stays honest.

    This is the one place that refuses a ball, before it allocates an
    array or imports numpy: a radius below 1 raises ValueError, and a ball
    of more than point_budget points, or a FreeGroup or Heisenberg3 ball
    whose dense int32 matrix would exceed MATRIX_BYTE_BUDGET, raises
    BallBudgetError.  The closed-form families are counted; Heisenberg3
    has no closed form, so its breadth-first search stops one point past
    the smaller limit.
    """
    if radius < 1:
        raise ValueError(f"radius must be positive, got {radius}")
    matrix_limit = math.isqrt(MATRIX_BYTE_BUDGET // 4)
    if spec.family == "Heisenberg3":
        limit = min(point_budget, matrix_limit)
        points = _heisenberg_points(radius, limit)
        n = limit + 1 if points is None else len(points)
    else:
        n = _ball_count(spec, radius, point_budget)
    if n > point_budget:
        raise BallBudgetError(
            f"{spec} ball of radius {radius} has more than {point_budget} points, the point budget"
        )
    if spec.family != "FreeAbelian" and n > matrix_limit:
        raise BallBudgetError(
            f"{spec} ball of radius {radius} has more than {matrix_limit} points, whose"
            f" distance matrix would exceed the limit of {MATRIX_BYTE_BUDGET} bytes"
        )
    label = f"group={spec} radius={radius}"
    if spec.family == "FreeAbelian":
        axes = _abelian_points(spec.rank, radius)
        points = zip(*axes.tolist())
        dist = L1Distances(axes)
    elif spec.family == "FreeGroup":
        points = _free_words(spec.rank, radius)
        dist = _word_matrix(points)
    else:
        # points is the ball the size check above walked.
        dist = _induced_matrix(points, _heisenberg_neighbors)
        label += " metric=induced-ball"
    return FiniteMetricSpace(points, dist, label)


def _abelian_points(rank: int, r: int) -> np.ndarray:
    """The radius-r ball as a (rank, points) int32 array, one row per axis,
    its points sorted by L1 norm and then lexicographically."""
    import numpy as np

    grid = np.indices((2 * r + 1,) * rank, dtype=np.int32).reshape(rank, -1)
    grid -= r
    norm = np.abs(grid).sum(axis=0, dtype=np.int32)
    keep = norm <= r
    grid, norm = grid[:, keep], norm[keep]
    # lexsort sorts by its last key first: the norm, then x0, x1, ...
    return grid[:, np.lexsort((*grid[::-1], norm))]


class L1Distances:
    """The L1 distance matrix of a point set, computed entry by entry or
    block by block from the coordinates and never stored.

    Indexing follows the dense matrix it stands for: dist[i, j] is an int
    and dist[np.ix_(rows, cols)] the int32 block.  A block is built one
    axis at a time with in-place ufuncs; from the second axis on, its rows
    go through one buffer of at most 128 rows, so a block of 256 rows, as
    verify_cover asks for, peaks at 1.5 times its size plus the gathered
    coordinates.
    """

    def __init__(self, axes: np.ndarray):
        """axes: the (rank, points) int32 coordinates, one row per axis."""
        self.axes = axes
        # The rows as a tuple, which unpacks faster than the array.
        self._axis_rows = tuple(axes)
        self.shape = (axes.shape[1], axes.shape[1])

    def __getitem__(self, key) -> int | np.ndarray:
        import numpy as np

        rows, cols = key
        if not (isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray)):
            i, j = operator.index(rows), operator.index(cols)
            return sum(abs(int(axis[i]) - int(axis[j])) for axis in self._axis_rows)
        if rows.ndim != 2 or cols.ndim != 2:
            raise IndexError("index L1Distances with two integers or with np.ix_(rows, cols)")
        first, *rest = self._axis_rows
        block = np.subtract(first[rows], first[cols])
        np.abs(block, out=block)
        if rest:
            buf = np.empty_like(block[:128])
            for start in range(0, len(block), 128):
                part_rows, part = rows[start : start + 128], block[start : start + 128]
                tmp = buf[: len(part)]
                for axis in rest:
                    np.subtract(axis[part_rows], axis[cols], out=tmp)
                    np.abs(tmp, out=tmp)
                    part += tmp
        return block


def _free_words(rank: int, r: int) -> list[tuple[int, ...]]:
    letters = [1, -1, 2, -2][: 2 * rank]
    words: list[tuple[int, ...]] = [()]
    level: list[tuple[int, ...]] = [()]
    for _ in range(r):
        nxt = []
        for w in level:
            for letter in letters:
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        words.extend(nxt)
        level = nxt
    return words


def _word_matrix(words) -> np.ndarray:
    """Free-group distances len(u) + len(v) - 2 * (common prefix length).

    words must come in breadth-first order, as _free_words lists them, and
    hold every prefix of every word.  Two words share their prefix of
    length d exactly when they share the ancestor at depth d, so the common
    prefix length counts the depths at which the ancestors agree.  The
    depths are walked from the longest word down, each over the words at
    least that long, in blocks of 256 rows.
    """
    import numpy as np

    n = len(words)
    index = {w: i for i, w in enumerate(words)}
    lengths = np.array([len(w) for w in words], dtype=np.int32)
    parent = np.array([index[w[:-1]] if w else 0 for w in words], dtype=np.intp)
    # dist first holds minus the common prefix length; ancestor[i] is the
    # index of words[i]'s prefix at the current depth, for every word at
    # least that long.
    dist = np.zeros((n, n), dtype=np.int32)
    ancestor = np.arange(n, dtype=np.intp)
    same = np.empty((min(n, 256), n), dtype=bool)
    for depth in range(int(lengths.max(initial=0)), 0, -1):
        first = int(np.searchsorted(lengths, depth))
        deep = ancestor[first:]
        for start in range(first, n, 256):
            rows = deep[start - first : start - first + 256]
            hit = same[: len(rows), : len(deep)]
            np.equal(rows[:, None], deep, out=hit)
            block = dist[start : start + 256, first:]
            np.subtract(block, hit, out=block)
        ancestor[first:] = parent[deep]
    for start in range(0, n, 256):
        rows = dist[start : start + 256]
        rows *= 2
        rows += lengths[start : start + 256, None]
        rows += lengths
    return dist


def _heisenberg_neighbors(p: tuple[int, int, int]):
    a, b, c = p
    # Right multiplication by the generators X, Y and their inverses in the
    # integer Heisenberg group, coordinates (a, b, c).
    return (
        (a + 1, b, c),
        (a - 1, b, c),
        (a, b + 1, c + a),
        (a, b - 1, c - a),
    )


def _heisenberg_points(r: int, limit: int) -> list[tuple[int, int, int]] | None:
    """The radius-r ball, sorted by word length and then coordinates, or
    None once the breadth-first search finds more than limit points."""
    lengths = {(0, 0, 0): 0}
    frontier = deque([(0, 0, 0)])
    while frontier:
        p = frontier.popleft()
        if lengths[p] == r:
            continue
        for q in _heisenberg_neighbors(p):
            if q not in lengths:
                lengths[q] = lengths[p] + 1
                if len(lengths) > limit:
                    return None
                frontier.append(q)
    return sorted(lengths, key=lambda p: (lengths[p], p))


def _induced_matrix(points, neighbors) -> np.ndarray:
    """Breadth-first distances inside the point set, which must be connected.

    The search runs level by level from 256 sources at once, one column
    per source.  Each level gathers the frontier through an (n, k) array
    of neighbour indices, in which a neighbour outside the set stands in as
    the point itself; the adjacency is symmetric, so a point joins the next
    level when one of its neighbours is on the current one.
    """
    import numpy as np

    index = {p: i for i, p in enumerate(points)}
    adj = np.array(
        [[index.get(q, i) for q in neighbors(p)] for i, p in enumerate(points)],
        dtype=np.intp,
    )
    n = len(points)
    dist = np.empty((n, n), dtype=np.int32)
    for start in range(0, n, 256):
        sources = np.arange(min(256, n - start))
        cols = np.full((n, len(sources)), -1, dtype=np.int32)
        cols[start + sources, sources] = 0
        frontier = cols == 0
        level = 0
        while frontier.any():
            level += 1
            reached = frontier[adj[:, 0]]
            for k in range(1, adj.shape[1]):
                reached |= frontier[adj[:, k]]
            reached &= cols < 0
            cols[reached] = level
            frontier = reached
        if np.any(cols < 0):
            raise AssertionError("induced ball is disconnected")
        dist[start : start + len(sources)] = cols.T
    return dist


# ---------------------------------------------------------------------------
# Covers


@dataclass
class CoverWitness:
    """A concrete (D, B)-cover of a finite ball.

    families[f][s] is a list of point indices; distinct subsets of one
    family must be more than D apart, and B records the exact maximum
    subset diameter.
    """

    space: FiniteMetricSpace
    families: list[list[list[int]]]
    D: int
    B: int


@dataclass
class CoverReport:
    valid: bool
    violations: list[str]


def brick_cover(n: int, D: int, radius: int) -> CoverWitness:
    """Shifted-brick cover of the rank-n free abelian ball.

    Args:
        n: rank, 1..3; the cover uses n+1 families.
        D: required separation between same-family bricks; positive.
        radius: ball radius.

    Returns:
        A CoverWitness that verify_cover accepts.

    The construction tiles each axis with period S = 2(n+1)(D+1) and, for
    family i, keeps points whose (coordinate - 2(D+1)i) mod S lands in
    [D+1, S-(D+1)).  Per axis the n+1 shifts miss the kept window exactly
    once, so each point survives in at least one family; same-family bricks
    are at least 2(D+1) > D apart per axis.  The resulting diameter bound
    B <= 2n(n+1)(D+1) is asserted, never assumed.
    """
    if not 1 <= n <= 3:
        raise ValueError(f"brick covers support ranks 1..3, got {n}")
    if D < 1:
        raise ValueError(f"separation D must be positive, got {D}")
    space = cayley_ball(GroupSpec("FreeAbelian", n), radius)
    import numpy as np

    axes = space.dist.axes
    # |x - y|_1 is the largest s.(x - y) over sign vectors s, and s and -s
    # give the same spread, so a brick's diameter is the widest spread of
    # its points' projections on the sign vectors with s[0] = 1.
    signs = np.array([(1, *s) for s in product((1, -1), repeat=n - 1)], dtype=np.int32)
    # Every D >= radius gives the same bricks (family 0 empty, each other
    # family the whole ball), so a capped T keeps the arithmetic in int32.
    T = min(D, radius) + 1
    S = 2 * (n + 1) * T
    families: list[list[list[int]]] = []
    B = 0
    for i in range(n + 1):
        shifted = axes - 2 * T * i
        phase = shifted % S
        kept = np.flatnonzero(((phase >= T) & (phase < S - T)).all(axis=0))
        keys = shifted[:, kept] // S
        # A stable sort by brick key, first axis first, keeps each brick's
        # indices ascending.
        order = np.lexsort(keys[::-1])
        kept, keys = kept[order], keys[:, order]
        new_brick = np.ones(len(kept), dtype=bool)
        new_brick[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
        starts = np.flatnonzero(new_brick)
        members = kept.tolist()
        bounds = starts.tolist() + [len(members)]
        families.append([members[a:b] for a, b in zip(bounds, bounds[1:])])
        if len(kept):
            proj = signs @ axes[:, kept]
            top = np.maximum.reduceat(proj, starts, axis=1)
            B = max(B, int((top - np.minimum.reduceat(proj, starts, axis=1)).max()))
    assert B <= 2 * n * (n + 1) * (D + 1), "brick diameter exceeded its proven bound"
    return CoverWitness(space, families, D, B)


def verify_cover(witness: CoverWitness) -> CoverReport:
    """Check the three cover conditions and recompute B.

    Violations name the family/subset pair and the offending distance; the
    verdict is data, not an exception.
    """
    import numpy as np

    space = witness.space
    n = len(space)
    violations: list[str] = []
    covered: set[int] = set()
    for f, family in enumerate(witness.families):
        for s, subset in enumerate(family):
            if not subset:
                violations.append(f"family {f} subset {s} is empty")
                continue
            for idx in subset:
                if not 0 <= idx < n:
                    violations.append(
                        f"family {f} subset {s} references point {idx}, outside 0..{n - 1}"
                    )
            covered.update(i for i in subset if 0 <= i < n)
    for i in range(n):
        if i not in covered:
            violations.append(f"point {i} at {space.points[i]} is uncovered")
    recomputed = 0
    for f, family in enumerate(witness.families):
        clean = [
            (s, [i for i in subset if 0 <= i < n]) for s, subset in enumerate(family)
        ]
        clean = [(s, subset) for s, subset in clean if subset]
        for _, subset in clean:
            recomputed = max(recomputed, _block_reduce(np.maximum, space.dist, subset, subset))
        for a, b in _close_pairs(space.dist, [subset for _, subset in clean], witness.D):
            s, left = clean[a]
            t, right = clean[b]
            gap = _block_reduce(np.minimum, space.dist, left, right)
            violations.append(
                f"family {f}: subsets {s} and {t} are at distance {gap},"
                f" need more than D={witness.D}"
            )
    if recomputed != witness.B:
        violations.append(f"recorded B={witness.B} but recomputed B={recomputed}")
    return CoverReport(valid=not violations, violations=violations)


def _block_reduce(ufunc: np.ufunc, dist: np.ndarray, rows: list[int], cols: list[int]) -> int:
    """The maximum (ufunc np.maximum) or minimum (np.minimum) of dist over
    rows x cols, both nonempty, kept as a running value over blocks of 256
    rows, so no temporary is larger than 256 x len(cols)."""
    import numpy as np

    result = ufunc.reduce(dist[np.ix_(rows[:256], cols)], axis=None)
    for start in range(256, len(rows), 256):
        block = dist[np.ix_(rows[start : start + 256], cols)]
        result = ufunc(result, ufunc.reduce(block, axis=None))
    return int(result)


def _close_pairs(dist: np.ndarray, subsets: list[list[int]], D: int) -> list[tuple[int, int]]:
    """Sorted position pairs (a, b), a < b, of subsets that come within D.

    Every member is labelled with its subset's position, and blocks of 256
    member rows are compared with the members of later subsets only, so no
    temporary is larger than 256 rows of the family.
    """
    import numpy as np

    if len(subsets) < 2:
        return []
    members = np.concatenate([np.asarray(subset, dtype=np.intp) for subset in subsets])
    labels = np.repeat(np.arange(len(subsets)), [len(subset) for subset in subsets])
    codes = []
    for start in range(0, len(members), 256):
        rows = members[start : start + 256]
        row_labels = labels[start : start + 256]
        later = int(np.searchsorted(labels, row_labels[0], side="right"))
        close = dist[np.ix_(rows, members[later:])] <= D
        close &= row_labels[:, None] < labels[later:]
        if close.any():
            r, c = np.nonzero(close)
            codes.append(row_labels[r] * len(subsets) + labels[later + c])
    if not codes:
        return []
    return [divmod(int(code), len(subsets)) for code in np.unique(np.concatenate(codes))]


@dataclass
class SearchResult:
    """Outcome of the exhaustive minimal-family search: k is None when no
    cover with at most k_max families exists.  nodes counts the partial
    colorings the depth-first search entered, summed over every k it
    tried; it is 0 when the clique bound alone decides."""

    k: int | None
    witness: CoverWitness | None
    nodes: int


def min_families_exhaustive(
    space: FiniteMetricSpace, D: int, B: int, k_max: int = 4
) -> SearchResult:
    """Exact smallest family count for a (D, B)-cover of a tiny space.

    Args:
        space: at most 24 points.
        D, B: positive separation and diameter parameters.
        k_max: largest family count tried, at most 4.

    Returns:
        SearchResult with the minimal k and a witness found at that k, or
        k=None when every count up to k_max fails.

    Why coloring suffices: in a valid cover, two subsets of one family that
    come within D of each other are forbidden, so assigning each point to
    the family covering it makes every family's subsets exactly the
    connected components of that family's points under the "distance <= D"
    relation; validity is then "every component has diameter <= B".
    Conversely any such coloring yields a witness with the components as
    subsets.  The search therefore enumerates k-colorings in canonical
    point order (first point pinned to family 0, new families introduced in
    order), pruning as soon as the component swallowing the newest point
    gets too wide.

    Why the clique bound holds: two points at distance in (B, D] that
    share a family share a component, which is then wider than B, so they
    lie in different families.  A clique of this conflict graph therefore
    needs one family per point.  A clique is grown greedily from every
    point, and the size lo of the largest lets the search skip every
    k < lo and answer k=None at once when lo > k_max.  The first k tried
    that succeeds is still the minimum, so the witness has exactly k
    families.

    Points and families are bitmasks: near[i] holds the other points within
    D of point i, far[i] the points more than B away, and members[c] the
    points placed in family c.  Point i joins family c when the component
    flooded from it through near and members[c] holds no point v with
    far[v] inside the component.
    """
    n = len(space)
    if n > SEARCH_POINT_LIMIT:
        raise BallBudgetError(
            f"exhaustive search is limited to {SEARCH_POINT_LIMIT} points, got {n}"
        )
    if not 1 <= k_max <= 4:
        raise ValueError(f"k_max must be 1..4, got {k_max}")
    if D < 1 or B < 1:
        raise ValueError("D and B must be positive")
    import numpy as np

    every = np.arange(n)
    # The whole matrix, keyed as np.ix_(every, every) would key it.
    dist = space.dist[every[:, None], every[None, :]].tolist()
    near = [0] * n
    far = [0] * n
    for i, row in enumerate(dist):
        for j, d in enumerate(row):
            if d <= D and j != i:
                near[i] |= 1 << j
            if d > B:
                far[i] |= 1 << j
    lo = _greedy_clique([a & b for a, b in zip(near, far)])
    nodes = 0

    def thin(comp: int) -> bool:
        rest = comp
        while rest:
            low = rest & -rest
            if far[low.bit_length() - 1] & comp:
                return False
            rest ^= low
        return True

    def solve(k: int) -> list[int] | None:
        members = [0] * k

        def place(i: int, used: int) -> bool:
            nonlocal nodes
            nodes += 1
            if i == n:
                return True
            bit = 1 << i
            for c in range(min(used + 1, k)):
                grown = members[c] | bit
                if thin(_flood(near, bit, grown)):
                    members[c] = grown
                    if place(i + 1, max(used, c + 1)):
                        return True
                    members[c] ^= bit
            return False

        return members if place(0, 0) else None

    for k in range(max(lo, 1), k_max + 1):
        members = solve(k)
        if members is None:
            continue
        families: list[list[list[int]]] = []
        for pool in members:
            subsets = []
            while pool:
                comp = _flood(near, pool & -pool, pool)
                subsets.append([j for j in range(n) if comp >> j & 1])
                pool &= ~comp
            families.append(subsets)
        actual_b = max(
            (dist[a][b] for fam in families for subset in fam for a in subset for b in subset),
            default=0,
        )
        return SearchResult(k, CoverWitness(space, families, D, actual_b), nodes)
    return SearchResult(None, None, nodes)


def _flood(near: list[int], start: int, pool: int) -> int:
    """The bitmask of the component of start (one bit) within pool under
    the adjacency bitmasks near."""
    comp = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        grow = near[low.bit_length() - 1] & pool & ~comp
        comp |= grow
        frontier |= grow
    return comp


def _greedy_clique(adjacent: list[int]) -> int:
    """Size of the largest clique among those grown greedily from each
    vertex of a graph given by adjacency bitmasks, each step adding the
    lowest-numbered vertex adjacent to the whole clique so far."""
    best = 0
    for candidates in adjacent:
        size = 1
        while candidates:
            low = candidates & -candidates
            candidates &= adjacent[low.bit_length() - 1]
            size += 1
        best = max(best, size)
    return best


# ---------------------------------------------------------------------------
# Witness files


def format_witness(witness: CoverWitness) -> str:
    lines = ["coarse-witness v1", witness.space.label, f"D {witness.D}", f"B {witness.B}"]
    for f, family in enumerate(witness.families):
        for s, subset in enumerate(family):
            lines.append(f"{f}:{s} " + ",".join(str(i) for i in subset))
    return "".join(line + "\n" for line in lines)


def _natural(text: str) -> int | None:
    """The value of a decimal numeral, or None.  int() refuses some digits
    that isdigit() admits, such as superscripts, and numerals longer than
    its digit limit."""
    if text.isdigit():
        try:
            return int(text)
        except ValueError:
            pass
    return None


def _parse_label(label: str, lineno: int) -> FiniteMetricSpace:
    tokens = label.split()
    fields = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq or key in fields:
            raise WitnessFormatError(f"bad space label {label!r}", lineno)
        fields[key] = value
    extra = set(fields) - {"group", "radius", "metric"}
    if "group" not in fields or "radius" not in fields or extra:
        raise WitnessFormatError(f"bad space label {label!r}", lineno)
    radius = _natural(fields["radius"])
    if radius is None:
        raise WitnessFormatError(f"bad radius in label {label!r}", lineno)
    try:
        spec = parse_group_spec(fields["group"])
    except ValueError as exc:
        raise WitnessFormatError(str(exc), lineno) from exc
    # cayley_ball writes metric=induced-ball into Heisenberg3 labels only;
    # a Heisenberg3 label may leave the field out.
    if "metric" in fields and (fields["metric"] != "induced-ball" or spec.family != "Heisenberg3"):
        raise WitnessFormatError(f"bad metric in label {label!r}", lineno)
    return cayley_ball(spec, radius)


def parse_witness(text: str) -> CoverWitness:
    """Rebuild a CoverWitness from its file form.

    Family indices increase line by line; an index that skips ahead
    stands for empty families in between, which format_witness writes no
    line for.  A family index must be below the point count.  Syntactic
    problems raise WitnessFormatError with a line number; whether the
    witness is a valid cover is verify_cover's business.
    """
    lines = text.splitlines()
    if len(lines) < 4:
        raise WitnessFormatError("witness needs header, label, D and B lines", len(lines) + 1)
    if lines[0] != "coarse-witness v1":
        raise WitnessFormatError(f"bad header {lines[0]!r}", 1)
    space = _parse_label(lines[1], 2)
    d_line, b_line = lines[2], lines[3]
    D = _natural(d_line[2:]) if d_line.startswith("D ") else None
    if D is None or D < 1:
        raise WitnessFormatError(f"bad D line {d_line!r}", 3)
    B = _natural(b_line[2:]) if b_line.startswith("B ") else None
    if B is None:
        raise WitnessFormatError(f"bad B line {b_line!r}", 4)
    families: list[list[list[int]]] = []
    for offset, line in enumerate(lines[4:]):
        lineno = offset + 5
        head, sep, body = line.partition(" ")
        fam_s, colon, idx_s = head.partition(":")
        fam, idx = _natural(fam_s), _natural(idx_s)
        if not sep or not colon or fam is None or idx is None:
            raise WitnessFormatError(f"bad subset line {line!r}", lineno)
        if fam >= len(families):
            if fam >= len(space):
                raise WitnessFormatError(
                    f"family index {fam} out of range for {len(space)}-point space", lineno
                )
            families.extend([] for _ in range(fam + 1 - len(families)))
        elif fam != len(families) - 1:
            raise WitnessFormatError(
                f"family indices must increase, got family {fam} after {len(families) - 1}",
                lineno,
            )
        if idx != len(families[fam]):
            raise WitnessFormatError(
                f"subset index {idx} out of order in family {fam}", lineno
            )
        subset: list[int] = []
        seen: set[int] = set()
        for piece in body.split(","):
            i = _natural(piece)
            if i is None:
                raise WitnessFormatError(f"bad point index {piece!r}", lineno)
            if i >= len(space):
                raise WitnessFormatError(
                    f"point index {i} out of range for {len(space)}-point space", lineno
                )
            if i in seen:
                raise WitnessFormatError(f"duplicate point index {i}", lineno)
            seen.add(i)
            subset.append(i)
        families[fam].append(subset)
    return CoverWitness(space, families, D, B)
