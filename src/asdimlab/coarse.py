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

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from typing import TYPE_CHECKING, NoReturn

from . import Refusal, split_records


class _Numpy:
    """numpy, imported when first used: cayley_ball refuses a ball before
    that, also where numpy is not installed."""

    def __getattr__(self, name: str):
        import numpy

        globals()["np"] = numpy
        return getattr(numpy, name)


if TYPE_CHECKING:
    import numpy as np
else:
    np = _Numpy()

DEFAULT_POINT_BUDGET = 200_000
# Most points min_families_exhaustive searches.
SEARCH_POINT_LIMIT = 24


class BallBudgetError(Refusal):
    """A requested ball or search instance exceeds the configured budget."""


class WitnessFormatError(Refusal):
    """Invalid witness text, carrying the offending line number."""


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
    if text == "Heisenberg3":
        return GroupSpec("Heisenberg3")
    spec = re.fullmatch(r"(FreeAbelian|FreeGroup)\((.*)\)", text, re.DOTALL)
    rank = _natural(spec[2]) if spec else None
    if rank is None:
        raise ValueError(f"bad group spec {text!r}")
    return GroupSpec(spec[1], rank)


class FiniteMetricSpace:
    """An indexed point set with integer distances.

    dist is a Distances oracle, which computes what it is asked for; no ball
    holds its n x n matrix.  A plain matrix, as small test spaces pass, is
    wrapped in DenseDistances.
    """

    def __init__(self, points, dist, label: str):
        self.points = tuple(points)
        self.dist = dist if isinstance(dist, Distances) else DenseDistances(dist)
        self.label = label

    def __len__(self) -> int:
        return len(self.points)

    def check_metric(self) -> None:
        """Exhaustive metric axioms check; meant for small test spaces."""
        n = len(self.points)
        if self.dist.shape != (n, n):
            raise ValueError("distance matrix shape mismatch")
        d = self.dist.block(range(n), range(n))
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


class _Ball(FiniteMetricSpace):
    """A Cayley ball, or a search witness's copy of one, which keeps what
    its distance oracle needs and builds the points tuple from
    make_points() only when it is first read."""

    def __init__(self, dist: Distances, label: str, make_points):
        self.dist = dist
        self.label = label
        self._make_points = make_points

    def __len__(self) -> int:
        return self.dist.shape[0]

    @cached_property
    def points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._make_points())


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

    No ball holds a distance matrix, and each builds its points tuple only
    when it is read (_Ball): a free abelian ball computes L1 distances
    from its coordinates (L1Distances), a free group ball word distances
    from its words' breadth-first positions (WordDistances).  Heisenberg3
    keeps the ball's Cayley graph and uses breadth-first distances inside
    the ball (InducedDistances), which can exceed the
    group's word metric near the boundary; the label carries a
    "metric=induced-ball" caveat so downstream output stays honest.

    This is the one place that refuses a ball, before it allocates an
    array or imports numpy: a radius below 1 raises ValueError, and a ball
    of more than point_budget points raises BallBudgetError.  The
    closed-form families are counted; Heisenberg3 has no closed form, so
    its breadth-first search stops one point past the budget.
    """
    if radius < 1:
        raise ValueError(f"radius must be positive, got {radius}")
    if spec.family == "Heisenberg3":
        ball = _heisenberg_ball(radius, point_budget)
        n = point_budget + 1 if ball is None else len(ball[1])
    else:
        n = _ball_count(spec, radius, point_budget)
    if n > point_budget:
        raise BallBudgetError(
            f"{spec} ball of radius {radius} has more than {point_budget} points, the point budget"
        )
    label = f"group={spec} radius={radius}"
    if spec.family == "FreeAbelian":
        axes = _abelian_points(spec.rank, radius)
        return _Ball(L1Distances(axes, radius), label, lambda: zip(*axes.tolist()))
    if spec.family == "FreeGroup":
        return _Ball(WordDistances(spec.rank, radius), label, lambda: _free_words(spec.rank, radius))
    points, adj = ball
    return _Ball(InducedDistances(adj), label + " metric=induced-ball", points)


def _abelian_points(rank: int, r: int) -> np.ndarray:
    """The radius-r ball as a (rank, points) int32 array, one row per axis,
    its points sorted by L1 norm and then lexicographically."""
    grid = np.indices((2 * r + 1,) * rank, dtype=np.int32).reshape(rank, -1)
    grid -= r
    norm = np.abs(grid).sum(axis=0, dtype=np.int32)
    keep = norm <= r
    # The grid is in lexicographic order already, which a stable sort by
    # norm keeps within each norm.
    return grid[:, np.flatnonzero(keep)[np.argsort(norm[keep], kind="stable")]]


# Most cells of one block of distances read at a time: 4 MB of int32.
_BLOCK_CELLS = 1 << 20


def _pairs(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (a, b, d) arrays of a list of such triples, joined."""
    if not parts:
        return np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0, np.int32)
    return tuple(np.concatenate(column) for column in zip(*parts))


class Distances:
    """The distances of a finite space, read on demand.

    shape is (n, n).  A subclass states its metric once, in _rows(rows,
    cols, out), which writes the distances of the index arrays rows x cols
    into out.  block(rows, cols) is a fresh int32 array of rows x cols,
    filled by _rows a chunk of rows at a time, whose full rows hold at
    most _BLOCK_CELLS cells; dist[i, j] reads row i through block and
    keeps that one row.  verify_cover reads a family through diameter and
    close_labels, whose defaults here read blocks of rows; the ball
    oracles use closed forms and D-neighbourhoods.
    """

    shape: tuple[int, int]
    _row = (None, None)

    def __getitem__(self, key) -> int:
        i, j = map(operator.index, key)
        if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1]):
            raise IndexError(f"distance index {(i, j)} out of range for shape {self.shape}")
        if self._row[0] != i:
            self._row = (i, self.block([i], range(self.shape[1]))[0])
        return int(self._row[1][j])

    def block(self, rows, cols) -> np.ndarray:
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        out = np.empty((len(rows), len(cols)), dtype=np.int32)
        step = max(1, min(256, _BLOCK_CELLS // max(1, self.shape[1])))
        for lo in range(0, len(rows), step):
            self._rows(rows[lo : lo + step], cols, out[lo : lo + step])
        return out

    def diameter(self, members: np.ndarray, runs: np.ndarray) -> int:
        """The largest distance between two members of one run, where
        runs[k] = 0, 1, 2, ... (nondecreasing) is the run of members[k].
        The default reads blocks of rows against every member."""
        best = 0
        step = max(1, min(256, _BLOCK_CELLS // len(members)))
        for lo in range(0, len(members), step):
            block = self.block(members[lo : lo + step], members)
            block[runs[lo : lo + step, None] != runs] = 0
            best = max(best, int(block.max()))
        return best

    def close_labels(self, labels: np.ndarray, D: int):
        """Arrays (a, b, d) holding, for every two labels a < b on points
        within D of each other (labels[i] < 0 is no label), their least
        distance d, and no d above D.  The default reads the labelled
        points pairwise, in blocks of rows against all of them."""
        members = np.flatnonzero(labels >= 0)
        own = labels[members]
        parts = []
        step = max(1, min(256, _BLOCK_CELLS // max(1, len(members))))
        for lo in range(0, len(members), step):
            block = self.block(members[lo : lo + step], members)
            r, c = np.nonzero((block <= D) & (own[lo : lo + step, None] < own))
            parts.append((own[lo + r], own[c], block[r, c]))
        return _pairs(parts)


class DenseDistances(Distances):
    """A distance matrix held whole, for small spaces."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix)
        self.shape = self.matrix.shape

    def _rows(self, rows, cols, out) -> None:
        # same_kind refuses a non-integer table instead of truncating it.
        np.copyto(out, self.matrix[rows[:, None], cols], casting="same_kind")


class L1Distances(Distances):
    """The L1 distances of a free abelian ball, computed from the
    coordinates and never stored."""

    def __init__(self, axes: np.ndarray, radius: int):
        """axes: the (rank, points) int32 coordinates, one row per axis."""
        self.axes = axes
        self.radius = radius
        self.shape = (axes.shape[1], axes.shape[1])

    def _rows(self, rows, cols, out) -> None:
        """Summed one axis at a time with in-place ufuncs, from the second
        axis on through one buffer the size of the chunk."""
        first, *rest = self.axes
        np.subtract.outer(first[rows], first[cols], out=out)
        np.abs(out, out=out)
        tmp = np.empty_like(out) if rest else None
        for axis in rest:
            np.subtract.outer(axis[rows], axis[cols], out=tmp)
            np.abs(tmp, out=tmp)
            out += tmp

    def diameter(self, members: np.ndarray, runs: np.ndarray) -> int:
        """|x - y|_1 is the largest s.(x - y) over sign vectors s, and s and
        -s give the same spread, so a run's diameter is the widest spread
        of its points' projections on the sign vectors with s[0] = 1."""
        starts = np.searchsorted(runs, np.arange(runs[-1] + 1))
        signs = [(1, *s) for s in product((1, -1), repeat=len(self.axes) - 1)]
        proj = np.array(signs, dtype=np.int32) @ self.axes[:, members]
        top = np.maximum.reduceat(proj, starts, axis=1)
        return int((top - np.minimum.reduceat(proj, starts, axis=1)).max())

    def close_labels(self, labels: np.ndarray, D: int):
        """The labels go into a grid over the ball's bounding box, which is
        compared with its own shift by every offset in one half of the L1
        ball of radius D; the other half gives the same pairs.  That reads
        offsets x cells, and where that is more than the members squared
        the pairwise default runs instead."""
        rank, r = len(self.axes), self.radius
        reach, side = min(D, 2 * r), 2 * r + 1
        members = int(np.count_nonzero(labels >= 0))
        half = (_ball_count(GroupSpec("FreeAbelian", rank), reach, members**2) - 1) // 2
        if half * side**rank > members**2:
            return super().close_labels(labels, D)
        grid = np.full((side,) * rank, -1, dtype=np.int32)
        grid[tuple(self.axes + r)] = labels
        offsets = _abelian_points(rank, reach)[:, 1:]
        lead = offsets[np.argmax(offsets != 0, axis=0), np.arange(offsets.shape[1])]
        parts = []
        for o in offsets[:, lead > 0].T.tolist():
            x = grid[tuple(slice(max(0, -c), side - max(0, c)) for c in o)]
            y = grid[tuple(slice(max(0, c), side - max(0, -c)) for c in o)]
            hit = (x != y) & (np.minimum(x, y) >= 0)
            if hit.any():
                x, y = x[hit], y[hit]
                norm = sum(map(abs, o))
                parts.append((np.minimum(x, y), np.maximum(x, y), np.full(len(x), norm, np.int32)))
        return _pairs(parts)


class InducedDistances(Distances):
    """Breadth-first distances inside a ball of a Cayley graph.

    adj is the (n, k) array of each point's neighbours, in which a
    neighbour outside the ball stands in as the point itself; it must be
    symmetric and connected.
    """

    def __init__(self, adj: np.ndarray):
        self.adj = adj
        self.shape = (len(adj), len(adj))

    def _rows(self, rows, cols, out) -> None:
        """A breadth-first search from every row at once, level by level
        until it reaches every requested column."""
        seen = np.zeros((self.shape[0], len(rows)), dtype=bool)
        seen[rows, np.arange(len(rows))] = True
        frontier = seen.copy()
        part = np.where(cols[:, None] == rows, 0, -1).astype(np.int32)
        level = 0
        while np.any(part < 0):
            level += 1
            reached = frontier[self.adj].any(axis=1)
            reached &= ~seen
            if not reached.any():
                raise AssertionError("ball graph is disconnected")
            seen |= reached
            part[reached[cols]] = level
            frontier = reached
        out[...] = part.T

    def _walk(self, sources, D: int):
        """Arrays (s, c, d): every point c within D of a source s, at
        distance d.  A level-L pair's neighbours lie on levels L - 1, L and
        L + 1, so a level's new pairs are its candidates less two levels."""
        n, k = self.adj.shape
        src = cur = np.asarray(sources, dtype=np.int64)
        older, last = np.empty(0, np.int64), np.sort(src * n + cur)
        parts = [(src, cur, np.zeros(len(src), np.int32))]
        level = 0
        while level < D:
            level += 1
            code = np.unique(np.repeat(src, k) * n + self.adj[cur].ravel())
            code = np.setdiff1d(code, np.concatenate((older, last)), assume_unique=True)
            if not len(code):
                break
            older, last = last, code
            src, cur = np.divmod(code, n)
            parts.append((src, cur, np.full(len(code), level, np.int32)))
        return _pairs(parts)

    def close_labels(self, labels: np.ndarray, D: int):
        """Walks to depth D from every labelled point, in groups whose walks
        fill about one block; point 0, the identity, has the largest."""
        members = np.flatnonzero(labels >= 0)
        step = max(1, _BLOCK_CELLS // len(self._walk([0], D)[0]))
        parts = []
        for lo in range(0, len(members), step):
            s, c, d = self._walk(members[lo : lo + step], D)
            a, b = labels[s], labels[c]
            keep = a < b
            parts.append((a[keep], b[keep], d[keep]))
        return _pairs(parts)


class WordDistances(InducedDistances):
    """Word distances |u| + |v| - 2 lcp(u, v) in a free group ball.

    A tree's ball holds the geodesics between its points, so the walks of
    InducedDistances hold; blocks and diameters use closed forms.  In
    breadth-first order each word of depth L >= 1 has w = 2 rank - 1
    children, listed together, so the word at position p of depth L has
    the ancestor at position p // w**(L - d) at depth d >= 1; lcp(u, v) is
    the deepest d at which the ancestors agree.
    """

    def __init__(self, rank: int, r: int):
        q = 2 * rank
        self.w = w = q - 1
        sizes = [1] + [q * w ** (level - 1) for level in range(1, r + 1)]
        start = np.cumsum([0] + sizes)
        self.depth = np.repeat(np.arange(r + 1), sizes)
        every = np.arange(len(self.depth))
        self.pos = every - start[self.depth]
        self._powers = w ** np.arange(r + 1, dtype=np.int64)
        adj = np.empty((len(every), q), dtype=np.intp)
        adj[:, 0] = np.where(self.depth > 1, start[self.depth - 1] + self.pos // w, 0)
        child = start[np.minimum(self.depth + 1, r)] + self.pos * w
        for c in range(w):
            adj[:, 1 + c] = np.where(self.depth < r, child + c, every)
        adj[0] = np.arange(1, q + 1)
        super().__init__(adj)

    def _rows(self, rows, cols, out) -> None:
        out[...] = self._between(rows[:, None], cols)

    def _between(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Distances between the words of the index arrays u and v, which
        broadcast; the common prefix length is found by bisection."""
        du, dv, pu, pv = self.depth[u], self.depth[v], self.pos[u], self.pos[v]
        hi = np.minimum(du, dv)
        if self.w == 1:
            # Two rays: the shorter word is a prefix unless the signs differ.
            return du + dv - 2 * np.where(pu == pv, hi, 0)
        lo = np.zeros(hi.shape, dtype=np.intp)
        while np.any(lo < hi):
            mid = (lo + hi + 1) // 2
            agree = pu // self._powers[du - mid] == pv // self._powers[dv - mid]
            lo = np.where(agree, mid, lo)
            hi = np.where(agree, hi, mid - 1)
        return du + dv - 2 * lo

    def diameter(self, members: np.ndarray, runs: np.ndarray) -> int:
        """Two sweeps per run, exact in a tree: the member farthest from
        any member is an end of a longest pair."""
        starts = np.searchsorted(runs, np.arange(runs[-1] + 1))
        far = self._between(members[starts][runs], members)
        ends = np.flatnonzero(far == np.maximum.reduceat(far, starts)[runs])
        ends = ends[np.unique(runs[ends], return_index=True)[1]]
        return int(self._between(members[ends][runs], members).max())


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


def _heisenberg_ball(r: int, limit: int):
    """The radius-r ball, sorted by word length and then coordinates, as
    (points, adj): points() lists the points, adj is the (n, 4) adjacency
    (see InducedDistances); or None once the walk finds more than limit.

    The generators X, Y and their inverses map (a, b, c) to (a +- 1, b, c)
    and (a, b +- 1, c +- a).  A point is one int, whose mixed-radix digits
    are a, b and c made nonnegative, so ints sort as coordinates do.  A
    point of length d has |a|, |b| <= d and |c| <= d * d, so the digits
    hold every point of length up to top: the ball, its neighbours, and
    any point found before the walk stops, as the powers of X put more
    than limit points within length limit.
    """
    top = min(r, limit) + 1
    sb = 2 * top * top + 1
    sa = (2 * top + 1) * sb
    # A Y step adds sb + a, where a = key // sa - top.
    y = sb - top
    keys = [top * (sa + sb + top)]
    seen = set(keys)
    sphere = keys
    for _ in range(r):
        found = []
        for k in sphere:
            step = k // sa + y
            for q in (k + sa, k - sa, k + step, k - step):
                if q not in seen:
                    seen.add(q)
                    if len(seen) > limit:
                        return None
                    found.append(q)
        found.sort()
        keys += found
        sphere = found

    def points():
        for k in keys:
            a, bc = divmod(k, sa)
            b, c = divmod(bc, sb)
            yield a - top, b - top, c - top * top

    key = np.array(keys, dtype=np.int64)
    step = key // sa + y
    near = np.stack((key + sa, key - sa, key + step, key - step), axis=1)
    # The keys are sorted runs, one per sphere, which a stable sort merges.
    order = np.argsort(key, kind="stable")
    at = order[np.searchsorted(key, near, sorter=order).clip(max=len(keys) - 1)]
    return points, np.where(key[at] == near, at, np.arange(len(keys))[:, None])


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
    axes = space.dist.axes
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
            B = max(B, space.dist.diameter(kept, np.cumsum(new_brick) - 1))
    assert B <= 2 * n * (n + 1) * (D + 1), "brick diameter exceeded its proven bound"
    return CoverWitness(space, families, D, B)


def verify_cover(witness: CoverWitness) -> CoverReport:
    """Check the three cover conditions and recompute B.

    Violations name the family/subset pair and the offending distance; the
    verdict is data, not an exception.  A family's diameters and close
    subsets come from the space's own oracle, whatever its size, which for
    a ball compares only members within D of each other.  A family with no
    empty subset and no index out of range is read by min, max and
    set.update alone; only another is walked subset by subset.
    """
    space = witness.space
    n = len(space)
    violations: list[str] = []
    covered: set[int] = set()
    # Per family, the numbers of its subsets that keep a point in range,
    # and those points.
    checked = []
    for f, family in enumerate(witness.families):
        if (all(family) and min(map(min, family), default=0) >= 0
                and max(map(max, family), default=0) < n):
            covered.update(*family)
            checked.append((range(len(family)), family))
            continue
        names, clean = [], []
        for s, subset in enumerate(family):
            if not subset:
                violations.append(f"family {f} subset {s} is empty")
                continue
            for idx in subset:
                if not 0 <= idx < n:
                    violations.append(
                        f"family {f} subset {s} references point {idx}, outside 0..{n - 1}"
                    )
            inside = [i for i in subset if 0 <= i < n]
            if inside:
                covered.update(inside)
                names.append(s)
                clean.append(inside)
        checked.append((names, clean))
    if len(covered) < n:
        violations.extend(
            f"point {i} at {space.points[i]} is uncovered" for i in range(n) if i not in covered
        )
    dist = space.dist
    recomputed = 0
    for f, (names, clean) in enumerate(checked):
        if not clean:
            continue
        sizes = list(map(len, clean))
        members = np.fromiter(chain.from_iterable(clean), dtype=np.intp, count=sum(sizes))
        runs = np.repeat(np.arange(len(sizes)), sizes)
        recomputed = max(recomputed, dist.diameter(members, runs))
        for (a, b), gap in _close_pairs(dist, members, runs, witness.D):
            violations.append(
                f"family {f}: subsets {names[a]} and {names[b]} are at distance {gap},"
                f" need more than D={witness.D}"
            )
    if recomputed != witness.B:
        violations.append(f"recorded B={witness.B} but recomputed B={recomputed}")
    return CoverReport(valid=not violations, violations=violations)


def _close_pairs(dist: Distances, members: np.ndarray, runs: np.ndarray, D: int):
    """Sorted ((a, b), gap) for the runs a < b (see Distances.diameter)
    that come within D of each other, gap their distance.

    dist.close_labels reads each point labelled with its run, or the k-th
    point in several runs with a label of its own, count + k.  A pair of
    labels stands for each pair of distinct runs across it, and such a
    label paired with itself at 0 for each two runs of its point.
    """
    count = int(runs[-1]) + 1
    if count < 2:
        return []
    labels = np.full(dist.shape[0], -1, dtype=np.intp)
    labels[members] = runs
    lost = labels[members] != runs
    if lost.any():
        shared = np.unique(members[lost])
        own = labels[shared] = count + np.arange(len(shared))
        # Label l stands for the runs flat[start[l]:start[l] + width[l]].
        label, flat = np.divmod(np.unique(labels[members] * count + runs), count)
        start = np.searchsorted(label, np.arange(own[-1] + 1))
        width = np.diff(start, append=len(label))
    a, b, d = dist.close_labels(labels, D)
    if lost.any():
        wide = b >= count
        la, lb, gap = np.append(a[wide], own), np.append(b[wide], own), np.append(d[wide], 0 * own)
        # Label pair p stands for times[p] pairs of runs; k numbers them.
        times = width[la] * width[lb]
        pair = np.repeat(np.arange(len(la)), times)
        k = np.arange(len(pair)) - (np.cumsum(times) - times)[pair]
        x = flat[start[la[pair]] + k // width[lb[pair]]]
        y = flat[start[lb[pair]] + k % width[lb[pair]]]
        keep = x != y
        a = np.append(a[~wide], np.minimum(x, y)[keep])
        b = np.append(b[~wide], np.maximum(x, y)[keep])
        d = np.append(d[~wide], gap[pair[keep]])
    if not len(a):
        return []
    code = a.astype(np.int64) * count + b
    order = np.lexsort((d, code))
    # np.unique sorts stably, so each code keeps its least d.
    code, least = np.unique(code[order], return_index=True)
    return [(divmod(c, count), g) for c, g in zip(code.tolist(), d[order][least].tolist())]


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
    table = space.dist.block(range(n), range(n))
    dist = table.tolist()
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
        # The witness keeps the table read above, so verifying it reads none,
        # and lists the points only when they are read.
        kept = _Ball(DenseDistances(table), space.label, lambda: space.points)
        return SearchResult(k, CoverWitness(kept, families, D, actual_b), nodes)
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


# A subset line's body as format_witness writes it: numerals as str()
# writes them for integers n >= 0, joined by commas, each of at most 19
# digits: int() converts them all, and no longer index is in range.
_INDEX_LIST = re.compile(r"(?:0|[1-9][0-9]{0,18})(?:,(?:0|[1-9][0-9]{0,18}))*")


def _natural(text: str) -> int | None:
    """The value of a numeral as str() writes one for an integer n >= 0, or
    None: for a sign, space, underscore, leading zero or non-ASCII digit,
    and for more digits than int() converts."""
    if text.isascii() and text.isdigit() and (text[0] != "0" or len(text) == 1):
        try:
            return int(text)
        except ValueError:
            pass
    return None


def _parse_label(label: str, lineno: int) -> FiniteMetricSpace:
    """The ball a label names.  Its fields come in cayley_ball's order,
    joined by single spaces, with no blank in a value; any other label is
    a bad space label."""
    fields = re.fullmatch(r"group=(\S*) radius=(\S*)(?: metric=(\S*))?", label)
    if fields is None:
        raise WitnessFormatError(f"bad space label {label!r}", lineno)
    group, radius, metric = fields.groups()
    radius = _natural(radius)
    if radius is None:
        raise WitnessFormatError(f"bad radius in label {label!r}", lineno)
    try:
        spec = parse_group_spec(group)
        # cayley_ball writes metric=induced-ball into Heisenberg3 labels only;
        # a Heisenberg3 label may leave the field out.
        if metric is not None and (metric != "induced-ball" or spec.family != "Heisenberg3"):
            raise ValueError(f"bad metric in label {label!r}")
        return cayley_ball(spec, radius)
    except ValueError as exc:  # also cayley_ball refusing the ball the label names
        raise WitnessFormatError(str(exc), lineno) from exc


def _refuse_subset(body: str, n: int, lineno: int) -> NoReturn:
    """Refuse a subset line body, naming its first bad piece."""
    seen: set[int] = set()
    for piece in body.split(","):
        i = _natural(piece)
        if i is None or i >= n or i in seen:
            break
        seen.add(i)
    if i is None:
        raise WitnessFormatError(f"bad point index {piece!r}", lineno)
    if i >= n:
        raise WitnessFormatError(f"point index {i} out of range for {n}-point space", lineno)
    raise WitnessFormatError(f"duplicate point index {i}", lineno)


def parse_witness(text: str) -> CoverWitness:
    """Rebuild a CoverWitness from its file form.

    Family indices increase line by line; an index that skips ahead
    stands for empty families in between, which format_witness writes no
    line for.  A family index must be below the point count.  Syntactic
    problems, and a label naming a ball cayley_ball refuses, raise
    WitnessFormatError with a line number; whether the witness is a valid
    cover is verify_cover's business.

    Records end at "\n" alone, less one trailing "\r" each (CRLF text), so
    no other line break character can split a line.  A subset line is read
    in one step, one regex match and one int per numeral; any body that
    step declines (not a list of numerals, an index past the space, a
    repeat or a numeral too long for int()) is refused, naming its first
    bad piece.
    """
    lines = split_records(text)
    if len(lines) < 4:
        raise WitnessFormatError("witness needs header, label, D and B lines", len(lines) + 1)
    if lines[0] != "coarse-witness v1":
        raise WitnessFormatError(f"bad header {lines[0]!r}", 1)
    space = _parse_label(lines[1], 2)
    n = len(space)
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
            if fam >= n:
                raise WitnessFormatError(
                    f"family index {fam} out of range for {n}-point space", lineno
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
        if _INDEX_LIST.fullmatch(body):
            # A comprehension, not list(map(int, ...)): tracemalloc finds the
            # line of the frame that allocates each int, which takes a scan
            # of that frame's code, and this frame is short.
            subset = [int(piece) for piece in body.split(",")]
            if max(subset) < n and len(set(subset)) == len(subset):
                families[fam].append(subset)
                continue
        _refuse_subset(body, n, lineno)
    return CoverWitness(space, families, D, B)
