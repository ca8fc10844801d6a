"""Cayley balls, brick covers, exhaustive search, witness files.

The metric and search results are cross-checked against independent
reimplementations (explicit word reduction, matrix min-plus shortest
paths, brute-force colorings) rather than against the module itself.
"""

import itertools
import random
import time
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdimlab import coarse
from asdimlab.coarse import (
    SEARCH_POINT_LIMIT,
    BallBudgetError,
    CoverWitness,
    FiniteMetricSpace,
    GroupSpec,
    WitnessFormatError,
    brick_cover,
    cayley_ball,
    format_witness,
    min_families_exhaustive,
    parse_group_spec,
    parse_witness,
    verify_cover,
)


def test_group_spec_round_trip():
    for text in ("FreeAbelian(1)", "FreeAbelian(3)", "FreeGroup(2)", "Heisenberg3"):
        assert str(parse_group_spec(text)) == text
    for bad in ("FreeAbelian(0)", "FreeAbelian(4)", "FreeGroup(3)", "Heisenberg3(1)", "Zx"):
        with pytest.raises(ValueError):
            parse_group_spec(bad)


def test_ball_sizes():
    assert len(cayley_ball(GroupSpec("FreeAbelian", 1), 5)) == 11
    assert len(cayley_ball(GroupSpec("FreeAbelian", 2), 3)) == 25
    assert len(cayley_ball(GroupSpec("FreeGroup", 1), 5)) == 11
    assert len(cayley_ball(GroupSpec("FreeGroup", 2), 4)) == 161


def test_metric_axioms():
    for spec, radius in (
        (GroupSpec("FreeAbelian", 2), 3),
        (GroupSpec("FreeAbelian", 3), 2),
        (GroupSpec("FreeGroup", 2), 3),
        (GroupSpec("Heisenberg3"), 3),
    ):
        cayley_ball(spec, radius).check_metric()


def test_points_sorted_by_norm_then_lex():
    ball = cayley_ball(GroupSpec("FreeAbelian", 2), 2)
    norms = [sum(abs(c) for c in p) for p in ball.points]
    assert norms == sorted(norms)
    assert ball.points[0] == (0, 0)
    # identity first, then the radius-1 sphere in lexicographic order
    assert ball.points[1:5] == ((-1, 0), (0, -1), (0, 1), (1, 0))


def test_abelian_metric_is_l1():
    ball = cayley_ball(GroupSpec("FreeAbelian", 2), 3)
    for i, p in enumerate(ball.points):
        for j, q in enumerate(ball.points):
            assert ball.dist[i, j] == abs(p[0] - q[0]) + abs(p[1] - q[1])


def _reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def test_free_group_metric_against_word_reduction():
    ball = cayley_ball(GroupSpec("FreeGroup", 2), 3)
    for i, u in enumerate(ball.points):
        inv = tuple(-x for x in reversed(u))
        for j, v in enumerate(ball.points):
            assert ball.dist[i, j] == len(_reduce(inv + v)), (u, v)


def test_free_group_words_are_reduced_and_ordered():
    ball = cayley_ball(GroupSpec("FreeGroup", 2), 2)
    assert ball.points[0] == ()
    assert ball.points[1:5] == ((1,), (-1,), (2,), (-2,))
    for w in ball.points:
        assert _reduce(w) == w


def test_heisenberg_metric_against_min_plus():
    ball = cayley_ball(GroupSpec("Heisenberg3"), 3)
    n = len(ball)
    dist = ball.dist.block(range(n), range(n))
    big = 10**6
    d = np.where(dist == 1, 1, big)
    np.fill_diagonal(d, 0)
    # Floyd-Warshall by repeated min-plus squaring over the ball graph
    reach = d
    for _ in range(int(np.ceil(np.log2(n))) + 1):
        reach = np.minimum(reach, np.min(reach[:, None, :] + reach.T[None, :, :], axis=2))
    assert np.array_equal(reach, dist)


def test_heisenberg_noncommutativity_shows_up():
    ball = cayley_ball(GroupSpec("Heisenberg3"), 2)
    pts = set(ball.points)
    # xy and yx land on different points: the central coordinate differs
    assert (1, 1, 1) in pts and (1, 1, 0) in pts


def test_budget_guard():
    with pytest.raises(BallBudgetError):
        cayley_ball(GroupSpec("FreeAbelian", 2), 10, point_budget=100)
    with pytest.raises(BallBudgetError):
        cayley_ball(GroupSpec("Heisenberg3"), 6, point_budget=50)


def _refuse(*args):
    raise AssertionError("ball was built past its budget")


def test_free_group_ball_past_the_old_matrix_limit_builds_without_one():
    # 118,097 points once needed a 56 GB matrix, and a 2 GiB limit refused
    # the ball; the word oracle needs none.
    ball, peak = _traced_peak(lambda: cayley_ball(GroupSpec("FreeGroup", 2), 10))
    n = len(ball)
    assert n == 118_097 and ball.dist.shape == (n, n)
    assert peak < 64 * 2**20, peak
    assert ball.dist[0, n - 1] == 10 and ball.dist[n - 1, n - 2] == 2
    assert ball.dist[ball.points.index((1,) * 10), ball.points.index((-1,) * 10)] == 20


def test_free_abelian_ball_past_the_matrix_limit_builds_without_one():
    # 199,081 points would need a 158 GB matrix; the L1 oracle needs none.
    ball, peak = _traced_peak(lambda: cayley_ball(GroupSpec("FreeAbelian", 2), 315))
    assert len(ball) == 199_081 and ball.dist.shape == (199_081, 199_081)
    assert peak < 64 * 2**20, peak
    assert ball.points[-1] == (315, 0)
    assert ball.dist[0, len(ball) - 1] == 315
    assert ball.dist[ball.points.index((-315, 0)), len(ball) - 1] == 630


def test_free_group_radius_seven_ball_holds_no_matrix():
    # Its int32 matrix would take 76 MB.
    ball, peak = _traced_peak(lambda: cayley_ball(GroupSpec("FreeGroup", 2), 7))
    assert len(ball) == 4_373
    assert peak < 2 * 2**20, peak
    arrays = [v for v in vars(ball.dist).values() if isinstance(v, np.ndarray)]
    assert arrays and all(v.size < len(ball) ** 2 // 100 for v in arrays)


def test_heisenberg_balls_hold_their_graph_not_a_matrix():
    ball, peak = _traced_peak(lambda: cayley_ball(GroupSpec("Heisenberg3"), 3))
    assert ball.dist.adj.shape == (len(ball), 4)
    assert peak < 64 * 2**10, peak
    ball, peak = _traced_peak(lambda: cayley_ball(GroupSpec("Heisenberg3"), 9))
    assert peak < 4 * len(ball) ** 2 // 8, (len(ball), peak)


def test_heisenberg_ball_past_the_point_budget_stops_at_once(monkeypatch):
    found = []

    class Found(set):
        """The set each sphere's new points are added to, one at a time."""

        def add(self, item):
            found.append(item)
            super().add(item)

    monkeypatch.setattr(coarse, "set", Found, raising=False)
    monkeypatch.setattr(coarse, "InducedDistances", _refuse)
    # Radius 40 holds over a million points; the walk stops one point past
    # the 200,000 of the point budget, each point found once.
    with pytest.raises(BallBudgetError, match="more than 200000 points"):
        cayley_ball(GroupSpec("Heisenberg3"), 40)
    assert 1 + len(found) == 200_001 and len(set(found)) == len(found)
    monkeypatch.undo()
    # The walk holds a few hundred bytes per point, shown on a smaller budget.
    tracemalloc.start()
    try:
        with pytest.raises(BallBudgetError, match="more than 23170 points"):
            cayley_ball(GroupSpec("Heisenberg3"), 40, point_budget=23_170)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 23_170, peak


def test_huge_radii_are_refused_without_forming_their_count(monkeypatch):
    for name in ("_abelian_points", "L1Distances", "_free_words", "WordDistances"):
        monkeypatch.setattr(coarse, name, _refuse)
    # 3**50_000 and 2 * (10**4000)**2 have far more digits than str() prints.
    for spec, radius in (
        (GroupSpec("FreeGroup", 2), 50_000),
        (GroupSpec("FreeGroup", 2), 10**6),
        (GroupSpec("FreeGroup", 1), 10**4000),
        (GroupSpec("FreeAbelian", 2), 10**4000),
        (GroupSpec("FreeAbelian", 3), 10**4000),
    ):
        with pytest.raises(BallBudgetError, match="more than 200000 points"):
            cayley_ball(spec, radius)
        with pytest.raises(BallBudgetError, match="24 points"):
            cayley_ball(spec, radius, SEARCH_POINT_LIMIT)


def test_search_size_is_checked_before_any_distance(monkeypatch):
    for name in ("L1Distances", "WordDistances", "InducedDistances"):
        monkeypatch.setattr(coarse, name, _refuse)
    for spec, radius in (
        (GroupSpec("FreeAbelian", 2), 3),  # 25 points, one too many
        (GroupSpec("FreeAbelian", 3), 300),
        (GroupSpec("FreeGroup", 2), 3),
        (GroupSpec("Heisenberg3"), 1_000),
    ):
        with pytest.raises(BallBudgetError, match="24 points"):
            cayley_ball(spec, radius, SEARCH_POINT_LIMIT)
    with pytest.raises(ValueError):
        cayley_ball(GroupSpec("Heisenberg3"), -1, SEARCH_POINT_LIMIT)
    monkeypatch.undo()
    for spec, radius in ((GroupSpec("FreeAbelian", 1), 11), (GroupSpec("Heisenberg3"), 2)):
        assert len(cayley_ball(spec, radius, SEARCH_POINT_LIMIT)) <= SEARCH_POINT_LIMIT


# Independent definitions of the three metrics, entry by entry.


def _l1_reference(points):
    return [[sum(abs(a - b) for a, b in zip(p, q)) for q in points] for p in points]


def _lcp(u, v):
    common = 0
    for a, b in zip(u, v):
        if a != b:
            break
        common += 1
    return common


def _word_reference(words):
    return [[len(u) + len(v) - 2 * _lcp(u, v) for v in words] for u in words]


def _heisenberg_neighbors(p):
    a, b, c = p
    # Right multiplication by the generators X, Y and their inverses in the
    # integer Heisenberg group, coordinates (a, b, c).
    return (
        (a + 1, b, c),
        (a - 1, b, c),
        (a, b + 1, c + a),
        (a, b - 1, c - a),
    )


def _induced_reference(points, neighbors):
    index = {p: i for i, p in enumerate(points)}
    rows = []
    for src in range(len(points)):
        row = [-1] * len(points)
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for q in neighbors(points[u]):
                w = index.get(q)
                if w is not None and row[w] < 0:
                    row[w] = row[u] + 1
                    queue.append(w)
        rows.append(row)
    return rows


def _reference(space):
    """The distance table of a ball, from the definitions above."""
    if space.label.startswith("group=FreeAbelian"):
        return _l1_reference(space.points)
    if space.label.startswith("group=FreeGroup"):
        return _word_reference(space.points)
    return _induced_reference(space.points, _heisenberg_neighbors)


# Independent references for the order of each family's points.


def _lattice_order(rank, r):
    """Every point of Z^rank within r in L1, sorted by norm and then
    coordinates."""
    box = itertools.product(range(-r, r + 1), repeat=rank)
    return sorted((p for p in box if sum(map(abs, p)) <= r), key=lambda p: (sum(map(abs, p)), p))


def _free_order(rank, r):
    """The reduced words of length at most r in breadth-first order, each
    word's children listed in the letter order 1, -1, 2, -2."""
    letters = [1, -1, 2, -2][: 2 * rank]
    words, queue = [()], deque([()])
    while queue:
        w = queue.popleft()
        if len(w) < r:
            for x in letters:
                if not w or w[-1] != -x:
                    words.append(w + (x,))
                    queue.append(w + (x,))
    return words


def _heisenberg_order(r):
    """The radius-r ball by a breadth-first search over point tuples,
    sorted by word length and then coordinates, and each point's set of
    neighbour indices, a neighbour outside the ball standing in as the
    point itself."""
    depth = {(0, 0, 0): 0}
    queue = deque(depth)
    while queue:
        p = queue.popleft()
        if depth[p] < r:
            for q in _heisenberg_neighbors(p):
                if q not in depth:
                    depth[q] = depth[p] + 1
                    queue.append(q)
    points = sorted(depth, key=lambda p: (depth[p], p))
    index = {p: i for i, p in enumerate(points)}
    return points, [{index.get(q, i) for q in _heisenberg_neighbors(p)} for i, p in enumerate(points)]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_abelian_points_come_in_norm_then_coordinate_order(rank):
    for r in range(1, 7):
        assert list(cayley_ball(GroupSpec("FreeAbelian", rank), r).points) == _lattice_order(rank, r)


@pytest.mark.parametrize("rank", [1, 2])
def test_free_group_points_come_in_breadth_first_order(rank):
    for r in range(1, 5):
        assert list(cayley_ball(GroupSpec("FreeGroup", rank), r).points) == _free_order(rank, r)


@pytest.mark.parametrize("r", range(1, 7))
def test_heisenberg_points_and_neighbours_match_a_tuple_walk(r):
    ball = cayley_ball(GroupSpec("Heisenberg3"), r)
    points, near = _heisenberg_order(r)
    assert list(ball.points) == points
    assert [set(row) for row in ball.dist.adj.tolist()] == near


def _dense_sub_ball(radius):
    """Every other point of the Z^2 ball, its distances a DenseDistances table."""
    ball = cayley_ball(GroupSpec("FreeAbelian", 2), radius)
    keep = list(range(0, len(ball), 2))
    space = FiniteMetricSpace(
        [ball.points[i] for i in keep], ball.dist.block(keep, keep), ball.label
    )
    assert type(space.dist) is coarse.DenseDistances
    return space


@pytest.mark.parametrize(
    "spec,radius",
    [
        (GroupSpec("FreeAbelian", 1), 40),
        (GroupSpec("FreeAbelian", 2), 7),
        (GroupSpec("FreeAbelian", 3), 4),
        (GroupSpec("FreeGroup", 1), 200),
        (GroupSpec("FreeGroup", 2), 5),
        (GroupSpec("Heisenberg3"), 5),
        (_dense_sub_ball, 7),
    ],
)
def test_matrix_builders_match_their_definitions(spec, radius):
    # No builder makes the matrix any more: its oracle reads it entry by
    # entry and block by block.
    ball = spec(radius) if callable(spec) else cayley_ball(spec, radius)
    oracle, want, n = ball.dist, _reference(ball), len(ball)
    assert oracle.shape == (n, n)
    got = oracle.block(range(n), range(n))
    assert isinstance(got, np.ndarray) and got.dtype == np.int32
    assert got.tolist() == want
    rng = random.Random(radius)
    pairs = [(0, 0), (0, n - 1), (n - 1, 0)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(50)]
    for i, j in pairs:
        entry = oracle[i, j]
        assert type(entry) is int and entry == want[i][j], (i, j)
    rows = [rng.randrange(n) for _ in range(37)]
    cols = [rng.randrange(n) for _ in range(41)]
    assert oracle.block(rows, cols).tolist() == [[want[i][j] for j in cols] for i in rows]


@pytest.mark.parametrize("spec", [GroupSpec("FreeAbelian", 2), GroupSpec("FreeGroup", 2),
                                  GroupSpec("Heisenberg3"), _dense_sub_ball])
def test_a_row_of_single_distances_is_read_as_one_block(spec):
    space = spec(3) if callable(spec) else cayley_ball(spec, 3)
    dist, want, n = space.dist, _reference(space), len(space)
    calls = []
    rows = dist._rows
    dist._rows = lambda *args: (calls.append(args[0].tolist()), rows(*args))
    for i in (n - 1, 0):
        assert [dist[i, j] for j in range(n)] == want[i]
    assert calls == [[n - 1], [0]]
    # A table that is not integer is refused, not truncated.
    with pytest.raises(TypeError):
        FiniteMetricSpace([(0,), (1,)], [[0, 0.5], [0.5, 0]], "x").dist.block([0, 1], [0, 1])


@pytest.mark.parametrize(
    "spec,radius",
    [
        (GroupSpec("FreeAbelian", 1), 30),
        (GroupSpec("FreeAbelian", 2), 6),
        (GroupSpec("FreeAbelian", 3), 3),
        (GroupSpec("FreeGroup", 1), 30),
        (GroupSpec("FreeGroup", 2), 4),
        (GroupSpec("Heisenberg3"), 4),
    ],
)
def test_oracle_diameters_and_close_labels_match_their_definitions(spec, radius):
    ball = cayley_ball(spec, radius)
    want, n = _reference(ball), len(ball)
    rng = random.Random(radius)
    # D past the ball's diameter too, where the Z^n grid gives way to pairs.
    for D in (1, 2, 3, 4 * radius + 1):
        labels = np.array([rng.choice((-1, -1, 0, 1, 2, 3, 4)) for _ in range(n)])
        a, b, d = ball.dist.close_labels(labels, D)
        got = {}
        for x, y, g in zip(a.tolist(), b.tolist(), d.tolist()):
            assert x < y and g <= D, (x, y, g)
            got[x, y] = min(got.get((x, y), g), g)
        expect = {}
        for i in range(n):
            for j in range(n):
                x, y = labels[i], labels[j]
                if 0 <= x < y and want[i][j] <= D:
                    expect[x, y] = min(expect.get((x, y), want[i][j]), want[i][j])
        assert got == expect, D
    for _ in range(20):
        members = rng.sample(range(n), rng.randint(1, n))
        cuts = sorted(rng.sample(range(1, len(members)), min(len(members) - 1, rng.randint(0, 6))))
        runs = [members[a:b] for a, b in zip([0] + cuts, cuts + [len(members)])]
        expect = max(want[i][j] for run in runs for i in run for j in run)
        ids = np.repeat(np.arange(len(runs)), [len(run) for run in runs])
        got = ball.dist.diameter(np.array(members), ids)
        assert got == expect, runs


def test_l1_blocks_follow_the_index_order():
    ball = cayley_ball(GroupSpec("FreeAbelian", 3), 3)
    want = _l1_reference(ball.points)
    rng = random.Random(7)
    for rows, cols in (([5], [5]), ([], [1, 2]), ([3, 1, 3], [0]), (list(range(9)), [9, 2, 9, 40])):
        block = ball.dist.block(rows, cols)
        assert block.dtype == np.int32
        assert block.tolist() == [[want[i][j] for j in cols] for i in rows]
    rows = [rng.randrange(len(ball)) for _ in range(37)]
    cols = [rng.randrange(len(ball)) for _ in range(41)]
    assert ball.dist.block(rows, cols).tolist() == [[want[i][j] for j in cols] for i in rows]
    # Keys other than two integers are refused, not read as blocks.
    for key in ((np.array([0, 1]), np.array([2, 3])), ([0, 1], [2, 3]), np.ix_([0], [1])):
        with pytest.raises(TypeError):
            ball.dist[key]
    with pytest.raises(IndexError):
        ball.dist[0, len(ball)]


def test_an_l1_block_needs_at_most_one_buffer_of_its_size():
    ball = cayley_ball(GroupSpec("FreeAbelian", 2), 60)
    block, peak = _traced_peak(lambda: ball.dist.block(range(256), range(len(ball))))
    assert block.shape == (256, 7321)
    assert peak <= 2 * block.nbytes, (peak, block.nbytes)


def _traced_peak(build):
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_builders_and_verify_allocate_no_square_temporary():
    # No ball holds a matrix: each takes less than a quarter of what its
    # int32 matrix would.  A brick or a verification gets 8 MB.
    for spec, radius in ((GroupSpec("FreeGroup", 2), 6), (GroupSpec("Heisenberg3"), 7)):
        ball, peak = _traced_peak(lambda: cayley_ball(spec, radius))
        assert peak <= len(ball) ** 2, (str(spec), peak, len(ball))
    cap = 8 * 2**20
    ball, peak = _traced_peak(lambda: cayley_ball(GroupSpec("FreeAbelian", 2), 36))
    assert len(ball) == 2665 and peak <= cap, peak
    for rank, D, radius in ((2, 2, 28), (3, 3, 12), (2, 5, 60)):
        witness, peak = _traced_peak(lambda: brick_cover(rank, D, radius))
        assert peak <= cap, (rank, D, radius, peak)
        report, peak = _traced_peak(lambda: verify_cover(witness))
        assert report.valid
        assert peak <= cap, (rank, D, radius, peak)


def test_radius_must_be_positive():
    with pytest.raises(ValueError):
        cayley_ball(GroupSpec("FreeAbelian", 1), 0)


def test_brick_cover_structure():
    w = brick_cover(2, 3, 8)
    assert len(w.families) == 3
    assert w.D == 3
    assert w.B <= 2 * 2 * 3 * 4
    report = verify_cover(w)
    assert report.valid, report.violations
    # indices partition-free union covers everything exactly once per family
    n = len(w.space)
    for family in w.families:
        seen = [i for subset in family for i in subset]
        assert len(seen) == len(set(seen))
        assert set(seen) <= set(range(n))


def _brick_reference(rank, D, radius):
    """brick_cover's construction point by point: shift, window test and
    brick key for each point and family, and each brick's diameter from
    all of its pairs."""
    space = cayley_ball(GroupSpec("FreeAbelian", rank), radius)
    T = D + 1
    S = 2 * (rank + 1) * T
    families = []
    for i in range(rank + 1):
        bricks = {}
        for idx, p in enumerate(space.points):
            shifted = [c - 2 * T * i for c in p]
            if all(T <= c % S < S - T for c in shifted):
                bricks.setdefault(tuple(c // S for c in shifted), []).append(idx)
        families.append([bricks[key] for key in sorted(bricks)])
    B = 0
    for family in families:
        for subset in family:
            coords = np.array([space.points[i] for i in subset], dtype=np.int64)
            B = max(B, int(np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2).max()))
    return CoverWitness(space, families, D, B)


@pytest.mark.parametrize("rank,radii", [(1, (1, 9, 40)), (2, (4, 6, 13)), (3, (3, 5, 10))])
def test_brick_cover_matches_its_point_by_point_reading(rank, radii):
    # D at and far past the radius as well, where every D gives the same bricks.
    cases = [(D, radius) for D in (1, 2, 3) for radius in radii]
    cases += [(radii[0], radii[0]), (radii[0] + 1, radii[0]), (10**30, radii[0])]
    for D, radius in cases:
        got, want = brick_cover(rank, D, radius), _brick_reference(rank, D, radius)
        assert got.families == want.families, (rank, D, radius)
        assert format_witness(got) == format_witness(want), (rank, D, radius)


def test_brick_cover_rejects_bad_parameters():
    with pytest.raises(ValueError):
        brick_cover(0, 2, 5)
    with pytest.raises(ValueError):
        brick_cover(4, 2, 5)
    with pytest.raises(ValueError):
        brick_cover(2, 0, 5)


def test_brick_cover_small_grid():
    for n in (1, 2):
        for D in (1, 2, 4):
            w = brick_cover(n, D, 10)
            assert verify_cover(w).valid


def test_verify_cover_catches_uncovered_point():
    w = brick_cover(1, 2, 6)
    pruned = [[list(subset) for subset in family] for family in w.families]
    victim = pruned[0][0].pop(0)
    for family in pruned:
        for subset in family:
            if victim in subset:
                subset.remove(victim)
    report = verify_cover(CoverWitness(w.space, pruned, w.D, w.B))
    assert not report.valid
    assert any("uncovered" in v for v in report.violations)


def test_a_valid_plane_witness_never_builds_the_point_tuple():
    # A free abelian ball keeps its coordinates as an array; its points
    # tuple is built when read, and the brick, witness and verify path
    # reads it only to name an uncovered point.
    ball = cayley_ball(GroupSpec("FreeAbelian", 2), 12)
    witness = brick_cover(2, 2, 12)
    back = parse_witness(format_witness(witness))
    assert verify_cover(back).valid
    assert len(ball) == len(back.space) == 313
    for space in (ball, witness.space, back.space):
        assert "points" not in vars(space)
    victims = {0: (0, 0), 1: (-1, 0), 312: (12, 0)}
    pruned = [[[i for i in s if i not in victims] for s in family] for family in back.families]
    pruned = [[s for s in family if s] for family in pruned]
    report = verify_cover(CoverWitness(back.space, pruned, back.D, back.B))
    uncovered = [v for v in report.violations if "uncovered" in v]
    assert uncovered == [f"point {i} at {p} is uncovered" for i, p in victims.items()]
    assert back.space.points[312] == (12, 0)


def test_no_ball_builds_its_point_tuple_until_it_is_read():
    # Every family keeps what its distance oracle needs; a search witness
    # keeps its space's points unbuilt too, and verify_cover reads them
    # only to name an uncovered point.
    for spec, radius, want in (
        (GroupSpec("FreeGroup", 2), 3, _free_order(2, 3)),
        (GroupSpec("Heisenberg3"), 3, _heisenberg_order(3)[0]),
    ):
        ball = cayley_ball(spec, radius)
        assert len(ball) == len(want) and "points" not in vars(ball)
        assert list(ball.points) == want
    for spec, radius, D, B in (
        (GroupSpec("FreeAbelian", 2), 2, 1, 2),
        (GroupSpec("FreeGroup", 2), 1, 1, 2),
        (GroupSpec("Heisenberg3"), 2, 1, 2),
    ):
        space = cayley_ball(spec, radius, SEARCH_POINT_LIMIT)
        found = min_families_exhaustive(space, D, B)
        witness = found.witness
        assert found.k is not None and verify_cover(witness).valid
        assert "points" not in vars(space) and "points" not in vars(witness.space)
        families = [[list(s) for s in family] for family in witness.families]
        victim = families[0][0].pop()
        families = [[s for s in family if s] for family in families]
        report = verify_cover(CoverWitness(witness.space, families, D, witness.B))
        point = cayley_ball(spec, radius).points[victim]
        assert f"point {victim} at {point} is uncovered" in report.violations
        assert witness.space.points == space.points


def test_verify_cover_catches_separation_failure():
    space = cayley_ball(GroupSpec("FreeAbelian", 1), 3)
    # points 0..6 are 0,-1,1,-2,2,-3,3; subsets {0} and {1} sit at distance 1
    bad = CoverWitness(space, [[[0], [1]], [[2, 3, 4, 5, 6]]], D=2, B=6)
    report = verify_cover(bad)
    assert not report.valid
    assert any("family 0" in v and "distance 1" in v for v in report.violations)


def test_verify_cover_catches_wrong_diameter_record():
    w = brick_cover(1, 1, 6)
    report = verify_cover(CoverWitness(w.space, w.families, w.D, w.B + 5))
    assert not report.valid
    assert any("recomputed" in v for v in report.violations)


def test_verify_cover_catches_junk_subsets():
    space = cayley_ball(GroupSpec("FreeAbelian", 1), 1)
    report = verify_cover(CoverWitness(space, [[[0, 1, 2], [], [99]]], D=1, B=2))
    assert not report.valid
    assert any("empty" in v for v in report.violations)
    assert any("outside" in v for v in report.violations)


def test_min_families_on_the_nine_point_path():
    path = cayley_ball(GroupSpec("FreeAbelian", 1), 4)
    assert len(path) == 9
    got = min_families_exhaustive(path, 2, 3)
    assert got.k == 2
    assert verify_cover(got.witness).valid
    assert min_families_exhaustive(path, 1, 8).k == 1
    assert min_families_exhaustive(path, 2, 3, k_max=1).k is None


def test_min_families_guards():
    big = cayley_ball(GroupSpec("FreeAbelian", 1), 15)
    with pytest.raises(BallBudgetError):
        min_families_exhaustive(big, 1, 1)
    small = cayley_ball(GroupSpec("FreeAbelian", 1), 2)
    with pytest.raises(ValueError):
        min_families_exhaustive(small, 0, 1)
    with pytest.raises(ValueError):
        min_families_exhaustive(small, 1, 1, k_max=9)


def _components(members, near):
    # union-find, deliberately different from the search's BFS grouping
    parent = {i: i for i in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in members:
        for j in near[i]:
            if j in parent:
                parent[find(i)] = find(j)
    groups = {}
    for i in members:
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _naive_min_families(space, D, B, k_max):
    n = len(space)
    dist = space.dist
    near = [[j for j in range(n) if j != i and dist[i, j] <= D] for i in range(n)]
    for k in range(1, k_max + 1):
        for coloring in itertools.product(range(k), repeat=n):
            ok = True
            for c in range(k):
                members = [i for i in range(n) if coloring[i] == c]
                for comp in _components(members, near):
                    if any(dist[a, b] > B for a in comp for b in comp):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return k
    return None


def test_search_agrees_with_naive_enumeration():
    path5 = cayley_ball(GroupSpec("FreeAbelian", 1), 2)
    path7 = cayley_ball(GroupSpec("FreeAbelian", 1), 3)
    free5 = cayley_ball(GroupSpec("FreeGroup", 2), 1)
    for space in (path5, path7, free5):
        for D in (1, 2, 4):
            for B in (1, 2, 4, 6):
                expected = _naive_min_families(space, D, B, 3)
                got = min_families_exhaustive(space, D, B, k_max=3)
                assert got.k == expected, (space.label, D, B)
                if got.k is not None:
                    assert verify_cover(got.witness).valid


# Balls of at most 9 points, searched whole or in part.
SMALL_BALLS = [
    cayley_ball(spec, radius)
    for spec, radius in (
        (GroupSpec("FreeAbelian", 1), 4),
        (GroupSpec("FreeAbelian", 2), 1),
        (GroupSpec("FreeAbelian", 3), 1),
        (GroupSpec("FreeGroup", 1), 3),
        (GroupSpec("FreeGroup", 2), 1),
        (GroupSpec("Heisenberg3"), 1),
    )
]
# The naive search tries up to k_max**points colorings; these caps keep an
# example in milliseconds.
NAIVE_POINTS = {1: 9, 2: 9, 3: 8, 4: 6}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_search_agrees_with_naive_enumeration_on_random_subspaces(data):
    ball = data.draw(st.sampled_from(SMALL_BALLS))
    k_max = data.draw(st.integers(1, 4))
    size = min(len(ball), NAIVE_POINTS[k_max])
    size -= data.draw(st.integers(0, size - 1))
    keep = sorted(data.draw(st.permutations(range(len(ball))))[:size])
    D = data.draw(st.integers(1, 5))
    B = data.draw(st.integers(1, 4))
    space = FiniteMetricSpace(
        [ball.points[i] for i in keep], ball.dist.block(keep, keep), ball.label
    )
    got = min_families_exhaustive(space, D, B, k_max)
    assert got.k == _naive_min_families(space, D, B, k_max)
    if got.k is None:
        assert got.witness is None
    else:
        assert len(got.witness.families) == got.k
        assert verify_cover(got.witness).valid


@pytest.mark.parametrize(
    "spec", [GroupSpec("FreeAbelian", 2), GroupSpec("FreeGroup", 2), GroupSpec("Heisenberg3")], ids=str
)
def test_the_conflict_clique_settles_the_deep_radius_two_instances(spec):
    # At D=4, B=3 each of these balls holds four points pairwise at
    # distance 4, so three families never suffice and no node is searched.
    ball = cayley_ball(spec, 2)
    refused = min_families_exhaustive(ball, 4, 3, k_max=3)
    assert (refused.k, refused.witness, refused.nodes) == (None, None, 0)
    found = min_families_exhaustive(ball, 4, 3, k_max=4)
    assert found.k == 4 and len(found.witness.families) == 4
    assert verify_cover(found.witness).valid
    # k=4 is tried alone and its first descent succeeds.
    assert found.nodes == len(ball) + 1


def test_component_grouping_is_forced_on_tiny_spaces():
    """Definition-level check: on 4 points, any family assignment admits a
    valid subset partition exactly when its proximity components are thin."""
    space = cayley_ball(GroupSpec("FreeAbelian", 1), 1)  # 3 points
    points = list(range(len(space)))
    D, B = 1, 1

    def partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[head] + part[i]] + part[i + 1:]
            yield [[head]] + part

    def family_valid_by_definition(members):
        for grouping in partitions(members):
            good = True
            for s, t in itertools.combinations(grouping, 2):
                if min(space.dist[a, b] for a in s for b in t) <= D:
                    good = False
                    break
            if good and all(
                space.dist[a, b] <= B for s in grouping for a in s for b in s
            ):
                return True
        return not members

    for coloring in itertools.product(range(2), repeat=len(points)):
        definition = all(
            family_valid_by_definition([i for i in points if coloring[i] == c])
            for c in range(2)
        )
        near = [
            [j for j in points if j != i and space.dist[i, j] <= D] for i in points
        ]
        by_components = all(
            all(
                max((space.dist[a, b] for a in comp for b in comp), default=0) <= B
                for comp in _components([i for i in points if coloring[i] == c], near)
            )
            for c in range(2)
        )
        assert definition == by_components, coloring


# A group of every family and rank that cayley_ball builds.
LABEL_SPECS = (
    *(GroupSpec("FreeAbelian", rank) for rank in (1, 2, 3)),
    *(GroupSpec("FreeGroup", rank) for rank in (1, 2)),
    GroupSpec("Heisenberg3"),
)


def test_witness_round_trip():
    witnesses = [brick_cover(1, 2, 9), brick_cover(2, 1, 6)]
    # one whole-ball subset under every label cayley_ball writes
    for spec, radius in itertools.product(LABEL_SPECS, (1, 2)):
        ball = cayley_ball(spec, radius)
        n = len(ball)
        B = ball.dist.diameter(np.arange(n), np.zeros(n, dtype=np.intp))
        witnesses.append(CoverWitness(ball, [[list(range(n))]], 1, B))
    for witness in witnesses:
        text = format_witness(witness)
        again = parse_witness(text)
        assert format_witness(again) == text
        assert again.D == witness.D and again.B == witness.B
        assert again.families == witness.families
        assert verify_cover(again).valid


def test_witness_format_errors_carry_line_numbers():
    good = format_witness(brick_cover(1, 1, 4))
    lines = good.splitlines()

    cases = [
        ("coarse-witness v2\n" + "\n".join(lines[1:]) + "\n", 1),
        (lines[0] + "\ngroup=Nope(1) radius=4\n" + "\n".join(lines[2:]) + "\n", 2),
        (lines[0] + "\n" + lines[1] + "\nD zero\n" + "\n".join(lines[3:]) + "\n", 3),
        (lines[0] + "\n" + lines[1] + "\nD 0\n" + "\n".join(lines[3:]) + "\n", 3),
        ("\n".join(lines[:3]) + "\nB -1\n" + "\n".join(lines[4:]) + "\n", 4),
        ("\n".join(lines[:4]) + "\n9:0 0,1\n", 5),
        ("\n".join(lines[:4]) + "\n0:5 0,1\n", 5),
        ("\n".join(lines[:4]) + "\n0:0 0,0\n", 5),
        ("\n".join(lines[:4]) + "\n0:0 0,99999\n", 5),
        ("\n".join(lines[:4]) + "\n0:0 zero\n", 5),
        ("coarse-witness v1\n", 2),
        (lines[0] + "\ngroup=Heisenberg3 radius=3 metric=bogus\n" + "\n".join(lines[2:]) + "\n", 2),
        (lines[0] + "\ngroup=FreeAbelian(1) radius=4 metric=induced-ball\n" + "\n".join(lines[2:]) + "\n", 2),
        (lines[0] + "\ngroup=FreeAbelian(1) radius=" + "9" * 5000 + "\n" + "\n".join(lines[2:]) + "\n", 2),
        (lines[0] + "\ngroup=FreeAbelian(1) radius=\u00b2\n" + "\n".join(lines[2:]) + "\n", 2),
        (lines[0] + "\n" + lines[1] + "\nD \u00b2\n" + "\n".join(lines[3:]) + "\n", 3),
        ("\n".join(lines[:4]) + "\n0:0 0,\u00b2\n", 5),
    ]
    for text, lineno in cases:
        with pytest.raises(WitnessFormatError) as info:
            parse_witness(text)
        assert info.value.line == lineno, text.splitlines()[:2]
    # a label's fields come in the order cayley_ball writes them
    for label in ("radius=8 group=FreeAbelian(1)", "group=Heisenberg3 metric=induced-ball radius=2"):
        with pytest.raises(WitnessFormatError) as info:
            parse_witness(lines[0] + f"\n{label}\n" + "\n".join(lines[2:]) + "\n")
        assert (info.value.line, info.value.message) == (2, f"bad space label {label!r}")
    # a numeral too long for the one-step read is still named out of range
    with pytest.raises(WitnessFormatError) as info:
        parse_witness("\n".join(lines[:4]) + "\n0:0 0,12345678901234567890\n")
    assert (info.value.line, info.value.message) == (
        5, "point index 12345678901234567890 out of range for 9-point space"
    )


def test_heisenberg_labels_parse_with_or_without_their_metric_field():
    found = min_families_exhaustive(cayley_ball(GroupSpec("Heisenberg3"), 1), 1, 2)
    text = format_witness(found.witness)
    assert "group=Heisenberg3 radius=1 metric=induced-ball\n" in text
    for label in ("group=Heisenberg3 radius=1 metric=induced-ball", "group=Heisenberg3 radius=1"):
        again = parse_witness(text.replace(found.witness.space.label, label))
        assert again.families == found.witness.families
        assert verify_cover(again).valid


def test_witness_semantic_problems_are_not_format_errors():
    w = brick_cover(1, 2, 6)
    text = format_witness(w).replace(f"B {w.B}", f"B {w.B + 3}")
    tampered = parse_witness(text)  # parses fine
    assert not verify_cover(tampered).valid


def test_finite_metric_space_check_rejects_broken_matrices():
    pts = [(0,), (1,)]
    bad_diag = FiniteMetricSpace(pts, np.array([[1, 1], [1, 0]]), "x")
    with pytest.raises(ValueError):
        bad_diag.check_metric()
    asym = FiniteMetricSpace(pts, np.array([[0, 1], [2, 0]]), "x")
    with pytest.raises(ValueError):
        asym.check_metric()
    triangle = FiniteMetricSpace(
        [(0,), (1,), (2,)],
        np.array([[0, 1, 9], [1, 0, 1], [9, 1, 0]]),
        "x",
    )
    with pytest.raises(ValueError):
        triangle.check_metric()


# Brick cells whose cover leaves family 0 empty, so the witness file has no
# "0:" line and its family indices start at 1.
EMPTY_FAMILY_BRICKS = ((2, 2, 4), (2, 3, 6), (3, 2, 5), (3, 1, 3), (3, 2, 8), (3, 3, 10))


@pytest.mark.parametrize("rank,D,radius", EMPTY_FAMILY_BRICKS)
def test_witnesses_with_an_empty_family_round_trip(rank, D, radius):
    witness = brick_cover(rank, D, radius)
    assert witness.families[0] == []
    text = format_witness(witness)
    assert not any(line.startswith("0:") for line in text.splitlines())
    again = parse_witness(text)
    assert again.families == witness.families
    assert format_witness(again) == text
    assert verify_cover(again).valid


def test_witness_family_indices_must_increase_and_stay_in_range():
    lines = format_witness(brick_cover(1, 1, 4)).splitlines()  # a 9-point space
    head = "\n".join(lines[:4]) + "\n"
    skipped = parse_witness(head + "2:0 0,1\n2:1 5\n")
    assert skipped.families == [[], [], [[0, 1], [5]]]
    for body, lineno in (("1:0 0\n0:0 1\n", 6), ("9:0 0\n", 5), ("3:0 0\n12:0 1\n", 6)):
        with pytest.raises(WitnessFormatError) as info:
            parse_witness(head + body)
        assert info.value.line == lineno, body


def _literal_violations(witness, table=None):
    """verify_cover's three conditions and its B check, read pair by pair
    from the space's oracle or from a distance table."""
    space, D = witness.space, witness.D
    dist = space.dist if table is None else DictTable(table)
    n = len(space)
    out = []
    covered = set()
    for f, family in enumerate(witness.families):
        for s, subset in enumerate(family):
            if not subset:
                out.append(f"family {f} subset {s} is empty")
                continue
            for i in subset:
                if not 0 <= i < n:
                    out.append(f"family {f} subset {s} references point {i}, outside 0..{n - 1}")
                else:
                    covered.add(i)
    out.extend(f"point {i} at {space.points[i]} is uncovered" for i in range(n) if i not in covered)
    diameter = 0
    for f, family in enumerate(witness.families):
        inside = [(s, [i for i in subset if 0 <= i < n]) for s, subset in enumerate(family)]
        inside = [(s, subset) for s, subset in inside if subset]
        for _, subset in inside:
            diameter = max(diameter, max(int(dist[a, b]) for a in subset for b in subset))
        for (s, left), (t, right) in itertools.combinations(inside, 2):
            gap = min(int(dist[a, b]) for a in left for b in right)
            if gap <= D:
                out.append(f"family {f}: subsets {s} and {t} are at distance {gap}, need more than D={D}")
    if diameter != witness.B:
        out.append(f"recorded B={witness.B} but recomputed B={diameter}")
    return out


class DictTable:
    """A list-of-rows distance table read as dist[a, b]."""

    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, key):
        return self.rows[key[0]][key[1]]


def _random_witness(rng, space):
    """A cover made of the components of a random coloring, then perhaps
    spoiled: a point dropped, an index out of range, an empty subset, a
    point shared by two to four subsets of one family, a component split
    in two (whose halves are at most D apart), or a wrong B."""
    n = len(space)
    D = rng.randint(1, 3)
    k = rng.randint(1, 4)
    colors = [rng.randrange(k) for _ in range(n)]
    families = []
    for c in range(k):
        left = [i for i in range(n) if colors[i] == c]
        subsets = []
        while left:
            comp, left = [left[0]], left[1:]
            for u in comp:
                close = [w for w in left if space.dist[u, w] <= D]
                comp += close
                left = [w for w in left if w not in close]
            subsets.append(sorted(comp))
        rng.shuffle(subsets)
        families.append(subsets)
    B = max(int(space.dist[a, b]) for fam in families for sub in fam for a in sub for b in sub)
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        family = rng.choice(families)
        spoil = rng.randrange(6)
        if spoil == 0 and family and len(family[0]) > 1:
            family[0].pop(rng.randrange(len(family[0])))
        elif spoil == 1 and family:
            rng.choice(family).append(rng.choice((-1, n, n + 7)))
        elif spoil == 2:
            family.insert(rng.randint(0, len(family)), [])
        elif spoil == 3 and len(family) > 1:
            _share(rng, family)
        elif spoil == 4 and family and len(family[-1]) > 1:
            cut = rng.randint(1, len(family[-1]) - 1)
            family.append(family[-1][cut:])
            del family[-2][cut:]
        else:
            B += rng.choice((-1, 1, 2))
    return CoverWitness(space, families, D, B)


def _share(rng, family):
    """Put a point of one subset of family into one to three others."""
    a, *others = rng.sample(range(len(family)), rng.randint(2, min(len(family), 4)))
    if family[a]:
        point = rng.choice(family[a])
        for b in others:
            family[b].append(point)


def _most_subsets(witness):
    """The most subsets of one family that one point lies in."""
    return max(
        (max(Counter(i for subset in family for i in set(subset)).values(), default=0)
         for family in witness.families),
        default=0,
    )


KINDS = ("empty", "outside", "uncovered", "distance 0,", "distance 1,", "recomputed")


def test_verify_cover_matches_the_literal_pairwise_reading():
    rng = random.Random(20_240_105)
    spaces = [
        cayley_ball(GroupSpec("FreeAbelian", 2), 3),
        cayley_ball(GroupSpec("FreeGroup", 2), 2),
        cayley_ball(GroupSpec("Heisenberg3"), 2),
    ]
    kinds = set()
    for _ in range(200):
        witness = _random_witness(rng, rng.choice(spaces))
        want = _literal_violations(witness)
        report = verify_cover(witness)
        assert report.violations == want, witness.families
        assert report.valid == (not want)
        kinds.update(kind for kind in KINDS if any(kind in v for v in want))
        kinds.add("valid" if not want else "invalid")
        if _most_subsets(witness) >= 3:
            kinds.add("a point in three subsets")
    assert {"valid", "invalid", "a point in three subsets", *KINDS} <= kinds


# Balls of every family, above and below 256 points: verify_cover reads each
# through its own oracle's diameters and neighbourhood walks, whatever its
# size.  Each comes with its distance table from the definitions and its
# pairs within distance 3.
_VERIFY_BALLS = {}


def _verify_ball(spec, radius):
    key = (spec, radius)
    if key not in _VERIFY_BALLS:
        space = cayley_ball(spec, radius)
        table = _reference(space)
        n = len(space)
        close = [(i, j) for i in range(n) for j in range(i + 1, n) if table[i][j] <= 3]
        _VERIFY_BALLS[key] = space, table, close
    return _VERIFY_BALLS[key]


@pytest.mark.parametrize(
    "spec,radius",
    [
        (GroupSpec("FreeAbelian", 1), 130),
        (GroupSpec("FreeAbelian", 2), 12),
        (GroupSpec("FreeAbelian", 3), 6),
        (GroupSpec("FreeGroup", 1), 130),
        (GroupSpec("FreeGroup", 2), 5),
        (GroupSpec("Heisenberg3"), 5),
        (GroupSpec("FreeAbelian", 1), 40),
        (GroupSpec("FreeAbelian", 2), 7),
        (GroupSpec("FreeAbelian", 3), 3),
        (GroupSpec("FreeGroup", 1), 40),
        (GroupSpec("FreeGroup", 2), 3),
        (GroupSpec("Heisenberg3"), 3),
    ],
)
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_verify_cover_by_neighbourhoods_matches_the_pairwise_reading(spec, radius, data):
    space, table, close = _verify_ball(spec, radius)
    n = len(space)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    # The components of a random colouring under "distance <= D" form a
    # valid cover, then spoiled by the drawn tamperings.
    D = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 4))
    colors = [rng.randrange(k) for _ in range(n)]
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in close:
        if colors[i] == colors[j] and table[i][j] <= D:
            parent[root(i)] = root(j)
    families = [{} for _ in range(k)]
    for i in range(n):
        families[colors[i]].setdefault(root(i), []).append(i)
    families = [list(family.values()) for family in families]
    for family in families:
        rng.shuffle(family)
    B = max(table[a][b] for family in families for sub in family for a in sub for b in sub)
    for spoil in data.draw(st.lists(st.sampled_from(("drop", "outside", "empty", "share", "D", "B")), max_size=3)):
        family = rng.choice(families)
        if spoil == "drop" and family and len(family[0]) > 1:
            family[0].pop(rng.randrange(len(family[0])))
        elif spoil == "outside" and family:
            rng.choice(family).append(rng.choice((-1, n, n + 7)))
        elif spoil == "empty":
            family.insert(rng.randint(0, len(family)), [])
        elif spoil == "share" and len(family) > 1:
            _share(rng, family)
        elif spoil == "D":
            D += rng.choice((1, 2, 4 * radius))
        elif spoil == "B":
            B += rng.choice((-1, 1, 2))
    witness = CoverWitness(space, families, D, B)
    want = _literal_violations(witness, table)
    report = verify_cover(witness)
    assert report.violations == want
    assert report.valid == (not want)


def test_two_copies_of_the_plane_ball_in_one_family_verify_in_linear_time():
    # 20,201 points, each in both subsets; reading each such point against
    # every member took 4 to 7 s.
    ball = cayley_ball(GroupSpec("FreeAbelian", 2), 100)
    whole = list(range(len(ball)))
    witness = CoverWitness(ball, [[whole, whole]], 1, 200)
    start = time.perf_counter()
    report = verify_cover(witness)
    assert time.perf_counter() - start < 0.5
    assert report.violations == ["family 0: subsets 0 and 1 are at distance 0, need more than D=1"]


def test_the_radius_315_plane_witness_verifies_in_linear_time():
    # 199,081 points; comparing members pairwise took 54 s.
    witness = parse_witness(format_witness(brick_cover(2, 1, 315)))
    start = time.perf_counter()
    report = verify_cover(witness)
    assert time.perf_counter() - start < 2.0
    assert report.valid, report.violations[:3]
    _, peak = _traced_peak(lambda: verify_cover(witness))
    assert peak < 64 * 2**20, peak
