"""The four workloads: how each runs one op and checks its output.

An op returns (outcome, layer): outcome is "ok", "error" (raised, crashed
or exited with an error code) or "wrong" (finished with an answer that
disagrees with the reference); layer names the package module the failure
is charged to.  Ops time only the package's own calls; the checks run
after the clock stops.  When a Stats object is passed (traced run), ops
also record per-layer counts.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import fields, is_dataclass
from pathlib import Path

import gen
import reference as ref

# span name -> (module, attribute) of the public functions ops call
API_FUNCTIONS = {
    "manifolds.parse_manifold": ("asdimlab.manifolds", "parse_manifold"),
    "manifolds.compile": ("asdimlab.manifolds", "compile"),
    "groups.to_canonical": ("asdimlab.groups", "to_canonical"),
    "engine.bound": ("asdimlab.engine", "bound"),
    "engine.serialize_trace": ("asdimlab.engine", "serialize_trace"),
    "engine.parse_trace": ("asdimlab.engine", "parse_trace"),
    "engine.replay": ("asdimlab.engine", "replay"),
    "coarse.cayley_ball": ("asdimlab.coarse", "cayley_ball"),
    "coarse.brick_cover": ("asdimlab.coarse", "brick_cover"),
    "coarse.format_witness": ("asdimlab.coarse", "format_witness"),
    "coarse.parse_witness": ("asdimlab.coarse", "parse_witness"),
    "coarse.verify_cover": ("asdimlab.coarse", "verify_cover"),
    "coarse.min_families_exhaustive": ("asdimlab.coarse", "min_families_exhaustive"),
    "cli.main": ("asdimlab.cli", "main"),
}


class Api:
    """The package functions an op may call, wrapped in spans when traced."""

    def __init__(self, tracer=None) -> None:
        for span, (module, attr) in API_FUNCTIONS.items():
            fn = getattr(importlib.import_module(module), attr)
            setattr(self, attr, tracer.wrap(span, fn) if tracer else fn)
        self.GroupSpec = importlib.import_module("asdimlab.coarse").GroupSpec


class Stats:
    """Per-layer counts gathered by ops during the traced run."""

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)

    def add(self, name: str, value: float) -> None:
        self.values[name].append(value)


def failure_layer(exc: BaseException) -> str:
    """The package module of the innermost frame the exception passed through."""
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("asdimlab."):
            layer = name.split(".")[1]
        tb = tb.tb_next
    return layer


# ---------------------------------------------------------------------------
# certify


def expr_shape(expr) -> tuple[int, int, int]:
    """(tree nodes, depth, distinct subtrees) of a group expression, without recursion."""
    ids: dict = {}
    memo: dict[int, tuple[int, int, int]] = {}  # id(node) -> (intern id, depth, tree size)
    stack = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        kids = [v for f in fields(node) for v in _children(getattr(node, f.name))]
        if not expanded:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
            continue
        scalars = tuple(repr(getattr(node, f.name)) for f in fields(node)
                        if not any(True for _ in _children(getattr(node, f.name))))
        key = (type(node).__name__, scalars, tuple(memo[id(k)][0] for k in kids))
        depth = 1 + max((memo[id(k)][1] for k in kids), default=0)
        size = 1 + sum(memo[id(k)][2] for k in kids)
        memo[id(node)] = (ids.setdefault(key, len(ids)), depth, size)
    _, depth, size = memo[id(expr)]
    return size, depth, len(ids)


def _children(value):
    if is_dataclass(value) and type(value).__module__ == "asdimlab.groups":
        yield value
    elif isinstance(value, tuple):
        for v in value:
            if is_dataclass(v) and type(v).__module__ == "asdimlab.groups":
                yield v


class Certify:
    name = "certify"

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.fixtures = root / "tests" / "fixtures"
        self.curve: list[tuple[int, float]] = []

    def ops(self, light: bool = False):
        cases = [c for i in range(1 if light else 3) for c in gen.certify_deck(self.seed, i, self.fixtures)]
        return cases[1:] if light else cases  # light: without the 300-vertex anchor

    def probe(self):
        return gen.deep_probe_cases(self.seed)

    def run(self, case, api: Api, stats: Stats | None):
        t0 = time.perf_counter()
        desc = api.parse_manifold(case.text)
        if stats is not None:
            stats.add("manifolds.parse_manifold.bytes", len(case.text.encode()))
        expr, verdict = api.compile(desc)
        adim = desc.dim if verdict.status == "Aspherical" else None
        tb = time.perf_counter()
        result = api.bound(expr, aspherical_dim=adim)
        tb = time.perf_counter() - tb
        text = api.serialize_trace(result.trace)
        replayed = api.replay(api.parse_trace(text))
        elapsed = time.perf_counter() - t0
        want_bound, want_verdict = ref.expected_certify(case.family)
        if stats is not None:
            self._record(case, api, stats, expr, result, text, tb)
        if str(result.bound) != want_bound or replayed != result.bound:
            return elapsed, "wrong", "engine"
        if verdict.status != want_verdict:
            return elapsed, "wrong", "manifolds"
        return elapsed, "ok", None

    def _record(self, case, api, stats, expr, result, text, bound_s) -> None:
        steps = result.trace.steps
        nodes, depth, distinct = expr_shape(expr)
        stats.add("groups.expr_nodes", nodes)
        stats.add("groups.expr_depth", depth)
        stats.add("groups.distinct_subtrees", distinct)
        stats.add("groups.to_canonical.bytes", len(api.to_canonical(expr)))
        stats.add("engine.bound.steps", len(steps))
        stats.add("engine.bound.s", bound_s)
        stats.add("engine.bound.distinct_subjects", len({s.subject for s in steps}))
        stats.add("engine.trace_bytes", len(text.encode()))
        for s in steps:
            stats.counts["engine.rule." + s.rule_id] += 1
        # the scaling curve: injective graphs (an Alexandrov space is bounded
        # inside compile) large enough that the per-node cost, not the fixed
        # per-call cost, sets the bound time
        if case.vertices >= 50 and case.family.endswith((".tree", ".loops")):
            self.curve.append((case.vertices, bound_s))

    def warmup(self):
        return [gen.CertifyCase(f"fixture:{rel}", (self.fixtures / rel).read_text(), 0)
                for rel in sorted(ref.FIXTURES)[:8]]


# ---------------------------------------------------------------------------
# cover


class Cover:
    name = "cover"

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self._counts: dict = {}

    def ops(self, light: bool = False):
        """The heavy deck and three light ones (one per brick tier); light: the light decks only."""
        return [c for i in range(1 if light else 0, 4) for c in gen.cover_deck(self.seed, i)]

    def probe(self):
        return [gen.CoverCase("brick", "FreeAbelian", rank, r, D) for rank, D, r in gen.BRICK_PROBE]

    def count(self, family, rank, radius) -> int:
        key = (family, rank, radius)
        if key not in self._counts:
            self._counts[key] = ref.ball_count(family, rank, radius)
        return self._counts[key]

    def run(self, case, api: Api, stats: Stats | None):
        if stats is not None:
            tracemalloc.reset_peak()
        if case.op == "ball":
            t0 = time.perf_counter()
            ball = api.cayley_ball(api.GroupSpec(case.family, case.rank), case.radius)
            elapsed = time.perf_counter() - t0
            if stats is not None:
                stats.add("coarse.peak_alloc_mb", tracemalloc.get_traced_memory()[1] / 2**20)
                stats.add(f"coarse.cayley_ball.{case.family}.ms", elapsed * 1e3)
                stats.add("coarse.cayley_ball.points", len(ball))
                stats.add("coarse.cayley_ball.matrix_bytes", getattr(ball.dist, "nbytes", 0))
            return elapsed, self._check_ball(case, ball), "coarse"
        t0 = time.perf_counter()
        witness = api.brick_cover(case.rank, case.D, case.radius)
        text = api.format_witness(witness)
        back = api.parse_witness(text)
        report = api.verify_cover(back)
        elapsed = time.perf_counter() - t0
        if stats is not None:
            stats.add("coarse.peak_alloc_mb", tracemalloc.get_traced_memory()[1] / 2**20)
            stats.add("coarse.witness_bytes", len(text))
            stats.add("coarse.verify_cover.subset_pairs",
                      sum(len(f) * (len(f) - 1) // 2 for f in back.families))
        n = self.count("FreeAbelian", case.rank, case.radius)
        covered = {i for fam in back.families for sub in fam for i in sub}
        good = (
            report.valid
            and len(back.space) == n
            and covered == set(range(n))
            and 1 <= len(back.families) <= case.rank + 1
            and back.D == case.D
            and back.B <= 2 * case.rank * (case.rank + 1) * (case.D + 1)
        )
        return elapsed, "ok" if good else "wrong", "coarse"

    def _check_ball(self, case, ball) -> str:
        n = self.count(case.family, case.rank, case.radius)
        if len(ball) != n or ball.dist.shape != (n, n):
            return "wrong"
        rng = random.Random(f"{case}")
        points = ball.points
        if case.family == "Heisenberg3":
            src = rng.randrange(n)
            row = ref.induced_distances(points, points[src])
            return "ok" if all(ball.dist[src, j] == row[p] for j, p in enumerate(points)) else "wrong"
        for _ in range(32):
            i, j = rng.randrange(n), rng.randrange(n)
            if ball.dist[i, j] != ref.word_distance(case.family, points[i], points[j]):
                return "wrong"
        return "ok"

    def warmup(self):
        return [gen.CoverCase("ball", "FreeAbelian", 2, 10), gen.CoverCase("ball", "FreeGroup", 2, 3),
                gen.CoverCase("ball", "Heisenberg3", 0, 3), gen.CoverCase("brick", "FreeAbelian", 1, 100, 2)]


# ---------------------------------------------------------------------------
# search


class Search:
    name = "search"

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.table = ref.load_search_table()

    def ops(self, light: bool = False):
        return [c for i in range(1 if light else 6) for c in gen.search_deck(self.seed, i)]

    def run(self, case, api: Api, stats: Stats | None):
        t0 = time.perf_counter()
        space = api.cayley_ball(api.GroupSpec(case.family, case.rank), case.radius)
        found = api.min_families_exhaustive(space, case.D, case.B, case.k_max)
        report = api.verify_cover(found.witness) if found.witness is not None else None
        elapsed = time.perf_counter() - t0
        if stats is not None:
            stats.add("coarse.min_families_exhaustive.points", len(space))
            stats.counts["coarse.min_families_exhaustive.k_" + str(found.k).lower()] += 1
        want = ref.expected_k(self.table, case.family, case.rank, case.radius, case.D, case.B, case.k_max)
        if found.k != want:
            return elapsed, "wrong", "coarse"
        if found.witness is not None:
            w = found.witness
            dist = ref.distance_table(case.family, list(w.space.points))
            problem = ref.check_cover(dist, w.families, case.D, case.B, len(w.space))
            if not report.valid or problem or len(w.families) != found.k:
                return elapsed, "wrong", "coarse"
        return elapsed, "ok", None

    def warmup(self):
        return [gen.SearchCase("FreeAbelian", 1, 4, 2, 3, 4), gen.SearchCase("FreeGroup", 2, 2, 1, 2, 4),
                gen.SearchCase("Heisenberg3", 0, 2, 2, 4, 4), gen.SearchCase("FreeAbelian", 2, 2, 2, 3, 2)]


# ---------------------------------------------------------------------------
# cli


class Cli:
    """Cold `python -m asdimlab.cli` runs, one child process at a time.

    With an in-process Api (traced run) the same commands go through
    asdimlab.cli.main(argv) instead, which splits latency by subcommand.
    """

    name = "cli"

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.golden = root / "tests" / "golden"
        self.work = root / ".bench_work"
        self.work.mkdir(exist_ok=True)
        self.witness = self.work / f"cli-witness-{os.getpid()}.txt"
        self.table = ref.load_search_table()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.in_process = False

    def close(self) -> None:
        self.witness.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            self.work.rmdir()

    def ops(self, light: bool = False):
        return [c for i in range(1 if light else 3) for c in gen.cli_deck(self.seed, i)]

    def argv(self, case) -> list[str]:
        return [str(self.witness) if a == "{witness}" else a for a in case.argv]

    def run(self, case, api: Api, stats: Stats | None):
        if case.tamper and self.witness.exists():
            lines = self.witness.read_text().splitlines()
            lines[3] = "B 99"
            self.witness.write_text("".join(line + "\n" for line in lines))
        argv = self.argv(case)
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = api.main(argv)
            elapsed = time.perf_counter() - t0
            out, err = out.getvalue(), err.getvalue()
            if stats is not None:
                kind = {"bound_structured": "bound_trace", "catalog_structured": "catalog",
                        "cover_build_file": "cover_build"}.get(case.kind, case.kind)
                stats.add(f"cli.main.{kind}_ms", elapsed * 1e3)
        else:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "asdimlab.cli", *argv], cwd=self.root,
                                  env=self.env, capture_output=True, text=True, timeout=120)
            elapsed = time.perf_counter() - t0
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        return elapsed, self.check(case, argv, code, out, err), "cli"

    def check(self, case, argv, code: int, out: str, err: str) -> str:
        try:
            want_code, good = self._expect(case, argv, out, err)
        except (ValueError, KeyError, IndexError, TypeError):  # output too malformed to read
            want_code, good = 0, False
        if code == want_code and good:
            return "ok"
        if code == 2 or "Traceback" in err:
            return "error"
        return "wrong"

    def _expect(self, case, argv, out, err) -> tuple[int, bool]:
        if case.golden is not None:
            return 0, out == (self.golden / case.golden).read_text()
        kind = case.kind
        if kind == "error":
            return 2, out == "" and f"{argv[1]}:" in err and ": error: " in err
        if kind in ("bound", "bound_trace"):
            interval, verdict = ref.FIXTURES[argv[1][len("tests/fixtures/"):]]
            lines = out.splitlines()
            return 0, (len(lines) >= 3 and lines[0].startswith("group: ")
                       and lines[1] == f"bound: {interval}"
                       and lines[2].startswith(f"verdict: {verdict} ("))
        if kind == "bound_structured":
            interval, verdict = ref.FIXTURES[argv[1][len("tests/fixtures/"):]]
            payload = json.loads(out) if out.startswith("{") else {}
            b = payload.get("bound", {})
            return 0, (f"{b.get('lower')}..{b.get('upper')}" == interval
                       and payload["verdict"]["status"] == verdict
                       and isinstance(payload["trace"], list))
        if kind == "catalog":
            names = ref.CATALOG_NAMES[int(argv[2])]
            lines = out.splitlines()
            return 0, len(lines) == len(names) and all(
                line.split()[0] == name for line, name in zip(lines, names))
        if kind == "catalog_structured":
            payload = json.loads(out) if out.startswith("{") else {}
            names = tuple(g["name"] for g in payload.get("geometries", ()))
            return 0, payload.get("dim") == int(argv[2]) and names == ref.CATALOG_NAMES[int(argv[2])]
        if kind == "cover_build":
            return 0, self._brick_text_ok(argv, out)
        if kind == "cover_build_file":
            n = ref.ball_count("FreeAbelian", int(argv[3]), int(argv[7]))
            m = re.fullmatch(r"wrote (.+): (\d+) points, (\d+) families, \d+ subsets, D=(\d+), B=\d+\n", out)
            return 0, bool(m) and int(m[2]) == n and 1 <= int(m[3]) <= int(argv[3]) + 1 and m[4] == argv[5]
        if kind == "cover_verify":
            if case.tamper:
                lines = out.splitlines()
                return 1, bool(lines) and lines[-1].endswith("violation(s)") and lines[0].startswith("violation:")
            return 0, out.startswith("OK: ")
        if kind == "cover_search":
            spec = argv[3]
            family, rank = (spec, 0) if spec == "Heisenberg3" else (spec[:-3], int(spec[-2]))
            want = ref.expected_k(self.table, family, rank, int(argv[5]), int(argv[7]), int(argv[9]),
                                  int(argv[11]))
            return (1, out == "k=none\n") if want is None else (0, out == f"k={want}\n")
        raise ValueError(f"unknown cli kind {kind}")

    @staticmethod
    def _brick_text_ok(argv, out) -> bool:
        rank, D, radius = int(argv[3]), int(argv[5]), int(argv[7])
        lines = out.splitlines()
        if lines[:3] != ["coarse-witness v1", f"group=FreeAbelian({rank}) radius={radius}", f"D {D}"]:
            return False
        points = ref.ball_points("FreeAbelian", rank, radius)
        subsets = [[int(i) for i in line.split(" ", 1)[1].split(",")] for line in lines[4:]]
        families = {line.split(":", 1)[0] for line in lines[4:]}
        widest = max(ref.word_distance("FreeAbelian", points[a], points[b])
                     for sub in subsets for a in sub for b in sub)
        covered = {i for sub in subsets for i in sub}
        return (lines[3] == f"B {widest}" and covered == set(range(len(points)))
                and len(families) <= rank + 1)

    def warmup(self):
        return [gen.CliCase("bound", ("bound", "tests/fixtures/d3_h3.mfd"))]


WORKLOADS = {"cli": Cli, "certify": Certify, "cover": Cover, "search": Search}
