"""asdimlab benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {cli,certify,cover,search} --seed N \
        --seconds S --trace {0,1}

Run it from the root of an asdimlab checkout; it imports the package from
src/ there and reads tests/fixtures and tests/golden.  One process, one
closed-loop client: each op starts when the previous one has finished and
been checked.  Only the cli workload starts child processes, one at a time.

Each run has a fixed op set made from the seed (a few decks, see gen.py)
and goes over it pass after pass until S seconds are up, so every op runs
several times.  Op times are scaled by a host-speed probe (host_probe) and
an op's latency is the median of its runs after the first.  Ops that fail
are counted, never dropped.

--trace 0 runs the named workload for S seconds and prints the end-to-end
metrics.  --trace 1 runs every workload for S/8 seconds without spans and
S/8 seconds with them (so the whole run stays about S seconds), and prints
the per-layer metrics and the tracing overhead.  It also runs two probes
once each: deep injective manifold graphs (RecursionError in the engine
today) and brick covers with an empty family (a witness parse_witness
rejects today); their failures are reported as engine.bound.failed and
coarse.parse_witness.failed, not as failed ops.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Api, Stats, failure_layer  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
)

RULE_IDS = (
    "R-FINITE", "R-INFINITE-LB", "R-EUCLID", "R-SURFACE", "R-LIE-LATTICE", "R-PROPER-ACTION",
    "R-EXTENSION", "R-PRODUCT", "R-UNION", "R-AMALGAM", "R-HNN", "R-HYP", "R-RELHYP", "R-NAGATA",
    "R-ASPH-LB", "R-COMBINE",
)
CLI_MAIN_KINDS = ("bound", "bound_trace", "catalog", "cover_build", "cover_verify", "cover_search", "error")
WORKLOAD_NAMES = ("cli", "certify", "cover", "search")
LAYERS = ("cli", "manifolds", "groups", "engine", "geometries", "bounds", "coarse")

PER_LAYER = (
    [("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"), ("cli.import.numpy_ms", "ms")]
    + [(f"cli.main.{k}_ms", "ms") for k in CLI_MAIN_KINDS]
    + [
        ("manifolds.parse_manifold.ms", "ms"),
        ("manifolds.parse_manifold.bytes_per_s", "B/s"),
        ("manifolds.compile.ms", "ms"),
        ("groups.expr_nodes", "count"),
        ("groups.expr_depth_max", "count"),
        ("groups.distinct_subtree_ratio", "ratio"),
        ("groups.normalize.ms", "ms"),
        ("groups.to_canonical.ms", "ms"),
        ("groups.to_canonical.bytes", "B"),
        ("groups.is_infinite.ms", "ms"),
        ("geometries.lookup_geometry.ms", "ms"),
        ("geometries.lookup_geometry.calls_per_op", "count"),
        ("engine.bound.ms", "ms"),
        ("engine.bound.steps", "count"),
        ("engine.bound.steps_per_s", "1/s"),
        ("engine.bound.distinct_subject_ratio", "ratio"),
        ("engine.bound.scaling_exponent", "ratio"),
        ("engine.bound.failed", "count"),
    ]
    + [(f"engine.rule.{r}", "count") for r in RULE_IDS]
    + [
        ("engine.serialize_trace.ms", "ms"),
        ("engine.trace_bytes", "B"),
        ("engine.trace_bytes_per_step", "B"),
        ("engine.parse_trace.ms", "ms"),
        ("engine.replay.ms", "ms"),
        ("engine.replay.steps_per_s", "1/s"),
        ("coarse.cayley_ball.FreeAbelian.ms", "ms"),
        ("coarse.cayley_ball.FreeGroup.ms", "ms"),
        ("coarse.cayley_ball.Heisenberg3.ms", "ms"),
        ("coarse.cayley_ball.points", "count"),
        ("coarse.cayley_ball.matrix_bytes", "B"),
        ("coarse.cayley_ball.points_per_s", "1/s"),
        ("coarse.brick_cover.ms", "ms"),
        ("coarse.format_witness.ms", "ms"),
        ("coarse.witness_bytes", "B"),
        ("coarse.parse_witness.ms", "ms"),
        ("coarse.verify_cover.ms", "ms"),
        ("coarse.verify_cover.subset_pairs", "count"),
        ("coarse.peak_alloc_mb", "MB"),
        ("coarse.parse_witness.failed", "count"),
        ("coarse.min_families_exhaustive.ms", "ms"),
        ("coarse.min_families_exhaustive.points", "count"),
        ("coarse.min_families_exhaustive.k_none", "count"),
    ]
    + [(f"coarse.min_families_exhaustive.k_hist.{k}", "count") for k in (1, 2, 3, 4)]
    + [(f"{layer}.failed", "count") for layer in LAYERS]
    + [(f"trace.{w}.overhead_p50_ms", "ms") for w in WORKLOAD_NAMES]
)


def run_child(argv: list[str], root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(argv, cwd=root, env=env, check=True, capture_output=True, timeout=120)


# The host-speed probe: fixed work outside the package (a pure-Python loop
# and a numpy pass over a 500x500 matrix into preallocated buffers, so the
# state of the allocator, which the package's ops change, does not enter)
# timed right before and right after every op.  This host is a shared VM
# whose speed drifts by up to a factor of two over minutes, for the op and
# the probe alike; each op time is scaled by PROBE_NOMINAL_S / (median
# probe time within PROBE_WINDOW_S of the op), so latencies read as on a
# host where the probe takes PROBE_NOMINAL_S, its usual time on an
# otherwise idle 2-vCPU Xeon VM with Python 3.11 and numpy 2.4.  The
# window holds dozens of probes, so a stall that hits one of them does not
# move the scale.
PROBE_NOMINAL_S = 1.2e-3
PROBE_WINDOW_S = 0.5
_PROBE_VECTOR = np.arange(500, dtype=np.int32)
_PROBE_MATRIX = np.empty((500, 500), dtype=np.int32)
_PROBE_ROW = np.empty(500, dtype=np.int32)
probe_starts: list[float] = []
probe_seconds: list[float] = []


def host_probe() -> None:
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    np.subtract.outer(_PROBE_VECTOR, _PROBE_VECTOR, out=_PROBE_MATRIX)
    np.abs(_PROBE_MATRIX, out=_PROBE_MATRIX)
    _PROBE_MATRIX.min(axis=1, out=_PROBE_ROW)
    probe_starts.append(t0)
    probe_seconds.append(time.perf_counter() - t0)


def scaled(seconds: float, start: float, end: float) -> float:
    """seconds, measured between start and end, scaled by the probes near it."""
    near = probe_seconds[bisect.bisect_left(probe_starts, start - PROBE_WINDOW_S):
                         bisect.bisect_right(probe_starts, end + PROBE_WINDOW_S)]
    return seconds * PROBE_NOMINAL_S / statistics.median(near)


def drive(w, cases, api, stats, tracer, seconds: float) -> list[list[tuple]]:
    """Closed loop over the op set: pass after pass, one op at a time, until
    the time is up and every op has run at least once.

    Returns, per op, the record of each of its runs: (scaled latency s,
    outcome, layer charged) plus, for a run that raised, the exception's
    type name.  Stats are recorded on an op's first run only.
    """
    runs: list[list[tuple]] = [[] for _ in cases]
    deadline = time.perf_counter() + seconds
    count = 0
    while not (runs[-1] and time.perf_counter() >= deadline):
        for i, case in enumerate(cases):
            if runs[-1] and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.op = count
            count += 1
            # each op starts with no garbage left by the ones before it, so
            # it pays for the collections its own allocations trigger
            gc.collect()
            host_probe()
            t0 = time.perf_counter()
            try:
                record = w.run(case, api, None if runs[i] else stats)
            except Exception as exc:  # an op that raised inside the package is a failed op
                record = (time.perf_counter() - t0, "error", failure_layer(exc), type(exc).__name__)
            runs[i].append((t0, time.perf_counter(), record))
            host_probe()
    return [[(scaled(r[0], t0, t1), *r[1:]) for t0, t1, r in rs] for rs in runs]


def flat(runs) -> list[tuple]:
    return [r for rs in runs for r in rs]


def report_failures(records) -> None:
    """One stderr line per kind of failed op, so a run shows what failed."""
    kinds: dict[tuple, int] = {}
    for r in records:
        if r[1] != "ok":
            key = (r[1], r[2], r[3] if len(r) > 3 else "")
            kinds[key] = kinds.get(key, 0) + 1
    for (outcome, layer, exc), count in sorted(kinds.items()):
        detail = f" ({exc})" if exc else ""
        print(f"failed ops: {count} {outcome}{detail} in {layer}", file=sys.stderr)


def op_latencies(runs) -> list[float]:
    """Per op, the median of its scaled run times in seconds, leaving out
    the first run of an op that ran more than once (the first pass warms
    up, for instance by taking fresh memory for the big matrices).  An op
    with any failed run counts as slower than any limit (inf)."""
    return [statistics.median(r[0] for r in rs[len(rs) > 1:]) if all(r[1] == "ok" for r in rs) else math.inf
            for rs in runs]


def percentile_ms(latencies, q: float, cap_ms: float) -> float:
    """Nearest-rank percentile of the per-op latencies; a failed op counts
    as slower than any limit, reported as the whole run window when it
    lands on the percentile."""
    lat = sorted(latencies)
    v = lat[max(0, math.ceil(q * len(lat)) - 1)]
    return cap_ms if math.isinf(v) else v * 1e3


def summarize(records) -> tuple[int, int, bool]:
    failed = sum(r[1] != "ok" for r in records)
    return len(records), failed, not any(r[1] == "wrong" for r in records)


def warm_up(w, api) -> None:
    for case in w.warmup():
        try:
            w.run(case, api, None)
        except Exception:  # warm-up only; the timed run counts failures
            pass


def timed(fn) -> float:
    """Scaled seconds of one call of fn, with host probes on either side."""
    for _ in range(5):
        host_probe()
    t0 = time.perf_counter()
    fn()
    t1 = time.perf_counter()
    for _ in range(5):
        host_probe()
    return scaled(t1 - t0, t0, t1)


def setup(name: str, seed: int, root: Path):
    """Import (five fresh children), generate the op set (five times) and
    warm up on a fixed op list (three times); setup_s is the sum of the
    three medians, each time scaled by the host probe like an op's."""
    importer = [sys.executable, "-c", "import asdimlab.cli"]
    imports = [timed(lambda: run_child(importer, root)) for _ in range(5)]
    w = WORKLOADS[name](seed, root)
    sets = []
    gens = [timed(lambda: sets.append(w.ops())) for _ in range(5)]
    if any(again != sets[0] for again in sets):
        raise SystemExit("error: input generation is not deterministic")
    api = Api()
    warms = [timed(lambda: warm_up(w, api)) for _ in range(3)]
    setup_s = statistics.median(imports) + statistics.median(gens) + statistics.median(warms)
    return w, sets[0], api, setup_s


def end_to_end(name: str, seed: int, seconds: int, root: Path) -> dict:
    if name == "cli":
        # children inherit this, so they run on the CPU the host probe measures
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    w, cases, api, setup_s = setup(name, seed, root)
    try:
        runs = drive(w, cases, api, None, None, seconds)
    finally:
        if hasattr(w, "close"):
            w.close()
    records = flat(runs)
    report_failures(records)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    attempted, failed, correct = summarize(records)
    latencies = op_latencies(runs)
    done = [t for t in latencies if not math.isinf(t)]
    print(f"{name}: {len(cases)} ops, each run {min(map(len, runs))} to {max(map(len, runs))} times;"
          f" {attempted} runs, {failed} failed; host probe median"
          f" {statistics.median(probe_seconds) * 1e3:.3f} ms (nominal {PROBE_NOMINAL_S * 1e3:g} ms)", file=sys.stderr)
    values = {
        "ops_per_s": len(done) / sum(done) if done else 0.0,
        "latency_p50_ms": percentile_ms(latencies, 0.5, seconds * 1e3),
        "latency_p90_ms": percentile_ms(latencies, 0.9, seconds * 1e3),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "success_ratio": (attempted - failed) / attempted,
        "setup_s": setup_s,
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# traced run


def cli_floors(root: Path) -> dict[str, float]:
    """Median scaled child time of a bare interpreter, numpy, and asdimlab.cli."""
    probes = {"pass": "pass", "numpy": "import numpy", "cli": "import asdimlab.cli"}
    times: dict[str, list[float]] = {k: [] for k in probes}
    for _ in range(5):
        for k, code in probes.items():
            times[k].append(timed(lambda: run_child([sys.executable, "-c", code], root)))
    return {k: statistics.median(v) * 1e3 for k, v in times.items()}


def probe_failures(w) -> int:
    """Run the workload's probe cases once each (plain calls, no spans) and
    count those that raised or answered wrongly."""
    api, failed = Api(), 0
    for case in w.probe():
        try:
            failed += w.run(case, api, None)[1] != "ok"
        except Exception:  # the known defect a probe is there to count
            failed += 1
    return failed


def traced(seed: int, seconds: int, root: Path) -> dict:
    floors = cli_floors(root)
    segment = seconds / (2 * len(WORKLOAD_NAMES))
    parts, probes = {}, {}
    for name in WORKLOAD_NAMES:
        w = WORKLOADS[name](seed, root)
        if name == "cli":
            w.in_process = True
        cases = w.ops(light=True)
        try:
            warm_up(w, Api())
            plain = drive(w, cases, Api(), None, None, segment)
            tracer, stats = Tracer(), Stats()
            api = Api(tracer)
            if name == "cover":
                tracemalloc.start()
            try:
                with tracer.patched():
                    spanned = drive(w, cases, api, stats, tracer, segment)
            finally:
                tracemalloc.stop()
            if hasattr(w, "probe"):
                probes[name] = probe_failures(w)
        finally:
            if hasattr(w, "close"):
                w.close()
        report_failures(flat(plain) + flat(spanned))
        parts[name] = (plain, spanned, tracer.summary(), stats, w)
    metrics = layer_metrics(floors, parts, probes)
    attempted = failed = 0
    correct = True
    for plain, spanned, *_ in parts.values():
        a, f, c = summarize(flat(plain) + flat(spanned))
        attempted, failed, correct = attempted + a, failed + f, correct and c
    units = dict(PER_LAYER)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k, _ in PER_LAYER}}


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _self_ms(summary, name: str) -> float:
    row = summary.get(name)
    return 1e3 * row["self_s"] / row["calls"] if row else 0.0


def _total_s(summary, name: str) -> float:
    row = summary.get(name)
    return row["total_s"] if row else 0.0


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(vertices)."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len(pts) < 2:
        return 0.0
    mx = _mean([p[0] for p in pts])
    my = _mean([p[1] for p in pts])
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


def layer_metrics(floors, parts, probes) -> dict[str, float]:
    m: dict[str, float] = {
        "cli.interpreter_ms": floors["pass"],
        "cli.import_ms": floors["cli"] - floors["pass"],
        "cli.import.numpy_ms": floors["numpy"] - floors["pass"],
    }
    cli_stats = parts["cli"][3]
    for kind in CLI_MAIN_KINDS:
        values = cli_stats.values.get(f"cli.main.{kind}_ms", [])
        m[f"cli.main.{kind}_ms"] = statistics.median(values) if values else 0.0

    _, spanned, cs, st, w = parts["certify"]
    v = st.values
    steps = sum(v["engine.bound.steps"])
    ops = max(len(flat(spanned)), 1)
    m.update({
        "manifolds.parse_manifold.ms": _self_ms(cs, "manifolds.parse_manifold"),
        "manifolds.parse_manifold.bytes_per_s": _rate(sum(v["manifolds.parse_manifold.bytes"]),
                                                       _total_s(cs, "manifolds.parse_manifold")),
        "manifolds.compile.ms": _self_ms(cs, "manifolds.compile"),
        "groups.expr_nodes": _mean(v["groups.expr_nodes"]),
        "groups.expr_depth_max": max(v["groups.expr_depth"], default=0),
        "groups.distinct_subtree_ratio": _rate(sum(v["groups.distinct_subtrees"]), sum(v["groups.expr_nodes"])),
        "groups.normalize.ms": _self_ms(cs, "groups.normalize"),
        "groups.to_canonical.ms": _self_ms(cs, "groups.to_canonical"),
        "groups.to_canonical.bytes": _mean(v["groups.to_canonical.bytes"]),
        "groups.is_infinite.ms": _self_ms(cs, "groups.is_infinite"),
        "geometries.lookup_geometry.ms": _self_ms(cs, "geometries.lookup_geometry"),
        "geometries.lookup_geometry.calls_per_op": cs.get("geometries.lookup_geometry", {}).get("calls", 0) / ops,
        "engine.bound.ms": _self_ms(cs, "engine.bound"),
        "engine.bound.steps": _mean(v["engine.bound.steps"]),
        "engine.bound.steps_per_s": _rate(steps, sum(v["engine.bound.s"])),
        "engine.bound.distinct_subject_ratio": _rate(sum(v["engine.bound.distinct_subjects"]), steps),
        "engine.bound.scaling_exponent": _slope(w.curve),
        "engine.bound.failed": probes["certify"],
        "engine.serialize_trace.ms": _self_ms(cs, "engine.serialize_trace"),
        "engine.trace_bytes": _mean(v["engine.trace_bytes"]),
        "engine.trace_bytes_per_step": _rate(sum(v["engine.trace_bytes"]), steps),
        "engine.parse_trace.ms": _self_ms(cs, "engine.parse_trace"),
        "engine.replay.ms": _self_ms(cs, "engine.replay"),
        "engine.replay.steps_per_s": _rate(steps, _total_s(cs, "engine.replay")),
    })
    bounds_done = max(len(v["engine.bound.steps"]), 1)
    for rule in RULE_IDS:
        m[f"engine.rule.{rule}"] = st.counts.get(f"engine.rule.{rule}", 0) / bounds_done

    _, _, vs, st, _ = parts["cover"]
    v = st.values
    for family in ("FreeAbelian", "FreeGroup", "Heisenberg3"):
        m[f"coarse.cayley_ball.{family}.ms"] = _mean(v[f"coarse.cayley_ball.{family}.ms"])
    m.update({
        "coarse.cayley_ball.points": _mean(v["coarse.cayley_ball.points"]),
        "coarse.cayley_ball.matrix_bytes": _mean(v["coarse.cayley_ball.matrix_bytes"]),
        "coarse.cayley_ball.points_per_s": _rate(sum(v["coarse.cayley_ball.points"]),
                                                  _total_s(vs, "coarse.cayley_ball")),
        "coarse.brick_cover.ms": _self_ms(vs, "coarse.brick_cover"),
        "coarse.format_witness.ms": _self_ms(vs, "coarse.format_witness"),
        "coarse.witness_bytes": _mean(v["coarse.witness_bytes"]),
        "coarse.parse_witness.ms": _self_ms(vs, "coarse.parse_witness"),
        "coarse.verify_cover.ms": _self_ms(vs, "coarse.verify_cover"),
        "coarse.verify_cover.subset_pairs": _mean(v["coarse.verify_cover.subset_pairs"]),
        "coarse.peak_alloc_mb": _mean(v["coarse.peak_alloc_mb"]),
        "coarse.parse_witness.failed": probes["cover"],
    })

    _, _, ss, st, _ = parts["search"]
    m["coarse.min_families_exhaustive.ms"] = _self_ms(ss, "coarse.min_families_exhaustive")
    m["coarse.min_families_exhaustive.points"] = _mean(st.values["coarse.min_families_exhaustive.points"])
    m["coarse.min_families_exhaustive.k_none"] = st.counts.get("coarse.min_families_exhaustive.k_none", 0)
    for k in (1, 2, 3, 4):
        m[f"coarse.min_families_exhaustive.k_hist.{k}"] = st.counts.get(f"coarse.min_families_exhaustive.k_{k}", 0)

    for layer in LAYERS:
        m[f"{layer}.failed"] = sum(1 for p in parts.values() for r in flat(p[1]) if r[1] != "ok" and r[2] == layer)
    for name, (plain, spanned, *_) in parts.items():
        m[f"trace.{name}.overhead_p50_ms"] = (percentile_ms(op_latencies(spanned), 0.5, 0.0)
                                              - percentile_ms(op_latencies(plain), 0.5, 0.0))
    return m


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    package = root / "src" / "asdimlab"
    if not (package / "__init__.py").is_file() or not (root / "tests" / "fixtures").is_dir():
        print("error: run from the root of an asdimlab checkout"
              " (needs src/asdimlab and tests/fixtures)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import asdimlab


    if Path(asdimlab.__file__).resolve().parent != package.resolve():
        print(f"error: imported asdimlab from {asdimlab.__file__}, not from {package}", file=sys.stderr)
        return 2

    if args.trace:
        result = traced(args.seed, args.seconds, root)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
