"""Run every workload on ten seeds, print the spreads and write baseline.json.

    python3 bench/make_baseline.py [--seeds 301-310] [--seconds 30]

Run it from the repository root, on an otherwise idle machine; it takes
about 25 minutes.  For each workload and end-to-end metric it prints the
median of the ten runs and their spread, (Q3 - Q1) / median with the
quartiles from statistics.quantiles(values, n=4), and then one traced run
(--trace 1) for the per-layer values.  baseline.json keeps all of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="301-310", help="first-last")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    end_to_end = {}
    for w in SPEC["workloads"]:
        results = [run(w["name"], seed, args.seconds, 0) for seed in seeds]
        rows = {}
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[m["name"]] = {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
                               "spread": round((q3 - q1) / median, 6), "bound": m["bound"]}
            print(f"{w['name']:8s} {m['name']:15s} median {median:12.6g}  spread {rows[m['name']]['spread']:.3f}"
                  f"  (bound {m['bound']})", flush=True)
        rows["attempted_median"] = statistics.median(r["attempted"] for r in results)
        rows["failed_total"] = sum(r["failed"] for r in results)
        rows["correct_all"] = all(r["correct"] for r in results)
        end_to_end[w["name"]] = rows

    traced = run(SPEC["workloads"][0]["name"], seeds[0], args.seconds, 1)
    baseline = {
        "hardware": "2-vCPU x86_64 Linux VM (Intel Xeon, shared host), Python 3.11.7, numpy 2.4.6",
        "run_seconds": args.seconds,
        "seeds": seeds,
        "end_to_end": end_to_end,
        "per_layer": {k: round(v["value"], 6) for k, v in traced["metrics"].items()},
        "per_layer_run": {"seed": seeds[0], "attempted": traced["attempted"], "failed": traced["failed"],
                          "correct": traced["correct"]},
    }
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
