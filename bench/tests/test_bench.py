"""The benchmark's own tests.

    python3 -m pytest bench/tests -q

Run from the repository root.  They check that inputs are deterministic per
seed, that every generated family has a reference row, that the references
agree with a brute force on the smallest instances, that the metric names
a run prints are the ones BENCHMARK.json lists, and that a tiny run of each
workload passes its output checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from make_search_table import SEARCH_BALLS, build_rows  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def decks(workload: str, seed: int, count: int = 4):
    make = {
        "certify": lambda i: gen.certify_deck(seed, i, FIXTURES),
        "cover": lambda i: gen.cover_deck(seed, i),
        "search": lambda i: gen.search_deck(seed, i),
        "cli": lambda i: gen.cli_deck(seed, i),
    }[workload]
    return [make(i) for i in range(count)]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_gives_identical_inputs(workload):
    first, again = decks(workload, 7), decks(workload, 7)
    assert repr(first).encode() == repr(again).encode()
    assert decks(workload, 8) != first


def test_every_generated_family_has_a_reference_row():
    seen = {c.family for seed in range(6) for d in decks("certify", seed, 8) for c in d}
    seen |= {c.family for seed in range(6) for c in gen.deep_probe_cases(seed)}
    generated = {f for f in seen if not f.startswith("fixture:")}
    assert generated <= set(ref.FAMILIES)
    assert generated == set(ref.FAMILIES), set(ref.FAMILIES) - generated


def test_certify_size_tail():
    sizes = [c.vertices for d in decks("certify", 3, 10) for c in d if c.vertices]
    assert sum(n <= 30 for n in sizes) > len(sizes) / 2
    assert max(n for n in sizes if n <= 300) > 250
    assert 0.03 < sum(n >= 400 for n in sizes) / len(sizes) < 0.1


def test_deep_injective_graphs_are_probed_not_timed():
    # the engine raises RecursionError on injective graphs past about 330
    # vertices today: the timed decks keep those at 300 or less, and the
    # traced run's probe holds the deep ones
    for seed in range(4):
        for d in decks("certify", seed, 6):
            assert all(c.vertices <= 300 or "pi1_injective false" in c.text for c in d)
        probe = gen.deep_probe_cases(seed)
        assert len(probe) == len(gen.DEEP_PROBE_KINDS) * len(gen.DEEP_PROBE_SIZES)
        assert all(c.vertices >= 400 and "pi1_injective true" in c.text for c in probe)


def test_brick_probe_stays_out_of_the_timed_decks():
    timed = {(rank, D, r) for rank, tiers in gen.BRICK_GRIDS.items() for tier in tiers for D, r in tier}
    timed |= set(gen.CLI_BUILD_GRID)
    assert not timed & set(gen.BRICK_PROBE)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_op_sets_are_deterministic(workload):
    cls = workloads.WORKLOADS[workload]
    first, again = cls(5, ROOT), cls(5, ROOT)
    try:
        assert repr(first.ops()).encode() == repr(again.ops()).encode()
        assert len(first.ops(light=True)) < len(first.ops())
    finally:
        for w in (first, again):
            if hasattr(w, "close"):
                w.close()


def test_fixture_table_matches_the_fixture_tree():
    good = {p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.mfd") if p.parent.name != "bad"}
    assert good == set(ref.FIXTURES)
    assert {p.name for p in (FIXTURES / "bad").glob("*.mfd")} == set(ref.BAD_FIXTURES)


def test_search_table_is_current_and_complete():
    table = ref.load_search_table()
    assert [list(k) + [v] for k, v in table.items()] == build_rows()
    for f, rk, r, D, B in gen.SHALLOW_INSTANCES:
        assert (f, rk, r, D, B) in table


@pytest.mark.parametrize("family,rank,radius", [b for b in SEARCH_BALLS if ref.ball_count(*b) <= 7])
def test_search_table_agrees_with_brute_force(family, rank, radius):
    table = ref.load_search_table()
    dist = ref.distance_table(family, ref.ball_points(family, rank, radius))
    for D in range(1, 5):
        for B in range(1, 9):
            assert ref.min_families_brute(dist, D, B) == table[(family, rank, radius, D, B)]


def test_ball_counts_match_closed_forms():
    assert ref.ball_count("FreeAbelian", 2, 60) == 2 * 60 * 60 + 2 * 60 + 1
    assert ref.ball_count("FreeGroup", 2, 6) == 2 * 3**6 - 1
    assert len(ref.ball_points("FreeGroup", 1, 5)) == 11


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def _tiny(workload_cls, cases, in_process=True):
    w = workload_cls(1, ROOT)
    w.in_process = in_process
    api = workloads.Api()
    outcomes = []
    try:
        for case in cases:
            try:
                outcomes.append(w.run(case, api, None)[1])
            except Exception as exc:  # a known defect may raise; it must not be a wrong answer
                outcomes.append("error:" + type(exc).__name__)
    finally:
        if hasattr(w, "close"):
            w.close()
    return outcomes


def test_tiny_certify_passes_its_checks():
    cases = [c for c in gen.certify_deck(1, 0, FIXTURES) if c.vertices <= 30]
    assert set(_tiny(workloads.Certify, cases)) == {"ok"}


def test_tiny_cover_passes_its_checks():
    assert set(_tiny(workloads.Cover, gen.cover_deck(1, 1))) == {"ok"}


def test_tiny_search_passes_its_checks():
    assert set(_tiny(workloads.Search, gen.search_deck(1, 0))) == {"ok"}


def test_tiny_cli_passes_its_checks():
    cases = gen.cli_deck(1, 0)
    assert set(_tiny(workloads.Cli, cases)) == {"ok"}
    assert set(_tiny(workloads.Cli, cases[:2], in_process=False)) == {"ok"}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_the_end_to_end_metrics():
    proc = _run("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "certify", "--seed", "1", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
