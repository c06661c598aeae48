"""Tests of the benchmark itself, on shrunken workloads.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

TINY_SWEEP = run.Workload("tiny-sweep", ("epidemic", "--population", "6"), "epidemic", "sweep",
                          samples=50)
TINY_PIPELINE = run.Workload("tiny-pipeline", ("gridworld",), "gridworld", "pipeline", samples=50,
                             k=12, m=2, feature="dist_to_goal", rollouts=200)
EXACT_COUNTS = ("gumbel.cf_rows_built", "solver.dp_triples",
                "influence.nodes_admitted", "influence.nodes_reachable")


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),     # overlaps a: the union counts [3, 4] once
        _span("c", 8.0, 12.0, 0),    # runs past its parent: clipped at 10
        _span("d", 1.5, 2.0, 1),     # grandchild: charged to a, not to root
    ]
    assert tracer.self_times(spans) == pytest.approx([10.0 - (5.0 + 2.0), 3.0 - 0.5, 3.0, 4.0, 0.5])


def test_recorded_self_times_cover_the_root_span():
    t = tracer.Tracer()

    def leaf():
        return sum(range(20_000))

    def middle():
        return t.call("leaf", leaf) + t.call("leaf", leaf)

    t.call("root", lambda: t.call("middle", middle) + leaf())
    root = t.spans[0]
    assert [s[3] for s in t.spans] == [-1, 0, 1, 1]
    assert sum(tracer.self_times(t.spans)) == pytest.approx(root[2] - root[1], rel=1e-9)


def test_missing_boundary_is_reported_untraced():
    t = tracer.Tracer()
    t.install([("cfmdp.gumbel", "no_such_function", "gumbel.cf_row", None)])
    assert t.untraced == {"gumbel.cf_row"}
    work = [{"spans": [_span("cli.main", 0.0, 2.0, -1), _span("influence.prune", 0.5, 1.5, 0)],
             "untraced": sorted(t.untraced)}]
    metrics = run.per_layer_metrics([], work, 0, 0.1, 0.0)
    assert metrics["gumbel.cf_row_s"] == {"value": None, "unit": "s", "status": "untraced"}
    assert metrics["gumbel.cf_rows_built"]["status"] == "untraced"
    assert metrics["influence.prune_s"] == {"value": 1.0, "unit": "s"}
    assert metrics["cli.self_s"] == {"value": 1.0, "unit": "s"}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    runs = []
    for i in range(2):
        scratch = tmp_path_factory.mktemp(f"traced{i}")
        runs.append(run.run_workload(ROOT, TINY_SWEEP, 7, 0.0, True, scratch / "w"))
    return runs


def test_named_counts_repeat_exactly(traced_runs):
    first, second = ({k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in traced_runs)
    assert first == second
    assert all(v > 0 for v in first.values())
    assert all(r["correct"] and r["failed"] == 0 for r in traced_runs)


def test_emitted_metrics_match_benchmark_json(traced_runs, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: m["unit"] for k, m in traced_runs[0]["metrics"].items()} == per_layer
    untraced = run.run_workload(ROOT, TINY_PIPELINE, 7, 0.0, False, tmp_path / "w")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in untraced["metrics"].items()} == end_to_end
    assert untraced["correct"] and untraced["attempted"] >= 1


@pytest.mark.parametrize("workload, victim", [(TINY_SWEEP, "sizes.csv"),
                                              (TINY_PIPELINE, "rollout.csv")])
def test_corrupted_output_counts_as_failed_run(workload, victim, tmp_path, monkeypatch):
    execute = run.execute

    def execute_then_corrupt(root, w, obs, out, seed, traced=False):
        stage = execute(root, w, obs, out, seed, traced)
        lines = (out / victim).read_bytes().splitlines(keepends=True)
        (out / victim).write_bytes(b"".join(lines[:-1]))  # drop the last row
        return stage

    monkeypatch.setattr(run, "execute", execute_then_corrupt)
    result = run.run_workload(ROOT, workload, 7, 0.0, False, tmp_path / "w")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "sepsis-sweep", "--seed", "1", "--seconds", "1"])
    assert exc.value.code not in (0, None)
    assert capsys.readouterr().out == ""
