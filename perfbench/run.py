"""cfmdp benchmark: runs the ``cfmdp`` CLI on one workload, checks its
outputs and prints the metrics, the last line being one JSON object.

Run from the root of a checkout (the library is taken from ``src/``)::

    python3 perfbench/run.py --workload sepsis-sweep --seed 7 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics (set-up time, wall time and peak
RSS of fresh CLI processes). ``--trace 1`` reports the per-layer split: it
runs the same work once untraced and once under ``perfbench/tracer.py``,
which wraps the library's module boundaries from outside. ``--workload all``
runs every workload in turn. Why each workload exists is in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import self_times

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """Observation set-up plus the counterfactual work timed after it."""

    name: str
    env: tuple[str, ...]  # `cfmdp env` arguments
    policy: str  # `cfmdp sample --policy` preset, sampled at its frozen default seed
    kind: str  # "sweep" (one `cfmdp sweep`) or "pipeline" (cf-build, prune, solve, rollout)
    samples: int = 1000
    k: int = 11  # pipeline influence horizon
    m: int = 2  # pipeline change budget
    feature: str = "abnormal_vitals"
    rollouts: int = 10000
    same_as: str = ""  # sweep workload on the same observation, pinned at reference seeds


WORKLOADS = {w.name: w for w in (
    Workload("sepsis-sweep", ("sepsis",), "sepsis-suboptimal", "sweep"),
    # Runnable by hand but not listed in BENCHMARK.json: its wide state space
    # makes its times swing with shared-cache contention on a shared host
    # beyond the benchmark's bounds (see perfbench/README.md).
    Workload("epidemic-wide-sweep", ("epidemic", "--population", "14"), "epidemic", "sweep"),
    Workload("sepsis-pipeline", ("sepsis",), "sepsis-suboptimal", "pipeline", same_as="sepsis-sweep"),
)}

# Per-layer metrics: span name -> (self-time metric, call-count metric).
SPAN_METRICS = {
    "influence.prune": ("influence.prune_s", "influence.prune_calls"),
    "gumbel.cf_row": ("gumbel.cf_row_s", "gumbel.cf_rows_built"),
    "gumbel.posterior": ("gumbel.posterior_s", None),
    "gumbel.cf_mdp": ("gumbel.cf_mdp_s", None),
    "gumbel.save": ("gumbel.save_s", None),
    "gumbel.load": ("gumbel.load_s", None),
    "solver.solve": ("solver.solve_s", "solver.solve_calls"),
    "solver.sweep": ("solver.sweep_s", None),
    "solver.rollout": ("solver.rollout_s", None),
    "solver.check": ("solver.check_s", None),
    "mdp.load": ("mdp.load_s", None),
    "mdp.sample_path": ("mdp.sample_path_s", None),
    "environments.build": ("environments.build_s", None),
    "cli.main": ("cli.self_s", None),
}
# Counts recorded on spans -> (metric, unit, span name they come from).
COUNT_METRICS = {
    "nodes_admitted": ("influence.nodes_admitted", "count", "influence.prune"),
    "nodes_reachable": ("influence.nodes_reachable", "count", "influence.prune"),
    "dp_triples": ("solver.dp_triples", "count", "solver.solve"),
    "posterior_mb": ("gumbel.posterior_mb", "MB", "gumbel.posterior"),
}
SETUP_SPANS = ("environments.build", "mdp.sample_path")
# Outputs compared byte for byte with perfbench/reference/seed-<n>/<workload>/.
PINNED = {"sweep": ("sweep.csv", "sizes.csv"), "pipeline": ("rollout.csv",)}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Running the CLI
# ---------------------------------------------------------------------------

@dataclass
class Stage:
    code: int
    seconds: float
    peak_rss_mb: float


def run_cli(root: Path, args: list[str], log: Path, spans: Path | None = None) -> Stage:
    """One cfmdp invocation in a fresh process, timed from launch to exit."""
    if spans is None:
        cmd = [sys.executable, "-m", "cfmdp.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=fh, env=env, cwd=root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Stage(proc.returncode, seconds, usage.ru_maxrss / 1024)


def setup_observation(root: Path, w: Workload, obs: Path, traced: bool = False) -> Stage:
    """`cfmdp env` then `cfmdp sample`: the observed MDP and path on disk."""
    obs.mkdir(parents=True)
    mdp = str(obs / "mdp.json")
    steps = [["env", *w.env, "--out", mdp],
             ["sample", "--mdp", mdp, "--policy", w.policy, "--out", str(obs / "path.json")]]
    return run_stages(root, steps, obs, traced)


def run_stages(root: Path, steps: list[list[str]], out: Path, traced: bool) -> Stage:
    total, peak = 0.0, 0.0
    for i, args in enumerate(steps):
        spans = out / f"spans-{i}.json" if traced else None
        stage = run_cli(root, args, out / "log.txt", spans)
        total += stage.seconds
        peak = max(peak, stage.peak_rss_mb)
        if stage.code != 0:
            return Stage(stage.code, total, peak)
    return Stage(0, total, peak)


def work_steps(w: Workload, obs: Path, out: Path, seed: int) -> list[list[str]]:
    mdp, path = str(obs / "mdp.json"), str(obs / "path.json")
    posterior = ["--mdp", mdp, "--path", path, "--samples", str(w.samples), "--seed", str(seed)]
    if w.kind == "sweep":
        return [["sweep", *posterior, "--out", str(out)]]
    npz, pruned, policy = str(out / "posterior.npz"), str(out / "pruned.json"), str(out / "policy.json")
    return [
        ["cf-build", *posterior, "--out", npz],
        ["prune", "--mdp", mdp, "--path", path, "--posterior", npz, "--k", str(w.k), "--out", pruned],
        ["solve", "--mdp", mdp, "--pruned", pruned, "--m", str(w.m), "--out", policy],
        ["rollout", "--mdp", mdp, "--pruned", pruned, "--policy", policy, "--env", w.env[0],
         "--feature", w.feature, "-n", str(w.rollouts), "--seed", "3", "--out", str(out / "rollout.csv")],
    ]


def execute(root: Path, w: Workload, obs: Path, out: Path, seed: int, traced: bool = False) -> Stage:
    out.mkdir(parents=True)
    return run_stages(root, work_steps(w, obs, out, seed), out, traced)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _csv_rows(file: Path) -> list[list[str]]:
    return [line.split(",") for line in file.read_text().splitlines()[1:]]


def pipeline_crosscheck(root: Path, w: Workload, obs: Path, out: Path, seed: int) -> dict:
    """The in-memory path for the pipeline's (k, m): a one-cell `cfmdp sweep`.

    Returns V(s0) and the size row; an empty dict if that sweep failed.
    """
    mdp, path = str(obs / "mdp.json"), str(obs / "path.json")
    args = ["sweep", "--mdp", mdp, "--path", path, "--samples", str(w.samples), "--seed", str(seed),
            "--k-min", str(w.k), "--k-max", str(w.k), "--m-min", str(w.m), "--m-max", str(w.m),
            "--out", str(out)]
    out.mkdir(parents=True)
    if run_cli(root, args, out / "log.txt").code != 0:
        return {}
    try:
        (row,) = _csv_rows(out / "sweep.csv")
        (sizes,) = _csv_rows(out / "sizes.csv")
    except (OSError, ValueError):
        return {}
    return {"row": row, "sizes": sizes}


def check_outputs(w: Workload, out: Path, seed: int, cross: dict | None = None) -> list[str]:
    """Problems with one execution's outputs; empty when they are correct."""
    ref = REFERENCE / f"seed-{seed}" / w.name
    try:
        problems = _check_sweep(out) if w.kind == "sweep" else _check_pipeline(w, out, cross or {})
        for name in PINNED[w.kind] if ref.is_dir() else ():
            if (out / name).read_bytes() != (ref / name).read_bytes():
                problems.append(f"{name} differs from the seed-{seed} reference")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    return problems


def _check_sweep(out: Path) -> list[str]:
    manifest = json.loads((out / "manifest.json").read_text())
    problems = []
    for name in ("sweep.csv", "sizes.csv"):
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != manifest["outputs"][name]:
            problems.append(f"{name} does not match its manifest hash")
    ks, ms = manifest["config"]["k_values"], manifest["config"]["m_values"]
    grid = [(int(k), int(m)) for k, m, _ in _csv_rows(out / "sweep.csv")]
    if grid != [(k, m) for k in ks for m in ms]:
        problems.append("sweep.csv does not cover the (k, m) grid")
    sizes = _csv_rows(out / "sizes.csv")
    if [int(r[0]) for r in sizes] != ks or any(int(r[2]) > int(r[1]) for r in sizes):
        problems.append("sizes.csv rows are missing or inconsistent")
    return problems


def _check_pipeline(w: Workload, out: Path, cross: dict) -> list[str]:
    if not cross:
        return ["the in-memory cross-check sweep failed"]
    problems = []
    policy = json.loads((out / "policy.json").read_text())
    if float(policy["v_s0"]) != float(cross["row"][2]) or [policy["k"], policy["m"]] != [w.k, w.m]:
        problems.append(f"solve V(s0)={policy['v_s0']!r} != in-memory sweep {cross['row']}")
    pruned = json.loads((out / "pruned.json").read_text())
    layers = [set(layer) for layer in pruned["layers"]]
    counts = [str(pruned["k"]), str(pruned["nodes_all_layers"]),
              str(sum(len(layer) for layer in layers)), str(len(set().union(*layers)))]
    if counts != cross["sizes"]:
        problems.append(f"pruned sizes {counts} != in-memory sweep {cross['sizes']}")
    rows = _csv_rows(out / "rollout.csv")
    if [int(r[0]) for r in rows] != list(range(len(pruned["layers"]) + 1)):
        problems.append("rollout.csv does not cover t = 0..T")
    return problems


def check_crosscheck_reference(w: Workload, cross: dict, seed: int) -> list[str]:
    """At a reference seed, the one-cell sweep must equal the full sweep's row."""
    ref = REFERENCE / f"seed-{seed}" / w.same_as
    if not (w.same_as and cross and ref.is_dir()):
        return []
    rows = {tuple(r[:2]): r for r in _csv_rows(ref / "sweep.csv")}
    sizes = {r[0]: r for r in _csv_rows(ref / "sizes.csv")}
    if rows.get((str(w.k), str(w.m))) != cross["row"] or sizes.get(str(w.k)) != cross["sizes"]:
        return [f"in-memory (k={w.k}, m={w.m}) differs from the seed-{seed} {w.same_as} reference"]
    return []


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def host_calibration(repeats: int = 5) -> float:
    """Median seconds of a fixed numpy-plus-Python loop.

    A diagnostic printed beside every run to show slow periods of a shared
    host; it never rescales or gates a metric.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 40_000).reshape(200, 200)
    big = np.ones(4_000_000)  # 32 MB, beyond the private caches
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0.0
        for i in range(100):
            acc += float((a @ a[:, i]).sum())
        acc += float(big[::3].sum())
        counts: dict[int, int] = {}
        for i in range(100_000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def span_files(folder: Path) -> list[dict]:
    return [json.loads(f.read_text()) for f in sorted(folder.glob("spans-*.json"))]


def layer_totals(traces: list[dict]) -> tuple[dict, dict, dict, set[str]]:
    """Self seconds and call counts per span name, summed counts, untraced names."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    untraced: set[str] = set()
    for trace in traces:
        untraced.update(trace["untraced"])
        spans = trace["spans"]
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            for key, value in (span[4] or {}).items():
                counts[key] = counts.get(key, 0) + value
    return self_s, calls, counts, untraced


def per_layer_metrics(setup: list[dict], work: list[dict], artifact_bytes: int,
                      calib_s: float, overhead_s: float) -> dict:
    """Every per-layer metric; a layer whose boundary is gone is `untraced`."""
    set_self, _, _, set_untraced = layer_totals(setup)
    self_s, calls, counts, untraced = layer_totals(work)
    untraced |= set_untraced
    metrics: dict[str, dict] = {}

    def put(name, value, unit, span):
        if span in untraced:
            metrics[name] = {"value": None, "unit": unit, "status": "untraced"}
        else:
            metrics[name] = {"value": value, "unit": unit}

    for span, (time_metric, calls_metric) in SPAN_METRICS.items():
        source = set_self if span in SETUP_SPANS else self_s
        put(time_metric, source.get(span, 0.0), "s", span)
        if calls_metric:
            put(calls_metric, calls.get(span, 0), "count", span)
    for key, (name, unit, span) in COUNT_METRICS.items():
        put(name, counts.get(key, 0), unit, span)
    admitted = counts.get("nodes_admitted", 0)
    put("influence.useful_ratio", counts.get("nodes_reachable", 0) / admitted if admitted else 0.0,
        "ratio", "influence.prune")
    rollout_s = self_s.get("solver.rollout", 0.0)
    put("solver.rollout_steps_per_s", counts.get("rollout_steps", 0) / rollout_s if rollout_s else 0.0,
        "1/s", "solver.rollout")
    put("cli.artifact_mb", artifact_bytes / 1e6, "MB", None)
    put("host.calib_s", calib_s, "s", None)
    put("trace.overhead_s", overhead_s, "s", None)
    return metrics


def artifact_bytes(out: Path) -> int:
    return sum(f.stat().st_size for f in out.iterdir()
               if f.is_file() and f.name != "log.txt" and not f.name.startswith("spans-"))


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """(q, value) for the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    q = (n - 10) / n
    return q, sorted(values)[n - 11]


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def find_root() -> Path:
    """The checkout in the working directory; exits non-zero without cfmdp sources."""
    root = Path.cwd()
    if not (root / "src" / "cfmdp" / "cli.py").is_file():
        raise SystemExit(f"error: no cfmdp sources under {root / 'src'}; run from the root of a checkout")
    return root


def run_workload(root: Path, w: Workload, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    calib_s = host_calibration()
    print(f"workload {w.name} seed {seed} trace {int(trace)}")
    print(f"host.calib_s {calib_s:.4f} s (diagnostic, never used to rescale)")

    setups = []
    for i in range(1 if trace else SETUP_REPEATS):
        obs = scratch / f"obs-{i}"
        setups.append(setup_observation(root, w, obs, traced=trace))
        if setups[-1].code != 0:
            print(f"set-up failed with exit code {setups[-1].code}; see {obs / 'log.txt'}")
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    cross = pipeline_crosscheck(root, w, obs, scratch / "crosscheck", seed) if w.kind == "pipeline" else None
    cross_problems = check_crosscheck_reference(w, cross, seed)

    untraced: list[Stage] = []
    traced: list[Stage] = []
    traced_out: list[Path] = []
    failed = 0
    start = time.perf_counter()
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            out = scratch / f"run-{len(untraced) + len(traced)}"
            stage = execute(root, w, obs, out, seed, traced=is_traced)
            problems = [f"exit code {stage.code}"] if stage.code else check_outputs(w, out, seed, cross)
            problems += cross_problems
            if problems:
                failed += 1
                print(f"FAILED {out.name}: " + "; ".join(problems))
            if is_traced:
                traced.append(stage)
                traced_out.append(out)
            else:
                untraced.append(stage)
                shutil.rmtree(out)
        per_round = (time.perf_counter() - start) / len(untraced)
        if time.perf_counter() - start + per_round > seconds:
            break

    attempted = len(untraced) + len(traced)
    walls = [s.seconds for s in untraced]
    wall_s = statistics.median(walls)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted} executions)")
    if not trace:
        setup_s = statistics.median(s.seconds for s in setups)
        rss = statistics.median(s.peak_rss_mb for s in untraced)
        high = high_percentile(walls)
        print(f"setup_s {setup_s:.4f} s (median of {len(setups)} set-ups)")
        print(f"wall_s {wall_s:.4f} s (median of {len(walls)} executions: "
              + ", ".join(f"{x:.3f}" for x in walls) + ")"
              + (f"; p{100 * high[0]:.0f} {high[1]:.4f} s" if high else
                 "; no percentile above the median has ten samples beyond it"))
        print(f"peak_rss_mb {rss:.2f} MB (median over executions)")
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": rss}
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        return result

    # Per-layer figures are per traced execution: the lower median over them,
    # so counts stay whole numbers.
    setup_traces = span_files(obs)
    per_exec = [per_layer_metrics(setup_traces, span_files(out), artifact_bytes(out), calib_s,
                                  stage.seconds - wall_s)
                for out, stage in zip(traced_out, traced)]
    metrics = {name: dict(metric, value=None if metric["value"] is None else
                          statistics.median_low(m[name]["value"] for m in per_exec))
               for name, metric in per_exec[0].items()}
    work = span_files(traced_out[0])
    covered = sum(layer_totals(work)[0].values())
    roots = sum(s[2] - s[1] for t in work for s in t["spans"] if s[3] < 0)
    print(f"trace: self times sum to {covered:.4f} s of {roots:.4f} s traced CLI time; traced "
          f"wall {traced[0].seconds:.4f} s against the untraced median {wall_s:.4f} s")
    for name, metric in metrics.items():
        value = metric["value"]
        print(f"{name} {'untraced' if value is None else f'{value:.6g}'} {metric['unit']}")
    result["metrics"] = metrics
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7, help="posterior seed")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = find_root()
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        scratch = root / ".bench_work" / f"{name}-{os.getpid()}"
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            results[name] = run_workload(root, WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace), scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
