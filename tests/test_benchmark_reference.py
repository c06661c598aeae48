"""The benchmark's pinned outputs, reproduced in the test suite.

`perfbench` counts an execution as failed unless its outputs at the pinned
seeds 7 and 1234 match `perfbench/reference/seed-<n>/` byte for byte. This
runs the same commands through `cli.main`, so a change that moves those
bytes fails here, not only under the benchmark. The reference files are
read from the checkout, and the benchmark's own output check is run from
`perfbench/run.py`, loaded read-only as `test_tracer_boundaries` loads
`perfbench/tracer.py`: a staged artifact the benchmark cannot read fails
here too.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cfmdp.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference" / "seed-7"
# SHA-256 of `cfmdp env` output in the index form of `mdp.json` (label
# lists, pair columns, one row table of the distinct nominal rows). The
# builders still give the label-dict oracles' digests (`test_environments`),
# so a byte that moves here is a change of the writer or of a builder.
ENV_SHA256 = {
    "gridworld": "8435dd9869734c9b6601cbaa96d49ad279e4d31b8ce03d501d67137f5e3ee3bc",
    "epidemic": "b96979d9375082a7de90ea8004d3af8216b9a994d32879e167190967b5d06534",
    "epidemic --population 14": "6db8128ff4e0f2f5f173a8787c7fd4889f469c1d8043ab6b360645e2de8be91b",
    "sepsis": "e0c70a4308b84a509ada3907ccd6fe28d8c7c8971266bad74a17fedf7a489e4b",
}
STAGED_SHA256 = {
    "pruned.json": "427d4ae43428d1a34dfc804ccd97c442f75d8ddd4e05afecbb85608de2e81f21",
    "policy.json": "f51074ccbd532a8265a6dc1ed138b4c95bb40c4fb97f9334e6e17f63884d0eb8",
}


def _perfbench_run(monkeypatch):
    """`perfbench/run.py` as a module. It imports `tracer` from its folder,
    and its dataclasses look their module up in `sys.modules`."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_sepsis_sweep_and_pipeline_equal_the_benchmark_reference(tmp_path, monkeypatch):
    mdp, path = str(tmp_path / "mdp.json"), str(tmp_path / "path.json")
    sweep, staged = tmp_path / "sweep", tmp_path / "staged"
    staged.mkdir()
    posterior = ["--mdp", mdp, "--path", path, "--samples", "1000", "--seed", "7"]
    post, pruned, policy = (str(staged / name) for name in ("posterior.json", "pruned.json",
                                                             "policy.json"))
    commands = [
        ["env", "sepsis", "--out", mdp],
        ["sample", "--mdp", mdp, "--policy", "sepsis-suboptimal", "--out", path],
        ["sweep", *posterior, "--out", str(sweep)],
        ["cf-build", *posterior, "--out", post],
        ["prune", "--mdp", mdp, "--path", path, "--posterior", post, "--k", "11", "--out", pruned],
        ["solve", "--mdp", mdp, "--pruned", pruned, "--m", "2", "--out", policy],
        ["rollout", "--mdp", mdp, "--pruned", pruned, "--policy", policy, "--env", "sepsis",
         "--feature", "abnormal_vitals", "-n", "10000", "--seed", "3",
         "--out", str(staged / "rollout.csv")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    for name in ("sweep.csv", "sizes.csv"):
        assert (sweep / name).read_bytes() == (REFERENCE / "sepsis-sweep" / name).read_bytes(), name
    assert ((staged / "rollout.csv").read_bytes()
            == (REFERENCE / "sepsis-pipeline" / "rollout.csv").read_bytes())
    # The staged artifacts are not pinned by the benchmark; their bytes are
    # those of the columnar codecs, and they record the MDP's digest (the
    # pruned artifact's `mdp_hash`, the policy's `meta.mdp_hash` and
    # `pruned_hash`), which hashes the MDP's canonical row table.
    for name, digest in STAGED_SHA256.items():
        assert hashlib.sha256((staged / name).read_bytes()).hexdigest() == digest, name
    # The benchmark checks the staged outputs against its one-cell in-memory
    # sweep: here the full sweep's (k=11, m=2) row and k=11 size row.
    rows = {name: [line.split(",") for line in (sweep / name).read_text().splitlines()[1:]]
            for name in ("sweep.csv", "sizes.csv")}
    cross = {"row": next(r for r in rows["sweep.csv"] if r[:2] == ["11", "2"]),
             "sizes": next(r for r in rows["sizes.csv"] if r[0] == "11")}
    run = _perfbench_run(monkeypatch)
    assert run.check_outputs(run.WORKLOADS["sepsis-pipeline"], staged, 7, cross) == []


@pytest.mark.parametrize("workload, env, policy, seed", [
    ("sepsis-sweep", "sepsis", "sepsis-suboptimal", 1234),
    ("epidemic-wide-sweep", "epidemic --population 14", "epidemic", 7),
    ("epidemic-wide-sweep", "epidemic --population 14", "epidemic", 1234),
])
def test_sweep_equals_the_benchmark_reference(workload, env, policy, seed, tmp_path):
    # The other pinned sweeps: seed 7 of sepsis-sweep is checked above.
    mdp, path, out = str(tmp_path / "mdp.json"), str(tmp_path / "path.json"), tmp_path / "sweep"
    assert main(["env", *env.split(), "--out", mdp]) == 0
    assert main(["sample", "--mdp", mdp, "--policy", policy, "--out", path]) == 0
    assert main(["sweep", "--mdp", mdp, "--path", path, "--samples", "1000", "--seed", str(seed),
                 "--out", str(out)]) == 0
    reference = PERFBENCH / "reference" / f"seed-{seed}" / workload
    for name in ("sweep.csv", "sizes.csv"):
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name


@pytest.mark.parametrize("args", sorted(ENV_SHA256))
def test_env_output_equals_its_recorded_hash(args, capsys):
    assert main(["env", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ENV_SHA256[args]
