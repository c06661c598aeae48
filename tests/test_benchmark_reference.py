"""The benchmark's pinned outputs, reproduced in the test suite.

`perfbench` counts an execution as failed unless its outputs at seed 7 match
`perfbench/reference/seed-7/` byte for byte. This runs the same commands on
sepsis-suboptimal through `cli.main`, so a change that moves those bytes
fails here, not only under the benchmark. The reference files are read from
the checkout, as `test_tracer_boundaries` reads `perfbench/tracer.py`.
"""

import hashlib
from pathlib import Path

import pytest

from cfmdp.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "seed-7"
# SHA-256 of `cfmdp env` output, recorded when each builder still compiled
# one label dict per row. A builder change that moves a byte fails here.
ENV_SHA256 = {
    "gridworld": "7bf770bc5c2dd3c7f059e57c2ceb228952e3101f7defdbc5bb6a7542ab3e3d66",
    "epidemic": "f43376f2fcb2b40b02c77ef1aefe52be712a2a8141eb940d1ef8c016aacdc13b",
    "epidemic --population 14": "3531a592aca5c02eddde9b96a9ee3172640a84696453c6862e1fdc591a1a5a0c",
    "sepsis": "f3bcc77cd6db8921a2c73e225c32cfd243240eb821570abb3b3e95618ee15f3b",
}
STAGED_SHA256 = {
    "pruned.json": "6dd15ed46a2bd712209ae35f2522eeb374c533ff269170a51cda199b0ac56636",
    "policy.json": "97dbc3702d63fe6bd341167ceabcd135aab26bfe505015375493ae86ef6e0618",
}


def test_sepsis_sweep_and_pipeline_equal_the_benchmark_reference(tmp_path):
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
    # those of the columnar codecs, which store the rows the label-keyed
    # form stored (the policy's `pruned_hash` did not change with them).
    for name, digest in STAGED_SHA256.items():
        assert hashlib.sha256((staged / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("args", sorted(ENV_SHA256))
def test_env_output_equals_its_recorded_hash(args, capsys):
    assert main(["env", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ENV_SHA256[args]
