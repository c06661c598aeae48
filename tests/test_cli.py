import argparse
import functools
import hashlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cfmdp.cli
import cfmdp.environments
import cfmdp.gumbel
import cfmdp.mdp
import cfmdp.solver
from cfmdp.cli import _pruned_from_json, _pruned_to_json, main
from cfmdp.environments import build_environment
from cfmdp.errors import InvariantViolated, ValidationFailed
from cfmdp.gumbel import build_cf_mdp, build_posterior, load_posterior
from cfmdp.influence import prune_cf_mdp
from cfmdp.mdp import (PROB_TOL, Mdp, gather_rows, mdp_from_json, mdp_hash, mdp_to_json,
                       path_from_json)
from cfmdp.solver import sweep

from oracles import (available_actions, cf_probs, cf_row, dict_mdp, km_value_oracle, label_form,
                     row_columns, table_rows)
from test_benchmark_reference import ENV_SHA256

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def walkthrough_commands() -> list[list[str]]:
    """Each `cfmdp ...` line of the code blocks in README's CLI walkthrough,
    as the argument list of `main`."""
    section = README.read_text().split("\n## CLI walkthrough\n")[1].split("\n## ")[0]
    code = "".join(re.findall(r"```bash\n(.*?)```", section, re.S)).replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in code.splitlines()
            if line.startswith("cfmdp ")]


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    commands = walkthrough_commands()
    assert {argv[0] for argv in commands} == {"env", "sample", "cf-build", "prune", "solve",
                                              "rollout", "sweep"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_env_epidemic_json(capsys):
    code, out, _ = run(capsys, "env", "epidemic")
    assert code == 0
    obj = json.loads(out)
    assert obj["actions"] == ["NIL", "V_I", "V_S"]


def test_env_gridworld_slip_zero_deterministic(tmp_path, capsys):
    (tmp_path / "config.json").write_text(json.dumps({"slip": 0}))
    code, out, _ = run(capsys, "env", "gridworld", "--config", str(tmp_path / "config.json"))
    assert code == 0
    obj = json.loads(out)
    assert set(obj["rows"]["size"]) == {1}


@pytest.mark.parametrize("slip", [0, 0.2])
def test_gridworld_preset_and_features_fit_every_gridworld(slip, tmp_path, capsys):
    # The observed walk and the features read the cells the builder uses:
    # the walk has an action wherever it goes, and in_danger marks exactly
    # the absorbing, stay-only state that is not the goal.
    (tmp_path / "config.json").write_text(json.dumps({"slip": slip}))
    mdp_f = tmp_path / "mdp.json"
    assert main(["env", "gridworld", "--config", str(tmp_path / "config.json"),
                 "--out", str(mdp_f)]) == 0
    code, _, err = run(capsys, "sample", "--mdp", str(mdp_f), "--policy", "gridworld",
                       "--out", str(tmp_path / "path.json"))
    assert code == 0, err
    mdp = mdp_from_json(json.loads(mdp_f.read_text()))
    features = cfmdp.environments.environment_features("gridworld")
    stay_only = {s for s in mdp.states if available_actions(mdp, s) == ("stay",)}
    goal = {s for s in mdp.states if features["dist_to_goal"](s) == 0.0}
    danger = {s for s in mdp.states if features["in_danger"](s) == 1.0}
    assert len(goal) == len(danger) == 1 and danger == stay_only - goal
    assert {features["in_danger"](s) for s in mdp.states} == {0.0, 1.0}


def test_env_round_trips_through_loader(capsys, tmp_path):
    code, out, _ = run(capsys, "env", "epidemic")
    assert code == 0
    obj = json.loads(out)
    again = json.dumps(mdp_to_json(mdp_from_json(obj)), sort_keys=True, indent=2) + "\n"
    assert again == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_env_unknown_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["env", "atlantis"])
    assert exc.value.code == 2


def test_sample_epidemic_preset(artifact_dir, capsys, tmp_path):
    out_file = tmp_path / "path.json"
    code, _, _ = run(capsys, "sample", "--mdp", str(artifact_dir / "mdp.json"),
                     "--policy", "epidemic", "--out", str(out_file))
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["steps"][0] == {"t": 0, "s": "S9I1V20", "a": "NIL"}
    assert len(obj["steps"]) == 7


def test_sample_identical_bytes_across_runs(artifact_dir, capsys, tmp_path):
    f1, f2 = tmp_path / "p1.json", tmp_path / "p2.json"
    mdp = str(artifact_dir / "mdp.json")
    run(capsys, "sample", "--mdp", mdp, "--policy", "epidemic", "--seed", "10", "--out", str(f1))
    run(capsys, "sample", "--mdp", mdp, "--policy", "epidemic", "--seed", "10", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_sample_invalid_preset_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--mdp", "mdp.json", "--policy", "nonsense"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """Full artifact flow: env -> sample -> cf-build -> prune -> solve."""
    d = tmp_path_factory.mktemp("artifacts")
    mdp_f = d / "mdp.json"
    path_f = d / "path.json"
    post_f = d / "posterior.json"
    pruned_f = d / "pruned.json"
    policy_f = d / "policy.json"
    assert main(["env", "epidemic", "--out", str(mdp_f)]) == 0
    assert main(["sample", "--mdp", str(mdp_f), "--policy", "epidemic", "--out", str(path_f)]) == 0
    assert main(["cf-build", "--mdp", str(mdp_f), "--path", str(path_f),
                 "--samples", "500", "--seed", "7", "--out", str(post_f)]) == 0
    assert main(["prune", "--mdp", str(mdp_f), "--path", str(path_f),
                 "--posterior", str(post_f), "--k", "8", "--out", str(pruned_f)]) == 0
    assert main(["solve", "--mdp", str(mdp_f), "--pruned", str(pruned_f),
                 "--m", "1", "--out", str(policy_f)]) == 0
    return d


def test_artifact_flow_solves_headline_value(artifact_dir):
    policy = json.loads((artifact_dir / "policy.json").read_text())
    assert policy["v_s0"] == pytest.approx(-1.0, abs=1e-9)


def test_rollout_cli_optimal_policy(artifact_dir, capsys, tmp_path):
    out_csv = tmp_path / "rollout.csv"
    code, _, _ = run(
        capsys, "rollout",
        "--mdp", str(artifact_dir / "mdp.json"),
        "--pruned", str(artifact_dir / "pruned.json"),
        "--policy", str(artifact_dir / "policy.json"),
        "--env", "epidemic", "--feature", "infected",
        "-n", "200", "--seed", "3", "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,mean,std"
    means = [float(line.split(",")[1]) for line in lines[1:]]
    assert means == [1.0] + [0.0] * 7


def test_rollout_cli_m0_replay_is_deterministic(artifact_dir, capsys, tmp_path):
    policy0 = tmp_path / "policy0.json"
    assert main(["solve", "--mdp", str(artifact_dir / "mdp.json"),
                 "--pruned", str(artifact_dir / "pruned.json"),
                 "--m", "0", "--out", str(policy0)]) == 0
    out_csv = tmp_path / "replay.csv"
    code, _, _ = run(
        capsys, "rollout",
        "--mdp", str(artifact_dir / "mdp.json"),
        "--pruned", str(artifact_dir / "pruned.json"),
        "--policy", str(policy0),
        "--env", "epidemic", "--feature", "infected",
        "-n", "100", "--seed", "1", "--out", str(out_csv),
    )
    assert code == 0
    rows = [line.split(",") for line in out_csv.read_text().strip().splitlines()[1:]]
    # Observed steps replay exactly; only the unobserved terminal point varies.
    assert [float(r[1]) for r in rows[:7]] == [1.0, 2.0, 3.0, 6.0, 8.0, 9.0, 9.0]
    assert [float(r[2]) for r in rows[:7]] == [0.0] * 7


def test_rollout_cli_unknown_feature(artifact_dir, capsys):
    code, _, err = run(
        capsys, "rollout",
        "--mdp", str(artifact_dir / "mdp.json"),
        "--pruned", str(artifact_dir / "pruned.json"),
        "--policy", str(artifact_dir / "policy.json"),
        "--env", "epidemic", "--feature", "bogus", "-n", "10",
    )
    assert code == 2
    assert "bogus" in err


def test_rollout_cli_feature_of_another_env_exits_2(artifact_dir, capsys):
    # gridworld's feature parses gridworld labels and cannot read epidemic ones.
    code, _, err = run(
        capsys, "rollout",
        "--mdp", str(artifact_dir / "mdp.json"),
        "--pruned", str(artifact_dir / "pruned.json"),
        "--policy", str(artifact_dir / "policy.json"),
        "--env", "gridworld", "--feature", "dist_to_goal", "-n", "10",
    )
    assert code == 2
    assert err.startswith("error:") and "feature" in err


def _observation(artifact_dir) -> list[str]:
    """The --mdp and --path flags of the epidemic files in artifact_dir."""
    return ["--mdp", str(artifact_dir / "mdp.json"), "--path", str(artifact_dir / "path.json")]


def test_sweep_cli_epidemic(artifact_dir, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, _, _ = run(capsys, "sweep", *_observation(artifact_dir), "--samples", "300",
                     "--seed", "7", "--out", str(out_dir))
    assert code == 0
    rows = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "k,m,V_s0"
    table = {}
    for line in rows[1:]:
        k, m, v = line.split(",")
        table[(int(k), int(m))] = float(v)
    for m in range(1, 8):
        assert table[(1, m)] == -38.0
        assert table[(2, m)] == -38.0
        assert table[(8, m)] == pytest.approx(-1.0, abs=1e-9)
    sizes = (out_dir / "sizes.csv").read_text().strip().splitlines()
    assert sizes[0] == "k,nodes_all_layers,nodes_reachable,distinct_states"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    # The observation is read from files, so the manifest names them, not an
    # environment or a preset.
    assert manifest["config"] == {
        "mdp_file": str(artifact_dir / "mdp.json"), "path_file": str(artifact_dir / "path.json"),
        "horizon": 7, "posterior_seed": 7, "samples": 300,
        "k_values": list(range(1, 9)), "m_values": list(range(1, 8))}
    assert manifest["statistics"]["cf_rows_built"] > 0
    assert "posterior_builds" not in manifest["statistics"]
    assert manifest["outputs"]["sweep.csv"]


def test_sweep_cli_byte_identical_outputs(artifact_dir, tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = run(capsys, "sweep", *_observation(artifact_dir), "--samples", "200",
                         "--seed", "9", "--k-min", "7", "--m-max", "2", "--out", str(d))
        assert code == 0
    assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
    assert (d1 / "sizes.csv").read_bytes() == (d2 / "sizes.csv").read_bytes()


def test_sweep_rejects_bad_ranges(artifact_dir, tmp_path, capsys):
    code, _, err = run(capsys, "sweep", *_observation(artifact_dir), "--k-min", "0",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert "k range" in err


@pytest.mark.parametrize("flags, message", [
    (("--k-min", "5", "--k-max", "3"), "k range [5, 3] is empty"),
    (("--m-min", "4", "--m-max", "2"), "m range [4, 2] is empty"),
    (("--k-min", "0"), "k range [0, 8] must lie within [1, 8]"),
    (("--m-max", "9"), "m range [1, 9] must lie within [0, 7]"),
], ids=["k-empty", "m-empty", "k-below", "m-above"])
def test_sweep_range_error_names_the_bounds_given(artifact_dir, tmp_path, capsys, flags, message):
    # A minimum above the maximum is an empty range, even when both bounds lie
    # within the horizon's; each message names the range that was given.
    code, _, err = run(capsys, "sweep", *_observation(artifact_dir), *flags,
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert message in err


def test_sweep_manifest_reports_the_rows_standard_errors(artifact_dir, tmp_path, capsys):
    # sqrt(p(1-p)/N) over every entry of the built rows with more than one
    # successor, computed here entry by entry from the library's sweep.
    n, seed = 200, 9
    code, _, err = run(capsys, "sweep", *_observation(artifact_dir), "--samples", str(n),
                       "--seed", str(seed), "--k-min", "7", "--m-max", "2",
                       "--out", str(tmp_path / "s"))
    assert code == 0, err
    stats = json.loads((tmp_path / "s" / "manifest.json").read_text())["statistics"]
    mdp = mdp_from_json(json.loads((artifact_dir / "mdp.json").read_text()))
    path = path_from_json(json.loads((artifact_dir / "path.json").read_text()), mdp)
    cf = build_cf_mdp(build_posterior(mdp, path, n, seed), mdp)
    result = sweep(cf, [7, 8], [1, 2])
    # One pair per (t, nominal row) the sweep read, in (t, nominal row) order.
    built = {(t, r): int(np.flatnonzero(mdp.row_id == r)[0])
             for t, (ids, _, _, _) in enumerate(result.top.rows) for r in ids.tolist()}
    rows = [cf_row(cf, t, p)[1] for (t, _), p in built.items()]
    se = [(p * (1 - p) / n) ** 0.5 for probs in rows if len(probs) > 1 for p in probs.tolist()]
    assert len(se) > 10 and stats["cf_rows_built"] == cf.rows_built == len(built)
    assert stats["cf_row_se_max"] == max(se) > 0
    assert stats["cf_row_se_mean"] == pytest.approx(sum(se) / len(se), rel=1e-12)


def test_sweep_manifest_counts_the_dp_rows_priced(artifact_dir, tmp_path, capsys):
    # The library sweep's count, which `test_solver` checks against a direct
    # count; the manifest hashes neither sweep.csv nor sizes.csv with it.
    code, _, err = run(capsys, "sweep", *_observation(artifact_dir), "--samples", "200",
                       "--seed", "9", "--k-min", "6", "--m-max", "2", "--out", str(tmp_path / "s"))
    assert code == 0, err
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    mdp = mdp_from_json(json.loads((artifact_dir / "mdp.json").read_text()))
    path = path_from_json(json.loads((artifact_dir / "path.json").read_text()), mdp)
    result = sweep(build_cf_mdp(build_posterior(mdp, path, 200, 9), mdp), [6, 7, 8], [1, 2])
    assert manifest["statistics"]["dp_rows_priced"] == result.dp_rows_priced > 0
    assert sorted(manifest["outputs"]) == ["sizes.csv", "sweep.csv"]


def test_sweep_bounds_of_zero_are_bounds(artifact_dir, tmp_path, capsys):
    # 0 is a bound like any other: the replay-only grid k = 1, m = 0 is one
    # row, and a k range ending at 0 is empty.
    out = tmp_path / "one"
    code, _, err = run(capsys, "sweep", *_observation(artifact_dir), "--samples", "20",
                       "--k-min", "1", "--k-max", "1", "--m-min", "0", "--m-max", "0",
                       "--out", str(out))
    assert code == 0, err
    assert (out / "sweep.csv").read_text().splitlines()[1:] == ["1,0,-38.0"]
    code, _, err = run(capsys, "sweep", *_observation(artifact_dir), "--samples", "20",
                       "--k-max", "0", "--out", str(tmp_path / "none"))
    assert code == 2 and "k range" in err
    assert not (tmp_path / "none").exists()


def test_prune_nominal_mode(tmp_path, capsys):
    mdp_f = tmp_path / "mdp.json"
    path_f = tmp_path / "path.json"
    main(["env", "gridworld", "--out", str(mdp_f)])
    main(["sample", "--mdp", str(mdp_f), "--policy", "gridworld", "--out", str(path_f)])
    code, _, err = run(capsys, "prune", "--mdp", str(mdp_f), "--path", str(path_f),
                       "--nominal", "--k", "1", "--out", str(tmp_path / "pruned.json"))
    assert code == 0
    assert "nodes_reachable=11" in err


def test_replay_is_infeasible_under_nominal_rows_at_a_small_k(tmp_path, capsys):
    # Under nominal rows the observed (x0, a0) keeps its whole row, so
    # replay can move to x2, which the prune at k=1 leaves out of layer 1:
    # m = 0 has no feasible policy. From a posterior, (x0, a0) moves to the
    # observed x1 alone, and replay is feasible at every k.
    kernel = {("x0", "a0"): {"x1": 0.5, "x2": 0.5}, ("x1", "a0"): {"x2": 1.0},
              ("x2", "a0"): {"x0": 1.0}, **{(x, "a1"): {x: 1.0} for x in ("x0", "x1", "x2")}}
    files = {name: str(tmp_path / f"{name}.json") for name in ("mdp", "path", "post", "pruned")}
    Path(files["mdp"]).write_text(json.dumps(mdp_to_json(dict_mdp(
        ("x0", "x1", "x2"), ("a0", "a1"), kernel, {("x0", "a0"): 1.0, ("x1", "a0"): 1.0},
        {"x0": 1.0}, name="replay"))))
    Path(files["path"]).write_text(json.dumps(
        {"steps": [{"t": 0, "s": "x0", "a": "a0"}, {"t": 1, "s": "x1", "a": "a0"}]}))
    observation = ("--mdp", files["mdp"], "--path", files["path"])
    assert run(capsys, "cf-build", *observation, "--samples", "200", "--out", files["post"])[0] == 0
    for source, code, message in ((["--nominal"], 3, "error: no feasible policy at m=0\n"),
                                  (["--posterior", files["post"]], 0, "V(s0) = 2.0\n")):
        assert run(capsys, "prune", *observation, *source, "--k", "1",
                   "--out", files["pruned"])[0] == 0
        assert run(capsys, "solve", "--mdp", files["mdp"], "--pruned", files["pruned"],
                   "--m", "0")[::2] == (code, message), source


def test_prune_on_an_empty_path_exits_2(artifact_dir, tmp_path, capsys):
    # An empty path is a valid observation, but it has no layer to prune.
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"steps": []}))
    code, _, err = run(capsys, "prune", "--mdp", str(artifact_dir / "mdp.json"), "--path", str(path),
                       "--nominal", "--k", "1")
    assert code == 2
    assert err.startswith("error:") and "empty" in err

# prune takes exactly one noise source, a --posterior artifact or the
# --nominal rows; posteriors are sampled by cf-build only. Each case is an
# argparse error, with a fragment of its message.
MIXED_NOISE_SOURCES = {
    "none": ("", "one of the arguments --posterior --nominal is required"),
    "posterior-samples": ("--posterior {post} --samples 7", "unrecognized arguments: --samples"),
    "posterior-sampler": ("--posterior {post} --sampler rejection",
                          "unrecognized arguments: --sampler"),
    "posterior-seed-0": ("--posterior {post} --seed 0", "unrecognized arguments: --seed"),
    "posterior-nominal": ("--posterior {post} --nominal", "not allowed with argument"),
    "nominal-samples": ("--nominal --samples 1000", "unrecognized arguments: --samples"),
    "nominal-sampler": ("--nominal --sampler topdown", "unrecognized arguments: --sampler"),
    "nominal-seed": ("--nominal --seed 3", "unrecognized arguments: --seed"),
}


@pytest.mark.parametrize("case", sorted(MIXED_NOISE_SOURCES))
def test_prune_takes_one_noise_source(case, artifact_dir, tmp_path, capsys):
    flags, reason = MIXED_NOISE_SOURCES[case]
    out = tmp_path / "pruned.json"
    with pytest.raises(SystemExit) as exc:
        main(["prune", "--mdp", str(artifact_dir / "mdp.json"), "--path",
              str(artifact_dir / "path.json"), "--k", "8", "--out", str(out),
              *flags.format(post=artifact_dir / "posterior.json").split()])
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_prune_posterior_of_another_path_exits_2(artifact_dir, tmp_path, capsys):
    # The posterior artifact carries its own path; prune's --path must be that path.
    other = tmp_path / "path.json"
    assert main(["sample", "--mdp", str(artifact_dir / "mdp.json"), "--policy", "epidemic",
                 "--seed", "5", "--out", str(other)]) == 0
    assert other.read_bytes() != (artifact_dir / "path.json").read_bytes()
    out = tmp_path / "pruned.json"
    code, _, err = run(capsys, "prune", "--mdp", str(artifact_dir / "mdp.json"),
                       "--path", str(other), "--posterior", str(artifact_dir / "posterior.json"),
                       "--k", "8", "--out", str(out))
    assert code == 2, err
    assert err.startswith("error:") and "different path" in err
    assert not out.exists()


def test_config_array_is_the_tuple_the_builder_takes(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"treat_effect": [1.0, 0.5, 0.3]}))
    code, by_config, err = run(capsys, "env", "sepsis", "--config", str(config))
    assert code == 0, err
    by_tuple = mdp_to_json(build_environment("sepsis", treat_effect=(1.0, 0.5, 0.3)))
    assert by_config == json.dumps(by_tuple, sort_keys=True) + "\n"
    assert by_config != run(capsys, "env", "sepsis")[1]  # the effects moved


def test_config_horizon_sets_the_sepsis_reward(tmp_path, capsys):
    # Sepsis-lite spreads its rewards over `horizon` steps: the per-step
    # values are (1000 - 500 * abnormal vitals) / horizon, -1000 / horizon
    # once dead, and 0 after discharge.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"horizon": 5}))
    code, out, err = run(capsys, "env", "sepsis", "--config", str(config))
    assert code == 0, err
    assert sorted(set(json.loads(out)["pairs"]["r"])) == [-200.0, 0.0, 100.0, 200.0]


@pytest.mark.parametrize("config", [{"treat_effect": [0.5]}, {"treat_effect": [0.5] * 4},
                                    {"horizon": 0}, {"horizon": -3}],
                         ids=["one-effect", "four-effects", "horizon-0", "negative-horizon"])
def test_bad_sepsis_config_exits_2(config, tmp_path, capsys):
    # One effect per treatment, and rewards spread over at least one step.
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, out, err = run(capsys, "env", "sepsis", "--config", str(tmp_path / "config.json"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and next(iter(config)) in err


# Config values of the wrong JSON kind, each with the field the error must
# name. A float field takes a JSON int or float, an int field a JSON int, and
# a tuple field an array of those; a bool is neither. Read unchecked, false
# would build as a slip of 0, and [0.8, true, 0.8] as an effect of 1. An
# integer beyond int64 is no int field's value, and one beyond float64 no
# float field's: read unchecked, a horizon or death threshold of 10**20
# would build. goal_reward, danger and start_vitals are module constants,
# not fields, so no value is of their kind: each exits 2 as a key the
# config lacks, named.
BAD_CONFIG_KINDS = {
    "slip-false": ("gridworld", {"slip": False}, "slip"),
    "slip-a-string": ("gridworld", {"slip": "0.2"}, "slip"),
    "goal-reward-null": ("gridworld", {"goal_reward": None}, "goal_reward"),
    "danger-not-an-array": ("gridworld", {"danger": 5}, "danger"),
    "danger-float-cell": ("gridworld", {"danger": [1.0, 2]}, "danger"),
    "population-float": ("epidemic", {"population": 5.5}, "population"),
    "population-whole-float": ("epidemic", {"population": 5.0}, "population"),
    "initial-infected-true": ("epidemic", {"initial_infected": True}, "initial_infected"),
    "treat-effect-true": ("sepsis", {"treat_effect": [0.8, True, 0.8]}, "treat_effect"),
    "treat-effect-a-string": ("sepsis", {"treat_effect": "0.8"}, "treat_effect"),
    "treat-effect-a-number": ("sepsis", {"treat_effect": 0.8}, "treat_effect"),
    "horizon-beyond-int64": ("sepsis", {"horizon": 10**20}, "horizon"),
    "death-threshold-beyond-int64": ("sepsis", {"death_threshold": 10**20}, "death_threshold"),
    "flux-beyond-float64": ("sepsis", {"flux": 10**400}, "flux"),
    "flux-a-list": ("sepsis", {"flux": [0.2]}, "flux"),
    "horizon-float": ("sepsis", {"horizon": 10.5}, "horizon"),
    "start-vitals-float": ("sepsis", {"start_vitals": [1, 0.5, 1, 1]}, "start_vitals"),
    "start-vitals-level-3": ("sepsis", {"start_vitals": [1, 1, 1, 3]}, "start_vitals"),
    "start-vitals-three": ("sepsis", {"start_vitals": [1, 1, 1]}, "start_vitals"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_KINDS))
def test_config_value_of_the_wrong_kind_exits_2(case, tmp_path, capsys):
    env, config, field = BAD_CONFIG_KINDS[case]
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, out, err = run(capsys, "env", env, "--config", str(tmp_path / "config.json"))
    assert code == 2 and out == "", err
    assert err.startswith("error:") and field in err and "Traceback" not in err
    assert "object" not in err and "interpreted" not in err  # not a Python TypeError text


def test_config_of_every_default_writes_the_default_env(tmp_path, capsys):
    # A default lives in its builder's signature alone: a config setting
    # every keyword to its default (a tuple as an array) writes the bytes of
    # `env NAME` without one, whose digests the benchmark reference pins.
    for env, (build, _) in cfmdp.environments.ENVIRONMENTS.items():
        config = {key: list(field.default) if isinstance(field.default, tuple) else field.default
                  for key, field in inspect.signature(build).parameters.items()}
        (tmp_path / "config.json").write_text(json.dumps(config))
        code, out, err = run(capsys, "env", env, "--config", str(tmp_path / "config.json"))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == ENV_SHA256[env], env


def test_config_json_numbers_of_either_kind_build_the_same_env(tmp_path, capsys):
    # A float field takes a JSON int: 1 is the effect 1.0.
    outs = []
    for effect in ([1, 1, 1], [1.0, 1.0, 1.0]):
        (tmp_path / "config.json").write_text(json.dumps({"treat_effect": effect, "flux": 0}))
        code, out, err = run(capsys, "env", "sepsis", "--config", str(tmp_path / "config.json"))
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


# A key that is not a field of the environment's config: sepsis's horizon
# elsewhere, and each constant that was once a field or a flag.
REMOVED_CONFIG_KEYS = [
    *(("gridworld", key) for key in ("shaping_scale", "danger_penalty", "width", "height",
                                     "start", "goal", "danger", "goal_reward")),
    ("sepsis", "reward_scale"), ("sepsis", "start_vitals")]


@pytest.mark.parametrize("env, key", [("epidemic", "horizon"), ("gridworld", "horizon"),
                                      *REMOVED_CONFIG_KEYS],
                         ids=["epidemic", "gridworld",
                              *(f"{env}-{key}" for env, key in REMOVED_CONFIG_KEYS)])
def test_config_horizon_of_another_environment_exits_2(env, key, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 5}))
    code, out, err = run(capsys, "env", env, "--config", str(config))
    assert code == 2 and out == ""
    assert err.startswith("error:") and key in err and "Traceback" not in err


# Every config field of each environment. A setting that no caller changes
# is a module constant, not a field; a new field is added by adding it here.
CONFIG_FIELDS = {
    "gridworld": ["slip"],
    "epidemic": ["population", "initial_infected"],
    "sepsis": ["treat_effect", "flux", "death_threshold", "horizon"],
}


def test_config_fields_are_the_listed_ones():
    got = {env: list(inspect.signature(build).parameters)
           for env, (build, _) in cfmdp.environments.ENVIRONMENTS.items()}
    assert got == CONFIG_FIELDS
    assert sum(map(len, got.values())) == 7


# SHA-256 of what `env` wrote under each field flag it had before --config
# became the one way to set a field; --config must write the same bytes.
FIELD_FLAG_DIGESTS = {
    "--slip 0.2": ("gridworld", {"slip": 0.2},
                   "fea7ab3f0e2ca4aa44925ddad72329243f4534c605d4156c2b1d224099b93f5b"),
    "--initial-infected 2": ("epidemic", {"initial_infected": 2},
                             "8127ddc7491e90ef939a6e93382d8c677f2e23abd4678e9e9ddd35ac66016ae3"),
    "--flux 0.1": ("sepsis", {"flux": 0.1},
                   "41f5f88ad61d7a764480f533cf406c1901cf1578adaa09e503e8a788a669309c"),
}


@pytest.mark.parametrize("flag", sorted(FIELD_FLAG_DIGESTS))
def test_config_writes_what_the_field_flag_wrote(flag, tmp_path):
    env, config, digest = FIELD_FLAG_DIGESTS[flag]
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "mdp.json"
    assert main(["env", env, "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv", ["gridworld --slip 0.2", "gridworld --danger 2,1",
                                  "gridworld --shaping-scale 2", "epidemic --initial-infected 2",
                                  "sepsis --flux 0.1"])
def test_removed_env_field_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["env", *argv.split()])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "unrecognized arguments" in err and "Traceback" not in err


# Every option string of the parser and of each subcommand, help aside. A
# new knob is added by adding it here.
CLI_OPTIONS = {
    "cfmdp": ["--version"],
    "env": ["--config", "--population", "--out"],
    "sample": ["--mdp", "--policy", "--seed", "--horizon", "--out"],
    "cf-build": ["--mdp", "--path", "--seed", "--samples", "--out"],
    "prune": ["--mdp", "--path", "--posterior", "--nominal", "--k", "--out"],
    "solve": ["--mdp", "--pruned", "--m", "--out"],
    "sweep": ["--mdp", "--path", "--seed", "--samples", "--k-min", "--k-max", "--m-min",
              "--m-max", "--out"],
    "rollout": ["--mdp", "--pruned", "--policy", "--env", "--feature", "-n", "--seed", "--out"],
}


def test_cli_options_are_the_listed_ones():
    def options(parser):
        return [s for action in parser._actions for s in action.option_strings
                if s not in ("-h", "--help")]

    parser = cfmdp.cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {"cfmdp": options(parser)} | {name: options(sub)
                                        for name, sub in commands.choices.items()}
    assert got == CLI_OPTIONS
    assert sum(map(len, got.values())) == 41


@pytest.mark.parametrize("command", ["cf-build", "sweep"])
def test_zero_samples_exits_2(command, artifact_dir, tmp_path, capsys):
    argv = [command, *_observation(artifact_dir), "--samples", "0"]
    argv += {"cf-build": ["--out", str(tmp_path / "post.json")],
             "sweep": ["--out", str(tmp_path / "sweep")]}[command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "sample count" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["cf-build", "sweep"])
def test_oversize_samples_exits_2(command, artifact_dir, tmp_path, capsys, layer_draws):
    # A layer of N x |S| float64 that no array can hold is refused before any
    # draw, with one line.
    argv = [command, *_observation(artifact_dir), "--samples", str(10**30)]
    argv += {"cf-build": ["--out", str(tmp_path / "post.json")],
             "sweep": ["--out", str(tmp_path / "sweep")]}[command]
    code, _, err = run(capsys, *argv)
    assert code == 2, err
    assert err.startswith("error:") and "sample count" in err and err.count("\n") == 1
    assert not any(tmp_path.iterdir())
    assert not layer_draws


def test_layer_out_of_memory_exits_3(artifact_dir, tmp_path, capsys, monkeypatch):
    # A layer numpy cannot allocate is a runtime error naming the step and
    # the layer's shape, not a traceback.
    def no_memory(rng, n, num_states):
        raise MemoryError

    monkeypatch.setattr(cfmdp.gumbel, "_prior_layer", no_memory)
    out = tmp_path / "pruned.json"
    code, _, err = run(capsys, "prune", *_observation(artifact_dir),
                       "--posterior", str(artifact_dir / "posterior.json"), "--k", "8",
                       "--out", str(out))
    assert code == 3, err
    assert err.startswith("error:") and "Traceback" not in err and err.count("\n") == 1
    assert "t=0" in err and "500x" in err, err
    assert not out.exists()


def test_mdp_of_one_shared_dense_row_loads_and_hashes_its_table(tmp_path, capsys):
    # 2000 pairs name one 2000-successor row: 2000 stored entries, 4,000,000
    # expanded per pair (64 MB of successors and probabilities). The file
    # loads, and its digest reads the stored table, never a per-pair view.
    n = 2000
    obj = {"name": "epidemic", "states": [f"s{i}" for i in range(n)], "actions": ["NIL"],
           "pairs": {"s": list(range(n)), "a": [0] * n, "r": [0.0] * n, "row": [0] * n},
           "rows": {"size": [n], "succ": list(range(n)), "prob": [1 / n] * n},
           "initial": {"s": [0], "p": [1.0]}}
    (tmp_path / "mdp.json").write_text(json.dumps(obj))
    out = tmp_path / "path.json"
    code, _, err = run(capsys, "sample", "--mdp", str(tmp_path / "mdp.json"),
                       "--policy", "epidemic", "--out", str(out))
    assert code == 0, err
    assert len(json.loads(out.read_text())["steps"]) == 7
    mdp = mdp_from_json(obj)
    tracemalloc.start()
    try:
        digest = mdp_hash(mdp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == mdp.digest and peak < 2**20, peak


@pytest.mark.parametrize("t", [0.25, "0"])
def test_path_step_t_not_an_integer_exits_2(t, artifact_dir, tmp_path, capsys):
    # int() would read either as step 0, and the path would load.
    path = json.loads((artifact_dir / "path.json").read_text())
    path["steps"][0]["t"] = t
    (tmp_path / "path.json").write_text(json.dumps(path))
    code, _, err = run(capsys, "cf-build", "--mdp", str(artifact_dir / "mdp.json"),
                       "--path", str(tmp_path / "path.json"), "--out", str(tmp_path / "post.json"))
    assert code == 2
    assert err == f"error: path step t {t!r} is not an integer\n"
    assert not (tmp_path / "post.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_reward_exits_2(value, tmp_path, capsys):
    # A NaN reward made sweep exit 3 ("no feasible policy"), an infinite one
    # gave V_s0 = inf; each is now refused where the MDP is loaded.
    mdp = tmp_path / "mdp.json"
    (tmp_path / "config.json").write_text(json.dumps({"slip": 0.2}))
    assert main(["env", "gridworld", "--config", str(tmp_path / "config.json"),
                 "--out", str(mdp)]) == 0
    obj = json.loads(mdp.read_text())
    obj["pairs"]["r"][:3] = [float(value)] * 3
    mdp.write_text(json.dumps(obj))
    code, _, err = run(capsys, "sample", "--mdp", str(mdp), "--policy", "gridworld",
                       "--out", str(tmp_path / "path.json"))
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    assert err.count(f"has non-finite reward {value}") == 3
    assert not (tmp_path / "path.json").exists()


def test_rollout_count_above_2_32_exits_2(artifact_dir, tmp_path, capsys, monkeypatch):
    # Refused before the uniforms are drawn: nothing of size n is made.
    def no_uniforms(seed, n, T):
        raise AssertionError("the rollout uniforms were drawn")

    monkeypatch.setattr(cfmdp.solver, "_stream_uniforms", no_uniforms)
    code, _, err = run(capsys, *_rollout_argv(artifact_dir, tmp_path, artifact_dir / "policy.json"),
                       "-n", str(2**32 + 1))
    assert code == 2
    assert err.startswith("error: rollout count 4294967297 is too large") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


def test_rollout_out_of_memory_exits_3(artifact_dir, tmp_path, capsys, monkeypatch):
    def no_memory(seed, n, T):
        raise MemoryError

    monkeypatch.setattr(cfmdp.solver, "_stream_uniforms", no_memory)
    code, _, err = run(capsys, *_rollout_argv(artifact_dir, tmp_path, artifact_dir / "policy.json"),
                       "-n", str(2**32))
    assert code == 3
    assert err == "error: out of memory drawing the rollout uniforms (4294967296x7 float64)\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("horizon", [2**60, 10**22])
def test_sample_horizon_too_large_to_address_exits_2(horizon, artifact_dir, tmp_path, capsys):
    # horizon + 1 float64 uniforms beyond the address space are refused
    # before any draw: 10**22 raised a ValueError traceback.
    out = tmp_path / "path.json"
    code, _, err = run(capsys, "sample", "--mdp", str(artifact_dir / "mdp.json"),
                       "--policy", "epidemic", "--horizon", str(horizon), "--out", str(out))
    assert code == 2, err
    assert err == (f"error: sample horizon {horizon} is too large: its {horizon + 1} float64 "
                   "uniforms must be addressable\n")
    assert not out.exists()


def test_sample_out_of_memory_exits_3(artifact_dir, tmp_path, capsys, monkeypatch):
    # Uniforms numpy cannot allocate are a runtime error, not a traceback;
    # the stand-in generator raises before anything is allocated.
    asked = []

    class NoMemory:
        def random(self, size):
            asked.append(size)
            raise MemoryError

    monkeypatch.setattr(np.random, "default_rng", lambda seed: NoMemory())
    out = tmp_path / "path.json"
    code, _, err = run(capsys, "sample", "--mdp", str(artifact_dir / "mdp.json"),
                       "--policy", "epidemic", "--horizon", str(10**14), "--out", str(out))
    assert code == 3 and asked == [10**14 + 1]
    assert err == "error: out of memory drawing the path uniforms (100000000000001 float64)\n"
    assert not out.exists()


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_importing_cfmdp_sets_one_openblas_thread_unless_set(preset, want):
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(README.parent / "src")
    code = "import os, cfmdp; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == want + "\n"


def test_prune_solve_and_rollout_do_not_import_numpy_ma(artifact_dir, tmp_path):
    # np.unique without return flags, which np.isin's sorting path calls
    # unless told its inputs are unique, imports numpy.ma (numpy 2.4's
    # `_unique1d` asks np.ma.is_masked): 13-15 ms of each process's start.
    # The three commands run in one fresh interpreter, which reports whether
    # numpy.ma was loaded by numpy alone and after the commands.
    a = {name: str(artifact_dir / name) for name in ("mdp.json", "path.json", "posterior.json",
                                                     "pruned.json", "policy.json")}
    commands = [
        ["prune", "--mdp", a["mdp.json"], "--path", a["path.json"], "--posterior",
         a["posterior.json"], "--k", "8", "--out", str(tmp_path / "pruned.json")],
        ["solve", "--mdp", a["mdp.json"], "--pruned", a["pruned.json"], "--m", "1",
         "--out", str(tmp_path / "policy.json")],
        ["rollout", "--mdp", a["mdp.json"], "--pruned", a["pruned.json"], "--policy",
         a["policy.json"], "--env", "epidemic", "--feature", "infected", "-n", "50",
         "--out", str(tmp_path / "rollout.csv")],
    ]
    code = ("import json, sys, numpy\n"
            "by_numpy = 'numpy.ma' in sys.modules\n"
            "from cfmdp.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([by_numpy, codes, 'numpy.ma' in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    by_numpy, codes, loaded = json.loads(out.stdout.splitlines()[-1])
    if by_numpy:
        pytest.skip("import numpy alone loads numpy.ma")
    assert codes == [0, 0, 0]
    assert not loaded


# Flags a subcommand does not read; each is an argparse error.
IGNORED_FLAGS = [("solve", "--seed", "1"), ("solve", "--samples", "7"),
                 ("solve", "--sampler", "rejection"), ("solve", "--horizon", "3"),
                 ("sample", "--samples", "7"), ("sample", "--sampler", "rejection"),
                 ("cf-build", "--horizon", "3"), ("prune", "--horizon", "3"),
                 ("prune", "--samples", "7"), ("prune", "--sampler", "rejection"),
                 ("prune", "--seed", "3"), ("sweep", "--env", "gridworld"),
                 ("sweep", "--preset", "suboptimal"), ("sweep", "--horizon", "3"),
                 ("sweep", "--population", "3"), ("cf-build", "--sampler", "topdown"),
                 ("sweep", "--sampler", "rejection")]


@pytest.mark.parametrize("command, flag, value", IGNORED_FLAGS)
def test_flag_a_command_does_not_read_exits_2(command, flag, value, artifact_dir, tmp_path, capsys):
    d, out = artifact_dir, tmp_path / "out"
    argv = {"solve": f"solve --mdp {d}/mdp.json --pruned {d}/pruned.json --m 1",
            "sample": f"sample --mdp {d}/mdp.json --policy epidemic",
            "cf-build": f"cf-build --mdp {d}/mdp.json --path {d}/path.json",
            "prune": f"prune --mdp {d}/mdp.json --path {d}/path.json --nominal --k 1",
            "sweep": f"sweep --mdp {d}/mdp.json --path {d}/path.json"}[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# Each subcommand with --out where it cannot be written: a file in a missing
# directory, or for sweep's output directory an existing file.
UNWRITABLE_OUT = {
    "env": "env gridworld --out {missing}/mdp.json",
    "sample": "sample --mdp {d}/mdp.json --policy epidemic --out {missing}/path.json",
    "cf-build": "cf-build --mdp {d}/mdp.json --path {d}/path.json --samples 20"
                " --out {missing}/posterior.json",
    "prune": "prune --mdp {d}/mdp.json --path {d}/path.json --nominal --k 8"
             " --out {missing}/pruned.json",
    "solve": "solve --mdp {d}/mdp.json --pruned {d}/pruned.json --m 1 --out {missing}/policy.json",
    "sweep": "sweep --mdp {d}/mdp.json --path {d}/path.json --samples 20 --k-min 8 --m-max 1"
             " --out {file}",
    "rollout": "rollout --mdp {d}/mdp.json --pruned {d}/pruned.json --policy {d}/policy.json"
               " --env epidemic --feature infected -n 5 --out {missing}/rollout.csv",
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUT))
def test_unwritable_out_exits_2(command, artifact_dir, tmp_path, capsys):
    file, missing = tmp_path / "file", tmp_path / "missing"
    file.write_text("kept")
    argv = UNWRITABLE_OUT[command].format(d=artifact_dir, file=file, missing=missing).split()
    code, _, err = run(capsys, *argv)
    assert code == 2, err
    assert err.startswith("error:") and argv[-1] in err
    assert list(tmp_path.iterdir()) == [file] and file.read_text() == "kept"


def test_policy_meta_copies_the_artifact_sample_count(artifact_dir, tmp_path, capsys):
    # The artifact_dir posterior has 500 samples; a nominal prune has none.
    pruned = json.loads((artifact_dir / "pruned.json").read_text())
    policy = json.loads((artifact_dir / "policy.json").read_text())
    assert pruned["samples"] == 500
    assert policy["meta"] == {"samples": 500, "mdp_hash": pruned["mdp_hash"]}
    files = {name: tmp_path / f"{name}.json" for name in ("pruned", "policy")}
    assert main(["prune", "--mdp", str(artifact_dir / "mdp.json"), "--path",
                 str(artifact_dir / "path.json"), "--nominal", "--k", "8",
                 "--out", str(files["pruned"])]) == 0
    assert main(["solve", "--mdp", str(artifact_dir / "mdp.json"), "--pruned", str(files["pruned"]),
                 "--m", "1", "--out", str(files["policy"])]) == 0
    assert json.loads(files["policy"].read_text())["meta"]["samples"] == 0


def _rollout(capsys, artifact_dir, pruned, policy, out):
    return run(capsys, "rollout", "--mdp", str(artifact_dir / "mdp.json"), "--pruned", str(pruned),
               "--policy", str(policy), "--env", "epidemic", "--feature", "infected", "-n", "50",
               "--seed", "2", "--out", str(out))


def test_policy_solved_on_another_pruned_artifact_exits_2(artifact_dir, tmp_path, capsys):
    # A policy records the hash of the pruned artifact it was solved on. An
    # edit of a field rollout does not read still makes it another artifact,
    # and a policy without the hash was solved on none that can be checked.
    pruned = json.loads((artifact_dir / "pruned.json").read_text())
    policy = json.loads((artifact_dir / "policy.json").read_text())
    # A probability moved by less than PROB_TOL still loads, as another artifact.
    nudged = _edit_row(pruned, lambda probs: [probs[0] + PROB_TOL / 10, *probs[1:]])
    cases = {
        "pruned-edited": (dict(pruned, samples=pruned["samples"] + 1), policy),
        "row-probability-edited": (nudged, policy),
        "policy-without-hash": (pruned, {k: v for k, v in policy.items() if k != "pruned_hash"}),
    }
    for case, (pruned_obj, policy_obj) in cases.items():
        (tmp_path / "pruned.json").write_text(json.dumps(pruned_obj))
        (tmp_path / "policy.json").write_text(json.dumps(policy_obj))
        code, _, err = _rollout(capsys, artifact_dir, tmp_path / "pruned.json",
                                tmp_path / "policy.json", tmp_path / "r.csv")
        assert code == 2, (case, err)
        assert "policy was not solved on this pruned artifact" in err, case
        assert not (tmp_path / "r.csv").exists()


def test_rollout_reads_neither_k_nor_v_s0_of_the_policy(artifact_dir, tmp_path, capsys):
    policy = json.loads((artifact_dir / "policy.json").read_text())
    edits = {"edited": dict(policy, k=99, v_s0=12345.0),
             "dropped": {k: v for k, v in policy.items() if k not in ("k", "v_s0")}}
    code, _, _ = _rollout(capsys, artifact_dir, artifact_dir / "pruned.json",
                          artifact_dir / "policy.json", tmp_path / "want.csv")
    assert code == 0
    for name, edited in edits.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(edited))
        code, _, err = _rollout(capsys, artifact_dir, artifact_dir / "pruned.json",
                                tmp_path / f"{name}.json", tmp_path / f"{name}.csv")
        assert code == 0, (name, err)
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_nominal_prune_with_too_small_k_names_the_cause(artifact_dir, tmp_path, capsys):
    # Under --nominal an observed pair keeps its whole nominal row, so on the
    # epidemic path k = 1..3 close s_0 away; the files are consistent.
    out = tmp_path / "pruned.json"
    code, _, err = run(capsys, "prune", *_observation(artifact_dir), "--nominal", "--k", "1",
                       "--out", str(out))
    assert code == 3
    assert "under nominal rows" in err and "use a larger k" in err and "inconsistent" not in err
    assert not out.exists()
    code, _, _ = run(capsys, "prune", *_observation(artifact_dir), "--nominal", "--k", "4",
                     "--out", str(out))
    assert code == 0
    # `solve` prunes the artifact again at its k: edited to k = 3, it
    # empties the same way, and a file that does not load exits 2.
    out.write_text(json.dumps(dict(json.loads(out.read_text()), k=3)))
    code, _, err = run(capsys, "solve", "--mdp", str(artifact_dir / "mdp.json"), "--pruned",
                       str(out), "--m", "1")
    assert code == 2
    assert err.startswith("error: malformed pruned artifact: EmptyPrunedMdp('k=3 pruning left no "
                          "usable action at the initial node")


@pytest.mark.parametrize("env, preset", [("gridworld", "epidemic"),
                                         ("gridworld", "sepsis-suboptimal"),
                                         ("epidemic", "gridworld")])
def test_sample_preset_of_another_environment_exits_2(env, preset, artifact_dir, tmp_path, capsys):
    mdp, out = artifact_dir / "mdp.json", tmp_path / "path.json"
    if env == "gridworld":
        mdp = tmp_path / "mdp.json"
        assert main(["env", env, "--out", str(mdp)]) == 0
    code, _, err = run(capsys, "sample", "--mdp", str(mdp), "--policy", preset, "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and f"preset {preset!r} observes the" in err
    assert not out.exists()


# One CLI call per JSON read; {bad} is the unreadable file, {d} holds valid artifacts.
JSON_READS = {
    "mdp": "prune --mdp {bad} --path {d}/path.json --nominal --k 1",
    "path": "prune --mdp {d}/mdp.json --path {bad} --nominal --k 1",
    "config": "env epidemic --config {bad}",
    "solve-pruned": "solve --mdp {d}/mdp.json --pruned {bad} --m 1",
    "rollout-pruned": "rollout --mdp {d}/mdp.json --pruned {bad} --policy {d}/policy.json"
                      " --env epidemic --feature infected -n 5",
    "rollout-policy": "rollout --mdp {d}/mdp.json --pruned {d}/pruned.json --policy {bad}"
                      " --env epidemic --feature infected -n 5",
}


@pytest.mark.parametrize("content", [None, "{not json", "\x89PNG"],
                         ids=["missing", "malformed", "binary"])
@pytest.mark.parametrize("read", sorted(JSON_READS))
def test_unreadable_json_exits_2(read, content, artifact_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_bytes(content.encode("latin-1"))
    code, _, err = run(capsys, *JSON_READS[read].format(d=artifact_dir, bad=bad).split())
    assert code == 2
    assert err.startswith("error:") and str(bad) in err
    assert "Traceback" not in err


# Out-of-range numbers, each rejected by argparse before any work; {out} must not appear.
BAD_NUMBERS = {
    "sample-seed": "sample --mdp {d}/mdp.json --policy epidemic --seed -1 --out {out}",
    "sample-horizon-zero": "sample --mdp {d}/mdp.json --policy epidemic --horizon 0 --out {out}",
    "sample-horizon-negative": "sample --mdp {d}/mdp.json --policy epidemic --horizon -3"
                               " --out {out}",
    "sweep-seed": "sweep --mdp {d}/mdp.json --path {d}/path.json --seed -1 --out {out}",
    "cf-build-seed": "cf-build --mdp {d}/mdp.json --path {d}/path.json --seed -1 --out {out}",
    "rollout-seed": "rollout --mdp {d}/mdp.json --pruned {d}/pruned.json --policy {d}/policy.json"
                    " --env epidemic --feature infected --seed -1 --out {out}",
    "rollout-n-negative": "rollout --mdp {d}/mdp.json --pruned {d}/pruned.json"
                          " --policy {d}/policy.json --env epidemic --feature infected -n -5"
                          " --out {out}",
    "rollout-n-zero": "rollout --mdp {d}/mdp.json --pruned {d}/pruned.json"
                      " --policy {d}/policy.json --env epidemic --feature infected -n 0 --out {out}",
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_out_of_range_number_exits_2(case, artifact_dir, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(BAD_NUMBERS[case].format(d=artifact_dir, out=out).split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_zero_probability_entries_drop_on_every_path(tmp_path, capsys):
    # treat_effect 1.0 makes the sepsis builder emit entries of probability
    # 0.0. The built MDP and its JSON file must be the same MDP, and sweep
    # the same.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"treat_effect": [1, 1, 1]}))
    files = {name: str(tmp_path / name) for name in ("mdp.json", "path.json")}
    assert main(["env", "sepsis", "--config", str(config), "--out", files["mdp.json"]]) == 0
    assert main(["sample", "--mdp", files["mdp.json"], "--policy", "sepsis-suboptimal",
                 "--out", files["path.json"]]) == 0
    built = build_environment("sepsis", treat_effect=(1, 1, 1))
    loaded = mdp_from_json(json.loads((tmp_path / "mdp.json").read_text()))
    assert (built.prob > 0).all() and built.digest == loaded.digest
    path = path_from_json(json.loads((tmp_path / "path.json").read_text()), loaded)
    results = [sweep(build_cf_mdp(build_posterior(mdp, path, 20, 0), mdp), [1, 2, 3], [1])
               for mdp in (built, loaded)]
    assert results[0] == results[1]


@pytest.mark.parametrize("flag", ["--mdp", "--path", "--posterior", "--pruned", "--policy",
                                  "--config"])
def test_deeply_nested_json_exits_2(flag, artifact_dir, tmp_path, capsys):
    # `json` raises RecursionError, not JSONDecodeError, on arrays nested
    # deeper than the interpreter's recursion limit.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    mdp, path, pruned = (str(artifact_dir / f"{name}.json") for name in ("mdp", "path", "pruned"))
    argv = {
        "--mdp": ["sample", "--mdp", str(deep), "--policy", "epidemic"],
        "--path": ["cf-build", "--mdp", mdp, "--path", str(deep), "--out", str(tmp_path / "p.json")],
        "--posterior": ["prune", "--mdp", mdp, "--path", path, "--posterior", str(deep), "--k", "8"],
        "--pruned": ["solve", "--mdp", mdp, "--pruned", str(deep), "--m", "1"],
        "--policy": ["rollout", "--mdp", mdp, "--pruned", pruned, "--policy", str(deep),
                     "--env", "epidemic", "--feature", "infected"],
        "--config": ["env", "epidemic", "--config", str(deep)],
    }[flag]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read JSON from {deep}: maximum recursion depth exceeded")


def test_compact_and_indented_artifacts_agree(artifact_dir, tmp_path, capsys):
    # env, sample, cf-build, prune and solve write compact JSON. The indented
    # form earlier versions wrote holds the same object, and still solves and
    # rolls out the same.
    mdp_file = str(artifact_dir / "mdp.json")
    compact = {name: (artifact_dir / f"{name}.json").read_text() for name in ("pruned", "policy")}
    for name in ("mdp", "path", "posterior", "pruned", "policy"):
        text = (artifact_dir / f"{name}.json").read_text()
        assert text.endswith("}\n") and text.count("\n") == 1, name
    mdp = mdp_from_json(json.loads((artifact_dir / "mdp.json").read_text()))
    cf = build_cf_mdp(load_posterior(artifact_dir / "posterior.json", mdp), mdp)
    indented = {
        "pruned": json.dumps(_pruned_to_json(prune_cf_mdp(cf, 8)), sort_keys=True, indent=2),
        "policy": json.dumps(json.loads(compact["policy"]), sort_keys=True, indent=2),
    }
    for name, text in indented.items():
        assert json.loads(text) == json.loads(compact[name]), name
        (tmp_path / f"{name}.json").write_text(text + "\n")

    code, _, err = run(capsys, "solve", "--mdp", mdp_file, "--pruned", str(tmp_path / "pruned.json"),
                       "--m", "1", "--out", str(tmp_path / "resolved.json"))
    assert code == 0 and "V(s0) = -1.0" in err
    assert (tmp_path / "resolved.json").read_text() == compact["policy"]
    csv = {}
    for folder in (artifact_dir, tmp_path):
        out = tmp_path / f"rollout-{len(csv)}.csv"
        assert main(["rollout", "--mdp", mdp_file, "--pruned", str(folder / "pruned.json"),
                     "--policy", str(folder / "policy.json"), "--env", "epidemic",
                     "--feature", "infected", "-n", "300", "--seed", "5", "--out", str(out)]) == 0
        csv[folder] = out.read_bytes()
    assert csv[artifact_dir] == csv[tmp_path]


def test_artifacts_with_legacy_mode_key_still_load(artifact_dir, tmp_path, capsys):
    pruned = json.loads((artifact_dir / "pruned.json").read_text())
    policy = json.loads((artifact_dir / "policy.json").read_text())
    assert "mode" not in pruned and "mode" not in policy
    pruned["mode"] = policy["mode"] = "strict"
    (tmp_path / "pruned.json").write_text(json.dumps(pruned))
    (tmp_path / "policy.json").write_text(json.dumps(policy))
    mdp = str(artifact_dir / "mdp.json")
    code, _, err = run(capsys, "solve", "--mdp", mdp, "--pruned", str(tmp_path / "pruned.json"),
                       "--m", "1")
    assert code == 0 and "V(s0) = -1.0" in err
    code, _, _ = run(capsys, "rollout", "--mdp", mdp, "--pruned", str(tmp_path / "pruned.json"),
                     "--policy", str(tmp_path / "policy.json"), "--env", "epidemic",
                     "--feature", "infected", "-n", "5", "--out", str(tmp_path / "r.csv"))
    assert code == 0


NOT_A_DISTRIBUTION = "is not a distribution over its nominal successors"
NOT_ROW_IDS = "pruned layer 0 row ids are not strictly ascending rows 0..1385 of the MDP's row table"
NOT_THE_LAYERS = "pruned artifact layers are not the states the prune at k=8 reaches"


# Artifacts that are valid JSON but break the MDP, pruned or policy schema,
# each with a fragment of the error message that names why it is rejected.
# An MDP edit takes the MDP object, the others the pruned and policy objects.
# The epidemic path has T = 7, |S| = 1386 and 1386 nominal rows; layer 0 is
# s_0 = S9I1V20 alone, whose stored rows are V_S's 1300, V_I's 1342 and the
# observed NIL's 1364. The loader prunes again from the stored rows, so an
# edited layer, k or count is refused as not the prune's.
BAD_ARTIFACTS = {
    "pruned-empty": ("pruned", {}, "KeyError('mdp_hash')"),
    "pruned-no-kernels": ("pruned", lambda pruned, policy: {k: v for k, v in pruned.items()
                                                            if k != "rows"}, "KeyError('rows')"),
    "pruned-kernel-without-probs": ("pruned", lambda pruned, policy: dict(
        pruned, rows=[dict(r, prob=[]) for r in pruned["rows"]]),
        "pruned layer 0 has 0 probabilities, not one per nominal successor of its rows (5)"),
    "pruned-probs-not-a-dict": ("pruned", lambda pruned, policy: dict(
        pruned, rows=[5 for _ in pruned["rows"]]), "error: pruned row layer 5 is not a JSON object\n"),
    "pruned-layers-not-lists": ("pruned", lambda pruned, policy: dict(pruned, layers=5),
                                "error: pruned layer list 5 is not a JSON array\n"),
    "pruned-unknown-state": ("pruned", lambda pruned, policy: _layer_edit(
        pruned, 6, lambda layer: layer + [1386]), NOT_THE_LAYERS),
    "pruned-layer-out-of-range": ("pruned", lambda pruned, policy: dict(
        pruned, layers=pruned["layers"] + [[]]), NOT_THE_LAYERS),
    # The epidemic path has T = 7, and k = T+1 = 8 already admits every pair.
    "pruned-k-zero": ("pruned", lambda pruned, policy: dict(pruned, k=0), "k=0 outside 1..8"),
    "pruned-k-past-horizon": ("pruned", lambda pruned, policy: dict(pruned, k=9),
                              "k=9 outside 1..8"),
    # An artifact pruned at k = 8 is not one at k = 3: the prune at k = 3
    # builds fewer rows. Its admitted count is fixed too.
    "pruned-k-not-admitted": ("pruned", lambda pruned, policy: dict(pruned, k=3),
                              "which the prune at k=3 does not build"),
    "pruned-nodes-all-layers-edited": ("pruned", lambda pruned, policy: dict(
        pruned, nodes_all_layers=1), "pruned artifact nodes_all_layers 1 is not"),
    "policy-empty": ("policy", {}, "KeyError('m')"),
    # Layer 0 is s_0 alone, so the m = 1 policy's table there is [a(j=0), a(j=1)].
    "policy-entry-without-j": ("policy", lambda pruned, policy: _policy_edit(
        policy, lambda table: table[:-1]), "policy actions[0] has 1 action indices, not "
        "1 states x 2 budgets"),
    # Integer fields must be JSON integers: int() would truncate or parse
    # each of these into a value the artifact loads with.
    "policy-m-not-a-number": ("policy", lambda pruned, policy: dict(policy, m="many"),
                              "policy m 'many' is not an integer"),
    "policy-m-not-an-integer": ("policy", lambda pruned, policy: dict(policy, m=1.5),
                                "policy m 1.5 is not an integer"),
    "policy-j-not-an-integer": ("policy", lambda pruned, policy: _policy_edit(
        policy, lambda table: [table[0] + 0.9, *table[1:]]), "policy action index 1.9 is not an integer"),
    "policy-t-a-string": ("policy", lambda pruned, policy: _policy_edit(
        policy, lambda table: [str(table[0]), *table[1:]]),
        "policy action index '1' is not an integer"),
    "policy-t-not-an-integer": ("policy", lambda pruned, policy: _policy_edit(
        policy, lambda table: [True, *table[1:]]), "policy action index True is not an integer"),
    "policy-table-not-a-list": ("policy", lambda pruned, policy: _policy_edit(
        policy, lambda table: 0.5), "error: policy action table 0.5 is not a JSON array\n"),
    "policy-table-count": ("policy", lambda pruned, policy: dict(
        policy, actions=policy["actions"] + [[]]), "policy has 8 action tables, path has 7"),
    "pruned-k-not-an-integer": ("pruned", lambda pruned, policy: dict(pruned, k=7.7),
                                "pruned artifact k 7.7 is not an integer"),
    "pruned-nodes-all-layers-a-string": ("pruned", lambda pruned, policy: dict(
        pruned, nodes_all_layers=str(pruned["nodes_all_layers"])),
        "pruned artifact nodes_all_layers '"),
    "pruned-node-t-not-an-integer": ("pruned", lambda pruned, policy: _layer_edit(
        pruned, 0, lambda layer: [layer[0] + 0.5]),
        "pruned layer state 1364.5 is not an integer"),
    "pruned-path-t-not-an-integer": ("pruned", lambda pruned, policy: dict(
        pruned, path={"steps": [dict(e, t=e["t"] + 0.25) for e in pruned["path"]["steps"]]}),
        "path step t 0.25 is not an integer"),
    # -1 is "no action"; any other index must name an action.
    "policy-budget-out-of-range": ("policy", lambda pruned, policy: _policy_edit(
        policy, lambda table: [-2, *table[1:]]),
        "policy action index -2 at (S9I1V20, t=0, j=0) is outside -1..2"),
    "policy-action-index-past-the-end": ("policy", lambda pruned, policy: _policy_edit(
        policy, lambda table: [table[0], 3]),
        "policy action index 3 at (S9I1V20, t=0, j=1) is outside -1..2"),
    "pruned-negative-entry": ("pruned", lambda pruned, policy: _edit_row(
        pruned, lambda probs: [1.5, -0.5]), NOT_A_DISTRIBUTION),
    "pruned-non-finite-entry": ("pruned", lambda pruned, policy: _edit_row(
        pruned, lambda probs: [float("nan"), 1.0]), NOT_A_DISTRIBUTION),
    "pruned-row-sums-to-0.4": ("pruned", lambda pruned, policy: _edit_row(
        pruned, lambda probs: [0.4 * p for p in probs]), NOT_A_DISTRIBUTION),
    # Numbers must be JSON numbers: float() would parse a string, and a bool
    # would read as 0 or 1.
    "pruned-probability-a-string": ("pruned", lambda pruned, policy: _edit_row(
        pruned, lambda probs: [str(p) for p in probs]), "pruned row probability '0."),
    "pruned-probability-true": ("pruned", lambda pruned, policy: _edit_row(
        pruned, lambda probs: [True], size=1), "pruned row probability True is not a number"),
    "mdp-probability-a-string": ("mdp", lambda mdp: _edit_mdp_row(
        mdp, lambda succ, probs: (succ, [str(p) for p in probs])), "MDP row probability '0."),
    "mdp-probability-true": ("mdp", lambda mdp: _edit_mdp_row(
        mdp, lambda succ, probs: (succ, [True]), size=1), "MDP row probability True is not a number"),
    "mdp-reward-a-string": ("mdp", lambda mdp: _edit_pairs(mdp, "r", lambda r: ["3", *r[1:]]),
                            "MDP reward '3' is not a number"),
    "mdp-initial-a-string": ("mdp", lambda mdp: dict(mdp, initial=dict(mdp["initial"], p=["1"])),
                             "MDP initial probability '1' is not a number"),
    # `mdp.json` holds the core's indices: pair columns, and a row table
    # that each pair's `row` indexes (the epidemic table has 1386 rows).
    "mdp-row-index-negative": ("mdp", lambda mdp: _edit_pairs(mdp, "row", lambda row: [-1, *row[1:]]),
                               "row (S0I0V0,NIL) names row -1, not one of the 1386 rows"),
    "mdp-row-index-past-the-end": ("mdp", lambda mdp: _edit_pairs(
        mdp, "row", lambda row: [*row[:-1], 1386]),
        "row (S10I0V20,V_S) names row 1386, not one of the 1386 rows"),
    # A row no pair names would never be checked: this one loaded with its
    # NaN and negative probability, and the digest did not change.
    "mdp-row-named-by-no-pair": ("mdp", lambda mdp: dict(
        mdp, rows=row_columns(table_rows(mdp["rows"]) + [[[0, 1], [float("nan"), -3.0]]])),
        "error: row 1386 of the MDP's row table is named by no pair\n"),
    "mdp-row-index-true": ("mdp", lambda mdp: _edit_pairs(mdp, "row", lambda row: [True, *row[1:]]),
                           "MDP pair row True is not an integer"),
    "mdp-row-sizes-do-not-split": ("mdp", lambda mdp: dict(
        mdp, rows=dict(mdp["rows"], size=[mdp["rows"]["size"][0] + 1, *mdp["rows"]["size"][1:]])),
        "the row sizes of the MDP's row table do not split its "),
    "mdp-pair-columns-unequal": ("mdp", lambda mdp: _edit_pairs(mdp, "r", lambda r: r[:-1]),
                                 "MDP pair columns s, a, r, row and initial columns s, p have "
                                 "3586, 3586, 3585, 3586, 1, 1 entries"),
    # Keyed by successor, the first probability of a successor given twice
    # was dropped and the row loaded as the unedited one. A shared row's
    # fault is named for each pair: here the three pairs of one row.
    "mdp-successor-listed-twice": ("mdp", lambda mdp: _edit_mdp_row(
        mdp, lambda succ, probs: (succ + succ[:1], [probs[0] / 2, *probs[1:], probs[0] / 2])),
        "error: row (S1I1V0,NIL) lists successor S0I2V0 twice; row (S1I2V1,V_I) lists successor "
        "S0I2V0 twice; row (S2I1V1,V_S) lists successor S0I2V0 twice\n"),
    "mdp-label-form": ("mdp", lambda mdp: label_form(mdp), "malformed MDP JSON: 'pairs'"),
    # Labels must be JSON strings: str() read "xy" as states x and y, the
    # number 1 as state "1" and the list ["x"] as the name "['x']".
    "mdp-states-a-string": ("mdp", lambda mdp: dict(mdp, states="xy"),
                            "error: MDP state list 'xy' is not a JSON array\n"),
    "mdp-state-an-integer": ("mdp", lambda mdp: dict(mdp, states=[1, *mdp["states"][1:]]),
                             "error: MDP state 1 is not a string\n"),
    "mdp-actions-an-object": ("mdp", lambda mdp: dict(mdp, actions={"NIL": 0}),
                              "error: MDP action list {'NIL': 0} is not a JSON array\n"),
    "mdp-action-null": ("mdp", lambda mdp: dict(mdp, actions=[*mdp["actions"][:-1], None]),
                        "error: MDP action None is not a string\n"),
    "mdp-name-a-list": ("mdp", lambda mdp: dict(mdp, name=["x"]),
                        "error: MDP name ['x'] is not a string\n"),
    "pruned-path-state-an-integer": ("pruned", lambda pruned, policy: _edit_first_step(
        pruned, s=1), "error: path step s 1 is not a string\n"),
    "pruned-path-action-a-list": ("pruned", lambda pruned, policy: _edit_first_step(
        pruned, a=["NIL"]), "error: path step a ['NIL'] is not a string\n"),
    # Row ids, like row indices before them, must be JSON integers naming
    # rows of the MDP's table, strictly ascending: read without its check,
    # true would be row 1 and -1 the table's last row.
    "pruned-row-index-negative": ("pruned", lambda pruned, policy: _edit_rows(
        pruned, 0, lambda ids, probs: ([-1, *ids[1:]], probs)), NOT_ROW_IDS),
    "pruned-row-index-true": ("pruned", lambda pruned, policy: _edit_rows(
        pruned, 0, lambda ids, probs: ([True, *ids[1:]], probs)),
        "pruned row id True is not an integer"),
    "pruned-row-index-a-float": ("pruned", lambda pruned, policy: _edit_rows(
        pruned, 0, lambda ids, probs: ([1300.0, *ids[1:]], probs)),
        "pruned row id 1300.0 is not an integer"),
    "pruned-row-index-past-the-end": ("pruned", lambda pruned, policy: _edit_rows(
        pruned, 0, lambda ids, probs: ([*ids[:-1], 1386], probs)), NOT_ROW_IDS),
    "pruned-row-ids-not-ascending": ("pruned", lambda pruned, policy: _edit_rows(
        pruned, 0, lambda ids, probs: (ids[::-1], probs[::-1])), NOT_ROW_IDS),
    "pruned-duplicate-kernel-entry": ("pruned", lambda pruned, policy: _edit_rows(
        pruned, 0, lambda ids, probs: (ids[:1] + ids, probs[:1] + probs)), NOT_ROW_IDS),
    "pruned-row-columns-disagree": ("pruned", lambda pruned, policy: dict(
        pruned, rows=[dict(pruned["rows"][0], prob=pruned["rows"][0]["prob"][:-1]),
                      *pruned["rows"][1:]]),
        "pruned layer 0 has 4 probabilities, not one per nominal successor of its rows (5)"),
    # Without samples the rows are the MDP's, and none is stored.
    "pruned-nominal-with-rows": ("pruned", lambda pruned, policy: dict(pruned, samples=0),
                                 "pruned layer 0 stores rows, but an artifact without samples "
                                 "has the MDP's rows"),
    # A row the prune builds but the artifact does not store would be read
    # as the nominal row; a stored row the prune does not build is refused too.
    "pruned-usable-pair-without-row": ("pruned", lambda pruned, policy: _edit_rows(
        pruned, 6, lambda ids, probs: ([], [])), "pruned layer 6 has no row for nominal row 76, "
        "which the prune at k=8 builds"),
    "pruned-missing-row": ("pruned", lambda pruned, policy: _edit_rows(
        pruned, 3, lambda ids, probs: (ids[1:], probs[1:])),
        "pruned layer 3 has no row for nominal row 142, which the prune at k=8 builds"),
    "pruned-extra-row": ("pruned", lambda pruned, policy: _edit_rows(
        pruned, 6, lambda ids, probs: ([0, *ids], [_nominal_row(0), *probs])),
        "pruned layer 6 stores nominal row 0, which the prune at k=8 does not build"),
    # Layers that are not the prune's: a state listed twice, out of order,
    # missing (the observed s_1, or a reached node), or added without a
    # usable action.
    "pruned-node-listed-twice": ("pruned", lambda pruned, policy: _layer_edit(
        pruned, 1, lambda layer: layer[:1] + layer), NOT_THE_LAYERS),
    "pruned-layer-not-ascending": ("pruned", lambda pruned, policy: _layer_edit(
        pruned, 1, lambda layer: layer[::-1]), NOT_THE_LAYERS),
    "pruned-first-layer-empty": ("pruned", lambda pruned, policy: _layer_edit(
        pruned, 0, lambda layer: []), NOT_THE_LAYERS),
    "pruned-successor-outside-next-layer": ("pruned", lambda pruned, policy: _layer_edit(
        pruned, 1, lambda layer: [s for s in layer if s != 1322]), NOT_THE_LAYERS),
    "pruned-node-outside-layer": ("pruned", lambda pruned, policy: _layer_edit(
        pruned, 6, lambda layer: layer[:-1]), NOT_THE_LAYERS),
    "pruned-layer-state-without-actions": ("pruned", lambda pruned, policy: _layer_edit(
        pruned, 6, lambda layer: sorted(layer + [210])), NOT_THE_LAYERS),
    # Each form earlier versions wrote, keyed by labels, must be rebuilt with
    # `prune` and `solve`: one kernel entry per (t, s, a), then one row dict
    # per distinct row and one action dict per node, and one policy entry
    # per (t, s, j).
    "pruned-old-kernels-form": ("pruned", lambda pruned, policy: _kernels_form(pruned),
                                "KeyError('samples')"),
    "pruned-label-form": ("pruned", lambda pruned, policy: _label_form(pruned),
                          "error: pruned row layer [{'S7I2V19': 0.904"),
    "pruned-label-layers": ("pruned", lambda pruned, policy: dict(
        pruned, layers=_label_form(pruned)["layers"]),
        "pruned layer state 'S9I1V20' is not an integer"),
    "pruned-label-rows": ("pruned", lambda pruned, policy: dict(
        pruned, rows=_label_form(pruned)["rows"]), "error: pruned row layer [{'S7I2V19': 0.904"),
    "policy-label-form": ("policy", lambda pruned, policy: _policy_label_form(pruned, policy),
                          "error: policy action table {'t': 0, 's': 'S9I1V20'"),
    # Every posterior sample replays the observation, so the row of the
    # observed pair at t = 1, (S8I2V20, NIL), is the point mass on s_2.
    "pruned-observed-pair-not-usable": ("pruned", lambda pruned, policy: _edit_rows(
        pruned, 1, lambda ids, probs: ([i for i in ids if i != 1322],
                                       [q for i, q in zip(ids, probs) if i != 1322])),
        "row 1322 of layer 1, the observed pair's, is not the point mass on the observed "
        "S7I3V20"),
    # The action picked has no nominal row at its node.
    "policy-action-not-usable": ("policy", lambda pruned, policy: _unusable_action(pruned, policy),
                                 "no kernel row for"),
}
@functools.cache
def _epidemic() -> Mdp:
    """The epidemic MDP, which the edited artifacts were built on."""
    return build_environment("epidemic")


def _nominal_row(r: int) -> list:
    """The probabilities of row r of the epidemic MDP's row table."""
    lo, hi = _epidemic().row_start[r:r + 2]
    return _epidemic().prob[lo:hi].tolist()


def _layer_rows(pruned, t) -> tuple[list, list]:
    """The rows stored at layer t: their row ids, and each row's probabilities."""
    sizes = np.diff(_epidemic().row_start)
    layer, bounds = pruned["rows"][t], np.cumsum([0, *sizes[pruned["rows"][t]["row"]]]).tolist()
    return list(layer["row"]), [layer["prob"][lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _edit_rows(pruned, t, edit):
    """`pruned` with the rows of layer t set to edit(row ids, probabilities per row)."""
    ids, probs = edit(*_layer_rows(pruned, t))
    layer = {"row": ids, "prob": [q for row in probs for q in row]}
    return dict(pruned, rows=[*pruned["rows"][:t], layer, *pruned["rows"][t + 1:]])


def _edit_row(pruned, new_probs, size=2):
    """`pruned` with the probabilities of its first row of `size` nominal
    successors, each on the counterfactual support, set to
    new_probs(probabilities)."""
    t, i = next((t, i) for t in range(len(pruned["rows"]))
                for i, row in enumerate(_layer_rows(pruned, t)[1]) if len(row) == size and min(row) > 0)
    return _edit_rows(pruned, t, lambda ids, probs: (ids, [*probs[:i], new_probs(probs[i]),
                                                           *probs[i + 1:]]))


def _edit_mdp_row(mdp, edit, size=2):
    """`mdp` with the first row of its table of `size` successors set to
    edit(successors, probabilities)."""
    rows = table_rows(mdp["rows"])
    i = next(i for i, (succ, _) in enumerate(rows) if len(succ) == size)
    rows[i] = edit(*rows[i])
    return dict(mdp, rows=row_columns(rows))


def _edit_first_step(pruned, **fields):
    """`pruned` with `fields` set in the first step of its observed path."""
    steps = pruned["path"]["steps"]
    return dict(pruned, path={"steps": [dict(steps[0], **fields), *steps[1:]]})


def _edit_pairs(mdp, column, edit):
    """`mdp` with pair column `column` set to edit(column)."""
    return dict(mdp, pairs=dict(mdp["pairs"], **{column: edit(mdp["pairs"][column])}))


def _layer_edit(pruned, t, edit):
    """`pruned` with layer t set to edit(layer)."""
    layers = list(pruned["layers"])
    layers[t] = edit(layers[t])
    return dict(pruned, layers=layers)


def _policy_edit(policy, edit):
    """`policy` with its table at layer 0 set to edit(table)."""
    return dict(policy, actions=[edit(policy["actions"][0]), *policy["actions"][1:]])


def _label_form(pruned):
    """`pruned` as the previous version wrote it: layers of state labels,
    each usable pair's row a {successor: probability} dict, and one {"t",
    "s", "actions": {action: row index}} entry per node."""
    mdp = _epidemic()
    loaded = _pruned_from_json(pruned, mdp)
    nodes, rows = [], []
    for t, usable in enumerate(loaded.usable):
        ids, first = np.unique(mdp.row_id[usable], return_index=True)
        ids = ids.tolist()
        rows.append([dict(zip([mdp.states[s] for s in succ.tolist()], prob.tolist()))
                     for succ, prob in (cf_row(loaded.cf, t, p)
                                        for p in np.flatnonzero(usable)[first].tolist())])
        nodes += [{"t": t, "s": mdp.states[s], "actions": {
            mdp.actions[mdp.action[p]]: ids.index(mdp.row_id[p])
            for p in range(mdp.start[s], mdp.start[s + 1]) if usable[p]}}
            for s in np.flatnonzero(loaded.reach[t]).tolist()]
    return dict(pruned, layers=[sorted(mdp.states[s] for s in layer) for layer in pruned["layers"]],
                rows=rows, actions=nodes)


def _kernels_form(pruned):
    """`pruned` as earlier versions wrote it: a kernel entry per (t, s, a)."""
    labelled = _label_form(pruned)
    old = {k: v for k, v in labelled.items() if k not in ("rows", "samples")}
    old["actions"] = [dict(e, actions=sorted(e["actions"])) for e in labelled["actions"]]
    old["kernels"] = [{"t": e["t"], "s": e["s"], "a": a, "n": pruned["samples"],
                       "probs": labelled["rows"][e["t"]][i]}
                      for e in labelled["actions"] for a, i in e["actions"].items()]
    return old


def _policy_label_form(pruned, policy):
    """`policy` as earlier versions wrote it: one {"t", "s", "j", "a"} entry
    per (t, s, j) with an action."""
    states, actions = _epidemic().states, _epidemic().actions
    width = policy["m"] + 1
    entries = [{"t": t, "s": states[s], "j": j, "a": actions[a]}
               for t, (layer, table) in enumerate(zip(pruned["layers"], policy["actions"]))
               for r, s in enumerate(layer)
               for j, a in enumerate(table[width * r:width * r + width]) if a >= 0]
    return dict(policy, actions=entries)


def _unusable_action(pruned, policy):
    """`policy` with one state's action at j = 0 replaced by an action that
    is not usable there in the pruned MDP."""
    mdp, width = _epidemic(), policy["m"] + 1
    loaded = _pruned_from_json(pruned, mdp)
    t, r, a = next((t, r, a) for t, reach in enumerate(loaded.reach)
                   for r, s in enumerate(np.flatnonzero(reach).tolist()) for a in range(3)
                   if mdp.pair_at[s, a] < 0 or not loaded.usable[t][mdp.pair_at[s, a]])
    tables = [list(table) for table in policy["actions"]]
    tables[t][width * r] = a
    return dict(policy, actions=tables)


@pytest.mark.parametrize("case", sorted(BAD_ARTIFACTS))
def test_malformed_artifact_exits_2(case, artifact_dir, tmp_path, capsys):
    kind, edit, reason = BAD_ARTIFACTS[case]
    files = {name: artifact_dir / f"{name}.json" for name in ("mdp", "pruned", "policy")}
    good = {name: json.loads(file.read_text()) for name, file in files.items()}
    if not callable(edit):
        bad = edit
    elif kind == "mdp":
        bad = edit(good["mdp"])
    else:
        bad = edit(good["pruned"], good["policy"])
    files[kind] = tmp_path / f"{kind}.json"
    files[kind].write_text(json.dumps(bad))
    mdp = str(files["mdp"])
    commands = [["rollout", "--mdp", mdp, "--pruned", str(files["pruned"]),
                 "--policy", str(files["policy"]), "--env", "epidemic", "--feature", "infected",
                 "-n", "5", "--out", str(tmp_path / "r.csv")]]
    if kind != "policy":
        commands.append(["solve", "--mdp", mdp, "--pruned", str(files["pruned"]), "--m", "1"])
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 2, (argv[0], err)
        assert err.startswith("error:") and "Traceback" not in err
        assert reason in err, (argv[0], err)


def test_pairs_of_one_nominal_row_share_their_stored_row(tmp_path, capsys):
    # (x0, a) and (x0, b) share one nominal row, so the artifact stores one
    # counterfactual row for both, keyed by the nominal row: that of the
    # observed (x0, a), which replays its step to x1. A row moved towards x2
    # (reward 10), as a row of b alone would be, no longer replays the
    # observation and is refused.
    mdp = mdp_to_json(dict_mdp(("x0", "x1", "x2"), ("a", "b"),
                               {("x0", "a"): {"x1": 0.5, "x2": 0.5}, ("x0", "b"): {"x1": 0.5, "x2": 0.5},
                                ("x1", "a"): {"x1": 1.0}, ("x2", "a"): {"x2": 1.0}},
                               {("x2", "a"): 10.0}, {"x0": 1.0}, name="twin"))
    path = {"steps": [{"t": 0, "s": "x0", "a": "a"}, {"t": 1, "s": "x1", "a": "a"}]}
    files = {name: str(tmp_path / f"{name}.json") for name in ("mdp", "path", "post", "pruned")}
    Path(files["mdp"]).write_text(json.dumps(mdp))
    Path(files["path"]).write_text(json.dumps(path))
    assert main(["cf-build", "--mdp", files["mdp"], "--path", files["path"], "--samples", "4",
                 "--out", files["post"]]) == 0
    assert main(["prune", "--mdp", files["mdp"], "--path", files["path"], "--posterior",
                 files["post"], "--k", "3", "--out", files["pruned"]]) == 0
    pruned = json.loads(Path(files["pruned"]).read_text())
    assert pruned["rows"][0] == {"row": [0], "prob": [1.0, 0.0]}  # x0: one stored row
    loaded_mdp = mdp_from_json(mdp)
    loaded = _pruned_from_json(pruned, loaded_mdp)
    assert cf_probs(loaded.cf, 0, "x0", "a") == cf_probs(loaded.cf, 0, "x0", "b") == {"x1": 1.0}
    capsys.readouterr()
    code, _, err = run(capsys, "solve", "--mdp", files["mdp"], "--pruned", files["pruned"], "--m", "1")
    # Changing a to b at t = 0 reaches x1 as replay does.
    assert code == 0 and err == "V(s0) = 0.0\n"
    assert km_value_oracle(loaded, path_from_json(path, loaded_mdp), 1) == 0.0
    pruned["rows"][0]["prob"] = [0.25, 0.75]
    Path(files["pruned"]).write_text(json.dumps(pruned))
    code, _, err = run(capsys, "solve", "--mdp", files["mdp"], "--pruned", files["pruned"], "--m", "1")
    assert code == 2
    assert err == ("error: row 0 of layer 0, the observed pair's, is not the point mass on the "
                   "observed x1\n")


def _edited_epidemic_path(tmp_path, capsys):
    """The epidemic observation pruned at k = 4 on a 50-sample posterior,
    then the artifact with its last observed state edited from S1I9V20 to
    S0I10V20, another successor of the step-5 pair: the MDP file and the
    edited artifact."""
    files = {name: str(tmp_path / f"{name}.json") for name in ("mdp", "path", "post", "pruned")}
    for argv in (["env", "epidemic", "--out", files["mdp"]],
                 ["sample", "--mdp", files["mdp"], "--policy", "epidemic", "--out", files["path"]],
                 ["cf-build", "--mdp", files["mdp"], "--path", files["path"], "--samples", "50",
                  "--seed", "7", "--out", files["post"]],
                 ["prune", "--mdp", files["mdp"], "--path", files["path"], "--posterior",
                  files["post"], "--k", "4", "--out", files["pruned"]]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    pruned = json.loads(Path(files["pruned"]).read_text())
    assert pruned["path"]["steps"][6]["s"] == "S1I9V20"
    pruned["path"]["steps"][6]["s"] = "S0I10V20"
    Path(files["pruned"]).write_text(json.dumps(pruned))
    return files["mdp"], files["pruned"]


def test_pruned_artifact_with_an_edited_path_exits_2(tmp_path, capsys):
    # Each posterior sample replays the observation, so the rows of the
    # observed pairs are fixed by the path: the edited step 6 makes the
    # step-5 row, the point mass on S1I9V20, another path's.
    mdp, pruned = _edited_epidemic_path(tmp_path, capsys)
    code, _, err = run(capsys, "solve", "--mdp", mdp, "--pruned", pruned, "--m", "1")
    assert code == 2, err
    assert err.startswith("error: row ") and err.endswith(
        " of layer 5, the observed pair's, is not the point mass on the observed S0I10V20\n")


def test_reweighted_nominal_artifact_exits_2(tmp_path, capsys):
    # Without samples the rows are the MDP's, and the artifact stores none.
    # A sepsis row made uniform on its support would solve a different MDP.
    files = {name: str(tmp_path / f"{name}.json") for name in ("mdp", "path", "pruned")}
    for argv in (["env", "sepsis", "--out", files["mdp"]],
                 ["sample", "--mdp", files["mdp"], "--policy", "sepsis-suboptimal",
                  "--out", files["path"]],
                 ["prune", "--mdp", files["mdp"], "--path", files["path"], "--nominal",
                  "--k", "11", "--out", files["pruned"]]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    code, _, err = run(capsys, "solve", "--mdp", files["mdp"], "--pruned", files["pruned"],
                       "--m", "2")
    assert code == 0 and err == "V(s0) = 218.0730683122205\n"
    pruned = json.loads(Path(files["pruned"]).read_text())
    assert all(layer == {"row": [], "prob": []} for layer in pruned["rows"])
    mdp = mdp_from_json(json.loads(Path(files["mdp"]).read_text()))
    r = int(mdp.row_id[path_from_json(pruned["path"], mdp).pair[0]])
    size = int(mdp.row_start[r + 1] - mdp.row_start[r])
    pruned["rows"][0] = {"row": [r], "prob": [1 / size] * size}
    Path(files["pruned"]).write_text(json.dumps(pruned))
    code, _, err = run(capsys, "solve", "--mdp", files["mdp"], "--pruned", files["pruned"],
                       "--m", "2")
    assert code == 2
    assert err == ("error: pruned layer 0 stores rows, but an artifact without samples has the "
                   "MDP's rows\n")


def test_loaded_rows_are_the_stored_rows(artifact_dir):
    # The loader prunes again from the stored rows and builds none: each
    # layer's rows are the stored rows of their nominal rows, the entries
    # of non-zero probability.
    mdp = mdp_from_json(json.loads((artifact_dir / "mdp.json").read_text()))
    obj = json.loads((artifact_dir / "pruned.json").read_text())
    loaded = _pruned_from_json(obj, mdp)
    first = np.unique(mdp.row_id, return_index=True)[1]  # the first pair of each nominal row
    for t, layer in enumerate(obj["rows"]):
        ids, stored = np.array(layer["row"], dtype=np.int64), np.array(layer["prob"])
        size, succ, prob = loaded.cf.layer_rows(t, first[ids])
        owner, at = gather_rows(np.diff(mdp.row_start), ids)
        hit = stored > 0
        assert size.tolist() == np.bincount(owner[hit], minlength=len(ids)).tolist(), t
        assert succ.tolist() == mdp.succ[at[hit]].tolist() and prob.tolist() == stored[hit].tolist()
    assert len(obj["rows"][0]["row"]) > 0
    with pytest.raises(ValidationFailed):
        loaded.cf.layer_rows(loaded.horizon, first[:1])
    assert loaded.cf.rows_built == 0


def test_rollout_policy_without_entry_exits_3(artifact_dir, tmp_path, capsys):
    policy = json.loads((artifact_dir / "policy.json").read_text())
    policy["actions"][0][0] = -1  # no action at (s_0, t = 0, j = 0)
    (tmp_path / "policy.json").write_text(json.dumps(policy))
    code, _, err = run(capsys, "rollout", "--mdp", str(artifact_dir / "mdp.json"),
                       "--pruned", str(artifact_dir / "pruned.json"),
                       "--policy", str(tmp_path / "policy.json"), "--env", "epidemic",
                       "--feature", "infected", "-n", "5", "--out", str(tmp_path / "r.csv"))
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err


def _solve_m0(artifact_dir, tmp_path, capsys):
    policy0 = tmp_path / "policy0.json"
    code, _, _ = run(capsys, "solve", "--mdp", str(artifact_dir / "mdp.json"),
                     "--pruned", str(artifact_dir / "pruned.json"), "--m", "0",
                     "--out", str(policy0))
    assert code == 0
    return policy0


def _rollout_argv(artifact_dir, tmp_path, policy):
    return ["rollout", "--mdp", str(artifact_dir / "mdp.json"),
            "--pruned", str(artifact_dir / "pruned.json"), "--policy", str(policy),
            "--env", "epidemic", "--feature", "infected", "-n", "5",
            "--out", str(tmp_path / "r.csv")]


def test_rollout_leaving_the_pruned_set_exits_3(artifact_dir, tmp_path, capsys, monkeypatch):
    # A loaded artifact is closed, so only an edit after loading can make a
    # rollout leave it: drop the observed s_1 from layer 1.
    roll = cfmdp.cli.rollout

    def edit_and_roll(pruned, *args):
        reach = [r.copy() for r in pruned.reach]
        reach[1][pruned.cf.path.state[1]] = False
        pruned.reach = tuple(reach)
        return roll(pruned, *args)

    policy0 = _solve_m0(artifact_dir, tmp_path, capsys)
    monkeypatch.setattr(cfmdp.cli, "rollout", edit_and_roll)
    code, _, err = run(capsys, *_rollout_argv(artifact_dir, tmp_path, policy0))
    assert code == 3
    assert err.startswith("error:") and "left the pruned node set" in err
    assert "Traceback" not in err


def test_rollout_policy_changing_past_its_budget_exits_3(artifact_dir, tmp_path, capsys):
    # The m = 0 policy's entry at (s_0, t = 0, j = m) is edited to a usable
    # action other than the observed one. Its trajectories reach t = 1 with
    # j = 1 > m, where the policy has no column; reading column m - j = -1
    # as column m would replay on and fail only at the end, over budget.
    policy0 = _solve_m0(artifact_dir, tmp_path, capsys)
    mdp = mdp_from_json(json.loads((artifact_dir / "mdp.json").read_text()))
    pruned = _pruned_from_json(json.loads((artifact_dir / "pruned.json").read_text()), mdp)
    policy = json.loads(policy0.read_text())
    # Layer 0 is s_0 alone, and the m = 0 policy's table is [action at j = 0].
    observed, pairs = policy["actions"][0][0], mdp.pair_at[pruned.cf.path.state[0]]
    policy["actions"][0][0] = next(a for a, p in enumerate(pairs.tolist())
                                   if p >= 0 and pruned.usable[0][p] and a != observed)
    policy0.write_text(json.dumps(policy))
    code, _, err = run(capsys, *_rollout_argv(artifact_dir, tmp_path, policy0))
    assert code == 3
    assert err.startswith("error:") and "t=1, j=1" in err
    assert "Traceback" not in err


def test_sweep_hashes_the_mdp_once(artifact_dir, tmp_path, capsys, monkeypatch):
    calls = []
    hash_mdp = cfmdp.mdp.mdp_hash
    monkeypatch.setattr(cfmdp.mdp, "mdp_hash", lambda mdp: calls.append(mdp) or hash_mdp(mdp))
    code, _, _ = run(capsys, "sweep", *_observation(artifact_dir), "--samples", "20",
                     "--out", str(tmp_path / "sweep"))
    assert code == 0
    assert len(calls) == 1


def _edit_recipe(src, dst, **fields):
    """dst: the posterior recipe src with `fields` set, and None fields dropped."""
    recipe = dict(json.loads(Path(src).read_text()), **fields)
    dst.write_text(json.dumps({key: v for key, v in recipe.items() if v is not None}))


def _off_mdp_path(src, dst):
    """dst: the recipe src whose path starts at a state the MDP does not have."""
    path = json.loads(Path(src).read_text())["path"]
    steps = [dict(path["steps"][0], s="r0c0"), *path["steps"][1:]]
    _edit_recipe(src, dst, path=dict(path, steps=steps))


def _old_npz(src, dst):
    """dst: a posterior as earlier versions stored it, the noise itself in a
    binary .npz archive."""
    meta = np.frombuffer(Path(src).read_bytes(), dtype=np.uint8)
    with open(dst, "wb") as fh:
        np.savez(fh, meta=meta, g0=np.random.default_rng(0).gumbel(size=(500, 64)))


# The digest the last version that could write a rejection-sampler recipe
# gave the default epidemic MDP; the digest has been re-encoded since.
OLD_EPIDEMIC_DIGEST = "59ebc8dc0d5088fee99109779c8d6a19fe14259fbaeb3966df88d4687f5909b6"

BAD_POSTERIORS = {
    "missing": None,
    "not-json": lambda src, dst: dst.write_text("not a posterior"),
    "not-an-object": lambda src, dst: dst.write_text("[]"),
    # Consistent in itself, but its rows would be 0 / 0.
    "no-samples": lambda src, dst: _edit_recipe(src, dst, n=0),
    "bool-samples": lambda src, dst: _edit_recipe(src, dst, n=True),
    "negative-seed": lambda src, dst: _edit_recipe(src, dst, seed=-1),
    "oversize-samples": lambda src, dst: _edit_recipe(src, dst, n=10**30),
    "float-seed": lambda src, dst: _edit_recipe(src, dst, seed=1.5),
    # Recipes of earlier versions could name rejection sampling; each of
    # them carries the digest of an earlier MDP encoding.
    "rejection-sampler": lambda src, dst: _edit_recipe(src, dst, sampler="rejection",
                                                       mdp_hash=OLD_EPIDEMIC_DIGEST),
    "other-mdp": lambda src, dst: _edit_recipe(
        src, dst, mdp_hash=build_environment("gridworld").digest),
    "path-off-the-mdp": _off_mdp_path,
    "old-npz": _old_npz,
}


@pytest.mark.parametrize("case", sorted(BAD_POSTERIORS))
def test_bad_posterior_exits_2(case, artifact_dir, tmp_path, capsys, layer_draws):
    # The recipe is checked whole before any layer is drawn. The message is
    # one short line, even for a binary file.
    bad = tmp_path / "posterior.json"
    if BAD_POSTERIORS[case] is not None:
        BAD_POSTERIORS[case](artifact_dir / "posterior.json", bad)
    code, _, err = run(capsys, "prune", "--mdp", str(artifact_dir / "mdp.json"),
                       "--path", str(artifact_dir / "path.json"), "--posterior", str(bad),
                       "--k", "8", "--out", str(tmp_path / "pruned.json"))
    assert code == 2, err
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1 and len(err) < 300, err[:300]
    assert not (tmp_path / "pruned.json").exists()
    assert not layer_draws


# One value of the wrong JSON kind in each artifact, and the reader's line.
# At the parent a pruned `samples` of 1.5 was reported as "not >= 0", and a
# number where an array belongs leaked Python's "is not iterable".
WRONG_KINDS = {
    "recipe-n-true": ("posterior", lambda obj: dict(obj, n=True),
                      "posterior artifact n True is not an integer"),
    "recipe-seed-a-float": ("posterior", lambda obj: dict(obj, seed=1.5),
                            "posterior artifact seed 1.5 is not an integer"),
    "pruned-samples-a-float": ("pruned", lambda obj: dict(obj, samples=1.5),
                               "pruned artifact sample count 1.5 is not an integer"),
    "pruned-row-ids-a-number": ("pruned", lambda obj: dict(
        obj, rows=[dict(obj["rows"][0], row=1300), *obj["rows"][1:]]),
        "pruned row id list 1300 is not a JSON array"),
    "policy-actions-a-number": ("policy", lambda obj: dict(obj, actions=[1, *obj["actions"][1:]]),
                                "policy action table 1 is not a JSON array"),
    "mdp-pair-states-a-string": ("mdp", lambda obj: dict(obj, pairs=dict(obj["pairs"], s="0")),
                                 "MDP pair state list '0' is not a JSON array"),
    # Containers of the wrong kind: at the parent Python's TypeError text.
    "path-steps-an-object": ("path", lambda obj: dict(obj, steps=obj["steps"][0]),
                             "path step list {'a': 'NIL', 's': 'S9I1V20', 't': 0} is not a JSON array"),
    "policy-action-tables-a-number": ("policy", lambda obj: dict(obj, actions=7),
                                      "policy action table list 7 is not a JSON array"),
    # A wrong value can be a whole table: the line shows 80 characters of it.
    "pruned-row-layers-nested": ("pruned", lambda obj: dict(obj, rows=[obj["rows"], *obj["rows"][1:]]),
                                 "pruned row layer [{'prob': [0.904, 0.096, 1.0, 1.0, 0.0], "
                                 "'row': [1300, 1342, 1364]}, {'prob': [0 is not a JSON object"),
}


@pytest.mark.parametrize("case", sorted(WRONG_KINDS))
def test_json_value_of_the_wrong_kind_exits_2(case, artifact_dir, tmp_path, capsys):
    kind, edit, message = WRONG_KINDS[case]
    files = {name: str(artifact_dir / f"{name}.json")
             for name in ("mdp", "path", "posterior", "pruned", "policy")}
    files[kind] = str(tmp_path / f"{kind}.json")
    Path(files[kind]).write_text(json.dumps(edit(json.loads(
        (artifact_dir / f"{kind}.json").read_text()))))
    argv = {"posterior": ["prune", "--path", files["path"], "--posterior", files["posterior"],
                          "--k", "8"],
            "pruned": ["solve", "--pruned", files["pruned"], "--m", "1"],
            "policy": ["rollout", "--pruned", files["pruned"], "--policy", files["policy"],
                       "--env", "epidemic", "--feature", "infected", "-n", "5"],
            "path": ["prune", "--path", files["path"], "--nominal", "--k", "8"],
            "mdp": ["sample", "--policy", "epidemic"]}[kind]
    out = tmp_path / "out"
    code, _, err = run(capsys, argv[0], "--mdp", files["mdp"], *argv[1:], "--out", str(out))
    assert (code, err) == (2, f"error: {message}\n")
    assert not out.exists()


def test_recipe_seed_beyond_int64_loads(artifact_dir, tmp_path, capsys):
    # A seed is SeedSequence entropy of any size, and cf-build writes it as given.
    post, seed = tmp_path / "posterior.json", 2**64 + 1
    code, _, err = run(capsys, "cf-build", *_observation(artifact_dir), "--samples", "50",
                       "--seed", str(seed), "--out", str(post))
    assert code == 0 and json.loads(post.read_text())["seed"] == seed, err
    code, _, err = run(capsys, "prune", *_observation(artifact_dir), "--posterior", str(post),
                       "--k", "3", "--out", str(tmp_path / "pruned.json"))
    assert code == 0, err


def test_posterior_artifact_is_its_recipe(artifact_dir):
    recipe = json.loads((artifact_dir / "posterior.json").read_text())
    path = json.loads((artifact_dir / "path.json").read_text())
    mdp_hash = json.loads((artifact_dir / "pruned.json").read_text())["mdp_hash"]
    assert recipe == {"mdp_hash": mdp_hash, "n": 500, "path": path, "seed": 7}


def test_recipe_of_another_sampler_is_another_mdps(artifact_dir, tmp_path):
    # The recipe has no sampler key: one that names a sampler comes from a
    # version whose MDP digests differ, and is refused as another MDP's.
    bad = tmp_path / "posterior.json"
    BAD_POSTERIORS["rejection-sampler"](artifact_dir / "posterior.json", bad)
    mdp = mdp_from_json(json.loads((artifact_dir / "mdp.json").read_text()))
    assert mdp.digest != OLD_EPIDEMIC_DIGEST
    with pytest.raises(ValidationFailed, match="built from a different MDP"):
        load_posterior(bad, mdp)


def test_prune_reads_each_posterior_step_at_most_once(artifact_dir, tmp_path, capsys, layer_draws):
    code, _, err = run(capsys, "prune", *_observation(artifact_dir),
                       "--posterior", str(artifact_dir / "posterior.json"), "--k", "8",
                       "--out", str(tmp_path / "pruned.json"))
    assert code == 0, err
    assert (tmp_path / "pruned.json").read_bytes() == (artifact_dir / "pruned.json").read_bytes()
    assert layer_draws and max(layer_draws.values()) == 1


def test_prune_that_fails_mid_draw_writes_no_file(artifact_dir, tmp_path, capsys, monkeypatch):
    # prune draws one layer at a time as it builds rows; a layer that fails
    # after earlier ones were used must not leave a pruned artifact behind.
    draw = cfmdp.gumbel._draw_layer

    def fail_at_3(*args):
        if args[-1] == 3:
            raise InvariantViolated("posterior sample at t=3 fails to replay the observation")
        return draw(*args)

    monkeypatch.setattr(cfmdp.gumbel, "_draw_layer", fail_at_3)
    out = tmp_path / "pruned.json"
    code, _, err = run(capsys, "prune", *_observation(artifact_dir),
                       "--posterior", str(artifact_dir / "posterior.json"), "--k", "8",
                       "--out", str(out))
    assert code == 3 and "t=3" in err
    assert not out.exists()
