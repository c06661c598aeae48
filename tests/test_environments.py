import inspect
import json

import numpy as np
import pytest
from scipy import stats

from cfmdp.cli import main
from cfmdp.environments import (
    PRESETS,
    abnormal_vitals,
    build_environment,
    build_epidemic,
    build_gridworld,
    build_sepsis_lite,
    demo_observation,
    epidemic_counts,
    sepsis_state_parts,
)
from cfmdp.errors import InvalidConfig, UnknownEnvironment
from cfmdp.mdp import Mdp, gather_rows, mdp_from_json, mdp_to_json

from oracles import (available_actions, build_epidemic_oracle, build_gridworld_oracle,
                     build_sepsis_lite_oracle, initial, kernel, kernel_row, label_form,
                     mdp_to_json_oracle, path_return, reward)


# -- grid world --------------------------------------------------------------

def test_gridworld_deterministic_rows_by_default():
    mdp = build_gridworld()
    for (s, a), row in kernel(mdp).items():
        assert abs(sum(row.values()) - 1.0) < 1e-12
        assert len(row) == 1  # slip = 0 means Dirac rows


def test_gridworld_slip_rows_sum_to_one():
    mdp = build_gridworld(slip=0.2)  # the constructor validates
    stochastic = [row for row in kernel(mdp).values() if len(row) > 1]
    assert stochastic  # slip creates genuine branching


def test_gridworld_observed_path_hits_danger_at_t3():
    mdp, path, _ = demo_observation("gridworld")
    assert path.T == 11
    assert path.steps[3][0] == "r1c2"
    assert all(path.steps[t][0] == "r1c2" for t in range(3, 11))
    assert path_return(mdp, path) == -160.0


def test_gridworld_terminals_absorbing():
    mdp = build_gridworld()
    for label in ("r3c3", "r1c2"):
        assert available_actions(mdp, label) == ("stay",)
        assert kernel_row(mdp, label, "stay") == {label: 1.0}
        assert reward(mdp, label, "stay") == 0.0


def test_gridworld_invalid_configs():
    for slip in (1.0, -0.1):
        with pytest.raises(InvalidConfig, match="slip"):
            build_gridworld(slip=slip)


# -- epidemic ----------------------------------------------------------------

def test_epidemic_validates():
    mdp = build_epidemic()  # the constructor validates
    assert initial(mdp) == {"S9I1V20": 1.0}
    assert mdp.actions == ("NIL", "V_I", "V_S")


def test_epidemic_no_infected_is_frozen_under_nil():
    mdp = build_epidemic()
    assert kernel_row(mdp, "S5I0V7", "NIL") == {"S5I0V7": 1.0}


def test_epidemic_vaccinating_last_infected_is_deterministic():
    mdp = build_epidemic()
    assert kernel_row(mdp, "S9I1V20", "V_I") == {"S9I0V19": 1.0}


def test_epidemic_action_availability():
    mdp = build_epidemic()
    assert available_actions(mdp, "S5I0V7") == ("NIL", "V_S")
    assert available_actions(mdp, "S0I5V7") == ("NIL", "V_I")
    assert available_actions(mdp, "S5I5V0") == ("NIL",)


def test_epidemic_pmf_matches_scipy_oracle():
    # Transition masses equal scipy's hypergeometric pmf to 1e-12, checked
    # over every entry of every pair's row at once.
    mdp = build_epidemic()
    pair, at = gather_rows(np.diff(mdp.row_start), mdp.row_id)
    counts = np.array([epidemic_counts(s) for s in mdp.states])
    S, I = counts[mdp.source[pair], 0], counts[mdp.source[pair], 1]
    act = np.array(mdp.actions)[mdp.action[pair]]
    v_i, v_s = act == "V_I", act == "V_S"
    # NIL: (M, n, N) = (S+I, min(S, I), S); V_I: (S+I-1, min(S, I-1), S); V_S: (S+I-1, min(S-1, I), S-1)
    M, n, N = S + I - (v_i | v_s), np.minimum(S - v_s, I - v_i), S - v_s
    k = N - counts[mdp.succ[at], 0]
    with np.errstate(invalid="ignore"):
        ref = stats.hypergeom.pmf(k, M, n, N)
    # scipy rejects the empty-population corner; its pmf is Dirac at 0.
    ref = np.where((M == 0) & (k == 0), 1.0, ref)
    assert np.max(np.abs(mdp.prob[at] - ref)) <= 1e-12


def test_epidemic_rows_sum_exactly():
    mdp = build_epidemic()
    for row in kernel(mdp).values():
        assert abs(sum(row.values()) - 1.0) < 1e-12


def test_epidemic_conservation_on_sampled_transitions():
    mdp = build_epidemic()
    rng = np.random.default_rng(0)
    states = [s for s in mdp.states]
    for _ in range(500):
        label = states[int(rng.integers(len(states)))]
        S, I, V = epidemic_counts(label)
        for a in available_actions(mdp, label):
            for dest in kernel_row(mdp, label, a):
                S2, I2, V2 = epidemic_counts(dest)
                assert S2 + I2 <= S + I
                assert V2 <= V


def test_epidemic_observed_path_matches_reported_trajectory():
    mdp, path, _ = demo_observation("epidemic")
    assert [epidemic_counts(s)[1] for s, _ in path.steps] == [1, 2, 3, 6, 8, 9, 9]
    assert path.steps[0][0] == "S9I1V20"
    assert path_return(mdp, path) == -38.0


def test_epidemic_policy_is_nil_everywhere():
    policy = PRESETS["epidemic"].policy
    mdp = build_epidemic()
    for s in list(mdp.states)[::37]:
        assert policy(s, 0) == "NIL"


def test_epidemic_invalid_config():
    with pytest.raises(InvalidConfig):
        build_epidemic(population=0)
    with pytest.raises(InvalidConfig):
        build_epidemic(initial_infected=11)


# -- sepsis-lite ---------------------------------------------------------------

SEPSIS_DEFAULTS = inspect.signature(build_sepsis_lite).parameters


def test_sepsis_action_count():
    mdp = build_sepsis_lite()  # the constructor validates
    assert len(mdp.actions) == 8


def test_sepsis_reward_scale_boundaries():
    horizon = SEPSIS_DEFAULTS["horizon"].default
    mdp = build_sepsis_lite()
    discharge = "nnnn-000"
    assert kernel_row(mdp, discharge, "t000") == {discharge: 1.0}
    assert reward(mdp, discharge, "t000") * horizon == pytest.approx(1000.0)
    worst = "llll-000"
    assert reward(mdp, worst, "t000") * horizon == pytest.approx(-1000.0)
    # Death flattens the reward regardless of 3 vs 4 abnormal vitals.
    three = "lll" + "n-000"
    assert reward(mdp, three, "t000") * horizon == pytest.approx(-1000.0)


def test_sepsis_death_states_absorbing_under_every_action():
    mdp = build_sepsis_lite()
    for label in mdp.states:
        if abnormal_vitals(label) >= 3:
            for a in mdp.actions:
                assert kernel_row(mdp, label, a) == {label: 1.0}


def test_sepsis_action_sets_flags():
    mdp = build_sepsis_lite()
    for dest in kernel_row(mdp, "nlnn-000", "t110"):
        _, flags = sepsis_state_parts(dest)
        assert flags == (1, 1, 0)


def test_sepsis_treatment_pushes_toward_normal():
    mdp = build_sepsis_lite()
    row = kernel_row(mdp, "nlnn-000", "t010")  # vasopressors on the low bp
    mass_bp_normal = sum(
        p for dest, p in row.items() if sepsis_state_parts(dest)[0][1] == 1
    )
    assert mass_bp_normal == pytest.approx(SEPSIS_DEFAULTS["treat_effect"].default[1])


def test_sepsis_observed_presets():
    mdp, cat_path, _ = demo_observation("sepsis-catastrophic")
    abns = [abnormal_vitals(s) for s, _ in cat_path.steps]
    assert max(abns) >= 3  # the catastrophic preset dies mid-path
    assert abns[0] == 1

    mdp, sub_path, _ = demo_observation("sepsis-suboptimal")
    abns = [abnormal_vitals(s) for s, _ in sub_path.steps]
    assert max(abns) < 3  # alive throughout
    assert abns[-1] >= 1  # but not discharged either


def test_sepsis_invalid_config():
    with pytest.raises(InvalidConfig):
        build_sepsis_lite(flux=1.0)
    # The start state has one abnormal vital: a threshold of one kills it.
    with pytest.raises(InvalidConfig, match="dead on arrival"):
        build_sepsis_lite(death_threshold=1)


# -- the array builders against the label-dict oracles --------------------------

def assert_same_mdp(mdp, oracle):
    # The same arrays, and the file `env` writes expands to the oracle's label dicts.
    assert mdp.digest == oracle.digest
    assert (json.dumps(label_form(mdp_to_json(mdp)), sort_keys=True)
            == json.dumps(mdp_to_json_oracle(oracle), sort_keys=True))


# treat_effect 1.0 gives entries of probability 0.0, which both drop; the
# death threshold moves which vitals levels share their action rows.
@pytest.mark.parametrize("cfg", [{}, {"flux": 0.0}, {"flux": 0.5},
                                 {"treat_effect": (1.0, 0.5, 0.8)}, {"death_threshold": 2},
                                 {"treat_effect": (1.0, 0.5, 0.3), "death_threshold": 4}],
                         ids=["default", "flux-0", "flux-0.5", "treat-effect-1-0.5-0.8",
                              "death-threshold-2", "treat-effect-1-0.5-0.3-death-threshold-4"])
def test_sepsis_builder_equals_the_label_dict_oracle(cfg):
    assert_same_mdp(build_sepsis_lite(**cfg), build_sepsis_lite_oracle(**cfg))


# Slip 0 gives perpendicular shares of 0.0, which both leave out; by a wall,
# the shares of the directions that bump are summed on the one cell.
@pytest.mark.parametrize("slip", [0.0, 0.1, 0.2, 0.5])
def test_gridworld_builder_equals_the_label_dict_oracle(slip):
    assert_same_mdp(build_gridworld(slip=slip),
                    build_gridworld_oracle(slip=slip))


# The entries each builder stores; per pair they were 27,336 and 8,381.
@pytest.mark.parametrize("env, entries", [("sepsis", 3441), ("epidemic", 3381)])
def test_builder_passes_each_distinct_row_once(env, entries, monkeypatch):
    # A builder names each shared row once: the 8 flag settings of a living
    # sepsis state, or the epidemic pairs that move as one state's NIL, are
    # not given copies for the constructor to merge back.
    passed = []
    from_arrays = Mdp.from_arrays.__func__

    def counting(cls, *args, **kwargs):
        passed.append(len(args[7]))  # succ
        return from_arrays(cls, *args, **kwargs)

    monkeypatch.setattr(Mdp, "from_arrays", classmethod(counting))
    mdp = build_environment(env)
    assert passed == [len(mdp.succ)] == [entries]


@pytest.mark.parametrize("cfg", [(p, i) for p in range(1, 13) for i in sorted({0, 1, p})],
                         ids=lambda cfg: "P{}-I{}".format(*cfg))
def test_epidemic_builder_equals_the_label_dict_oracle(cfg):
    assert_same_mdp(build_epidemic(*cfg), build_epidemic_oracle(*cfg))


@pytest.mark.parametrize("args", ["sepsis", "epidemic --population 14"])
def test_loaded_mdp_keeps_the_file_row_table(args, tmp_path):
    # The file stores each distinct row once, and so does the loaded MDP: no
    # stored array grows to one element per (pair, successor) entry.
    assert main(["env", *args.split(), "--out", str(tmp_path / "mdp.json")]) == 0
    obj = json.loads((tmp_path / "mdp.json").read_text())
    mdp = mdp_from_json(obj)
    entries = sum(obj["rows"]["size"])
    assert len(mdp.succ) == len(mdp.prob) == len(mdp.logp) == len(mdp.owner) == entries
    assert len(mdp.row_start) == len(obj["rows"]["size"]) + 1
    assert entries < sum(obj["rows"]["size"][r] for r in obj["pairs"]["row"])


# -- registry ------------------------------------------------------------------

def test_registry_dispatch_and_unknown():
    assert build_environment("epidemic").name == "epidemic"
    with pytest.raises(UnknownEnvironment):
        build_environment("chess")
    with pytest.raises(UnknownEnvironment):
        demo_observation("chess")
    with pytest.raises(UnknownEnvironment):
        demo_observation("sepsis-mystery")


def test_every_environment_validates():
    for env in ("gridworld", "epidemic", "sepsis"):
        assert build_environment(env).num_states > 0  # the constructor validates
