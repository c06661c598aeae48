import json
import re
import warnings
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from cfmdp.environments import build_environment, build_sepsis_lite
from cfmdp.errors import UndefinedPolicyAction, ValidationFailed
from cfmdp.mdp import (
    Mdp,
    ObservedPath,
    mdp_from_json,
    mdp_hash,
    mdp_to_json,
    path_from_json,
    path_to_json,
    sample_path,
)

from oracles import (
    available_actions,
    dict_mdp,
    enumerated_policy_value,
    exhaustive_value,
    influenced_states,
    initial,
    kernel,
    kernel_row,
    label_form,
    mdp_to_json_oracle,
    pair_of,
    path_return,
    random_mdp,
    reward,
    row_columns,
    table_rows,
    tabular_policy,
    tv_distance,
    value_iteration,
)


def chain_mdp():
    kernel = {
        ("s0", "a"): {"s1": 1.0},
        ("s1", "a"): {"s2": 1.0},
        ("s2", "a"): {"s2": 1.0},
    }
    rewards = {("s0", "a"): 1.0, ("s1", "a"): 2.0, ("s2", "a"): 0.0}
    return dict_mdp(("s0", "s1", "s2"), ("a",), kernel, rewards, {"s0": 1.0})


def chain_json(**rows):
    """chain_mdp's `mdp.json` object, with `rows` replacing rows of its table,
    each given as row{i}={successor index: probability}. Row 0 is the row of
    (s0, a); (s1, a) and (s2, a) share row 1, the point mass on s2."""
    obj = mdp_to_json(chain_mdp())
    table = table_rows(obj["rows"])
    for name, to in rows.items():
        table[int(name[3:])] = [list(to), list(to.values())]
    return dict(obj, rows=row_columns(table))


def test_validate_well_formed():
    # The constructor validates; a well-formed MDP compiles to its rows.
    assert kernel(chain_mdp()) == {("s0", "a"): {"s1": 1.0}, ("s1", "a"): {"s2": 1.0},
                                   ("s2", "a"): {"s2": 1.0}}


def chain_arrays(**edits):
    """chain_mdp as the index arrays of `Mdp.from_arrays`, pairs and rows
    given in reverse, one row per pair, with `edits` replacing some of them."""
    arrays = dict(source=[2, 1, 0], action=[0, 0, 0], reward=[0.0, 2.0, 1.0], row=[0, 1, 2],
                  owner=[0, 1, 2], succ=[2, 2, 1], prob=[1.0, 1.0, 1.0],
                  init_state=[0], init_prob=[1.0])
    arrays.update(edits)
    return arrays


def chain_fault(**edits) -> str:
    """The fault `Mdp.from_arrays` lists for `chain_arrays(**edits)`."""
    with pytest.raises(ValidationFailed) as exc:
        Mdp.from_arrays(("s0", "s1", "s2"), ("a",), **chain_arrays(**edits))
    return str(exc.value)


def test_validate_bad_row_sum():
    assert chain_fault(prob=[1.0, 1.0, 0.9]) == "row (s0,a) sums to 0.9"


def test_validate_unknown_state():
    assert chain_fault(succ=[2, 2, 5]) == "row (s0,a) references unknown state #5"


def test_validate_initial_sum():
    assert chain_fault(init_prob=[0.5]) == "initial distribution sums to 0.5"


def test_validate_rejects_nan_probability():
    nan = float("nan")
    assert (chain_fault(owner=[0, 1, 2, 2], succ=[2, 2, 1, 2], prob=[1.0, 1.0, 1.0, nan])
            == "row (s0,a) has non-finite probability nan at s2")
    with pytest.raises(ValidationFailed, match="non-finite"):
        mdp_from_json(chain_json(row0={1: 1.0, 2: float("nan")}))


def test_validate_rejects_nan_initial_probability():
    assert (chain_fault(init_state=[0, 1], init_prob=[1.0, float("nan")])
            == "initial distribution has non-finite probability nan at s1")


def test_validate_rejects_non_finite_rewards():
    # Each non-finite reward of a row is listed, naming its pair, pairs in
    # compiled order; a NaN would never be chosen by the solver, and an
    # infinity would give V(s0) = inf.
    assert chain_fault(reward=[float("nan"), 2.0, float("inf")]) == (
        "row (s0,a) has non-finite reward inf; row (s2,a) has non-finite reward nan")
    obj = mdp_to_json(chain_mdp())
    obj["pairs"]["r"][1] = float("-inf")
    with pytest.raises(ValidationFailed, match=r"row \(s1,a\) has non-finite reward -inf"):
        mdp_from_json(obj)


@pytest.mark.parametrize("t", [1.25, "1", True])
def test_path_step_t_must_be_an_integer(t):
    # int() would read each of these as step 1.
    obj = {"steps": [{"t": 0, "s": "s0", "a": "a"}, {"t": t, "s": "s1", "a": "a"}]}
    with pytest.raises(ValidationFailed, match=f"path step t {t!r} is not an integer"):
        path_from_json(obj, chain_mdp())


def test_validate_rejects_duplicate_labels():
    with pytest.raises(ValidationFailed, match="^duplicate state label s0$"):
        Mdp.from_arrays(("s0", "s0", "s2"), ("a",), **chain_arrays())
    with pytest.raises(ValidationFailed, match="^duplicate action label a$"):
        Mdp.from_arrays(("s0", "s1", "s2"), ("a", "a"), **chain_arrays())
    obj = mdp_to_json(chain_mdp())
    obj["states"].append("s0")
    with pytest.raises(ValidationFailed, match="duplicate"):
        mdp_from_json(obj)


def test_sample_path_deterministic_chain():
    path = sample_path(chain_mdp(), lambda s, t: "a", 2, seed=0)
    assert path.steps == (("s0", "a"), ("s1", "a"))
    # A sampled path is compiled like any other: pairs 0 and 1, and s1 at
    # position 0 of the row of pair 0.
    assert (path.state.tolist(), path.action.tolist(), path.pair.tolist(),
            path.next_pos.tolist()) == ([0, 1], [0, 0], [0, 1], [0])
    assert path == ObservedPath(chain_mdp(), path.steps)
    with pytest.raises(ValueError, match="read-only"):
        path.pair[0] = 1


def test_observed_path_lists_every_violation():
    steps = (("s1", "a"), ("s0", "a"), ("s2", "b"), ("ghost", "a"))
    with pytest.raises(ValidationFailed) as exc:
        ObservedPath(chain_mdp(), steps)
    assert str(exc.value) == (
        "initial state s1 has zero initial probability; "
        "step 0: transition s1 -> s0 under a has probability 0; "
        "step 1: transition s0 -> s2 under a has probability 0; "
        "step 2: no kernel row for (s2,b); step 3: no kernel row for (ghost,a)")
    bad = {"steps": [{"t": t, "s": s, "a": a} for t, (s, a) in enumerate(steps)]}
    with pytest.raises(ValidationFailed, match="zero initial probability"):
        path_from_json(bad, chain_mdp())


def test_observed_path_is_immutable_and_hashable():
    path = ObservedPath(chain_mdp(), (("s0", "a"), ("s1", "a")))
    for name in ("steps", "pair", "mdp_digest"):
        with pytest.raises(AttributeError):
            setattr(path, name, None)
    assert {path, ObservedPath(chain_mdp(), path.steps)} == {path}
    # The same steps on another MDP (here one more reward) are another path.
    kernel = {(s, "a"): row for s, row in (("s0", {"s1": 1.0}), ("s1", {"s2": 1.0}),
                                            ("s2", {"s2": 1.0}))}
    other = dict_mdp(("s0", "s1", "s2"), ("a",), kernel, {("s2", "a"): 5.0}, {"s0": 1.0})
    assert ObservedPath(other, path.steps) != path


def test_empty_path_is_valid():
    path = ObservedPath(chain_mdp(), ())
    assert path.T == 0 and path.pair.tolist() == [] and path.next_pos.tolist() == []
    assert path_from_json({"steps": []}, chain_mdp()) == path


def test_sample_path_same_seed_identical():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng, 4, 2)
    p1 = sample_path(mdp, lambda s, t: "a0", 6, seed=42)
    p2 = sample_path(mdp, lambda s, t: "a0", 6, seed=42)
    assert p1.steps == p2.steps


def test_sample_path_undefined_policy():
    with pytest.raises(UndefinedPolicyAction):
        sample_path(chain_mdp(), tabular_policy({("s0", 0): "a"}), 3, seed=0)


def test_sample_path_draws_on_the_running_sums_of_np_cumsum():
    # `sample_path_oracle` sums each row in Python; it checks sample_path,
    # which draws on np.cumsum, only while the sums are bit-identical.
    for mdp in (build_sepsis_lite(), build_environment("epidemic"),
                random_mdp(np.random.default_rng(3), 6, 3)):
        for p in range(len(mdp.source)):
            probs = mdp.row(p)[1]
            assert list(accumulate(probs.tolist())) == np.cumsum(probs).tolist()


def test_sample_path_draws_s0_as_searchsorted_over_the_initial_cumsum():
    # s0 is drawn over the initial support, scaled by its total, at u[0] of
    # the seed's stream: the first uniform of each fresh generator.
    states = ("a", "b", "c", "d", "e")
    kernel = {(s, "go"): {"a": 1.0} for s in states}
    initial = {"a": 0.1, "c": 0.25, "d": 0.3, "e": 0.35}
    mdp = dict_mdp(states, ("go",), kernel, {}, initial)
    for seed in range(300):
        rng = np.random.default_rng(seed)
        support = np.flatnonzero(mdp.initial > 0.0)
        cum = np.cumsum(mdp.initial[support])
        want = support[min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")),
                           len(support) - 1)]
        assert sample_path(mdp, lambda s, t: "go", 1, seed).steps[0][0] == states[want]


def test_sample_path_frequencies_match_kernel():
    # Single-step empirical frequencies converge to the kernel row.
    rng = np.random.default_rng(7)
    mdp = random_mdp(rng, 5, 1)
    n = 100_000
    counts = {}
    for seed in range(n):
        path = sample_path(mdp, lambda s, t: "a0", 2, seed=seed)
        s1 = path.steps[1][0]
        counts[s1] = counts.get(s1, 0) + 1
    freqs = {s: c / n for s, c in counts.items()}
    assert tv_distance(freqs, kernel_row(mdp, "x0", "a0")) < 0.02


def test_path_return_empty_and_zero():
    assert path_return(chain_mdp(), ObservedPath(chain_mdp(), ())) == 0.0
    zero = dict_mdp(("s0",), ("a",), {("s0", "a"): {"s0": 1.0}}, {}, {"s0": 1.0})
    path = sample_path(zero, lambda s, t: "a", 5, seed=0)
    assert path_return(zero, path) == 0.0


def test_value_iteration_single_state():
    mdp = dict_mdp(("s",), ("a",), {("s", "a"): {"s": 1.0}}, {("s", "a"): 1.0}, {"s": 1.0})
    _, values = value_iteration(mdp, 3)
    assert values[0]["s"] == pytest.approx(3.0, abs=1e-12)


def test_value_iteration_two_armed():
    kernel = {("s", "a0"): {"s": 1.0}, ("s", "a1"): {"s": 1.0}}
    rewards = {("s", "a0"): 0.0, ("s", "a1"): 5.0}
    mdp = dict_mdp(("s",), ("a0", "a1"), kernel, rewards, {"s": 1.0})
    policy, values = value_iteration(mdp, 1)
    assert values[0]["s"] == pytest.approx(5.0)
    assert policy("s", 0) == "a1"


def test_value_iteration_bellman_consistency():
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, 5, 3)
    T = 5
    _, values = value_iteration(mdp, T)
    for t in range(T):
        for s in mdp.states:
            expected = max(
                reward(mdp, s, a) + sum(p * values[t + 1][s2] for s2, p in kernel_row(mdp, s, a).items())
                for a in available_actions(mdp, s)
            )
            assert abs(values[t][s] - expected) < 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_value_iteration_matches_exhaustive(seed):
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(2, 5))
    n_actions = int(rng.integers(1, 4))
    horizon = int(rng.integers(1, 5))
    mdp = random_mdp(rng, n_states, n_actions)
    _, values = value_iteration(mdp, horizon)
    v0 = sum(p * values[0][s] for s, p in initial(mdp).items())
    assert v0 == pytest.approx(exhaustive_value(mdp, horizon), abs=1e-9)


def test_exhaustive_oracle_vs_literal_enumeration():
    # Cross-check the recursion oracle against literal policy enumeration.
    rng = np.random.default_rng(11)
    mdp = random_mdp(rng, 2, 2)
    assert exhaustive_value(mdp, 3) == pytest.approx(enumerated_policy_value(mdp, 3), abs=1e-9)


def test_ties_break_to_lowest_action_index():
    kernel = {("s", "a0"): {"s": 1.0}, ("s", "a1"): {"s": 1.0}}
    rewards = {("s", "a0"): 1.0, ("s", "a1"): 1.0}
    mdp = dict_mdp(("s",), ("a0", "a1"), kernel, rewards, {"s": 1.0})
    policy, _ = value_iteration(mdp, 2)
    assert policy("s", 0) == "a0"


def test_mdp_json_round_trip():
    rng = np.random.default_rng(5)
    mdp = random_mdp(rng, 4, 2)
    blob = json.dumps(mdp_to_json(mdp), sort_keys=True)
    again = mdp_from_json(json.loads(blob))
    assert json.dumps(mdp_to_json(again), sort_keys=True) == blob


def test_mdp_json_rejects_bad_rows():
    with pytest.raises(ValidationFailed):
        mdp_from_json(chain_json(row0={1: 0.5}))


def test_mdp_json_lists_a_bad_row_sum_with_every_other_fault():
    # A row off by more than PROB_TOL is one fault among the others, not one
    # that hides them. A fault of a shared row is listed for each of its pairs.
    obj = chain_json(row0={1: 0.6, 2: 0.5}, row1={7: 1.0})
    obj["initial"] = {"s": [9], "p": [1.0]}
    with pytest.raises(ValidationFailed) as exc:
        mdp_from_json(obj)
    faults = str(exc.value).split("; ")
    assert "row (s0,a) sums to 1.1" in faults
    assert "row (s1,a) references unknown state #7" in faults
    assert "row (s2,a) references unknown state #7" in faults
    assert "initial distribution references unknown state #9" in faults


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj["rows"].update(prob=["1.0", 1.0]), "MDP row probability '1.0' is not a number"),
    (lambda obj: obj["rows"].update(prob=[True, 1.0]), "MDP row probability True is not a number"),
    (lambda obj: obj["pairs"]["r"].__setitem__(0, "3"), "MDP reward '3' is not a number"),
    (lambda obj: obj["initial"].update(p=["1"]), "MDP initial probability '1' is not a number"),
    # Indices must be JSON integers: int() would truncate or parse each.
    (lambda obj: obj["pairs"]["s"].__setitem__(1, 1.0), "MDP pair state 1.0 is not an integer"),
    (lambda obj: obj["pairs"]["a"].__setitem__(0, "0"), "MDP pair action '0' is not an integer"),
    (lambda obj: obj["pairs"]["row"].__setitem__(2, True), "MDP pair row True is not an integer"),
    (lambda obj: obj["rows"].update(size=[1.0, 1]), "MDP row size 1.0 is not an integer"),
    (lambda obj: obj["rows"].update(succ=[1, "2"]), "MDP row successor '2' is not an integer"),
    (lambda obj: obj["initial"].update(s=[False]), "MDP initial state False is not an integer"),
], ids=["probability-a-string", "probability-true", "reward-a-string", "initial-a-string",
        "pair-state-a-float", "pair-action-a-string", "row-index-true", "size-a-float",
        "successor-a-string", "initial-state-false"])
def test_mdp_json_numbers_must_be_json_numbers(edit, message):
    obj = mdp_to_json(chain_mdp())
    edit(obj)
    with pytest.raises(ValidationFailed) as exc:
        mdp_from_json(obj)
    assert str(exc.value) == message


def test_mdp_json_integer_numbers_stay_valid():
    # A hand-written 1 is a JSON number: the MDP is the one written with 1.0.
    obj = mdp_to_json(chain_mdp())
    obj["rows"]["prob"] = [1, 1]
    obj["pairs"]["r"][0] = 1
    obj["initial"]["p"] = [1]
    assert mdp_from_json(obj).digest == chain_mdp().digest


def test_mdp_json_renormalizes_a_row_within_tolerance():
    # Once per row of the table: every pair of a shared row gets the same row.
    mdp = mdp_from_json(chain_json(row0={1: 0.5 + 2e-10, 2: 0.5}, row1={2: 1.0 - 3e-10}))
    total = (0.5 + 2e-10) + 0.5
    assert kernel_row(mdp, "s0", "a") == {"s1": (0.5 + 2e-10) / total, "s2": 0.5 / total}
    assert kernel_row(mdp, "s1", "a") == kernel_row(mdp, "s2", "a") == {"s2": 1.0}


@pytest.mark.parametrize("edit, fault", [
    (lambda obj: obj["pairs"].update(s=[0, 1, 0]), "row (s0,a) is given twice"),
    # A JSON object keyed by successor kept the last of two equal keys; a
    # row lists its successors, so a successor listed twice is refused.
    (lambda obj: obj.update(rows=row_columns([[[1, 2, 1], [0.5, 0.3, 0.2]], [[2], [1.0]]])),
     "row (s0,a) lists successor s1 twice"),
], ids=["pair-twice", "successor-twice"])
def test_mdp_json_rejects_duplicate_rows(edit, fault):
    obj = mdp_to_json(chain_mdp())
    edit(obj)
    with pytest.raises(ValidationFailed) as exc:
        mdp_from_json(obj)
    assert str(exc.value) == fault


@pytest.mark.parametrize("edit, fault", [
    (lambda obj: obj["pairs"]["row"].__setitem__(1, -1),
     "row (s1,a) names row -1, not one of the 2 rows of the MDP's row table"),
    (lambda obj: obj["pairs"]["row"].__setitem__(2, 2),
     "row (s2,a) names row 2, not one of the 2 rows of the MDP's row table"),
    (lambda obj: obj["pairs"].update(s=[0, 9, 2], row=[0, 5, 1]),
     "row (#9,a) names row 5, not one of the 2 rows of the MDP's row table"),
    (lambda obj: obj["rows"].update(size=[1, 2]),
     "the row sizes of the MDP's row table do not split its 2 successors and 2 probabilities"),
    (lambda obj: obj["rows"].update(size=[-1, 3]),
     "the row sizes of the MDP's row table do not split its 2 successors and 2 probabilities"),
    (lambda obj: obj["rows"].update(prob=[1.0]),
     "the row sizes of the MDP's row table do not split its 2 successors and 1 probabilities"),
    (lambda obj: obj["pairs"]["r"].pop(),
     "MDP pair columns s, a, r, row and initial columns s, p have 3, 3, 2, 3, 1, 1 entries"),
    (lambda obj: obj["pairs"]["row"].append(0),
     "MDP pair columns s, a, r, row and initial columns s, p have 3, 3, 3, 4, 1, 1 entries"),
    (lambda obj: obj["initial"]["s"].append(1),
     "MDP pair columns s, a, r, row and initial columns s, p have 3, 3, 3, 3, 2, 1 entries"),
], ids=["row-negative", "row-past-the-end", "unknown-state-row-past-the-end", "sizes-short",
        "size-negative", "prob-column-short", "reward-column-short", "row-column-long",
        "initial-columns"])
def test_mdp_json_refuses_columns_that_do_not_index_the_rows(edit, fault):
    # Refused before any row is expanded, each fault alone.
    obj = mdp_to_json(chain_mdp())
    edit(obj)
    with pytest.raises(ValidationFailed) as exc:
        mdp_from_json(obj)
    assert str(exc.value) == fault


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_mdp_example_is_the_chain_mdp():
    example = json.loads(re.search(r"```json\n(.*?)```", README.read_text(), re.S)[1])
    assert dict(example, name="") == mdp_to_json(chain_mdp())
    assert mdp_from_json(dict(example, name="")).digest == chain_mdp().digest


def test_readme_array_example_builds_its_three_state_mdp():
    example, = [block for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
                if "Mdp.from_arrays(" in block]
    scope = {}
    exec(example, scope)
    mdp = scope["mdp"]
    assert kernel(mdp) == {("s0", "a"): {"s1": 0.5, "s2": 0.5}, ("s1", "a"): {"s1": 1.0},
                           ("s2", "a"): {"s2": 1.0}}
    assert mdp.reward.tolist() == [1.0, 0.0, 0.0] and initial(mdp) == {"s0": 1.0}
    assert scope["path"].pair.tolist() == [0, 2] and scope["path"].next_pos.tolist() == [1]


def test_mdp_json_of_label_dicts_is_malformed():
    # The form `env` wrote before the core's indexing has no second reader.
    with pytest.raises(ValidationFailed) as exc:
        mdp_from_json(mdp_to_json_oracle(chain_mdp()))
    assert str(exc.value) == "malformed MDP JSON: 'pairs'"


# An MDP with every fault kind, as label dicts. The state label s1 and the
# action label b are duplicated, so s1 and b name their last index. Rows and
# the initial distribution are listed out of index order: faults list pairs
# in index order with unknown labels last, entries in the order given.
# `Mdp.from_arrays` sees a label as its index: `dict_mdp` gives every
# unknown label index -1 and `faulty_json` the indices of UNKNOWN_INDEX.
FAULTY_STATES = ("s0", "s1", "s2", "s1", "s3")
FAULTY_ACTIONS = ("a", "b", "b")
FAULTY_KERNEL = {
    ("s2", "b"): {"s3": 0.75},
    ("s0", "a"): {"s1": 0.5, "s2": float("nan")},
    ("ghost", "a"): {"s0": 1.0},
    ("s0", "zap"): {"s0": 0.5, "nowhere": 0.5},
    ("s3", "a"): {"void": 0.5, "s3": -0.5},
    ("s1", "a"): {"s0": -0.25, "s1": 1.25},
    ("s1", "b"): {"s1": 1.0},
    ("s2", "a"): {"s2": 1.0},
}
# (s3, b) has no row: its reward is ignored.
FAULTY_REWARDS = {("s1", "b"): float("inf"), ("s0", "a"): 1.0, ("s2", "a"): float("-inf"),
                  ("s3", "b"): 4.0}
FAULTY_INITIALS = {
    "nan": {"s3": float("nan"), "elsewhere": 0.5, "s0": -0.5, "s2": 0.25},
    "sum": {"s3": 0.5, "elsewhere": 0.25, "s0": -0.125, "s2": 0.125},
}
# The faults listed for these MDPs, each unknown label named as such; the
# tests name it by its index through `by_index`.
KERNEL_FAULTS = [
    "duplicate state label s1",
    "duplicate action label b",
    "kernel row (ghost,a) has unknown source state ghost",
    "kernel row (s0,zap) has unknown action zap",
    "row (s0,zap) references unknown state nowhere",
    "row (s3,a) references unknown state void",
    "row (s0,a) has non-finite probability nan at s2",
    "row (s1,a) has negative probability -0.25 at s0",
    "row (s3,a) has negative probability -0.5 at s3",
    "row (s2,b) sums to 0.75",
    "row (s3,a) sums to 0.0",
    "row (s2,a) has non-finite reward -inf",
    "row (s1,b) has non-finite reward inf",
]
INITIAL_FAULTS = {
    "nan": ["initial distribution references unknown state elsewhere",
            "initial distribution has non-finite probability nan at s3",
            "initial distribution has negative probability -0.5 at s0"],
    "sum": ["initial distribution references unknown state elsewhere",
            "initial distribution has negative probability -0.125 at s0",
            "initial distribution sums to 0.75"],
}


# In `mdp.json` a label is its index. The unknown labels become indices
# outside the label lists, each named as #index; a reward is a pair column,
# so a reward without a row cannot be written.
UNKNOWN_INDEX = {"ghost": 5, "zap": 3, "nowhere": 6, "void": 7, "elsewhere": 8}


def faulty_json(initial):
    """The faulty MDP as an `mdp.json` object, one table row per kernel row."""
    index = {**{s: i for i, s in enumerate(FAULTY_STATES)},
             **{a: i for i, a in enumerate(FAULTY_ACTIONS)}, **UNKNOWN_INDEX}
    return {"name": "faulty", "states": list(FAULTY_STATES), "actions": list(FAULTY_ACTIONS),
            "pairs": {"s": [index[s] for s, _ in FAULTY_KERNEL],
                      "a": [index[a] for _, a in FAULTY_KERNEL],
                      "r": [FAULTY_REWARDS.get(key, 0.0) for key in FAULTY_KERNEL],
                      "row": list(range(len(FAULTY_KERNEL)))},
            "rows": row_columns([[[index[x] for x in to], list(to.values())]
                                 for to in FAULTY_KERNEL.values()]),
            "initial": {"s": [index[s] for s in initial], "p": list(initial.values())}}


def by_index(fault: str, index: dict = UNKNOWN_INDEX) -> str:
    """`fault` with each unknown label named by its index in `index`."""
    return re.sub(r"\b(" + "|".join(index) + r")\b", lambda m: f"#{index[m[1]]}", fault)


@pytest.mark.parametrize("source", ["dicts", "json"])
@pytest.mark.parametrize("initial", sorted(FAULTY_INITIALS))
def test_every_fault_kind_is_listed_with_its_text(source, initial):
    with pytest.raises(ValidationFailed) as exc:
        if source == "dicts":
            dict_mdp(FAULTY_STATES, FAULTY_ACTIONS, FAULTY_KERNEL, FAULTY_REWARDS,
                     FAULTY_INITIALS[initial])
        else:
            mdp_from_json(faulty_json(FAULTY_INITIALS[initial]))
    index = dict.fromkeys(UNKNOWN_INDEX, -1) if source == "dicts" else UNKNOWN_INDEX
    faults = KERNEL_FAULTS + INITIAL_FAULTS[initial]
    assert str(exc.value) == "; ".join(by_index(fault, index) for fault in faults)


def test_bad_row_index_is_named_before_other_faults():
    # No pair can be expanded before every row index is checked.
    obj = faulty_json(FAULTY_INITIALS["nan"])
    obj["pairs"]["row"][0] = 99
    with pytest.raises(ValidationFailed) as exc:
        mdp_from_json(obj)
    assert str(exc.value) == "row (s2,b) names row 99, not one of the 8 rows of the MDP's row table"


@pytest.mark.parametrize("part, column", [
    ("pairs", "row"), ("rows", "succ"), ("initial", "p"), (None, "rows"),
], ids=["pairs-row", "rows-succ", "initial-p", "rows"])
def test_mdp_json_names_a_missing_column(part, column):
    obj = mdp_to_json(chain_mdp())
    del (obj if part is None else obj[part])[column]
    with pytest.raises(ValidationFailed) as exc:
        mdp_from_json(obj)
    assert str(exc.value) == f"malformed MDP JSON: {column!r}"


def test_array_constructor_builds_the_label_dict_mdp():
    mdp = Mdp.from_arrays(("s0", "s1", "s2"), ("a",), **chain_arrays())
    assert mdp.digest == chain_mdp().digest
    assert mdp.source.tolist() == [0, 1, 2] and mdp.reward.tolist() == [1.0, 2.0, 0.0]
    # Zero entries drop, and successors ascend within a row whatever the given order.
    mdp = Mdp.from_arrays(("s0", "s1", "s2"), ("a",), **chain_arrays(
        owner=[2, 2, 2, 1, 0], succ=[2, 0, 1, 2, 2], prob=[0.25, 0.0, 0.75, 1.0, 1.0]))
    assert kernel_row(mdp, "s0", "a") == {"s1": 0.75, "s2": 0.25}
    assert mdp.succ[mdp.row_start[0]:mdp.row_start[1]].tolist() == [1, 2]


@pytest.mark.parametrize("edits, faults", [
    (dict(source=[2, 7, 0]), ["kernel row (#7,a) has unknown source state #7"]),
    (dict(succ=[2, -1, 1]), ["row (s1,a) references unknown state #-1"]),
    (dict(source=[2, 0, 0]), ["row (s0,a) is given twice"]),
    (dict(owner=[0, 1, 1, 2], succ=[2, 2, 2, 1], prob=[1.0, 0.5, 0.5, 0.0]),
     ["row (s1,a) lists successor s2 twice", "row (s0,a) sums to 0.0"]),
    (dict(init_state=[3], init_prob=[1.0]), ["initial distribution references unknown state #3"]),
    # A repeated initial state would keep only its last probability.
    (dict(init_state=[0, 0], init_prob=[0.5, 0.5]), ["initial distribution lists state s0 twice"]),
    (dict(owner=[0, -1, 2, -2], succ=[2, 2, 1, 0], prob=[1.0] * 4),
     ["entry 1 has unknown row #-1", "entry 3 has unknown row #-2"]),
    (dict(row=[0, 3, 2]), ["row (s1,a) names row 3, not one of the 3 rows of the MDP's row table"]),
    (dict(row=[0, 0, 2], owner=[0, 1, 2, 3], succ=[2, 2, 1, -9], prob=[1.0, 0.5, 1.0, 2.0]),
     ["row 1 of the MDP's row table is named by no pair",
      "row 3 of the MDP's row table is named by no pair"]),
], ids=["unknown-source", "unknown-successor", "pair-twice", "successor-twice", "unknown-initial",
        "initial-twice", "unknown-owner", "row-past-the-table", "row-named-by-no-pair"])
def test_array_constructor_names_faults_by_label_or_index(edits, faults):
    assert chain_fault(**edits) == "; ".join(faults)


def test_mdp_json_drops_zero_probability_entries():
    obj = chain_json(row0={1: 1.0, 2: 0.0})
    with warnings.catch_warnings():  # the MDP is compiled when it is built
        warnings.simplefilter("error")
        mdp = mdp_from_json(obj)
        idx, probs, logp = mdp.row(pair_of(mdp, "s0", "a"))
    assert kernel_row(mdp, "s0", "a") == {"s1": 1.0}
    path = ObservedPath(mdp, (("s0", "a"), ("s1", "a")))
    assert influenced_states(mdp, path).per_time[0] == {"s1"}
    assert idx.tolist() == [1] and probs.tolist() == [1.0] and logp.tolist() == [0.0]


def zero_entry_mdp():
    rows = {("s0", "a"): {"s1": 0.5, "s2": 0.0, "s0": 0.5}, ("s1", "a"): {"s1": 1.0},
            ("s2", "a"): {"s2": 1.0}}
    return dict_mdp(("s0", "s1", "s2"), ("a",), rows, {("s1", "a"): 1.0}, {"s0": 1.0, "s2": 0.0})


# MDPs whose arrays and hash must survive a JSON round trip; the last two are
# built with zero-probability entries, which every path drops.
def odd_label_mdp():
    """Labels JSON must escape or that sort apart from their index order, a
    reward of -0.0, and an initial distribution over two states."""
    states = ("zeta", 'say "hi"', "back\\slash", "caf\u00e9", "\u2603", "line\nbreak", "A", "x10",
              "x9")
    actions = ("go", "Go", "\u00fc")
    kernel = {(s, a): {states[(i + j) % 9]: 0.25, states[(i + j + 1 + i % 7) % 9]: 0.75}
              for i, s in enumerate(states) for j, a in enumerate(actions) if (i + j) % 4}
    rewards = {key: float(k) - 3.0 for k, key in enumerate(kernel)}
    rewards[next(iter(kernel))] = -0.0
    return dict_mdp(states, actions, kernel, rewards, {"x9": 0.5, "A": 0.5}, name='odd "one"')


ROUND_TRIPS = {
    "gridworld": lambda: build_environment("gridworld"),
    "epidemic": lambda: build_environment("epidemic"),
    "sepsis": lambda: build_environment("sepsis"),
    "zero-entry": zero_entry_mdp,
    "sepsis-treat-effect-1": lambda: build_sepsis_lite(treat_effect=(1.0, 1.0, 1.0)),
    "odd-labels": odd_label_mdp,
    "random": lambda: random_mdp(np.random.default_rng(11), 12, 3),
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
def test_json_object_is_that_of_the_sorted_label_tuples(case):
    # The file's rows, expanded per pair and sorted by (state, action) label
    # tuples, are the label dicts of the MDP; the table is the MDP's, each
    # distinct row once, numbered by the first pair that names it.
    mdp = ROUND_TRIPS[case]()
    obj = json.loads(json.dumps(mdp_to_json(mdp)))
    assert label_form(obj) == mdp_to_json_oracle(mdp)
    assert (json.dumps(label_form(obj), sort_keys=True)
            == json.dumps(mdp_to_json_oracle(mdp), sort_keys=True))
    table = [(tuple(succ), tuple(probs)) for succ, probs in table_rows(obj["rows"])]
    assert len(set(table)) == len(table)
    assert obj["pairs"]["row"] == mdp.row_id.tolist()
    assert list(dict.fromkeys(mdp.row_id.tolist())) == list(range(len(table)))


@pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
def test_json_round_trip_keeps_arrays_and_hash(case):
    mdp = ROUND_TRIPS[case]()
    again = mdp_from_json(json.loads(json.dumps(mdp_to_json(mdp))))
    assert mdp.prob.min() > 0.0
    for name in ("source", "action", "start", "row_id", "row_start", "owner", "succ", "prob",
                 "logp", "reward", "pair_at", "initial"):
        np.testing.assert_array_equal(getattr(mdp, name), getattr(again, name), err_msg=name)
    assert mdp_hash(mdp) == mdp_hash(again) == mdp.digest == again.digest


def twin_mdp():
    """(x, a) and (x, b) share the row {x: .5, y: .5}."""
    rows = {("x", "a"): {"x": 0.5, "y": 0.5}, ("x", "b"): {"x": 0.5, "y": 0.5},
            ("y", "a"): {"y": 1.0}, ("z", "a"): {"z": 1.0}}
    return dict_mdp(("x", "y", "z"), ("a", "b"), rows, {("y", "a"): 1.0}, {"x": 1.0})


@pytest.mark.parametrize("copy, names", [
    ([[0, 1], [0.5, 0.5]], [3, 0]),
    ([[0, 1], [0.5, 0.5]], [0, 3]),
    ([[0, 1, 2], [0.5, 0.5, 0.0]], [0, 3]),
    ([[2, 1, 0], [0.0, 0.5, 0.5]], [3, 0]),
], ids=["copy-first", "copy-second", "copy-with-zero-entry", "copy-reversed-with-zero-entry"])
def test_rows_of_one_content_under_two_indices_load_as_one_row(copy, names):
    # twin_mdp's file with its shared row stored twice, the copy as row 3,
    # and (x, a) and (x, b) naming rows `names`: the copy matches once its
    # zero entries are dropped and its successors sorted, and loads as the
    # canonical file's row.
    mdp = twin_mdp()
    obj = json.loads(json.dumps(mdp_to_json(mdp)))
    assert obj["pairs"]["row"] == [0, 0, 1, 2]
    edited = dict(obj, pairs=dict(obj["pairs"], row=[*names, 1, 2]),
                  rows=row_columns(table_rows(obj["rows"]) + [copy]))
    loaded = mdp_from_json(edited)
    assert loaded.row_id.tolist() == mdp.row_id.tolist() == [0, 0, 1, 2]
    assert loaded.digest == mdp.digest
    assert json.dumps(mdp_to_json(loaded)) == json.dumps(obj)


def test_hash_changes_with_each_part():
    def build(row=(0.5, 0.5), r=1.0, label="s2", start=None, name="", reverse=False):
        states = ("s0", "s1", label)
        first = [("s1", row[0]), (label, row[1])]
        rows = {("s0", "a"): dict(first[::-1] if reverse else first), ("s1", "a"): {"s1": 1.0},
                (label, "a"): {label: 1.0}}
        return dict_mdp(states, ("a",), rows, {("s0", "a"): r}, start or {"s0": 1.0}, name=name)

    base = mdp_hash(build())
    assert mdp_hash(build()) == base
    changed = [mdp_hash(mdp) for mdp in (build(row=(0.25, 0.75)), build(r=2.0), build(label="s3"),
                                         build(start={"s0": 0.5, "s1": 0.5}), build(name="x"))]
    assert base not in changed and len(set(changed)) == len(changed)
    # The digest hashes the canonical row table, successors ascending,
    # whatever order a row lists them in.
    assert mdp_hash(build(reverse=True)) == base
    assert mdp_hash(build(row=(0.25, 0.75), reverse=True)) == changed[0]
    # Which row each pair names is hashed, not only the table: here the
    # same two rows, named by (y, a) in turn.
    named = [mdp_hash(dict_mdp(("x", "y"), ("a", "b"),
                               {("x", "a"): {"x": 1.0}, ("x", "b"): {"y": 1.0}, ("y", "a"): {s: 1.0}},
                               {}, {"x": 1.0}))
             for s in ("x", "y")]
    assert named[0] != named[1]


def test_path_json_round_trip():
    path = ObservedPath(chain_mdp(), (("s0", "a"), ("s1", "a")))
    again = path_from_json(path_to_json(path), chain_mdp())
    assert again.steps == path.steps and again.pair.tolist() == path.pair.tolist()
