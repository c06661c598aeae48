"""Property tests over random MDPs, and a fuzz test of the CLI's artifact loaders.

Examples are derandomized so every run checks the same instances; raise
`max_examples` locally to search further.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfmdp.cli import _policy_from_json, _policy_to_json, _pruned_from_json, _pruned_to_json, main
from cfmdp.environments import PRESETS, demo_observation
from cfmdp.errors import EmptyPrunedMdp, InfeasibleBudget, ValidationFailed
from cfmdp.gumbel import build_cf_mdp, build_posterior, cf_transition, nominal_cf_mdp
from cfmdp.influence import prune_cf_mdp
from cfmdp.mdp import Mdp, ObservedPath, mdp_from_json, mdp_to_json, sample_path
from cfmdp.solver import rollout, solve_km, sweep

from oracles import (available_actions, cf_layer, cf_transition_oracle, dict_mdp, initial, kernel,
                     kernel_row, km_value_oracle, observed_path_oracle, path_return, position_oracle,
                     prune_oracle, random_mdp, rejection_posterior, reward, rollout_oracle, row_columns,
                     same_tables, sample_path_oracle, solve_km_oracle, table_rows)

PROPERTIES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def random_mdps(draw, shared_rows=False):
    """A seed, a random MDP drawn from it, and the label dicts {(s, a): {s2:
    p}} it was built from. With `shared_rows`, some pairs are given a copy of
    another pair's nominal row, as when an action leaves a state's dynamics
    unchanged: its entries in reverse, with a zero entry added where a state
    is off the row, so a copy equals its row only once compiled."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_states = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, n_states, draw(st.integers(1, 3)),
                     support_max=draw(st.integers(1, n_states)))
    rows = kernel(mdp)
    if shared_rows:
        pairs = sorted(rows)
        rewards = {sa: reward(mdp, *sa) for sa in pairs}
        for dst, src in draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from(pairs)),
                                      min_size=1, max_size=len(pairs))):
            spare = [s for s in mdp.states if s not in rows[src]][:1]
            rows[dst] = {**dict(reversed(rows[src].items())), **dict.fromkeys(spare, 0.0)}
        mdp = dict_mdp(mdp.states, mdp.actions, rows, rewards, initial(mdp), name=mdp.name)
    return seed, mdp, rows


@st.composite
def instances(draw, shared_rows=False):
    """A random MDP of `random_mdps`, a path observed on it under random
    actions, and its counterfactual MDP."""
    seed, mdp, _ = draw(random_mdps(shared_rows))
    actions = draw(st.lists(st.sampled_from(mdp.actions), min_size=1, max_size=5))
    path = sample_path(mdp, lambda s, t: actions[t], len(actions), seed=seed)
    n = draw(st.integers(1, 60))
    draw_posterior = draw(st.sampled_from([build_posterior, rejection_posterior]))
    posterior = draw_posterior(mdp, path, n, seed=seed)
    return mdp, path, build_cf_mdp(posterior, mdp)


@PROPERTIES
@given(instances())
def test_no_successor_leaks_out_of_the_next_layer(instance):
    mdp, path, cf = instance
    for k in range(1, path.T + 2):
        pruned = prune_cf_mdp(cf, k)
        for t in range(path.T - 1):
            _, succ, _ = cf.layer_rows(t, np.flatnonzero(pruned.usable[t]))
            assert pruned.reach[t + 1][succ].all(), (k, t)
        # Each layer is exactly the states with a usable pair, as an
        # artifact's loader requires.
        for t in range(path.T):
            states = np.bincount(mdp.source[pruned.usable[t]], minlength=mdp.num_states) > 0
            np.testing.assert_array_equal(pruned.reach[t], states, err_msg=f"k={k}, t={t}")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(instances(shared_rows=True))
def test_prune_equals_the_pair_level_oracle(instance):
    # From the posterior and from the nominal rows, at every k, with and
    # without the prune at k = T+1 as `base`: the layers, the usable pairs
    # and the admitted count are the oracle's, and a k-prune's states, as
    # its policy keeps them, are a subset of the base's.
    mdp, path, cf = instance
    T = path.T
    for source in (cf, nominal_cf_mdp(mdp, path)):
        top = prune_cf_mdp(source, T + 1)
        top_states = solve_km(top, T).states
        for k in range(1, T + 2):
            want = prune_oracle(source, k)
            for base in (None, top):
                if want is None:
                    with pytest.raises(EmptyPrunedMdp):
                        prune_cf_mdp(source, k, base=base)
                    continue
                pruned = prune_cf_mdp(source, k, base=base)
                assert [set(np.flatnonzero(r).tolist()) for r in pruned.reach] == want[0], k
                assert [set(np.flatnonzero(u).tolist()) for u in pruned.usable] == want[1], k
                assert pruned.nodes_all_layers == want[2], k
                for states, wider in zip(solve_km(pruned, T).states, top_states):
                    assert set(states.tolist()) <= set(wider.tolist()), k


@PROPERTIES
@given(instances(shared_rows=True))
def test_cf_rows_equal_the_argmax_oracle(instance):
    # Counting the samples at each row's maximum gives the argmax's counts
    # bit for bit, on every pair at every layer.
    mdp, path, cf = instance
    for t in range(path.T):
        for p in range(len(mdp.source)):
            got = cf_transition(cf.posterior, mdp, t, p)
            want = cf_transition_oracle(cf.posterior, mdp, t, p)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want], (t, p)


@PROPERTIES
@given(instances(shared_rows=True))
def test_pairs_with_one_nominal_row_share_one_counterfactual_row(instance):
    mdp, path, cf = instance
    rows = [tuple(a.tobytes() for a in mdp.row(p)[:2]) for p in range(len(mdp.source))]
    first = list(dict.fromkeys(rows))
    assert mdp.row_id.tolist() == [first.index(row) for row in rows]

    pruned = prune_cf_mdp(cf, path.T + 1)
    built = {(t, r) for t, (ids, _, _, _) in enumerate(pruned.rows) for r in ids.tolist()}
    assert cf.rows_built == len(built)
    posterior = cf.posterior
    for t in range(path.T):
        for p, (idx, probs) in cf_layer(cf, t, range(len(mdp.source))).items():
            alone = cf_transition(posterior, mdp, t, p)
            # The mechanism's empirical law computed literally, without the
            # one-successor shortcut.
            succ, _, logp = mdp.row(p)
            winners = np.argmax(logp + posterior.noise[t][:, succ], axis=1)
            counts = np.bincount(winners, minlength=len(succ))
            literal = (succ[counts > 0], counts[counts > 0] / posterior.n)
            for a, b in (alone, literal):
                assert idx.tobytes() == a.tobytes() and probs.tobytes() == b.tobytes(), (t, p)
    assert cf.rows_built == len({(t, r) for t in range(path.T) for r in mdp.row_id.tolist()})


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(instances(shared_rows=True), st.data())
def test_layer_rows_equal_the_per_row_sources_in_any_order(instance, data):
    # From a posterior, from the nominal rows and from a pruned artifact read
    # back: whatever pairs are asked for, in any order, repeated or over
    # calls that overlap, each row is its source's row bit for bit and each
    # (t, nominal row) is built once. The artifact's stored rows are the
    # posterior's and count as none built; its other rows are nominal.
    mdp, path, cf = instance
    posterior, row_id = cf.posterior, mdp.row_id
    pruned = prune_cf_mdp(cf, data.draw(st.integers(1, path.T + 1)))
    loaded = _pruned_from_json(json.loads(json.dumps(_pruned_to_json(pruned))), mdp).cf
    stored = {(t, r) for t, (ids, _, _, _) in enumerate(pruned.rows) for r in ids.tolist()}
    assert loaded.rows_built == 0

    def posterior_row(t, p):
        return cf_transition(posterior, mdp, t, p)

    def nominal_row(t, p):
        return mdp.row(p)[:2]

    def artifact_row(t, p):
        return (posterior_row if (t, row_id[p]) in stored else nominal_row)(t, p)

    for source, row, given in ((build_cf_mdp(posterior, mdp), posterior_row, set()),
                               (nominal_cf_mdp(mdp, path), nominal_row, set()),
                               (loaded, artifact_row, stored)):
        pair, held = st.integers(0, len(mdp.source) - 1), set()
        for _ in range(3):
            t = data.draw(st.integers(0, path.T - 1))
            asked = np.array(data.draw(st.lists(pair, max_size=2 * len(mdp.source))),
                             dtype=np.int64)
            size, succ, prob = source.layer_rows(t, asked)
            cuts = np.cumsum(size)[:-1]
            for p, idx, q in zip(asked.tolist(), np.split(succ, cuts), np.split(prob, cuts)):
                want = row(t, p)
                assert (idx.tobytes(), q.tobytes()) == (want[0].tobytes(), want[1].tobytes()), (t, p)
            held |= {(t, r) for r in row_id[asked].tolist()}
            assert source.rows_built == len(held - given)


@PROPERTIES
@given(random_mdps(shared_rows=True))
def test_row_table_is_canonical(case):
    # Each distinct nominal row once, successors ascending, numbered by the
    # first pair (in compiled order) whose label dict has it once its zero
    # entries are dropped; every pair reads its label dict's row.
    _, mdp, rows = case
    bounds = mdp.row_start.tolist()
    table = [(tuple(mdp.succ[lo:hi].tolist()), mdp.prob[lo:hi].tobytes())
             for lo, hi in zip(bounds, bounds[1:])]
    assert all(np.all(np.diff(succ) > 0) for succ, _ in table)
    assert mdp.owner.tolist() == [r for r, (succ, _) in enumerate(table) for _ in succ]
    pairs = [(mdp.states[s], mdp.actions[a])
             for s, a in zip(mdp.source.tolist(), mdp.action.tolist())]
    want = []
    for sa in pairs:
        row = sorted((mdp.states.index(x), q) for x, q in rows[sa].items() if q != 0.0)
        want.append((tuple(i for i, _ in row), np.array([q for _, q in row]).tobytes()))
    first = list(dict.fromkeys(want))
    assert table == first
    assert mdp.row_id.tolist() == [first.index(row) for row in want]
    for p, sa in enumerate(pairs):
        assert kernel_row(mdp, *sa) == {x: q for x, q in rows[sa].items() if q != 0.0}, sa


@PROPERTIES
@given(random_mdps(shared_rows=True))
def test_mdp_json_round_trip_is_byte_identical(case):
    _, mdp, _ = case
    text = json.dumps(mdp_to_json(mdp), sort_keys=True)
    again = mdp_from_json(json.loads(text))
    assert json.dumps(mdp_to_json(again), sort_keys=True) == text
    assert again.digest == mdp.digest
    for name in ("row_id", "row_start", "owner", "succ", "prob"):
        np.testing.assert_array_equal(getattr(again, name), getattr(mdp, name), err_msg=name)


@PROPERTIES
@given(random_mdps(shared_rows=True), st.data())
def test_digest_is_that_of_the_canonical_row_table(case, data):
    # One kernel, one digest, however its rows are factored: rebuilt one row
    # per pair through the label-dict adapter, or loaded from its file with
    # one row listed in reverse, given a zero entry, or, where pairs share
    # it, duplicated for one of them.
    _, mdp, _ = case
    per_pair = dict_mdp(mdp.states, mdp.actions, kernel(mdp),
                        {(mdp.states[s], mdp.actions[a]): r for s, a, r in
                         zip(mdp.source.tolist(), mdp.action.tolist(), mdp.reward.tolist())},
                        initial(mdp), name=mdp.name)
    assert per_pair.digest == mdp.digest
    obj = mdp_to_json(mdp)
    rows = table_rows(obj["rows"])
    r = data.draw(st.integers(0, len(rows) - 1))
    succ, probs = rows[r]
    spare = [i for i in range(mdp.num_states) if i not in succ]
    edit = data.draw(st.sampled_from(["reverse"] + ["zero entry"] * bool(spare)
                                     + ["duplicate"] * (obj["pairs"]["row"].count(r) > 1)))
    if edit == "duplicate":
        obj["pairs"]["row"][obj["pairs"]["row"].index(r)] = len(rows)
        rows.append([succ, probs])
    elif edit == "reverse":
        rows[r] = [succ[::-1], probs[::-1]]
    else:
        rows[r] = [succ + spare[:1], probs + [0.0]]
    obj["rows"] = row_columns(rows)
    assert mdp_from_json(json.loads(json.dumps(obj))).digest == mdp.digest, edit


@PROPERTIES
@given(random_mdps(shared_rows=True), st.data())
def test_sample_path_and_position_equal_the_list_oracles(case, data):
    # searchsorted over np.cumsum draws what bisect over Python's running
    # sums draws, from an initial distribution over up to every state.
    seed, mdp, _ = case
    n = mdp.num_states
    weights = np.array(data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)), float)
    weights[seed % n] += 1.0
    mdp = Mdp.from_arrays(mdp.states, mdp.actions, mdp.source, mdp.action, mdp.reward,
                          mdp.row_id, mdp.owner, mdp.succ, mdp.prob, np.arange(n),
                          weights / weights.sum())
    horizon = data.draw(st.integers(0, 8))
    actions = data.draw(st.lists(st.sampled_from(mdp.actions), min_size=horizon,
                                 max_size=horizon))
    policy = lambda s, t: actions[t]
    for path_seed in range(seed % 1000, seed % 1000 + 40):
        path = sample_path(mdp, policy, horizon, path_seed)
        assert path.steps == sample_path_oracle(mdp, policy, horizon, path_seed), path_seed
        assert path.next_pos.tolist() == next_positions(mdp, path), path_seed


def next_positions(mdp, path) -> list:
    """Each step's successor's position in its pair's nominal row, by label."""
    return [position_oracle(mdp, p, s) for p, (s, _) in zip(path.pair.tolist(), path.steps[1:])]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_paths_and_positions_equal_the_list_oracles(preset):
    mdp, _, policy = demo_observation(preset)
    horizon = PRESETS[preset].horizon
    for seed in range(300):
        path = sample_path(mdp, policy, horizon, seed)
        assert path.steps == sample_path_oracle(mdp, policy, horizon, seed), seed
        assert path.next_pos.tolist() == next_positions(mdp, path), seed


@settings(PROPERTIES, max_examples=200)
@given(random_mdps(shared_rows=True), st.data())
def test_observed_path_equals_the_step_by_step_oracle(case, data):
    # Label sequences on the MDP with some pairs dropped and a random initial
    # distribution, each label one the MDP allows there two times in three:
    # unknown labels, pairs without a row, zero-probability transitions and
    # starts.
    _, mdp, rows = case
    dropped = data.draw(st.lists(st.sampled_from(sorted(rows)), max_size=len(rows) - 1,
                                 unique=True))
    kept = [sa for sa in rows if sa not in dropped]
    weights = data.draw(st.lists(st.integers(0, 3), min_size=mdp.num_states,
                                 max_size=mdp.num_states).filter(any))
    mdp = dict_mdp(mdp.states, mdp.actions, {sa: rows[sa] for sa in kept}, {},
                   {s: w / sum(weights) for s, w in zip(mdp.states, weights)})

    def label(allowed, every):
        stray = data.draw(st.integers(0, 2)) == 2 or not allowed
        return data.draw(st.sampled_from(every if stray else allowed))

    steps, allowed = [], [s for s in mdp.states if initial(mdp).get(s)]
    for _ in range(data.draw(st.integers(1, 6))):
        s = label(allowed, mdp.states + ("ghost",))
        a = label(available_actions(mdp, s) if s in mdp.states else (), mdp.actions + ("nope",))
        steps.append((s, a))
        allowed = list(kernel_row(mdp, s, a)) if (s, a) in kept else []
    try:
        want = observed_path_oracle(mdp, steps)
    except ValidationFailed as exc:
        with pytest.raises(ValidationFailed) as got:
            ObservedPath(mdp, steps)
        assert str(got.value) == str(exc)
    else:
        path = ObservedPath(mdp, steps)
        assert (path.state.tolist(), path.action.tolist(), path.pair.tolist(),
                path.next_pos.tolist()) == want


@PROPERTIES
@given(instances())
def test_value_monotone_in_k_and_m_and_m0_replays_the_path(instance):
    mdp, path, cf = instance
    T = path.T
    table = {(k, m): v for k, m, v in sweep(cf, list(range(1, T + 2)), list(range(T + 1))).rows}
    for k in range(1, T + 2):
        assert abs(table[(k, 0)] - path_return(mdp, path)) <= 1e-9
        for m in range(T + 1):
            if m < T:
                assert table[(k, m)] <= table[(k, m + 1)] + 1e-9
            if k <= T:
                assert table[(k, m)] <= table[(k + 1, m)] + 1e-9


@PROPERTIES
@given(instances(), st.data())
def test_solver_equals_oracle_and_artifacts_round_trip(instance, data):
    mdp, path, cf = instance
    k = data.draw(st.integers(1, path.T + 1))
    m = data.draw(st.integers(0, path.T))
    pruned = prune_cf_mdp(cf, k)
    policy = solve_km(pruned, m)
    assert policy.v_s0 == km_value_oracle(pruned, path, m)

    assert mdp_to_json(mdp_from_json(json.loads(json.dumps(mdp_to_json(mdp))))) == mdp_to_json(mdp)
    obj = json.loads(json.dumps(_pruned_to_json(pruned)))
    loaded = _pruned_from_json(obj, mdp)
    for a, b in zip(loaded.reach + loaded.usable, pruned.reach + pruned.usable):
        np.testing.assert_array_equal(a, b)
    assert solve_km(loaded, m).v_s0 == policy.v_s0
    stored = json.loads(json.dumps(_policy_to_json(policy, loaded, obj["samples"])))
    back = _policy_from_json(stored, loaded, obj["samples"])
    assert (back.k, back.m) == (policy.k, policy.m)
    for a, b in zip(back.choices, policy.choices):
        np.testing.assert_array_equal(a, b)


@PROPERTIES
@given(instances(shared_rows=True))
def test_solver_tables_equal_the_per_pair_oracle(instance):
    # Every k, every m in 0..T, with and without `base`: the array solver's
    # value and choice tables equal the per-pair loop's bit for bit, and the
    # budgets above the steps left are copies of column T-t.
    mdp, path, cf = instance
    T = path.T
    top = prune_cf_mdp(cf, T + 1)
    for m in range(T + 1):
        top_policy, top_oracle = solve_km(top, m), solve_km_oracle(top, m)
        for k in range(1, T + 2):
            pruned = top if k == T + 1 else prune_cf_mdp(cf, k, base=top)
            policy = solve_km(pruned, m)
            assert same_tables(policy, solve_km_oracle(pruned, m)), (k, m)
            assert same_tables(solve_km(pruned, m, base=top_policy),
                               solve_km_oracle(pruned, m, base=top_oracle)), (k, m)
            for t in range(max(T - m, 0), T):
                for table in (policy.values[t], policy.choices[t]):
                    assert (table[:, T - t:] == table[:, T - t, None]).all(), (k, m, t)


def _swap_axes(tables: list, width: int) -> list:
    """Each row-major table of `width` columns, written column-major instead."""
    return [np.reshape(np.array(x, dtype=np.int64), (-1, width)).T.ravel().tolist()
            for x in tables]


def _loads(load):
    """load(), or None where it raises ValidationFailed."""
    try:
        return load()
    except ValidationFailed:
        return None


@PROPERTIES
@given(instances(shared_rows=True), st.data())
def test_pruned_artifact_stores_each_row_once_and_round_trips(instance, data):
    # At every k, from the posterior and from the nominal rows: the artifact
    # stores each row the prune built once, under its nominal row (none
    # under nominal rows), and the loader's prune from them is the prune
    # the artifact was written from.
    mdp, path, cf = instance
    m = data.draw(st.integers(0, path.T))
    for source in (cf, nominal_cf_mdp(mdp, path)):
        for k in range(1, path.T + 2):
            try:
                pruned = prune_cf_mdp(source, k)
            except EmptyPrunedMdp:  # under nominal rows a small k can empty the prune
                continue
            obj = json.loads(json.dumps(_pruned_to_json(pruned)))
            loaded = _pruned_from_json(obj, mdp)
            for t, (ids, _, _, _) in enumerate(pruned.rows):
                stored = ids.tolist() if source.posterior is not None else []
                assert obj["rows"][t]["row"] == stored, (k, t)
            for a, b in zip(loaded.reach + loaded.usable, pruned.reach + pruned.usable):
                np.testing.assert_array_equal(a, b, err_msg=f"k={k}")
            assert loaded.nodes_all_layers == pruned.nodes_all_layers
            for t, usable in enumerate(pruned.usable):
                got, want = (c.layer_rows(t, np.flatnonzero(usable)) for c in (loaded.cf, source))
                assert [a.tobytes() for a in got] == [b.tobytes() for b in want], (k, t)
            try:
                v_s0 = solve_km(pruned, m).v_s0
            except InfeasibleBudget:  # under nominal rows replay can leave the prune
                assert source.posterior is None
                with pytest.raises(InfeasibleBudget):
                    solve_km(loaded, m)
                continue
            assert solve_km(loaded, m).v_s0 == v_s0, k

    # The policy artifact reads back as solve_km's choices, and rolls out the same.
    pruned = prune_cf_mdp(cf, data.draw(st.integers(1, path.T + 1)))
    obj = json.loads(json.dumps(_pruned_to_json(pruned)))
    loaded, samples = _pruned_from_json(obj, mdp), obj["samples"]
    policy = solve_km(pruned, m)
    assert same_tables(solve_km(loaded, m), policy)
    stored = json.loads(json.dumps(_policy_to_json(policy, loaded, samples)))
    back = _policy_from_json(stored, loaded, samples)
    assert [c.tobytes() for c in back.choices] == [c.tobytes() for c in policy.choices]
    n, seed = data.draw(st.sampled_from([1, 7, 300])), data.draw(st.integers(0, 2**32 - 1))
    feature = np.arange(mdp.num_states, dtype=np.float64)
    got = rollout(loaded, back, n, feature, seed)
    want = rollout(pruned, policy, n, feature, seed)
    assert (got.means.tobytes(), got.stds.tobytes()) == (want.means.tobytes(), want.stds.tobytes())

    # The policy table read with its axes swapped is another artifact:
    # refused, or read as other choices.
    swapped = _swap_axes(stored["actions"], m + 1)
    if swapped != stored["actions"]:
        other = _loads(lambda: _policy_from_json(dict(stored, actions=swapped), loaded, samples))
        assert other is None or any(a.tobytes() != b.tobytes()
                                    for a, b in zip(other.choices, policy.choices))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(instances(shared_rows=True), st.data())
def test_rollout_equals_scalar_oracle(instance, data):
    mdp, path, cf = instance
    pruned = prune_cf_mdp(cf, data.draw(st.integers(1, path.T + 1)))
    policy = solve_km(pruned, data.draw(st.integers(0, path.T)))
    n, seed = data.draw(st.sampled_from([1, 7, 2000])), data.draw(st.integers(0, 2**32 - 1))
    feature = np.arange(mdp.num_states, dtype=np.float64)
    got = rollout(pruned, policy, n, feature, seed)
    want = rollout_oracle(pruned, policy, n, feature, seed)
    assert got.means.tobytes() == want.means.tobytes()
    assert got.stds.tobytes() == want.stds.tobytes()
    assert got.max_changes == want.max_changes


@pytest.fixture(scope="module")
def gridworld_files(tmp_path_factory):
    """MDP, path, pruned and policy files of a gridworld run."""
    d = tmp_path_factory.mktemp("fuzz")
    files = {name: str(d / f"{name}.json") for name in ("mdp", "path", "pruned", "policy")}
    posterior = str(d / "posterior.json")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["env", "gridworld", "--out", files["mdp"]]) == 0
        assert main(["sample", "--mdp", files["mdp"], "--policy", "gridworld",
                     "--out", files["path"]]) == 0
        assert main(["cf-build", "--mdp", files["mdp"], "--path", files["path"], "--samples", "20",
                     "--out", posterior]) == 0
        assert main(["prune", "--mdp", files["mdp"], "--path", files["path"],
                     "--posterior", posterior, "--k", "3", "--out", files["pruned"]]) == 0
        assert main(["solve", "--mdp", files["mdp"], "--pruned", files["pruned"], "--m", "1",
                     "--out", files["policy"]]) == 0
    return files


def mutate(data, node, values):
    """`node`, a parsed JSON value, with one drawn edit: somewhere inside it an
    item is deleted or a value is replaced."""
    if isinstance(node, (dict, list)) and node:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        edit = data.draw(st.sampled_from(["descend", "descend", "descend", "delete", "replace"]))
        if edit != "replace":
            out = dict(node) if isinstance(node, dict) else list(node)
            if edit == "delete":
                del out[key]
            else:
                out[key] = mutate(data, node[key], values)
            return out
    return data.draw(values)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cli_on_edited_files_exits_0_2_or_3(gridworld_files, data):
    kind = data.draw(st.sampled_from(["mdp", "pruned", "policy"]))
    with open(gridworld_files["mdp"]) as fh:
        mdp = json.load(fh)
    with open(gridworld_files[kind]) as fh:
        original = json.load(fh)
    values = st.sampled_from([None, True, -1, 0, 1, 2, 0.4, 1.5, -0.5, 1e308, 10**400, math.nan,
                              math.inf, "", [], {}, mdp["states"][0], mdp["states"][-1],
                              mdp["actions"][-1]])
    files = dict(gridworld_files, **{kind: gridworld_files[kind] + ".edited"})
    with open(files[kind], "w") as fh:
        json.dump(mutate(data, original, values), fh)
    out = gridworld_files["mdp"] + ".out"
    commands = [
        ["prune", "--mdp", files["mdp"], "--path", files["path"], "--nominal", "--k", "2",
         "--out", out],
        ["solve", "--mdp", files["mdp"], "--pruned", files["pruned"], "--m", "1", "--out", out],
        ["rollout", "--mdp", files["mdp"], "--pruned", files["pruned"], "--policy", files["policy"],
         "--env", "gridworld", "--feature", "dist_to_goal", "-n", "3", "--out", out],
    ]
    for argv in commands:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv[0], err.getvalue())
        assert code == 0 or err.getvalue().startswith("error:")
