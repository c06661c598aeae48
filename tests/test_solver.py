import re
from types import SimpleNamespace

import numpy as np
import pytest

import cfmdp.solver
from cfmdp.cli import _policy_to_json
from cfmdp.environments import PRESETS, demo_observation, environment_features
from cfmdp.errors import InvariantViolated, UndefinedPolicyAction, ValidationFailed
from cfmdp.gumbel import build_cf_mdp, build_posterior, nominal_cf_mdp
from cfmdp.influence import prune_cf_mdp, pruned_size_report
from cfmdp.mdp import ObservedPath, sample_path
from cfmdp.solver import (
    _stream_uniforms,
    check_sweep_monotonicity,
    rollout,
    solve_km,
    sweep,
)

from oracles import (
    available_actions,
    cf_probs,
    cf_row,
    dict_mdp,
    feature_vector,
    km_value_oracle,
    pair_of,
    path_return,
    random_mdp,
    reward,
    rollout_oracle,
    same_tables,
    solve_km_oracle,
)


def small_instance(seed, n_states=4, n_actions=2, horizon=4, n_samples=1000):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, n_states, n_actions, support_max=3)
    policy = lambda s, t: "a0"
    path = sample_path(mdp, policy, horizon, seed=seed)
    post = build_posterior(mdp, path, n_samples, seed=seed + 1)
    cf = build_cf_mdp(post, mdp)
    return mdp, path, cf


def state_row(policy, t, s):
    """The row of state label `s` in the policy's tables of layer t."""
    si = policy.mdp.states.index(s)
    row = int(np.searchsorted(policy.states[t], si))
    assert policy.states[t][row] == si, (t, s)
    return row


def test_solve_m0_equals_observed_return(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 8)
    policy = solve_km(pruned, 0)
    assert policy.v_s0 == path_return(mdp, path) == -38.0


def test_solve_epidemic_headline(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 8)
    policy = solve_km(pruned, 1)
    assert policy.v_s0 == pytest.approx(-1.0, abs=1e-9)
    # The single change vaccinates the one infected individual at t = 0:
    # the table of layer 0 has one row, s_0's.
    assert policy.states[0].tolist() == [path.state[0]]
    assert policy.choices[0][0, 1] == mdp.actions.index("V_I")


def test_budget_validation(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 2)
    with pytest.raises(ValidationFailed):
        solve_km(pruned, path.T + 1)


@pytest.mark.parametrize("seed", range(10))
def test_solver_matches_recursion_oracle(seed):
    mdp, path, cf = small_instance(seed)
    rng = np.random.default_rng(seed + 100)
    k = int(rng.integers(1, path.T + 2))
    m = int(rng.integers(0, path.T + 1))
    pruned = prune_cf_mdp(cf, k)
    got = solve_km(pruned, m).v_s0
    want = km_value_oracle(pruned, path, m)
    assert got == want


def test_pairs_sharing_one_row_at_mixed_cost_equal_the_oracle():
    # The three pairs of x0 share one nominal row, and so one counterfactual
    # row; the observed one costs nothing and the others one change. The row
    # is priced for the widest of its pairs: at m = 0 the observed pair
    # needs one column although the others need none. a and c tie above the
    # observed b, and the tie goes to the first pair, a.
    row = {"x1": 0.4, "x2": 0.6}
    kernel = {("x0", "a"): row, ("x0", "b"): row, ("x0", "c"): row,
              ("x1", "a"): {"x1": 1.0}, ("x2", "a"): {"x1": 0.5, "x2": 0.5}, ("x2", "b"): {"x1": 1.0}}
    rewards = {("x0", "a"): 9.0, ("x0", "b"): 1.0, ("x0", "c"): 9.0, ("x1", "a"): 1.0,
               ("x2", "a"): 0.0, ("x2", "b"): 2.0}
    mdp = dict_mdp(("x0", "x1", "x2"), ("a", "b", "c"), kernel, rewards, {"x0": 1.0}, name="shared")
    path = ObservedPath(mdp, (("x0", "b"), ("x2", "a"), ("x2", "a")))
    cf = build_cf_mdp(build_posterior(mdp, path, 300, seed=1), mdp)
    assert len({int(mdp.row_id[pair_of(mdp, "x0", a)]) for a in "abc"}) == 1
    for k in range(1, path.T + 2):
        pruned = prune_cf_mdp(cf, k)
        for m in range(path.T + 1):
            policy = solve_km(pruned, m)
            assert same_tables(policy, solve_km_oracle(pruned, m)), (k, m)
            assert policy.choices[0][state_row(policy, 0, "x0"), 1:].tolist() == [0] * m


def test_nan_q_values_from_finite_rewards_are_never_chosen_as_in_the_oracle():
    # Rewards are finite (non-finite ones are refused), yet a Q-value can be
    # NaN: x1's value overflows to +inf, x2 has no observed action and so is
    # infeasible (-inf) with no budget left, and the counterfactual row of
    # (x0, b) reaches both, so its expected value is inf - inf. A NaN
    # Q-value never beats another action, as the oracle's `q > best` never
    # picks one.
    kernel = {("x0", "a"): {"x1": 0.5, "x2": 0.5}, ("x0", "b"): {"x1": 0.3, "x2": 0.7},
              ("x1", "a"): {"x1": 1.0}, ("x2", "b"): {"x1": 1.0}}
    mdp = dict_mdp(("x0", "x1", "x2"), ("a", "b"), kernel, {("x1", "a"): 1e308}, {"x0": 1.0},
                   name="overflow")
    path = ObservedPath(mdp, (("x0", "a"), ("x1", "a"), ("x1", "a")))
    cf = build_cf_mdp(build_posterior(mdp, path, 100, seed=3), mdp)
    with np.errstate(over="ignore", invalid="ignore"):
        pruned = prune_cf_mdp(cf, path.T + 1)
        policy = solve_km(pruned, 1)
        idx, probs = cf_row(cf, 0, pair_of(mdp, "x0", "b"))
        child = policy.values[1][np.searchsorted(policy.states[1], idx), 0]
        assert child.tolist() == [float("inf"), float("-inf")]  # x1, x2
        assert np.isnan(np.dot(probs, child))
        assert mdp.actions[policy.choices[0][0, 1]] == "a"
        for k in range(1, path.T + 2):
            pruned = prune_cf_mdp(cf, k)
            for m in range(path.T + 1):
                policy = solve_km(pruned, m)
                assert same_tables(policy, solve_km_oracle(pruned, m)), (k, m)
                assert not any(np.isnan(v).any() for v in policy.values)


def test_sepsis_catastrophic_k1_m0_equals_the_oracle():
    # Its absorbing states have eight pairs on one row, one of them observed.
    mdp, path, _ = demo_observation("sepsis-catastrophic")
    cf = build_cf_mdp(build_posterior(mdp, path, 200, seed=7), mdp)
    pruned = prune_cf_mdp(cf, 1)
    policy = solve_km(pruned, 0)
    assert same_tables(policy, solve_km_oracle(pruned, 0))
    assert policy.v_s0 == path_return(mdp, path)


def test_bellman_consistency_of_budget_recursion(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 4)
    m = 3
    policy = solve_km(pruned, m)
    T = pruned.horizon
    for t in range(T):
        obs = path.steps[t][1]
        for s in pruned.layers[t]:
            for r in range(m + 1):
                best = float("-inf")
                for a in pruned.actions.get((s, t), ()):
                    cost = 0 if a == obs else 1
                    if cost > r:
                        continue
                    q = reward(mdp, s, a)
                    for s2, p in cf_probs(pruned.cf, t, s, a).items():
                        nxt = 0.0 if t + 1 == T else float(policy.values[t + 1][state_row(policy, t + 1, s2), r - cost])
                        q += p * nxt
                    best = max(best, q)
                assert abs(float(policy.values[t][state_row(policy, t, s), r]) - best) < 1e-12


def test_unconstrained_equals_layered_value_iteration(epidemic_demo, epidemic_cf):
    # (k = T+1, m = T) must match plain finite-horizon value iteration over the
    # counterfactual layers.
    mdp, path, _ = epidemic_demo
    T = path.T
    pruned = prune_cf_mdp(epidemic_cf, T + 1)
    got = solve_km(pruned, T).v_s0

    memo = {}

    def vi(s, t):
        if t == T:
            return 0.0
        if (s, t) not in memo:
            memo[(s, t)] = max(
                reward(mdp, s, a)
                + sum(p * vi(s2, t + 1) for s2, p in cf_probs(epidemic_cf, t, s, a).items())
                for a in available_actions(mdp, s)
            )
        return memo[(s, t)]

    assert got == pytest.approx(vi(path.steps[0][0], 0), abs=1e-9)


def test_sweep_reads_all_budgets_off_one_table(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    result = sweep(epidemic_cf, ks=[2, 8], ms=[1, 3, 7])
    table = {(k, m): v for k, m, v in result.rows}
    pruned = prune_cf_mdp(epidemic_cf, 8)
    for m in (1, 3, 7):
        assert table[(8, m)] == solve_km(pruned, m).v_s0
    assert check_sweep_monotonicity(result) == []


def independent_sweep(cf, ks, ms):
    """The sweep as one standalone prune and one solve per k, sharing nothing."""
    rows, sizes = [], []
    for k in ks:
        pruned = prune_cf_mdp(cf, k)
        sizes.append(pruned_size_report(pruned))
        policy = solve_km(pruned, max(ms))
        rows.extend((k, m, policy.initial_value(m)) for m in ms)
    return rows, sizes


def sweep_grids(rng, T):
    """Every k, a k subset without T+1, and a single k; with random m sets."""
    subset = sorted(rng.choice(np.arange(1, T + 1), size=int(rng.integers(1, T + 1)), replace=False))
    ms = sorted(rng.choice(np.arange(0, T + 1), size=int(rng.integers(1, T + 2)), replace=False))
    return [(list(range(1, T + 2)), list(range(0, T + 1))),
            ([int(k) for k in subset], [int(m) for m in ms]),
            ([int(rng.integers(1, T + 2))], [int(ms[-1])])]


@pytest.mark.parametrize("seed", range(30))
def test_shared_sweep_equals_independent_solves(seed):
    rng = np.random.default_rng(seed + 300)
    n_states = int(rng.integers(2, 8))
    mdp = random_mdp(rng, n_states, int(rng.integers(1, 4)),
                     support_max=int(rng.integers(1, min(n_states, 3) + 1)))
    path = sample_path(mdp, lambda s, t: "a0", int(rng.integers(1, 7)), seed=seed)
    post = build_posterior(mdp, path, 200, seed=seed)
    for ks, ms in sweep_grids(rng, path.T):
        result = sweep(build_cf_mdp(post, mdp), ks, ms)
        rows, sizes = independent_sweep(build_cf_mdp(post, mdp), ks, ms)
        assert result.rows == rows and result.sizes == sizes, (ks, ms)
        alone = build_cf_mdp(post, mdp)
        prune_cf_mdp(alone, max(ks))
        assert result.cf_rows_built == alone.rows_built


def priced_rows_by_hand(pruned, layers) -> int:
    """Distinct nominal rows of the usable pairs at the reached states of
    each of `layers`, counted pair by pair."""
    mdp = pruned.cf.mdp
    return sum(len({mdp.row_id[p] for p in range(len(mdp.source))
                    if pruned.usable[t][p] and pruned.reach[t][mdp.source[p]]}) for t in layers)


@pytest.mark.parametrize("case", [*range(6), "gridworld"])
def test_rows_priced_is_the_direct_count_of_distinct_rows_per_solved_layer(case):
    # A solve prices every layer; a sweep's smaller k reuse the largest k's
    # free layers t >= T-k+1 and price only the layers below them. The
    # gridworld's 58 pairs share 16 nominal rows.
    if case == "gridworld":
        (mdp, path, _), seed = demo_observation("gridworld"), 0
    else:
        seed = case
        rng = np.random.default_rng(seed + 900)
        n_states = int(rng.integers(2, 8))
        mdp = random_mdp(rng, n_states, int(rng.integers(1, 4)),
                         support_max=int(rng.integers(1, min(n_states, 3) + 1)))
        path = sample_path(mdp, lambda s, t: "a0", int(rng.integers(1, 6)), seed=seed)
    post = build_posterior(mdp, path, 200, seed=seed)
    T, ks = path.T, list(range(1, path.T + 2))
    cf = build_cf_mdp(post, mdp)
    want = 0
    for k in ks:
        pruned = prune_cf_mdp(cf, k)
        policy = solve_km(pruned, 1)
        assert policy.rows_priced == priced_rows_by_hand(pruned, range(T))
        assert policy.rows_priced == solve_km_oracle(pruned, 1).rows_priced
        want += priced_rows_by_hand(pruned, range(T if k == ks[-1] else max(T - k + 1, 0)))
    assert sweep(build_cf_mdp(post, mdp), ks, [0, 1]).dp_rows_priced == want > 0


@pytest.mark.parametrize("width", [1, 2, 3, 11])
def test_vecdot_over_a_strided_column_is_the_np_dot_bit_for_bit(width):
    # `_pair_values` prices rows of length n with one np.vecdot over the
    # full-width (rows, n, m+1) gather sliced to its first columns; each value
    # must be the np.dot of the row and its (m+1)-strided column that the
    # oracles compute, -inf, +inf and NaN entries included. Width 1 (m = 0)
    # is the unit-stride column.
    rng = np.random.default_rng(width)
    special = np.array([-np.inf, np.inf, np.nan])
    for n in [*range(1, 41), 81]:
        probs = rng.dirichlet(np.ones(n), size=6)
        child = rng.normal(0, 100, size=(6, n, width))
        hit = rng.choice(child.size, size=child.size // 7)
        child.flat[hit] = special[rng.integers(0, 3, size=len(hit))]
        for cols in {width, max(width - 1, 1)}:
            with np.errstate(invalid="ignore"):
                got = np.vecdot(probs[:, :, None], child[:, :, :cols], axis=1)
                want = np.array([[float(np.dot(probs[r], child[r][:, c])) for c in range(cols)]
                                 for r in range(6)])
            assert got.tobytes() == want.tobytes(), (n, cols)


@pytest.mark.parametrize("env", ["gridworld", "epidemic"])
def test_shared_prune_and_solve_equal_standalone(env):
    mdp, path, _ = demo_observation(env)
    cf = build_cf_mdp(build_posterior(mdp, path, 300, seed=3), mdp)
    T = path.T
    top = prune_cf_mdp(cf, T + 1)
    top_policy = solve_km(top, T)
    ks = list(range(1, T + 2))
    result = sweep(cf, ks, list(range(T + 1)))
    assert (result.rows, result.sizes) == independent_sweep(cf, ks, list(range(T + 1)))
    for k in ks:
        alone = prune_cf_mdp(cf, k)
        shared = prune_cf_mdp(cf, k, base=top)
        assert shared.actions == alone.actions and shared.layers == alone.layers
        want = solve_km(alone, T)
        got = solve_km(shared, T, base=top_policy)
        for a, b in zip(got.values + got.choices, want.values + want.choices):
            np.testing.assert_array_equal(a, b)


def test_shared_prune_rejects_smaller_base(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    base = prune_cf_mdp(epidemic_cf, 3)
    with pytest.raises(ValidationFailed):
        prune_cf_mdp(epidemic_cf, 5, base=base)
    small = prune_cf_mdp(epidemic_cf, 2, base=base)
    with pytest.raises(ValidationFailed):
        solve_km(small, 1, base=solve_km(base, 2))


def test_sweep_rejects_empty_ranges(epidemic_demo, epidemic_cf):
    _, path, _ = epidemic_demo
    with pytest.raises(ValidationFailed):
        sweep(epidemic_cf, ks=[], ms=[1])


def test_rollout_m0_replays_observed_path(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 8)
    policy = solve_km(pruned, 0)
    infected = environment_features("epidemic")["infected"]
    summary = rollout(pruned, policy, 300, feature_vector(mdp, infected), seed=2)
    observed = [infected(path.steps[t][0]) for t in range(path.T)]
    # Replay is exact on every observed step; only the unobserved final
    # transition (prior noise) may vary.
    assert summary.means[: path.T].tolist() == observed
    assert summary.stds[: path.T].tolist() == [0.0] * path.T
    assert summary.max_changes == 0


def test_rollout_single_trajectory_has_zero_std(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 8)
    policy = solve_km(pruned, 1)
    infected = feature_vector(mdp, environment_features("epidemic")["infected"])
    summary = rollout(pruned, policy, 1, infected, seed=3)
    assert np.all(summary.stds == 0.0)


def test_rollout_epidemic_optimal_policy(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 8)
    policy = solve_km(pruned, 1)
    infected = feature_vector(mdp, environment_features("epidemic")["infected"])
    summary = rollout(pruned, policy, 500, infected, seed=4)
    assert summary.means.tolist() == [1.0] + [0.0] * path.T
    assert summary.max_changes <= 1


def test_rollout_mean_stability_when_doubling_n():
    mdp, path, cf = small_instance(5, horizon=3)
    pruned = prune_cf_mdp(cf, path.T + 1)
    policy = solve_km(pruned, 2)
    feature = np.arange(mdp.num_states, dtype=np.float64)
    small = rollout(pruned, policy, 2000, feature, seed=6)
    big = rollout(pruned, policy, 4000, feature, seed=7)
    for t in range(path.T + 1):
        band = 3.0 * max(small.stds[t], 1e-12) / np.sqrt(2000) + 1e-9
        assert abs(big.means[t] - small.means[t]) <= band + 3.0 * big.stds[t] / np.sqrt(4000)


def test_rollout_budget_and_containment_bulk(epidemic_demo, epidemic_cf):
    # rollout() itself raises if a trajectory leaves the pruned node set or
    # exceeds the budget; 10^4 trajectories exercise that check.
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 5)
    policy = solve_km(pruned, 3)
    infected = feature_vector(mdp, environment_features("epidemic")["infected"])
    summary = rollout(pruned, policy, 10_000, infected, seed=8)
    assert summary.max_changes <= 3
    assert summary.n == 10_000


@pytest.fixture(scope="module", params=["gridworld", "epidemic", "sepsis-suboptimal"],
                ids=lambda p: p.split("-")[0])
def solved_demo(request):
    """A built-in environment's demo observation, pruned at k = T+1 and solved
    at m = 2, with its feature."""
    mdp, path, _ = demo_observation(request.param)
    env = PRESETS[request.param].env
    cf = build_cf_mdp(build_posterior(mdp, path, 200, seed=5), mdp)
    pruned = prune_cf_mdp(cf, path.T + 1)
    feature = next(iter(environment_features(env).values()))
    return pruned, solve_km(pruned, 2), feature_vector(mdp, feature)


def assert_same_summary(got, want):
    assert got.means.tobytes() == want.means.tobytes()
    assert got.stds.tobytes() == want.stds.tobytes()
    assert got.max_changes == want.max_changes
    assert got.times.tolist() == want.times.tolist() and (got.n, got.seed) == (want.n, want.seed)


@pytest.mark.parametrize("n, seeds", [(1, (0, 1, 9)), (7, (0, 4, 21)), (2000, (3,))])
def test_rollout_equals_scalar_oracle(solved_demo, n, seeds):
    pruned, policy, feature = solved_demo
    for seed in seeds:
        assert_same_summary(rollout(pruned, policy, n, feature, seed),
                            rollout_oracle(pruned, policy, n, feature, seed))


def test_stream_uniforms_equal_numpy_generators():
    # Row i is trajectory i's Generator(PCG64(SeedSequence(seed, spawn_key=(i,)))),
    # for seeds of one to five uint32 words.
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**130 + 7):
        want = np.array([np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
                         .random(10) for i in range(1000)])
        for n in (1, 2, 17, 1000):
            for T in (0, 1, 10):
                got = _stream_uniforms(seed, n, T)
                assert got.shape == (n, T) and got.tobytes() == want[:n, :T].tobytes(), (seed, n, T)


def _no_uniforms(seed, n, T):
    raise AssertionError("the rollout uniforms were drawn")


def test_rollout_uniforms_beyond_intp_are_refused_before_any_draw(monkeypatch):
    # 2**32 trajectories are allowed, but not 2**32 x 2**61 float64 uniforms
    # (`test_rollout_count_above_2_32_exits_2` covers larger n). Nothing of
    # size n is ever made.
    monkeypatch.setattr(cfmdp.solver, "_stream_uniforms", _no_uniforms)
    with pytest.raises(ValidationFailed, match=f"rollout count {2**32} is too large"):
        rollout(SimpleNamespace(horizon=2**61), None, 2**32, None, seed=0)


@pytest.mark.parametrize("n", [0, -1])
def test_rollout_refuses_fewer_than_one_trajectory_before_any_draw(n, epidemic_cf, monkeypatch):
    # n = 0 gave NaN means and numpy's "Mean of empty slice" warning, and
    # n = -1 a bare ValueError from np.full.
    monkeypatch.setattr(cfmdp.solver, "_stream_uniforms", _no_uniforms)
    pruned = prune_cf_mdp(epidemic_cf, 1)
    with pytest.raises(ValidationFailed, match=f"rollout count must be >= 1, got {n}"):
        rollout(pruned, solve_km(pruned, 0), n, np.zeros(pruned.cf.mdp.num_states), seed=0)


def test_rollout_rejects_a_negative_seed(epidemic_demo, epidemic_cf, monkeypatch):
    monkeypatch.setattr(cfmdp.solver, "_stream_uniforms", _no_uniforms)
    pruned = prune_cf_mdp(epidemic_cf, 1)
    with pytest.raises(ValidationFailed, match="seed must be >= 0"):
        rollout(pruned, solve_km(pruned, 0), 5, np.zeros(pruned.cf.mdp.num_states), seed=-1)


def test_rollout_refuses_a_feature_of_another_shape_before_any_draw(epidemic_cf, monkeypatch):
    monkeypatch.setattr(cfmdp.solver, "_stream_uniforms", _no_uniforms)
    pruned = prune_cf_mdp(epidemic_cf, 1)
    n = epidemic_cf.mdp.num_states
    for shape in [(n - 1,), (n + 1,), (0,), (n, 1), (1, n)]:
        with pytest.raises(ValidationFailed, match=re.escape(f"rollout feature has shape {shape}")):
            rollout(pruned, solve_km(pruned, 0), 5, np.zeros(shape), seed=0)


def test_rollout_leaving_the_pruned_set_raises(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 8)
    policy = solve_km(pruned, 0)
    # Replay reaches the observed s_2 at t = 2; drop it from that layer.
    reach = [r.copy() for r in pruned.reach]
    reach[2][path.state[2]] = False
    pruned.reach = tuple(reach)
    with pytest.raises(InvariantViolated, match=f"left the pruned node set at \\({path.steps[2][0]}, t=2\\)"):
        rollout(pruned, policy, 5, np.zeros(mdp.num_states), seed=0)


def test_rollout_undefined_choice_raises(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 8)
    policy = solve_km(pruned, 0)  # replays the path: every trajectory reaches s_3 at t = 3
    policy.choices[3] = policy.choices[3].copy()
    policy.choices[3][state_row(policy, 3, path.steps[3][0]), 0] = -1
    with pytest.raises(UndefinedPolicyAction, match=f"\\({path.steps[3][0]}, t=3, j=0\\)"):
        rollout(pruned, policy, 5, np.zeros(mdp.num_states), seed=0)


def test_rollout_at_a_state_outside_the_policy_tables_raises(epidemic_demo, epidemic_cf):
    # A policy keeps tables for its own prune's states only; a state it has
    # no row for has no action, rather than the row of a neighbouring state.
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 8)
    policy = solve_km(pruned, 0)  # replays the path: every trajectory reaches s_3 at t = 3
    keep = policy.states[3] != path.state[3]
    policy.states[3], policy.choices[3] = policy.states[3][keep], policy.choices[3][keep]
    with pytest.raises(UndefinedPolicyAction, match=f"\\({path.steps[3][0]}, t=3, j=0\\)"):
        rollout(pruned, policy, 5, np.zeros(mdp.num_states), seed=0)


def test_rollout_reports_the_earliest_failing_step(fig2_toy):
    # s0 -a0-> s2 or s3, each with probability 0.5. Trajectories through s3
    # find no action at t = 1; those through s2 leave the pruned set at s5,
    # t = 2. The scalar loop reports trajectory 0's failure; rollout reports
    # the earliest t, whichever trajectory fails there.
    mdp, path = fig2_toy
    pruned = prune_cf_mdp(nominal_cf_mdp(mdp, path), path.T + 1)
    policy = solve_km(pruned, 0)
    policy.choices[1] = policy.choices[1].copy()
    policy.choices[1][state_row(policy, 1, "s3"), 0] = -1
    reach = [r.copy() for r in pruned.reach]
    reach[2][mdp.states.index("s5")] = False
    pruned.reach = tuple(reach)

    def first_failure(run, seed):
        with pytest.raises((InvariantViolated, UndefinedPolicyAction)) as exc:
            run(pruned, policy, 20, np.zeros(mdp.num_states), seed)
        return exc.value

    seed = next(seed for seed in range(100)
                if isinstance(first_failure(rollout_oracle, seed), InvariantViolated))
    failure = first_failure(rollout, seed)
    assert isinstance(failure, UndefinedPolicyAction) and "(s3, t=1, j=0)" in str(failure)


def test_rollout_past_the_budget_never_wraps_to_column_m(epidemic_demo, epidemic_cf):
    # An m = 0 policy edited to change the observed action at t = 0 spends one
    # change it does not have. At t = 1 the column m - j is -1, which must read
    # as "no action", not as column m.
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 8)
    policy = solve_km(pruned, 0)
    s0, observed = path.state[0], path.action[0]
    other = next(a for a in range(len(mdp.actions)) if a != observed
                 and mdp.pair_at[s0, a] >= 0 and pruned.usable[0][mdp.pair_at[s0, a]])
    policy.choices[0] = policy.choices[0].copy()
    policy.choices[0][0, 0] = other  # layer 0 is s_0 alone
    with pytest.raises(UndefinedPolicyAction, match="t=1, j=1"):
        rollout(pruned, policy, 5, np.zeros(mdp.num_states), seed=0)


def test_policy_json_shape(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 3)
    policy = solve_km(pruned, 2)
    blob = _policy_to_json(policy, pruned, 1000)
    assert blob["k"] == 3 and blob["m"] == 2
    assert blob["meta"] == {"samples": 1000, "mdp_hash": mdp.digest}
    # Layer t's table holds m+1 action indices per state of the layer, by j.
    assert [len(x) for x in blob["actions"]] == [3 * int(r.sum()) for r in pruned.reach]
    assert blob["actions"][0] == [int(policy.choices[0][0, 2 - j]) for j in range(3)]
    assert blob["v_s0"] == policy.v_s0
