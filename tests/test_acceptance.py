"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from cfmdp.environments import demo_observation, environment_features
from cfmdp.gumbel import build_cf_mdp, build_posterior, nominal_cf_mdp
from cfmdp.influence import prune_cf_mdp
from cfmdp.mdp import Mdp, ObservedPath, sample_path
from cfmdp.solver import check_sweep_monotonicity, rollout, solve_km, sweep

from oracles import (
    available_actions,
    cf_probs,
    cf_transition_probs,
    dict_mdp,
    feature_vector,
    influenced_states,
    kernel,
    kernel_row,
    km_value_oracle,
    pair_of,
    path_return,
    random_mdp,
    reachback,
    rejection_posterior,
    tv_distance,
)


def report(number: int, started: float, limit: float, text: str) -> None:
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.1f}s): {text}")


def random_five_state(seed: int) -> tuple[Mdp, ObservedPath]:
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, 5, 2, min_prob=0.08)
    path = sample_path(mdp, lambda s, t: "a0", 3, seed=seed + 1)
    return mdp, path


@pytest.fixture(scope="module")
def epidemic_suite():
    mdp, path, _ = demo_observation("epidemic")
    posterior = build_posterior(mdp, path, 1000, seed=7)
    cf = build_cf_mdp(posterior, mdp)
    result = sweep(cf, ks=list(range(1, 9)), ms=list(range(1, 8)))
    return mdp, path, cf, result


@pytest.fixture(scope="module")
def gridworld_suite():
    mdp, path, _ = demo_observation("gridworld")
    posterior = build_posterior(mdp, path, 1000, seed=7)
    cf = build_cf_mdp(posterior, mdp)
    result = sweep(cf, ks=list(range(1, 13)), ms=list(range(1, 12)))
    return mdp, path, cf, result


@pytest.fixture(scope="module")
def sepsis_suites():
    out = {}
    for preset in ("catastrophic", "suboptimal"):
        mdp, path, _ = demo_observation(f"sepsis-{preset}")
        posterior = build_posterior(mdp, path, 1000, seed=7)
        cf = build_cf_mdp(posterior, mdp)
        result = sweep(cf, ks=list(range(1, 12)), ms=list(range(1, 11)))
        out[preset] = (mdp, path, cf, result)
    return out


def test_criterion_01_gumbel_max_correctness():
    started = time.time()
    rng = np.random.default_rng(42)
    n = 100_000
    for trial in range(20):
        size = int(rng.integers(2, 7))
        raw = rng.uniform(0.05, 1.0, size=size)
        probs = raw / raw.sum()
        states = tuple(f"x{i}" for i in range(size))
        row = dict(zip(states, probs.tolist()))
        mdp = dict_mdp(("s",) + states, ("a",), {("s", "a"): row}, {}, {"s": 1.0})
        noise = rng.gumbel(size=(n, mdp.num_states))
        idx, _, logp = mdp.row(pair_of(mdp, "s", "a"))
        wins = np.argmax(logp[None, :] + noise[:, idx], axis=1)
        counts = np.bincount(wins, minlength=size)
        freqs = {states[i]: counts[i] / n for i in range(size)}
        assert tv_distance(freqs, row) < 0.01
    report(1, started, 10.0, "Gumbel-max mechanism matches 20 random rows within TV 0.01 at 1e5 samples")


def test_criterion_02_sampler_equivalence():
    started = time.time()
    mdp, path = random_five_state(seed=202)
    n = 100_000
    top = build_posterior(mdp, path, n, seed=11)
    rej = rejection_posterior(mdp, path, n, seed=12)
    worst = 0.0
    for t in range(path.T):
        for s in mdp.states:
            for a in available_actions(mdp, s):
                est_t = cf_transition_probs(top, mdp, t, s, a)
                est_r = cf_transition_probs(rej, mdp, t, s, a)
                worst = max(worst, tv_distance(est_t, est_r))
    assert worst < 0.03
    report(2, started, 60.0,
           f"top-down and rejection posteriors agree on every row (max TV {worst:.4f} at N=1e5)")


def test_criterion_03_replay_determinism():
    started = time.time()
    for name in ("gridworld", "epidemic", "sepsis-catastrophic", "sepsis-suboptimal"):
        mdp, path, _ = demo_observation(name)
        posterior = build_posterior(mdp, path, 400, seed=5)
        cf = build_cf_mdp(posterior, mdp)
        for t in range(path.T - 1):
            est = cf_probs(cf, t, path.steps[t][0], path.steps[t][1])
            assert est == {path.steps[t + 1][0]: 1.0}, (name, t)
        pruned = prune_cf_mdp(cf, 1)
        value = solve_km(pruned, 0).v_s0
        assert value == path_return(mdp, path), name
        if name == "epidemic":
            assert value == -38.0
    report(3, started, 120.0,
           "observed transitions replay as exact Diracs and m=0 equals the observed return "
           "in every environment (epidemic: -38)")


def test_criterion_04_disjoint_support_prior_preservation():
    started = time.time()
    kernel = {
        ("s", "a"): {"x1": 0.6, "x2": 0.4},
        ("s", "b"): {"y1": 0.2, "y2": 0.5, "y3": 0.3},
        ("s", "c"): {"y1": 0.85, "y3": 0.15},
        ("x2", "a"): {"x2": 1.0},
    }
    states = ("s", "x1", "x2", "y1", "y2", "y3")
    mdp = dict_mdp(states, ("a", "b", "c"), kernel, {}, {"s": 1.0})
    path = ObservedPath(mdp, (("s", "a"), ("x2", "a")))
    post = build_posterior(mdp, path, 100_000, seed=6)
    for query in ("b", "c"):
        est = cf_transition_probs(post, mdp, 0, "s", query)
        assert tv_distance(est, kernel[("s", query)]) < 0.02
    report(4, started, 10.0,
           "disjoint-support counterfactual rows match the interventional rows within TV 0.02")


def test_criterion_05_counterfactual_stability():
    started = time.time()
    mdp, path = random_five_state(seed=505)
    post = build_posterior(mdp, path, 2000, seed=13)
    rng = np.random.default_rng(99)
    t = 0
    s_t, a_t = path.steps[t]
    s_obs = path.steps[t + 1][0]
    obs_row = kernel_row(mdp, s_t, a_t)
    noise = post.noise[t]
    n_states = mdp.num_states
    violations = 0
    for _ in range(1000):
        raw = rng.uniform(0.02, 1.0, size=n_states)
        probs = raw / raw.sum()
        p_int = {mdp.states[i]: float(probs[i]) for i in range(n_states)}
        inter = dict_mdp(mdp.states, ("q",), {(s_t, "q"): p_int}, {}, {s_t: 1.0})
        idx, _, logp = inter.row(pair_of(inter, s_t, "q"))
        wins = np.argmax(logp[None, :] + noise[:, idx], axis=1)
        for pos in np.unique(wins):
            s2 = inter.states[idx[pos]]
            if s2 == s_obs or s2 not in obs_row or s_obs not in p_int:
                continue
            if not (p_int[s2] / obs_row[s2] > p_int[s_obs] / obs_row[s_obs]):
                violations += 1
    assert violations == 0
    report(5, started, 60.0,
           "counterfactual stability held on every posterior sample across 1000 interventions")


def test_criterion_06_fig2_worked_example(fig2_toy):
    started = time.time()
    mdp, path = fig2_toy
    sets = influenced_states(mdp, path)
    assert sets.pooled == {"s2", "s3", "s5", "s8"}
    assert reachback(mdp, sets, 1).reachback_states == sets.pooled | {"s4", "s6"}
    assert reachback(mdp, sets, 2).reachback_states == sets.pooled | {"s1", "s4", "s6"}

    cf = nominal_cf_mdp(mdp, path)

    def surviving_states(k):
        pruned = prune_cf_mdp(cf, k)
        states = set().union(*pruned.layers)
        for (s, t), acts in pruned.actions.items():
            if t == pruned.horizon - 1:
                for a in acts:
                    states |= set(cf_probs(pruned.cf, t, s, a))
        return pruned, states

    p1, states1 = surviving_states(1)
    assert states1 == (reachback(mdp, sets, 1).reachback_states | {"s0"}) - {"s4", "s6"}
    p2, states2 = surviving_states(2)
    assert states2 == (reachback(mdp, sets, 2).reachback_states | {"s1", "s4", "s6", "s0"}) - {"s1", "s4"}
    p3, states3 = surviving_states(3)
    assert states3 == set(mdp.states)
    kept = {(s, a) for (s, t), acts in p3.actions.items() for a in acts}
    assert kept == {(s, a) for (s, a) in kernel(mdp) if s != "s8"}
    report(6, started, 1.0,
           "worked toy example reproduced exactly: S-sets, reachback and pruned sets for k=1,2,3")


def test_criterion_07_epidemic_headline(epidemic_suite):
    started = time.time()
    mdp, path, cf, result = epidemic_suite
    table = {(k, m): v for k, m, v in result.rows}
    for m in range(1, 8):
        assert table[(1, m)] == pytest.approx(-38.0, abs=1e-9)
        assert table[(2, m)] == pytest.approx(-38.0, abs=1e-9)
        assert table[(8, m)] == pytest.approx(-1.0, abs=1e-9)
    pruned = prune_cf_mdp(cf, 8)
    policy = solve_km(pruned, 1)
    infected = feature_vector(mdp, environment_features("epidemic")["infected"])
    summary = rollout(pruned, policy, 1000, infected, seed=3)
    assert summary.means[0] == 1.0
    assert np.all(summary.means[1:] == 0.0)
    report(7, started, 300.0,
           "epidemic sweep hits -38.0 for k in {1,2}, -1.0 at k=T+1, and the (T+1,1) rollout "
           "extinguishes the infection at t>=1")


def test_criterion_08_monotonicity_suite(epidemic_suite, gridworld_suite, sepsis_suites):
    started = time.time()
    suites = {
        "epidemic": epidemic_suite,
        "gridworld": gridworld_suite,
        "sepsis/catastrophic": sepsis_suites["catastrophic"],
        "sepsis/suboptimal": sepsis_suites["suboptimal"],
    }
    for name, (mdp, path, cf, result) in suites.items():
        assert check_sweep_monotonicity(result) == [], name
        k1 = next(r for r in result.sizes if r.k == 1)
        assert k1.nodes_reachable == len({(path.steps[t][0], t) for t in range(path.T)}), name
    _, gw_path, _, gw_result = gridworld_suite
    top = next(r for r in gw_result.sizes if r.k == gw_path.T + 1)
    assert top.nodes_all_layers == 192
    report(8, started, 600.0,
           "V(s0) and node counts are monotone on all environments; k=1 restricts to the "
           "observed path; grid world all-layer count at k=T+1 is 192")


def test_criterion_09_dp_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(909)
    for trial in range(50):
        n_states = int(rng.integers(2, 5))
        horizon = int(rng.integers(2, 5))
        mdp = random_mdp(rng, n_states, 2, support_max=min(3, n_states))
        path = sample_path(mdp, lambda s, t: "a0", horizon, seed=trial)
        post = build_posterior(mdp, path, 1000, seed=trial + 1)
        cf = build_cf_mdp(post, mdp)
        k = int(rng.integers(1, horizon + 2))
        m = int(rng.integers(0, horizon + 1))
        pruned = prune_cf_mdp(cf, k)
        assert solve_km(pruned, m).v_s0 == km_value_oracle(pruned, path, m), (trial, k, m)
    report(9, started, 120.0,
           "dynamic program equals exhaustive budgeted enumeration exactly on 50 random instances")


def test_criterion_10_qualitative_patterns(gridworld_suite, sepsis_suites):
    started = time.time()
    # Grid world: flat at the observed value below a threshold, then a large jump.
    gw_mdp, gw_path, _, gw_result = gridworld_suite
    m_top = gw_path.T
    gw = {k: v for k, m, v in gw_result.rows if m == m_top}
    observed = path_return(gw_mdp, gw_path)
    assert gw[1] == observed and gw[2] == observed
    assert gw[3] >= observed + 100.0
    assert gw[gw_path.T + 1] == max(gw.values())

    # Sepsis, catastrophic path: improvement appears only at large k.
    cat_mdp, cat_path, _, cat_result = sepsis_suites["catastrophic"]
    cat = {k: v for k, m, v in cat_result.rows if m == cat_path.T}
    cat_observed = path_return(cat_mdp, cat_path)
    for k in range(1, 6):
        assert cat[k] == pytest.approx(cat_observed, abs=1e-9)
    assert cat[cat_path.T + 1] >= cat_observed + 500.0

    # Sepsis, suboptimal path: already optimal at a small influence horizon.
    sub_mdp, sub_path, _, sub_result = sepsis_suites["suboptimal"]
    sub = {k: v for k, m, v in sub_result.rows if m == sub_path.T}
    sub_observed = path_return(sub_mdp, sub_path)
    assert sub[1] == pytest.approx(sub_observed, abs=1e-9)
    assert sub[3] == pytest.approx(sub[sub_path.T + 1], abs=1e-9)
    assert sub[sub_path.T + 1] > sub_observed
    report(10, started, 300.0,
           "qualitative patterns hold: grid world flat-then-jump, catastrophic sepsis improves "
           "only at large k, suboptimal sepsis is optimal at small k")
