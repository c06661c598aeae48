from collections import Counter

import numpy as np
import pytest

import cfmdp.gumbel
from cfmdp.errors import EmptyPrunedMdp, ValidationFailed
from cfmdp.gumbel import CfMdp, build_cf_mdp, build_posterior, nominal_cf_mdp
from cfmdp.influence import _admission_hits, _admitted, _cf_rows, prune_cf_mdp, pruned_size_report
from cfmdp.mdp import ObservedPath, sample_path

from oracles import (
    available_actions,
    cf_probs,
    cf_row,
    dict_mdp,
    influenced_states,
    kernel,
    kernel_row,
    one_step_influenced,
    pair_of,
    random_mdp,
    reachback,
)


def pruned_state_sets(pruned):
    """Decision-layer states plus the terminal states actually reached."""
    states = set().union(*pruned.layers)
    T = pruned.horizon
    terminal = set()
    for (s, t), acts in pruned.actions.items():
        if t == T - 1:
            for a in acts:
                terminal.update(cf_probs(pruned.cf, t, s, a))
    return states, terminal


def test_one_step_influenced_observed_pair(fig2_toy):
    mdp, path = fig2_toy
    for t in range(path.T):
        assert one_step_influenced(mdp, path, t, path.steps[t][0], path.steps[t][1])


def test_one_step_influenced_fig2_cases(fig2_toy):
    mdp, path = fig2_toy
    assert one_step_influenced(mdp, path, 1, "s3", "a0")
    assert not one_step_influenced(mdp, path, 1, "s1", "a0")


def test_one_step_influenced_disjoint_pair():
    kernel = {("s", "a"): {"x": 1.0}, ("s", "b"): {"y": 1.0},
              ("x", "a"): {"x": 1.0}, ("y", "a"): {"y": 1.0}}
    mdp = dict_mdp(("s", "x", "y"), ("a", "b"), kernel, {}, {"s": 1.0})
    path = ObservedPath(mdp, (("s", "a"),))
    assert not one_step_influenced(mdp, path, 0, "s", "b")


def test_influenced_states_fig2(fig2_toy):
    mdp, path = fig2_toy
    sets = influenced_states(mdp, path)
    assert sets.pooled == {"s2", "s3", "s5", "s8"}
    assert sets.per_time == (frozenset({"s2", "s3"}), frozenset({"s5"}), frozenset({"s8"}))


def test_influenced_states_deterministic_chain():
    kernel = {("s0", "a"): {"s1": 1.0}, ("s1", "a"): {"s2": 1.0}, ("s2", "a"): {"s2": 1.0}}
    mdp = dict_mdp(("s0", "s1", "s2"), ("a",), kernel, {}, {"s0": 1.0})
    path = sample_path(mdp, lambda s, t: "a", 2, seed=0)
    sets = influenced_states(mdp, path)
    assert sets.pooled == {"s1", "s2"}


def test_influenced_states_single_step(tinychain):
    path = ObservedPath(tinychain, (("x0", "a"),))
    sets = influenced_states(tinychain, path)
    assert sets.pooled == {"x1", "x2"}


def test_reachback_fig2(fig2_toy):
    mdp, path = fig2_toy
    sets = influenced_states(mdp, path)
    r1 = reachback(mdp, sets, 1)
    assert r1.reachback_states == sets.pooled | {"s4", "s6"}
    r2 = reachback(mdp, sets, 2)
    assert r2.reachback_states == sets.pooled | {"s1", "s4", "s6"}
    assert sets.pooled <= r1.reachback_states <= r2.reachback_states


def test_reachback_saturates(fig2_toy):
    mdp, path = fig2_toy
    sets = influenced_states(mdp, path)
    big = reachback(mdp, sets, 50)
    # Everything co-reachable to S^tau except observed path states, plus S^tau.
    assert big.reachback_states == {"s1", "s2", "s3", "s4", "s5", "s6", "s8"}
    assert reachback(mdp, sets, 51).reachback_states == big.reachback_states


def test_reachback_requires_positive_k(fig2_toy):
    mdp, path = fig2_toy
    with pytest.raises(ValidationFailed):
        reachback(mdp, influenced_states(mdp, path), 0)


def test_prune_fig2_worked_example(fig2_toy):
    mdp, path = fig2_toy
    cf = nominal_cf_mdp(mdp, path)
    sets = influenced_states(mdp, path)

    p1 = prune_cf_mdp(cf, 1)
    states1, term1 = pruned_state_sets(p1)
    assert states1 | term1 == (reachback(mdp, sets, 1).reachback_states | {"s0"}) - {"s4", "s6"}

    p2 = prune_cf_mdp(cf, 2)
    states2, term2 = pruned_state_sets(p2)
    assert states2 | term2 == (reachback(mdp, sets, 2).reachback_states | {"s0"}) - {"s1", "s4"}

    p3 = prune_cf_mdp(cf, 3)
    states3, term3 = pruned_state_sets(p3)
    assert states3 | term3 == set(mdp.states)
    # k = 3 recovers every original transition at some layer.
    kept = {(s, a) for (s, t), acts in p3.actions.items() for a in acts}
    original = {(s, a) for (s, a) in kernel(mdp) if s != "s8"}
    assert kept == original


def test_prune_fig2_k1_keeps_s3_branch(fig2_toy):
    mdp, path = fig2_toy
    pruned = prune_cf_mdp(nominal_cf_mdp(mdp, path), 1)
    assert pruned.actions[("s3", 1)] == ("a0",)
    assert pruned.actions[("s0", 0)] == ("a0",)


def test_prune_monotone_in_k(fig2_toy):
    mdp, path = fig2_toy
    cf = nominal_cf_mdp(mdp, path)
    previous = None
    for k in range(1, 5):
        pruned = prune_cf_mdp(cf, k)
        nodes = {(s, t) for t, layer in enumerate(pruned.layers) for s in layer}
        pairs = {(s, t, a) for (s, t), acts in pruned.actions.items() for a in acts}
        if previous is not None:
            assert previous[0] <= nodes
            assert previous[1] <= pairs
        previous = (nodes, pairs)


def reference_admitted(mdp, path, k, t, s, a):
    """The k-step definition read literally: (s, a) at t is admitted when it is
    1-step influenced, or some nominal continuation of at most k-1 further
    steps holds an influenced pair; the last k-1 steps are always admitted."""
    T = path.T

    def within(t, s, a, d):
        if one_step_influenced(mdp, path, t, s, a):
            return True
        return d > 0 and t + 1 < T and any(
            within(t + 1, s2, a2, d - 1)
            for s2 in kernel_row(mdp, s, a) for a2 in available_actions(mdp, s2))

    return t >= T - k + 1 or within(t, s, a, k - 1)


@pytest.mark.parametrize("seed", range(8))
def test_admission_matches_literal_definition(seed):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, 6, 2, support_max=2)
    path = sample_path(mdp, lambda s, t: "a0", 4, seed=seed)
    hits = _admission_hits(mdp, path, path.T)
    pairs = [(s, a) for s in mdp.states for a in available_actions(mdp, s)]
    for k in range(1, path.T + 2):
        admitted = _admitted(k, hits)
        for t in range(path.T):
            for s, a in pairs:
                assert admitted[t][pair_of(mdp, s, a)] == reference_admitted(mdp, path, k, t, s, a)


@pytest.mark.parametrize("k", [0, 5])
def test_prune_requires_k_within_one_to_horizon_plus_one(fig2_toy, k):
    # fig2_toy's path has T = 3, and k = T+1 = 4 already admits every pair:
    # a larger k would only build frontier layers that nothing reads.
    mdp, path = fig2_toy
    with pytest.raises(ValidationFailed, match=r"1 <= k <= 4"):
        prune_cf_mdp(nominal_cf_mdp(mdp, path), k)


def test_prune_monotone_random_mdp():
    rng = np.random.default_rng(21)
    mdp = random_mdp(rng, 5, 2, support_max=3)
    path = sample_path(mdp, lambda s, t: "a0", 4, seed=2)
    post = build_posterior(mdp, path, 400, seed=3)
    cf = build_cf_mdp(post, mdp)
    prev = None
    for k in range(1, 6):
        pruned = prune_cf_mdp(cf, k)
        nodes = {(s, t) for t, layer in enumerate(pruned.layers) for s in layer}
        if prev is not None:
            assert prev <= nodes
        prev = nodes


def test_prune_closure_no_leaks(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    for k in (1, 3, 8):
        pruned = prune_cf_mdp(epidemic_cf, k)
        T = pruned.horizon
        for (s, t), acts in pruned.actions.items():
            for a in acts:
                est = cf_probs(pruned.cf, t, s, a)
                mass = sum(
                    p for s2, p in est.items()
                    if t + 1 == T or s2 in pruned.layers[t + 1]
                )
                assert abs(mass - 1.0) < 1e-9


def test_prune_preserves_observed_path(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    for k in range(1, 9):
        pruned = prune_cf_mdp(epidemic_cf, k)
        for t in range(path.T):
            assert path.steps[t][0] in pruned.layers[t]
            assert path.steps[t][1] in pruned.actions[(path.steps[t][0], t)]


def test_prune_k_max_equals_reachable_unpruned(epidemic_demo, epidemic_cf):
    # At k = T+1 nothing is influence-pruned: the result is the forward-
    # reachable counterfactual MDP itself.
    mdp, path, _ = epidemic_demo
    T = path.T
    pruned = prune_cf_mdp(epidemic_cf, T + 1)
    reach = [{path.steps[0][0]}]
    for t in range(T - 1):
        nxt = set()
        for s in reach[t]:
            for a in available_actions(mdp, s):
                nxt.update(cf_probs(epidemic_cf, t, s, a))
        reach.append(nxt)
    for t in range(T):
        assert set(pruned.layers[t]) == reach[t]
        for s in reach[t]:
            assert set(pruned.actions[(s, t)]) == set(available_actions(mdp, s))


def test_prune_k1_node_count_is_path_length(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    pruned = prune_cf_mdp(epidemic_cf, 1)
    report = pruned_size_report(pruned)
    distinct_pairs = len({(path.steps[t][0], t) for t in range(path.T)})
    assert report.nodes_reachable == distinct_pairs == path.T


def test_size_report_monotone(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    reports = [pruned_size_report(prune_cf_mdp(epidemic_cf, k)) for k in range(1, 9)]
    for r1, r2 in zip(reports, reports[1:]):
        assert r1.nodes_reachable <= r2.nodes_reachable
        assert r1.nodes_all_layers <= r2.nodes_all_layers
        assert r1.distinct_states <= r2.distinct_states


def test_prune_empty_raises():
    # The nominal row at (s0, a) can leak onto a dead state with no actions,
    # so closure removes the only action at the initial node.
    kernel = {("s0", "a"): {"s1": 0.5, "dead": 0.5}, ("s1", "a"): {"s1": 1.0}}
    mdp = dict_mdp(("s0", "s1", "dead"), ("a",), kernel, {}, {"s0": 1.0})
    path = ObservedPath(mdp, (("s0", "a"), ("s1", "a")))
    cf = nominal_cf_mdp(mdp, path)
    with pytest.raises(EmptyPrunedMdp):
        prune_cf_mdp(cf, 1)


def test_cf_rows_look_up_each_distinct_row_once(epidemic_demo, monkeypatch):
    # Pairs with one nominal row share one counterfactual row: `_cf_rows`
    # asks for each layer's built rows in one `layer_rows` call, which
    # builds each distinct row once. Layer t keeps the nominal rows of the
    # pairs admitted at the states the previous layer's rows reach,
    # ascending, and their entries equal the per-row concatenation.
    mdp, path, _ = epidemic_demo
    cf = build_cf_mdp(build_posterior(mdp, path, 200, seed=4), mdp)
    calls, asked = Counter(), []
    layer_rows, cf_transition = CfMdp.layer_rows, cfmdp.gumbel.cf_transition

    def counted(posterior, mdp, t, p):
        calls[t, int(mdp.row_id[p])] += 1
        return cf_transition(posterior, mdp, t, p)

    def recorded(self, t, pairs):
        asked.append(t)
        return layer_rows(self, t, pairs)

    monkeypatch.setattr(cfmdp.gumbel, "cf_transition", counted)
    monkeypatch.setattr(CfMdp, "layer_rows", recorded)
    admitted = _admitted(path.T + 1, _admission_hits(mdp, path, path.T))
    rows = _cf_rows(cf, admitted)
    monkeypatch.undo()
    assert asked == list(range(path.T))
    assert max(calls.values()) == 1 and len(calls) == cf.rows_built
    assert sum(len(ids) for ids, _, _, _ in rows) == cf.rows_built
    nodes, built = {int(path.state[0])}, 0
    for t, (ids, size, succ, prob) in enumerate(rows):
        pairs = [p for p in np.flatnonzero(admitted[t]).tolist() if mdp.source[p] in nodes]
        built += len(pairs)
        assert ids.tolist() == sorted({int(mdp.row_id[p]) for p in pairs}), t
        supports = [cf_row(cf, t, int(np.flatnonzero(mdp.row_id == r)[0])) for r in ids.tolist()]
        assert size.tolist() == [len(x) for x, _ in supports], t
        assert succ.tolist() == [s for x, _ in supports for s in x.tolist()], t
        assert prob.tolist() == [q for _, y in supports for q in y.tolist()], t
        nodes = set(succ.tolist())
    assert built > cf.rows_built  # some rows are shared
