import copy
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import cfmdp.gumbel
from cfmdp.environments import PRESETS, build_gridworld, demo_observation
from cfmdp.errors import ValidationFailed, ZeroProbabilityObservation
from cfmdp.gumbel import (
    FILL_ROWS,
    CfMdp,
    _gumbel,
    _prior_layer,
    _step_rng,
    build_cf_mdp,
    GumbelPosterior,
    build_posterior,
    cf_transition,
    load_posterior,
    nominal_cf_mdp,
    save_posterior,
    topdown_noise,
)
from cfmdp.influence import prune_cf_mdp
from cfmdp.mdp import Mdp, ObservedPath, sample_path
from cfmdp.solver import sweep

from oracles import (
    available_actions,
    categorical_frequencies,
    cf_probs,
    cf_transition_oracle,
    cf_transition_probs,
    dict_mdp,
    gumbel_max_step,
    gumbel_oracle,
    kernel_row,
    pair_of,
    position_oracle,
    prior_posterior,
    random_mdp,
    rejection_noise,
    rejection_posterior,
    topdown_noise_oracle,
    tv_distance,
)


def row_mdp(probs: dict, extra_rows: dict | None = None) -> Mdp:
    states = tuple(sorted({"s"} | set(probs) | {s2 for row in (extra_rows or {}).values() for s2 in row}))
    kernel = {("s", "a"): dict(probs)}
    for (s, a), row in (extra_rows or {}).items():
        kernel[(s, a)] = dict(row)
    actions = tuple(sorted({a for _, a in kernel}))
    return dict_mdp(states, actions, kernel, {}, {"s": 1.0})


def observed(mdp: Mdp, s, a, s_next) -> tuple[int, int]:
    """(pair, position) of the transition s -a-> s_next; position -1 off the row."""
    p = pair_of(mdp, s, a)
    return p, position_oracle(mdp, p, s_next)


def mechanism_frequencies(mdp, s, a, n, seed):
    rng = np.random.default_rng(seed)
    noise = rng.gumbel(size=(n, mdp.num_states))
    counts = {}
    idx, _, logp = mdp.row(pair_of(mdp, s, a))
    wins = np.argmax(logp[None, :] + noise[:, idx], axis=1)
    for pos, c in zip(*np.unique(wins, return_counts=True)):
        counts[mdp.states[idx[pos]]] = c / n
    return counts


def test_gumbel_max_deterministic_row():
    mdp = row_mdp({"x1": 1.0})
    g = np.random.default_rng(0).gumbel(size=mdp.num_states)
    assert gumbel_max_step(mdp, "s", "a", g) == "x1"


def test_gumbel_max_uniform_row_frequencies():
    mdp = row_mdp({"x1": 0.5, "x2": 0.5})
    freqs = mechanism_frequencies(mdp, "s", "a", 100_000, seed=1)
    assert abs(freqs["x1"] - 0.5) < 0.01
    assert abs(freqs["x2"] - 0.5) < 0.01


def test_gumbel_max_matches_categorical_oracle():
    probs = {"x1": 0.9, "x2": 0.1}
    mdp = row_mdp(probs)
    n = 1_000_000
    freqs = mechanism_frequencies(mdp, "s", "a", n, seed=2)
    oracle = categorical_frequencies(probs, n, seed=3)
    for k in probs:
        assert abs(freqs[k] - probs[k]) < 0.005
        assert abs(freqs[k] - oracle[k]) < 0.005


def test_rejection_deterministic_acceptance():
    mdp = row_mdp({"x1": 1.0})
    samples, attempts = rejection_noise(mdp, *observed(mdp, "s", "a", "x1"), 1000, np.random.default_rng(0))
    assert samples.shape[0] == 1000
    assert attempts == 1000  # acceptance rate exactly 1


def test_rejection_acceptance_rate_matches_probability():
    mdp = row_mdp({"x1": 0.9, "x2": 0.1})
    n = 10_000
    samples, attempts = rejection_noise(mdp, *observed(mdp, "s", "a", "x2"), n, np.random.default_rng(4))
    rate = n / attempts
    assert abs(rate - 0.1) < 0.01
    # Every accepted vector replays the observation.
    for g in samples[:100]:
        assert gumbel_max_step(mdp, "s", "a", g) == "x2"


def test_rejection_zero_probability_errors():
    mdp = row_mdp({"x1": 0.9, "x2": 0.1}, extra_rows={("x1", "a"): {"x1": 1.0}})
    with pytest.raises(ZeroProbabilityObservation):
        rejection_noise(mdp, *observed(mdp, "s", "a", "s"), 10, np.random.default_rng(0))
    with pytest.raises(ZeroProbabilityObservation):
        topdown_noise(mdp, *observed(mdp, "s", "a", "s"), 10, np.random.default_rng(0))
    for pos in (-1, 2):  # the row of (s, a) has positions 0 and 1
        with pytest.raises(ZeroProbabilityObservation, match=f"position {pos} is outside"):
            topdown_noise(mdp, pair_of(mdp, "s", "a"), pos, 10, np.random.default_rng(0))


def test_topdown_always_replays():
    mdp = row_mdp({"x1": 0.5, "x2": 0.4, "x3": 0.1})
    samples = topdown_noise(mdp, *observed(mdp, "s", "a", "x3"), 5000, np.random.default_rng(5))
    idx, _, logp = mdp.row(pair_of(mdp, "s", "a"))
    wins = np.argmax(logp[None, :] + samples[:, idx], axis=1)
    assert np.all(idx[wins] == mdp.states.index("x3"))


def test_topdown_matches_rejection_downstream():
    # Same conditioning, both samplers, compared through the counterfactual row
    # of a different action at the same step.
    probs = {"x1": 0.5, "x2": 0.4, "x3": 0.1}
    other = {("s", "b"): {"x1": 0.3, "x2": 0.3, "x3": 0.4}}
    mdp = row_mdp(probs, extra_rows=other)
    n = 100_000
    top = topdown_noise(mdp, *observed(mdp, "s", "a", "x3"), n, np.random.default_rng(6))
    rej, _ = rejection_noise(mdp, *observed(mdp, "s", "a", "x3"), n, np.random.default_rng(7))
    idx, _, logp = mdp.row(pair_of(mdp, "s", "b"))

    def row_freqs(noise):
        wins = np.argmax(logp[None, :] + noise[:, idx], axis=1)
        counts = np.bincount(wins, minlength=len(idx))
        return {mdp.states[idx[i]]: counts[i] / noise.shape[0] for i in range(len(idx))}

    assert tv_distance(row_freqs(top), row_freqs(rej)) < 0.02


def test_topdown_off_support_marginal_is_prior():
    # The observed row never reaches "z"; its posterior must equal the prior.
    mdp = row_mdp({"x1": 0.7, "x2": 0.3}, extra_rows={("z", "a"): {"z": 1.0}})
    samples = topdown_noise(mdp, *observed(mdp, "s", "a", "x2"), 100_000, np.random.default_rng(8))
    z_col = samples[:, mdp.states.index("z")]
    ks = stats.kstest(z_col, stats.gumbel_r.cdf)
    assert ks.statistic < 0.01


def test_build_posterior_replays_and_final_step_prior(tinychain):
    path = ObservedPath(tinychain, (("x0", "a"), ("x1", "a"), ("x1", "a")))
    post = build_posterior(tinychain, path, 500, seed=1)
    assert post.T == 3
    # Conditioned steps replay exactly.
    for t in range(2):
        est = cf_transition_probs(post, tinychain, t, path.steps[t][0], path.steps[t][1])
        assert est == {path.steps[t + 1][0]: 1.0}
    # The final step carries prior noise: its cf row tracks the nominal row.
    est = cf_transition_probs(post, tinychain, 2, "x0", "a")
    assert tv_distance(est, kernel_row(tinychain, "x0", "a")) < 0.1


def test_build_posterior_single_step_is_prior(tinychain):
    path = ObservedPath(tinychain, (("x0", "a"),))
    post = build_posterior(tinychain, path, 20_000, seed=2)
    est = cf_transition_probs(post, tinychain, 0, "x0", "a")
    assert tv_distance(est, {"x1": 0.9, "x2": 0.1}) < 0.02


def test_build_posterior_steps_independent(tinychain):
    path = ObservedPath(tinychain, (("x0", "a"), ("x1", "a"), ("x1", "a")))
    post = build_posterior(tinychain, path, 10_000, seed=9)
    for s in tinychain.states:
        i = tinychain.states.index(s)
        for t1, t2 in ((0, 1), (0, 2), (1, 2)):
            corr = np.corrcoef(post.noise[t1][:, i], post.noise[t2][:, i])[0, 1]
            assert abs(corr) < 0.02


def test_cf_transition_tinychain_analytic(tinychain):
    # Conditioning (x0, a) on the 0.1 outcome x2 forces the counterfactual of
    # action b to x2 with probability exactly 1 (G_x2 - G_x1 > log 9).
    path = ObservedPath(tinychain, (("x0", "a"), ("x2", "a")))
    post = build_posterior(tinychain, path, 5000, seed=4)
    est = cf_transition_probs(post, tinychain, 0, "x0", "b")
    assert est == {"x2": 1.0}
    rej = rejection_posterior(tinychain, path, 100_000, seed=5)
    est_rej = cf_transition_probs(rej, tinychain, 0, "x0", "b")
    assert est_rej == {"x2": 1.0}


# Hand-made noise layers (samples x states s, x1, x2, x3) for the row of
# (s, a), where x1 and x2 have one log probability, so equal noise ties them
# exactly: each with the row the argmax gives, the first maximum winning a
# tie and the first NaN winning over any number.
TIED_LAYERS = {
    "ties": ([[0, 0, 0, -9], [0, 0, 0, -9], [0, 0, -9, 5]], {"x1": 2 / 3, "x3": 1 / 3}),
    "nan": ([[0, 0, 0, -9], [0, 9, np.nan, 0], [0, 0, -9, 5]], {"x1": 1 / 3, "x2": 1 / 3,
                                                                 "x3": 1 / 3}),
    # One tie (two maxima) and one NaN sample (no maximum): the counts sum to N.
    "tie-and-nan": ([[0, 0, 0, -9], [0, np.nan, 0, 0], [0, 0, -9, 5]], {"x1": 2 / 3,
                                                                        "x3": 1 / 3}),
}


@pytest.mark.parametrize("case", sorted(TIED_LAYERS))
@pytest.mark.parametrize("order", ["F", "C"])
def test_cf_transition_breaks_ties_and_nans_as_the_argmax(case, order):
    mdp = row_mdp({"x1": 0.25, "x2": 0.25, "x3": 0.5})
    path = ObservedPath(mdp, [("s", "a")])
    layer, want = TIED_LAYERS[case]
    layer = np.array(layer, dtype=np.float64, order=order)
    posterior = GumbelPosterior((layer,), len(layer), 0, path)
    p = pair_of(mdp, "s", "a")
    got = cf_transition(posterior, mdp, 0, p)
    assert {mdp.states[i]: x for i, x in zip(got[0].tolist(), got[1].tolist())} == want
    assert [a.tobytes() for a in got] == [
        b.tobytes() for b in cf_transition_oracle(posterior, mdp, 0, p)]


def test_cf_transition_disjoint_support_is_interventional():
    # Proposition check: disjoint-support query tracks the nominal row.
    kernel = {
        ("s", "a"): {"x1": 0.6, "x2": 0.4},
        ("s", "b"): {"y1": 0.2, "y2": 0.5, "y3": 0.3},
    }
    # pad rows so the path validates
    kernel[("x2", "a")] = {"x2": 1.0}
    states = ("s", "x1", "x2", "y1", "y2", "y3")
    mdp = dict_mdp(states, ("a", "b"), kernel, {}, {"s": 1.0})
    path = ObservedPath(mdp, (("s", "a"), ("x2", "a")))
    post = build_posterior(mdp, path, 100_000, seed=6)
    est = cf_transition_probs(post, mdp, 0, "s", "b")
    nominal = kernel[("s", "b")]
    assert tv_distance(est, nominal) < 0.02
    assert tv_distance(est, nominal) < 3.0 * np.sqrt(len(nominal) / 100_000)


def test_cf_support_containment():
    rng = np.random.default_rng(9)
    mdp = random_mdp(rng, 5, 2, support_max=3)
    path = sample_path(mdp, lambda s, t: "a0", 3, seed=1)
    post = build_posterior(mdp, path, 2000, seed=2)
    for t in range(3):
        for s in mdp.states:
            for a in available_actions(mdp, s):
                est = cf_transition_probs(post, mdp, t, s, a)
                assert set(est) <= set(kernel_row(mdp, s, a))
                assert abs(sum(est.values()) - 1.0) < 1e-9


def test_counterfactual_stability_on_samples(tinychain):
    # If an intervention flips the outcome away from the observation, it must
    # have raised that outcome's relative probability.
    rng = np.random.default_rng(10)
    path = ObservedPath(tinychain, (("x0", "a"), ("x2", "a")))
    post = build_posterior(tinychain, path, 2000, seed=11)
    obs_row = kernel_row(tinychain, "x0", "a")
    noise = post.noise[0]
    for _ in range(200):
        raw = rng.uniform(0.05, 1.0, size=2)
        p_int = dict(zip(("x1", "x2"), raw / raw.sum()))
        inter = dict_mdp(tinychain.states, ("q",), {("x0", "q"): p_int}, {}, {"x0": 1.0})
        idx, _, logp = inter.row(pair_of(inter, "x0", "q"))
        wins = np.argmax(logp[None, :] + noise[:, idx], axis=1)
        for pos in np.unique(wins):
            s2 = inter.states[idx[pos]]
            if s2 == "x2":
                continue
            assert p_int[s2] / obs_row[s2] > p_int["x2"] / obs_row["x2"]


def test_cf_mdp_layers_and_replay(epidemic_demo, epidemic_cf):
    mdp, path, _ = epidemic_demo
    cf = epidemic_cf
    assert cf.horizon == path.T
    # Replaying the observed actions reproduces the observed path w.p. 1.
    s = path.steps[0][0]
    for t in range(path.T - 1):
        est = cf_probs(cf, t, s, path.steps[t][1])
        assert est == {path.steps[t + 1][0]: 1.0}
        s = path.steps[t + 1][0]


def test_cf_mdp_fig2_counterfactual_edge(fig2_toy):
    # The full CF MDP keeps the counterfactual branch s3 -> s5 under a0 open.
    mdp, path = fig2_toy
    post = build_posterior(mdp, path, 500, seed=12)
    cf = build_cf_mdp(post, mdp)
    est = cf_probs(cf, 1, "s3", "a0")
    assert est.get("s5", 0.0) > 0.0


def test_nominal_cf_mdp_rows_exact(fig2_toy):
    mdp, path = fig2_toy
    cf = nominal_cf_mdp(mdp, path)
    assert cf_probs(cf, 0, "s0", "a0") == {"s2": 0.5, "s3": 0.5}


def test_prior_posterior_matches_nominal(tinychain):
    path = ObservedPath(tinychain, (("x0", "a"), ("x2", "a")))
    post = prior_posterior(tinychain, path, 50_000, seed=13)
    est = cf_transition_probs(post, tinychain, 0, "x0", "a")
    assert tv_distance(est, kernel_row(tinychain, "x0", "a")) < 0.02


@pytest.mark.parametrize("source", ["posterior", "nominal", "stored"])
def test_cf_row_refuses_a_time_outside_the_horizon_fresh_or_warm(fig2_toy, source):
    # `layer_rows` checks t on every call, whichever source builds the rows:
    # a posterior, the nominal table, or a pruned artifact's stored rows,
    # here every row of a prune at k = T+1.
    mdp, path = fig2_toy
    posterior = build_posterior(mdp, path, 50, seed=3)
    stored = prune_cf_mdp(CfMdp(mdp, path, posterior), path.T + 1).rows
    cf = CfMdp(mdp, path, posterior if source == "posterior" else None,
               stored if source == "stored" else ())
    pairs = np.arange(len(mdp.source))
    for t in (-1, path.T):
        for p in pairs:
            with pytest.raises(ValidationFailed) as exc:
                cf.layer_rows(t, pairs[p:p + 1])
            assert str(exc.value) == f"time {t} outside horizon {path.T}", (t, p)


@pytest.mark.parametrize("pair", [("s0", "a0"), ("s2", "a0")], ids=["two-successor", "one-successor"])
def test_cf_transition_refuses_a_time_outside_the_horizon(fig2_toy, pair):
    # Below 0 as above T-1: a one-successor row, which reads no noise, is
    # refused as a row that reads the layers is, with the same message.
    mdp, path = fig2_toy
    posterior = build_posterior(mdp, path, 100, seed=3)
    for t in (-1, path.T):
        with pytest.raises(ValidationFailed) as exc:
            cf_transition(posterior, mdp, t, pair_of(mdp, *pair))
        assert str(exc.value) == f"time {t} outside posterior horizon {path.T}"


def test_posterior_save_load_round_trip(tmp_path, tinychain):
    path = ObservedPath(tinychain, (("x0", "a"), ("x2", "a")))
    post = build_posterior(tinychain, path, 100, seed=14)
    file = tmp_path / "posterior.json"
    save_posterior(post, file)
    loaded = load_posterior(file, tinychain)
    assert loaded.n == post.n and loaded.seed == post.seed
    assert loaded.path.steps == post.path.steps
    for t in range(post.T):
        np.testing.assert_array_equal(loaded.noise[t], post.noise[t])


def test_loaded_posterior_layers_replay_the_path(tmp_path, epidemic_demo):
    # A loaded posterior draws its layers; it holds no stored noise that
    # could skip the replay check.
    mdp, path, _ = epidemic_demo
    file = tmp_path / "posterior.json"
    save_posterior(build_posterior(mdp, path, 300, seed=15), file)
    loaded = load_posterior(file, mdp)
    for t in range(path.T - 1):
        idx, _, logp = mdp.row(int(path.pair[t]))
        winners = np.argmax(logp[None, :] + loaded.noise[t][:, idx], axis=1)
        assert (idx[winners] == path.state[t + 1]).all(), t


def test_build_posterior_rejects_empty_sample(tinychain):
    path = ObservedPath(tinychain, (("x0", "a"), ("x2", "a")))
    with pytest.raises(ValidationFailed, match="sample count"):
        build_posterior(tinychain, path, 0, seed=0)


def test_cf_mdp_rejects_mismatched_posterior(tinychain):
    path = ObservedPath(tinychain, (("x0", "a"), ("x2", "a")))
    other = ObservedPath(tinychain, (("x0", "a"), ("x1", "a")))
    post = build_posterior(tinychain, path, 50, seed=0)
    with pytest.raises(ValidationFailed):
        CfMdp(tinychain, other, post)
    other_mdp = row_mdp({"x1": 0.5, "x2": 0.5})
    with pytest.raises(ValidationFailed):
        build_cf_mdp(post, other_mdp)


def test_path_of_another_mdp_is_rejected():
    # A path holds pair and position indices of the MDP it was built against.
    # Slip gives the grid world's pairs other rows, so the positions of the
    # default grid world mean other successors there, and each consumer refuses.
    mdp, path, _ = demo_observation("gridworld")
    other = build_gridworld(slip=0.2)
    assert other.digest != mdp.digest
    for use in (lambda: build_posterior(other, path, 10), lambda: nominal_cf_mdp(other, path),
                lambda: CfMdp(other, path, None)):
        with pytest.raises(ValidationFailed, match="path was built against a different MDP"):
            use()


@pytest.mark.parametrize("sampler", ["topdown", "rejection"])
def test_layers_drawn_on_access_equal_an_eager_draw(tinychain, sampler):
    # Each step draws from its own stream, so layers read in any order, and
    # read again after another layer, equal the layers drawn up front in
    # ascending t: conditioned steps 0 and 1, and the prior at the final step.
    # Every layer is column-major and read-only.
    path = ObservedPath(tinychain, (("x0", "a"), ("x2", "a"), ("x2", "a")))
    n, seed = 300, 21
    eager = []
    for t in range(path.T - 1):
        p, pos = int(path.pair[t]), int(path.next_pos[t])
        if sampler == "topdown":
            eager.append(topdown_noise(tinychain, p, pos, n, _step_rng(seed, t)))
        else:
            eager.append(rejection_noise(tinychain, p, pos, n, _step_rng(seed, t))[0])
    eager.append(gumbel_oracle(_step_rng(seed, path.T - 1), (n, tinychain.num_states)))
    post = {"topdown": build_posterior, "rejection": rejection_posterior}[sampler](
        tinychain, path, n, seed=seed)
    assert len(post.noise) == post.T == 3
    for t in (2, 0, 1, 0, 2):
        assert post.noise[t].tobytes() == eager[t].tobytes(), t
        assert post.noise[t].flags.f_contiguous and not post.noise[t].flags.writeable
    with pytest.raises(IndexError):
        post.noise[3]


def test_sweep_draws_each_layer_at_most_once(epidemic_demo, layer_draws):
    mdp, path, _ = epidemic_demo
    cf = build_cf_mdp(build_posterior(mdp, path, 200, seed=3), mdp)
    result = sweep(cf, list(range(1, path.T + 2)), list(range(path.T + 1)))
    assert result.cf_rows_built > 0
    assert layer_draws and max(layer_draws.values()) == 1


def test_sweep_holds_one_layer_at_a_time():
    # The dense noise tensor would be T = 11 layers; the sweep may hold one
    # layer plus the per-row temporaries, well under three layers. A slippery
    # grid world, so that the counterfactual rows read the noise.
    mdp = build_gridworld(slip=0.2)
    _, policy, seed, horizon = PRESETS["gridworld"]
    path = sample_path(mdp, policy, horizon, seed)
    n = 10_000
    layer_bytes = n * mdp.num_states * 8
    assert path.T == 11
    tracemalloc.start()
    try:
        cf = build_cf_mdp(build_posterior(mdp, path, n, seed=5), mdp)
        sweep(cf, list(range(1, path.T + 2)), [1, 2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * layer_bytes, (peak, layer_bytes)


def assert_numpys_gumbel_within_one_ulp(rng: np.random.Generator, shape):
    # `_gumbel` computes numpy's formula with numpy's vectorised log, which
    # may round the last bit otherwise than the C library's log that
    # `rng.gumbel` calls; it reads the same uniforms and stops where it does.
    ours, numpys = copy.deepcopy(rng), copy.deepcopy(rng)
    g, expected = _gumbel(ours, shape), numpys.gumbel(size=shape)
    assert g.shape == expected.shape
    assert np.all(np.abs(g - expected) <= np.spacing(np.maximum(np.abs(expected), 1.0)))
    assert ours.random() == numpys.random()
    return g


@pytest.mark.parametrize("shape", [(1,), (15, 37), (1000, 648)], ids=["1", "15x37", "1000x648"])
def test_gumbel_draw_is_numpys_within_one_ulp(shape):
    for seed in (0, 5, 11, 2024):
        assert_numpys_gumbel_within_one_ulp(np.random.default_rng(seed), shape)


def test_gumbel_draw_redraws_a_uniform_of_zero():
    # A PCG64 generator whose next 64-bit output, hence next double, is 0:
    # the state it steps to has equal halves, whose XSL-RR output is 0.
    # numpy's gumbel draws again in place of that uniform (else -log(-log(1))
    # is +inf), and so must `_gumbel`.
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    x = 0x0123456789ABCDEF
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    state["state"]["state"] = (((x << 64) | x) - inc) * pow(mult, -1, 2**128) % 2**128
    rng.bit_generator.state = state
    assert copy.deepcopy(rng).random() == 0.0
    g = assert_numpys_gumbel_within_one_ulp(rng, (3, 4))
    assert np.isfinite(g).all()


@pytest.mark.parametrize("rows", [16, FILL_ROWS])
@pytest.mark.parametrize("n", [1, 15, 17, 1000])
def test_prior_layer_equals_one_row_major_draw(n, rows, monkeypatch):
    # Filled a block of rows at a time, the column-major layer holds the
    # values of one row-major draw and leaves the stream where it would.
    # The oracle is that draw: one `rng.random` stream, transformed at once.
    monkeypatch.setattr(cfmdp.gumbel, "FILL_ROWS", rows)
    filled, plain = np.random.default_rng(5), np.random.default_rng(5)
    layer = _prior_layer(filled, n, 37)
    assert layer.flags.f_contiguous and layer.shape == (n, 37)
    assert np.array_equal(layer, gumbel_oracle(plain, (n, 37)))
    assert filled.random() == plain.random()


@pytest.mark.parametrize("n", [1, 15, 17, 1000])
def test_posterior_layers_are_column_major_and_equal_row_major_draws(epidemic_demo, n):
    # Every layer is F-contiguous and read-only; the conditioned layers equal
    # the row-major top-down draw, and the final layer a plain prior draw.
    mdp, path, _ = epidemic_demo
    post = build_posterior(mdp, path, n, seed=11)
    for t in range(path.T):
        layer = post.noise[t]
        assert layer.flags.f_contiguous and not layer.flags.writeable, t
        rng = _step_rng(11, t)
        if t == path.T - 1:
            expected = gumbel_oracle(rng, (n, mdp.num_states))
        else:
            expected = topdown_noise_oracle(mdp, int(path.pair[t]), int(path.next_pos[t]), n, rng)
        assert np.array_equal(layer, expected), t
