from collections import Counter
from dataclasses import replace

import pytest

import cfmdp.gumbel
from cfmdp.environments import demo_observation
from cfmdp.gumbel import build_cf_mdp, build_posterior
from cfmdp.mdp import ObservedPath

from oracles import dict_mdp


@pytest.fixture(scope="session")
def fig2_toy():
    """The worked toy example: a0 is stochastic at s0, a1 deterministic.

    Observed path s0 -> s2 -> s5 (-> s8) of length 3.
    """
    kernel = {
        ("s0", "a0"): {"s2": 0.5, "s3": 0.5},
        ("s0", "a1"): {"s1": 1.0},
        ("s1", "a0"): {"s4": 1.0},
        ("s2", "a0"): {"s5": 1.0},
        ("s3", "a0"): {"s5": 1.0},
        ("s3", "a1"): {"s6": 1.0},
        ("s4", "a0"): {"s8": 1.0},
        ("s5", "a0"): {"s8": 1.0},
        ("s6", "a0"): {"s8": 1.0},
        ("s8", "a0"): {"s8": 1.0},
    }
    states = ("s0", "s1", "s2", "s3", "s4", "s5", "s6", "s8")
    mdp = dict_mdp(states, ("a0", "a1"), kernel, {}, {"s0": 1.0}, name="fig2toy")
    path = ObservedPath(mdp, (("s0", "a0"), ("s2", "a0"), ("s5", "a0")))
    return mdp, path


@pytest.fixture(scope="session")
def tinychain():
    """Two actions with mirrored 0.9/0.1 rows; conditioning on the rare outcome
    of one action forces the other action's counterfactual to the same state."""
    kernel = {
        ("x0", "a"): {"x1": 0.9, "x2": 0.1},
        ("x0", "b"): {"x1": 0.1, "x2": 0.9},
        ("x1", "a"): {"x1": 1.0},
        ("x2", "a"): {"x2": 1.0},
    }
    return dict_mdp(("x0", "x1", "x2"), ("a", "b"), kernel, {}, {"x0": 1.0}, name="tinychain")


@pytest.fixture(scope="session")
def epidemic_demo():
    return demo_observation("epidemic")


@pytest.fixture(scope="session")
def epidemic_cf(epidemic_demo):
    """The demo's counterfactual MDP, on a posterior that holds its T noise
    layers (7 x 11 MB), drawn once: `layer_rows` keeps no rows, so every
    prune of this shared CfMdp builds its rows again, and a posterior that
    holds one layer would draw each layer again for it."""
    mdp, path, _ = epidemic_demo
    posterior = build_posterior(mdp, path, 1000, seed=7)
    return build_cf_mdp(replace(posterior, noise=tuple(posterior.noise)), mdp)


@pytest.fixture
def layer_draws(monkeypatch):
    """Counts, per step t, the calls to the noise layer maker
    `cfmdp.gumbel._draw_layer` made while the test runs."""
    calls, draw = Counter(), cfmdp.gumbel._draw_layer

    def counted(*args):
        calls[args[-1]] += 1
        return draw(*args)

    monkeypatch.setattr(cfmdp.gumbel, "_draw_layer", counted)
    return calls
