"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the package's dynamic-programming and
sampling code paths: values are recomputed by exhaustive recursion, literal
policy enumeration, or direct categorical sampling, so agreement is evidence
rather than tautology.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from cfmdp.gumbel import cf_transition
from cfmdp.influence import PrunedCfMdp
from cfmdp.mdp import Mdp, ObservedPath


def tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def categorical_frequencies(probs: dict, n: int, seed: int) -> dict:
    """Direct categorical sampling, the oracle the Gumbel-max trick must match."""
    rng = np.random.default_rng(seed)
    keys = sorted(probs)
    draws = rng.choice(len(keys), size=n, p=[probs[k] for k in keys])
    counts = np.bincount(draws, minlength=len(keys))
    return {k: counts[i] / n for i, k in enumerate(keys)}


def exhaustive_value(mdp: Mdp, horizon: int) -> float:
    """Optimal finite-horizon value by plain recursion over all action choices.

    No memoization and no shared tables: every subtree is re-enumerated, which
    is exhaustive search over policy trees (max distributes over the
    expectation of independent subtrees).
    """
    init = [(s, p) for s, p in mdp.initial.items() if p > 0]

    def value(s, t):
        if t == horizon:
            return 0.0
        best = None
        for a in mdp.available_actions(s):
            q = mdp.reward(s, a)
            for s2, p in mdp.kernel[(s, a)].items():
                q += p * value(s2, t + 1)
            if best is None or q > best:
                best = q
        return 0.0 if best is None else best

    return sum(p * value(s, 0) for s, p in init)


def enumerated_policy_value(mdp: Mdp, horizon: int) -> float:
    """Literal enumeration of every time-dependent deterministic policy.

    Exponential; only usable on very small instances. Cross-checks
    exhaustive_value.
    """
    nodes = [(s, t) for t in range(horizon) for s in mdp.states if mdp.available_actions(s)]
    choices = [mdp.available_actions(s) for s, t in nodes]
    best = None
    for picks in product(*choices):
        table = dict(zip(nodes, picks))

        def policy_value(s, t):
            if t == horizon or (s, t) not in table:
                return 0.0
            a = table[(s, t)]
            return mdp.reward(s, a) + sum(
                p * policy_value(s2, t + 1) for s2, p in mdp.kernel[(s, a)].items()
            )

        v = sum(p * policy_value(s, 0) for s, p in mdp.initial.items() if p > 0)
        if best is None or v > best:
            best = v
    return best


def km_value_oracle(pruned: PrunedCfMdp, path: ObservedPath, m: int) -> float:
    """Budgeted counterfactual value by exhaustive recursion on the pruned MDP.

    Enumerates every budget-feasible, pruning-respecting action assignment via
    the recursion tree, consuming the same frozen kernel estimates as the
    solver. Arithmetic mirrors the solver's inner product exactly (same
    successor ordering, same np.dot over a column of a (successors, m+1)
    array) so agreement can be exact: np.dot can round a strided column
    differently from a contiguous array once a row has four or more entries.
    """
    T = pruned.horizon
    cf = pruned.cf
    mdp = cf.mdp

    def value(s, t, r):
        if t == T:
            return 0.0
        obs = path.action(t)
        acts = pruned.actions.get((s, t), ())
        ordered = [a for a in acts if a == obs] + [a for a in acts if a != obs]
        best = float("-inf")
        for a in ordered:
            cost = 0 if a == obs else 1
            if cost > r:
                continue
            idx, probs = cf.row(t, mdp.pair(s, a))
            child = np.zeros((len(idx), m + 1))
            child[:, r - cost] = [value(mdp.states[i], t + 1, r - cost) for i in idx]
            q = mdp.reward(s, a) + float(np.dot(probs, child[:, r - cost]))
            if q > best:
                best = q
        return best

    return value(cf.initial_state, 0, m)


def cf_transition_probs(posterior, mdp: Mdp, t: int, s, a) -> dict:
    """`cf_transition`'s row of (s, a) at time t, by label."""
    idx, probs = cf_transition(posterior, mdp, t, mdp.pair(s, a))
    return {mdp.states[i]: p for i, p in zip(idx.tolist(), probs.tolist())}


def random_mdp(rng: np.random.Generator, n_states: int, n_actions: int,
               min_prob: float = 0.05, reward_scale: float = 1.0,
               support_max: int | None = None) -> Mdp:
    """Random dense-ish MDP with bounded-away-from-zero probabilities."""
    states = tuple(f"x{i}" for i in range(n_states))
    actions = tuple(f"a{j}" for j in range(n_actions))
    kernel = {}
    rewards = {}
    for s in states:
        for a in actions:
            size = int(rng.integers(1, (support_max or n_states) + 1))
            targets = rng.choice(n_states, size=size, replace=False)
            raw = rng.uniform(min_prob, 1.0, size=size)
            raw = raw / raw.sum()
            # Re-floor and renormalize so every support probability is usable
            # by the rejection sampler.
            raw = np.maximum(raw, min_prob)
            raw = raw / raw.sum()
            kernel[(s, a)] = {states[int(i)]: float(p) for i, p in zip(targets, raw)}
            rewards[(s, a)] = float(rng.uniform(-reward_scale, reward_scale))
    return Mdp(states, actions, kernel, rewards, {states[0]: 1.0}, name="random")
