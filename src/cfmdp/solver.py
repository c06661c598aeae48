"""Optimal (k, m)-constrained counterfactual policies and rollout evaluation.

The dynamic program runs over augmented nodes (state, time, remaining action
changes). Indexing by the remaining budget r = m - changes_used makes the
table independent of the cap m, so one backward pass prices every budget
0..m at once; a sweep over m reads the answers off the initial node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InfeasibleBudget, ValidationFailed
from .gumbel import CfMdp
from .influence import PrunedCfMdp, SizeReport, prune_cf_mdp, pruned_size_report
from .mdp import Action, ObservedPath, State

NEG_INF = float("-inf")


@dataclass
class CfPolicy:
    """Action map over (state, time, changes used) with its value tables.

    `value_table[t][s]` is a vector over remaining budget r = 0..m, so the
    conventional V_t(s, j) with j changes used is entry r = m - j.
    """

    k: int
    m: int
    initial_state: State
    observed_actions: tuple[Action, ...]
    action_table: dict[tuple[State, int, int], Action]
    value_table: list[dict[State, np.ndarray]]
    v_s0: float

    def action(self, s: State, t: int, j: int) -> Action | None:
        return self.action_table.get((s, t, j))

    def value(self, s: State, t: int, j: int) -> float:
        return float(self.value_table[t][s][self.m - j])

    def initial_value(self, m: int | None = None) -> float:
        """V(s_0) under budget cap m (m <= the solved cap)."""
        m = self.m if m is None else m
        if not 0 <= m <= self.m:
            raise ValidationFailed(f"budget {m} outside solved range 0..{self.m}")
        return float(self.value_table[0][self.initial_state][m])


def _ordered_actions(pruned: PrunedCfMdp, s: State, t: int, observed: Action) -> list[Action]:
    # Observed action first so value ties resolve toward replay.
    acts = pruned.allowed_actions(s, t)
    ordered = [a for a in acts if a == observed]
    ordered.extend(a for a in acts if a != observed)
    return ordered


def solve_km(pruned: PrunedCfMdp, path: ObservedPath, m: int) -> CfPolicy:
    """Optimal policy changing at most m observed actions on the pruned MDP.

    Bellman recursion on (s, t, r): the observed action at time t costs no
    budget anywhere, any other action costs one unit. Infeasible nodes carry
    -inf and are avoided upstream; replaying the observed path is always
    feasible, so the initial node is always finite.
    """
    T = pruned.horizon
    if not 0 <= m <= T:
        raise ValidationFailed(f"budget m={m} outside 0..{T}")
    if path.steps != pruned.cf.path.steps:
        raise ValidationFailed("path does not match the one the pruned MDP was built from")
    mdp = pruned.cf.mdp

    values: list[dict[State, np.ndarray]] = [dict() for _ in range(T + 1)]
    action_table: dict[tuple[State, int, int], Action] = {}

    for t in range(T - 1, -1, -1):
        obs_a = path.action(t)
        v_next = values[t + 1]
        for s in sorted(pruned.layers[t], key=mdp.state_index):
            best = np.full(m + 1, NEG_INF)
            best_a: list[Action | None] = [None] * (m + 1)
            for a in _ordered_actions(pruned, s, t, obs_a):
                cost = 0 if a == obs_a else 1
                est = pruned.kernel(t, s, a)
                idx, probs = est.as_arrays(mdp)
                succs = [mdp.states[i] for i in idx]
                if t + 1 == T:
                    child = np.zeros((len(succs), m + 1))
                else:
                    child = np.stack([v_next[s2] for s2 in succs])
                r_reward = mdp.reward(s, a)
                for r in range(cost, m + 1):
                    q = r_reward + float(np.dot(probs, child[:, r - cost]))
                    if q > best[r]:
                        best[r] = q
                        best_a[r] = a
            values[t][s] = best
            for r in range(m + 1):
                if best_a[r] is not None:
                    action_table[(s, t, m - r)] = best_a[r]

    s0 = pruned.initial_state
    v0 = float(values[0][s0][m])
    if v0 == NEG_INF:
        raise InfeasibleBudget(f"no feasible policy at m={m}")
    return CfPolicy(
        k=pruned.k, m=m, initial_state=s0,
        observed_actions=tuple(path.action(t) for t in range(T)),
        action_table=action_table, value_table=values, v_s0=v0,
    )


def policy_to_json(policy: CfPolicy, meta: dict | None = None) -> dict:
    entries = [
        {"t": t, "s": s, "j": j, "a": a}
        for (s, t, j), a in sorted(policy.action_table.items(), key=lambda kv: (kv[0][1], kv[0][0], kv[0][2]))
    ]
    out = {"k": policy.k, "m": policy.m, "v_s0": policy.v_s0, "actions": entries}
    if meta:
        out["meta"] = meta
    return out


@dataclass
class SweepResult:
    """V(s_0) grid over (k, m) plus per-k size reports."""

    rows: list[tuple[int, int, float]]
    sizes: list[SizeReport]
    cf_rows_built: int


def sweep(cf: CfMdp, path: ObservedPath, ks: list[int], ms: list[int]) -> SweepResult:
    """Solve every (k, m) cell, reusing one posterior and one CF row cache.

    Each k is pruned once and solved once at the largest m; smaller budgets
    are read from the same table.
    """
    if not ks or not ms:
        raise ValidationFailed("sweep needs at least one k and one m")
    m_max = max(ms)
    rows: list[tuple[int, int, float]] = []
    sizes: list[SizeReport] = []
    for k in ks:
        pruned = prune_cf_mdp(cf, cf.mdp, path, k)
        sizes.append(pruned_size_report(pruned))
        policy = solve_km(pruned, path, m_max)
        for m in ms:
            rows.append((k, m, policy.initial_value(m)))
    return SweepResult(rows=rows, sizes=sizes, cf_rows_built=cf.rows_built)


def check_sweep_monotonicity(result: SweepResult) -> list[str]:
    """Violations of the two V(s_0) monotonicity properties and node growth."""
    table = {(k, m): v for k, m, v in result.rows}
    ks = sorted({k for k, _, _ in result.rows})
    ms = sorted({m for _, m, _ in result.rows})
    bad = []
    tol = 1e-9
    for k in ks:
        for m1, m2 in zip(ms, ms[1:]):
            if table[(k, m2)] < table[(k, m1)] - tol:
                bad.append(f"V(s0) decreases in m at k={k}: m={m1}->{m2}")
    for m in ms:
        for k1, k2 in zip(ks, ks[1:]):
            if table[(k2, m)] < table[(k1, m)] - tol:
                bad.append(f"V(s0) decreases in k at m={m}: k={k1}->{k2}")
    counts = {r.k: r.nodes_reachable for r in result.sizes}
    for k1, k2 in zip(ks, ks[1:]):
        if counts[k2] < counts[k1]:
            bad.append(f"node count decreases from k={k1} to k={k2}")
    return bad


@dataclass
class RolloutSummary:
    """Per-time mean and standard deviation of a state feature over rollouts."""

    times: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    n: int
    seed: int
    max_changes: int


def rollout(pruned: PrunedCfMdp, policy: CfPolicy, n: int,
            feature: Callable[[State], float], seed: int) -> RolloutSummary:
    """Sample n trajectories from the frozen CF kernels under the policy.

    Trajectories cover states s_0..s_T. Rollouts never leave the pruned node
    set and never exceed the action-change budget; both are verified on every
    trajectory because they are probability-one guarantees.
    """
    T = pruned.horizon
    mdp = pruned.cf.mdp
    feats = np.empty((n, T + 1))
    max_changes = 0
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        s = pruned.initial_state
        j = 0
        for t in range(T):
            if not pruned.allowed_node(s, t):
                raise RuntimeError(f"rollout left the pruned node set at ({s}, t={t})")
            feats[i, t] = feature(s)
            a = policy.action(s, t, j)
            if a is None or a not in pruned.allowed_actions(s, t):
                raise RuntimeError(f"policy undefined or disallowed at ({s}, t={t}, j={j})")
            if a != policy.observed_actions[t]:
                j += 1
            idx, probs = pruned.kernel(t, s, a).as_arrays(mdp)
            pos = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right").clip(0, len(idx) - 1))
            s = mdp.states[idx[pos]]
        feats[i, T] = feature(s)
        if j > policy.m:
            raise RuntimeError(f"rollout exceeded budget: {j} > {policy.m}")
        max_changes = max(max_changes, j)
    return RolloutSummary(
        times=np.arange(T + 1),
        means=feats.mean(axis=0),
        stds=feats.std(axis=0, ddof=0),
        n=n, seed=seed, max_changes=max_changes,
    )
