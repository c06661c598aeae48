"""Independent reference implementations used to pin expected values, and
the label views of an MDP that only tests read.

Everything here deliberately avoids the package's dynamic-programming and
sampling code paths: values are recomputed by exhaustive recursion, literal
policy enumeration, or direct categorical sampling, so agreement is evidence
rather than tautology.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, product

import numpy as np

from cfmdp.environments import (
    DANGER_CELL, DANGER_PENALTY, GOAL_CELL, GOAL_REWARD, GRID_SIZE, HIGH, LOW, MDP_NAMES, MOVES, NIL,
    NORMAL, REWARD_SCALE, SHAPING_SCALE, START_CELL, START_VITALS, TREATMENTS, V_I, V_S, _PERP,
    _action_label, _cell_label, _dist_to_goal, _epi_label, _hypergeom_pmf, _sepsis_label,
    epidemic_counts)
from cfmdp.errors import (InfeasibleBudget, InvalidConfig, InvariantViolated,
                          UndefinedPolicyAction, ValidationFailed)
from cfmdp.gumbel import (CfMdp, GumbelPosterior, _conditioned_row, _Layers, _prior_layer,
                          _step_rng, cf_transition)
from cfmdp.influence import PrunedCfMdp
from cfmdp.mdp import Action, Mdp, ObservedPath, State
from cfmdp.solver import NEG_INF, CfPolicy, RolloutSummary


# -- label views of an MDP ------------------------------------------------------

def dict_mdp(states, actions, kernel: dict, rewards: dict, initial: dict,
                   name: str = "") -> Mdp:
    """The MDP of label dicts, one table row per pair, through `Mdp.from_arrays`:
    `kernel` {(s, a): {s2: P(s2|s,a)}}, `rewards` {(s, a): R(s, a)} (0.0
    where none is given; a reward of a pair without a row is ignored) and
    `initial` {s: P(s_0 = s)}. An unknown label becomes index -1, and a
    duplicated label names its last index."""
    sidx, aidx = ({x: i for i, x in enumerate(labels)} for labels in (states, actions))
    rows = list(kernel.values())
    return Mdp.from_arrays(states, actions, [sidx.get(s, -1) for s, _ in kernel],
                           [aidx.get(a, -1) for _, a in kernel],
                           [rewards.get(key, 0.0) for key in kernel], range(len(rows)),
                           [r for r, row in enumerate(rows) for _ in row],
                           [sidx.get(x, -1) for row in rows for x in row],
                           [p for row in rows for p in row.values()],
                           [sidx.get(s, -1) for s in initial], list(initial.values()), name=name)


def mdp_to_json_oracle(mdp: Mdp) -> dict:
    """The MDP as a JSON object of label dicts, as `mdp_to_json` wrote it
    before `mdp.json` took the core's indexing: one Python sort of (state,
    action, pair) tuples orders transitions and rewards, one reward per row.
    `label_form` of the file `mdp_to_json` writes must equal it."""
    states, actions = mdp.states, mdp.actions
    reward = mdp.reward.tolist()
    pairs = sorted((states[s], actions[a], p)
                   for p, (s, a) in enumerate(zip(mdp.source.tolist(), mdp.action.tolist())))
    transitions = [
        {"s": s, "a": a, "to": {states[i]: x for i, x in
                                zip(*(col.tolist() for col in mdp.row(p)[:2]))}}
        for s, a, p in pairs
    ]
    start = np.flatnonzero(mdp.initial).tolist()
    return {
        "name": mdp.name,
        "states": list(states),
        "actions": list(actions),
        "transitions": transitions,
        "rewards": [{"s": s, "a": a, "r": reward[p]} for s, a, p in pairs],
        "initial": {states[i]: x for i, x in zip(start, mdp.initial[start].tolist())},
    }


def table_rows(columns: dict) -> list:
    """The rows of row-table columns {"size", "succ", "prob"} (`mdp.json`'s
    rows), each as [successors, probabilities], read in pure Python."""
    rows, lo = [], 0
    for size in columns["size"]:
        rows.append([columns["succ"][lo:lo + size], columns["prob"][lo:lo + size]])
        lo += size
    return rows


def row_columns(rows: list) -> dict:
    """The row-table columns of rows given as [successors, probabilities]."""
    return {"size": [len(succ) for succ, _ in rows], "succ": [x for succ, _ in rows for x in succ],
            "prob": [x for _, probs in rows for x in probs]}


def label_form(obj: dict) -> dict:
    """An `mdp.json` object as the label dicts of `mdp_to_json_oracle`: each
    pair's row read from the row table by its `row` index, the pairs sorted
    by (state, action) label."""
    states, actions, pairs = obj["states"], obj["actions"], obj["pairs"]
    rows = [{states[i]: x for i, x in zip(succ, probs)} for succ, probs in table_rows(obj["rows"])]
    entries = sorted((states[s], actions[a], r, row)
                     for s, a, r, row in zip(pairs["s"], pairs["a"], pairs["r"], pairs["row"]))
    return {
        "name": obj["name"],
        "states": obj["states"],
        "actions": obj["actions"],
        "transitions": [{"s": s, "a": a, "to": rows[row]} for s, a, _, row in entries],
        "rewards": [{"s": s, "a": a, "r": r} for s, a, r, _ in entries],
        "initial": {states[i]: x for i, x in zip(obj["initial"]["s"], obj["initial"]["p"])},
    }


def pair_of(mdp: Mdp, s, a) -> int:
    """Index of the (s, a) pair by label; KeyError where it has no row."""
    known = s in mdp.states and a in mdp.actions
    p = int(mdp.pair_at[mdp.states.index(s), mdp.actions.index(a)]) if known else -1
    if p < 0:
        raise KeyError(f"no kernel row for ({s}, {a})")
    return p


def feature_vector(mdp: Mdp, feature) -> np.ndarray:
    """The vector `rollout` takes of a state-label feature: feature(s) per state index."""
    return np.array([feature(s) for s in mdp.states], dtype=np.float64)


def kernel_row(mdp: Mdp, s, a) -> dict:
    """P(.|s, a) as {successor: probability}."""
    return pair_row(mdp, pair_of(mdp, s, a))


def pair_row(mdp: Mdp, p: int) -> dict:
    """The nominal row of pair p as {successor: probability}."""
    idx, probs, _ = mdp.row(p)
    return {mdp.states[i]: q for i, q in zip(idx.tolist(), probs.tolist())}


def kernel(mdp: Mdp) -> dict:
    """Every row as {(s, a): {successor: probability}}."""
    return {(mdp.states[s], mdp.actions[a]): pair_row(mdp, p)
            for p, (s, a) in enumerate(zip(mdp.source.tolist(), mdp.action.tolist()))}


def available_actions(mdp: Mdp, s) -> tuple:
    i = mdp.states.index(s)
    return tuple(mdp.actions[a] for a in mdp.action[mdp.start[i]:mdp.start[i + 1]].tolist())


def reward(mdp: Mdp, s, a) -> float:
    return float(mdp.reward[pair_of(mdp, s, a)])


def initial(mdp: Mdp) -> dict:
    """The initial distribution as {state: probability}, support only."""
    return {mdp.states[i]: float(mdp.initial[i]) for i in np.flatnonzero(mdp.initial).tolist()}


def tabular_policy(table: dict):
    """The (state, t) -> action policy of a {(state, t): action} table, None off the table."""
    return lambda s, t: table.get((s, t))


def path_return(mdp: Mdp, path: ObservedPath) -> float:
    """Undiscounted sum of R(s_t, a_t) over the path."""
    return float(sum(reward(mdp, s, a) for s, a in path.steps))


# -- reference algorithms -------------------------------------------------------

def sample_path_oracle(mdp: Mdp, policy, horizon: int, seed: int) -> tuple:
    """The steps `sample_path` draws, by bisect over Python lists: the
    running sums of a row (itertools.accumulate, the additions of np.cumsum
    in order) and the first sum above the draw, clamped to the last entry.
    s0 is drawn at u[0] times the total of the initial support, step t's
    successor at u[t+1], from the seed's `horizon + 1` uniforms."""
    u = np.random.default_rng(seed).random(horizon + 1).tolist()
    support = [i for i, q in enumerate(mdp.initial.tolist()) if q > 0.0]
    cum = list(accumulate(mdp.initial[support].tolist()))
    si = support[min(bisect_right(cum, u[0] * cum[-1]), len(support) - 1)]
    steps = []
    for t in range(horizon):
        s = mdp.states[si]
        a = policy(s, t)
        succ, probs = (x.tolist() for x in mdp.row(pair_of(mdp, s, a))[:2])
        steps.append((s, a))
        cum = list(accumulate(probs))
        si = succ[min(bisect_right(cum, u[t + 1]), len(succ) - 1)]
    return tuple(steps)


def position_oracle(mdp: Mdp, p: int, s) -> int:
    """Position of successor label s in the nominal row of pair p, -1 off it."""
    row = [mdp.states[i] for i in mdp.row(p)[0].tolist()]
    return row.index(s) if s in row else -1


def observed_path_oracle(mdp: Mdp, steps) -> tuple:
    """The `state`, `action`, `pair` and `next_pos` lists of
    `ObservedPath(mdp, steps)`, compiled step by step through label lookups
    and `position_oracle`, or the ValidationFailed listing its faults."""
    bad, pair, pos = [], [], []
    if steps and (steps[0][0] not in mdp.states
                  or mdp.initial[mdp.states.index(steps[0][0])] <= 0.0):
        bad.append(f"initial state {steps[0][0]} has zero initial probability")
    for t, (s, a) in enumerate(steps):
        try:
            pair.append(pair_of(mdp, s, a))
        except KeyError:
            bad.append(f"step {t}: no kernel row for ({s},{a})")
            continue
        if t + 1 < len(steps):
            pos.append(position_oracle(mdp, pair[-1], steps[t + 1][0]))
            if pos[-1] < 0:
                bad.append(f"step {t}: transition {s} -> {steps[t + 1][0]} under {a} has probability 0")
    if bad:
        raise ValidationFailed("; ".join(bad))
    return ([mdp.states.index(s) for s, _ in steps], [mdp.actions.index(a) for _, a in steps],
            pair, pos)


def value_iteration(mdp: Mdp, horizon: int) -> tuple:
    """Optimal time-dependent policy for the undiscounted finite-horizon sum.

    Returns the policy and V_t(s) for t = 0..T (V_T = 0). Ties are broken by
    the lowest action index. States with no available action have value 0.
    """
    values = [dict.fromkeys(mdp.states, 0.0)]
    table = {}
    for t in range(horizon - 1, -1, -1):
        v_next, v_here = values[0], {}
        for s in mdp.states:
            best_v, best_a = 0.0, None
            for a in available_actions(mdp, s):
                q = reward(mdp, s, a) + sum(p * v_next[s2] for s2, p in kernel_row(mdp, s, a).items())
                if best_a is None or q > best_v:
                    best_v, best_a = q, a
            v_here[s] = best_v
            if best_a is not None:
                table[(s, t)] = best_a
        values.insert(0, v_here)
    return tabular_policy(table), values


def gumbel_max_step(mdp: Mdp, s, a, g: np.ndarray):
    """The mechanism: argmax over the support of log P(s2|s,a) + g(s2), ties
    to the lowest state index."""
    idx, _, logp = mdp.row(pair_of(mdp, s, a))
    return mdp.states[idx[int(np.argmax(logp + g[idx]))]]


def gumbel_oracle(rng: np.random.Generator, shape) -> np.ndarray:
    """The library's standard Gumbel draw written out: the first nonzero
    uniforms of `rng.random`'s row-major stream (a uniform of exactly 0.0 is
    dropped and drawn again, as `rng.gumbel` does), mapped out of place to
    `0.0 - log(-log(1 - U))`."""
    size = int(np.prod(shape))
    u = np.empty(0)
    while u.size < size:
        more = rng.random(size=size - u.size)
        u = np.concatenate([u, more[more != 0]])
    return 0.0 - np.log(-np.log(1.0 - u.reshape(shape)))


def topdown_noise_oracle(mdp: Mdp, p: int, pos: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """`topdown_noise` drawn as one row-major (n, |S|) prior layer: the
    maximum at the observed position, Gumbels truncated below it on the rest
    of the row, and fresh priors off it, from the same draws in the same
    order."""
    idx, _, logp = mdp.row(p)
    out = gumbel_oracle(rng, (n, mdp.num_states))
    top = gumbel_oracle(rng, n) + float(np.logaddexp.reduce(logp))
    shifted = logp[None, :] + gumbel_oracle(rng, (n, idx.shape[0]))
    trunc = -np.logaddexp(-shifted, -top[:, None])
    out[:, idx] = trunc - logp[None, :]
    out[:, idx[pos]] = top - logp[pos]
    return out


def rejection_noise(mdp: Mdp, p: int, pos: int, n: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """n posterior noise vectors via rejection, as a column-major (n, |S|)
    array, and the proposal count, given that pair p moved to position `pos`
    of its nominal row: prior vectors are drawn in batches and those that
    replay the observation kept. It is the independent check of
    `topdown_noise`, which draws the same law in one pass.

    Expected cost is n / P(observed successor | pair p) proposals; after
    1e7 proposals per requested sample it gives up.
    """
    idx, probs, logp = _conditioned_row(mdp, p, pos)
    out = np.empty((n, mdp.num_states), order="F")
    got = attempts = 0
    cap = 10**7 * n
    # Batch size adapts to the acceptance rate (= observation probability).
    batch = max(256, min(int(2 * n / max(probs[pos], 1e-6)), 4_000_000))
    while got < n and attempts < cap:
        g = rng.gumbel(size=(min(batch, cap - attempts), mdp.num_states))
        accept_rows = np.flatnonzero(np.argmax(logp[None, :] + g[:, idx], axis=1) == pos)
        need = n - got
        if accept_rows.shape[0] >= need:
            # Count only proposals up to and including the final acceptance, so
            # the count reflects true rejection-sampling cost.
            attempts += int(accept_rows[need - 1]) + 1
            accept_rows = accept_rows[:need]
        else:
            attempts += g.shape[0]
        out[got: got + accept_rows.shape[0]] = g[accept_rows]
        got += accept_rows.shape[0]
    assert got == n, f"no {n} acceptances within {cap} proposals"
    return out, attempts


def rejection_posterior(mdp: Mdp, path: ObservedPath, n: int, seed: int = 0) -> GumbelPosterior:
    """The posterior `build_posterior` draws, with each conditioned layer
    drawn by `rejection_noise` instead, from the same per-step stream
    `_step_rng(seed, t)`; the final, unconditioned layer is the same prior
    draw. Layers are made on access, as `build_posterior` makes them."""
    def layer(t: int) -> np.ndarray:
        rng = _step_rng(seed, t)
        if t == path.T - 1:
            return _prior_layer(rng, n, mdp.num_states)
        return rejection_noise(mdp, int(path.pair[t]), int(path.next_pos[t]), n, rng)[0]

    return GumbelPosterior(_Layers(path.T, layer), n, seed, path)


def cf_transition_oracle(posterior: GumbelPosterior, mdp: Mdp, t: int, p: int):
    """`cf_transition` as it was first written: the mechanism's argmax per
    sample, the first maximum winning ties and NaNs, and a bincount of the
    winners."""
    idx, _, logp = mdp.row(p)
    if idx.shape[0] == 1:
        return idx, np.ones(1)
    counts = np.bincount(np.argmax(logp[None, :] + posterior.noise[t][:, idx], axis=1),
                         minlength=idx.shape[0])
    hit = counts > 0
    return idx[hit], counts[hit] / posterior.n


def prior_posterior(mdp: Mdp, path: ObservedPath, n: int, seed: int = 0) -> GumbelPosterior:
    """Unconditioned noise for every step: the interventional counterpart."""
    noise = tuple(_step_rng(seed, t).gumbel(size=(n, mdp.num_states)) for t in range(path.T))
    return GumbelPosterior(noise, n, seed, path)


def one_step_influenced(mdp: Mdp, path: ObservedPath, t: int, s, a) -> bool:
    """Whether supp P(.|s,a) overlaps supp P(.|s_t,a_t) (time-indexed form)."""
    return not kernel_row(mdp, *path.steps[t]).keys().isdisjoint(kernel_row(mdp, s, a))


@dataclass(frozen=True)
class InfluenceSets:
    """Observed-support sets S^tau_t, their union, and the reachback set."""

    per_time: tuple[frozenset, ...]
    pooled: frozenset
    path_states: frozenset
    reachback_states: frozenset | None = None


def influenced_states(mdp: Mdp, path: ObservedPath) -> InfluenceSets:
    """S^tau_t = support of the observed row at t; pooled union across t."""
    per_time = tuple(frozenset(kernel_row(mdp, s, a)) for s, a in path.steps)
    return InfluenceSets(per_time, frozenset().union(*per_time), frozenset(s for s, _ in path.steps))


def reachback(mdp: Mdp, sets: InfluenceSets, k: int) -> InfluenceSets:
    """S^{tau,k}: S^tau plus states within k reverse-BFS steps of it.

    States already on the observed path are not added by the BFS: every
    non-initial path state sits in S^tau anyway (it is the realized successor
    of the previous step), and the worked example counts the sets this way.
    The pruner re-admits observed path nodes explicitly regardless.
    """
    if k < 1:
        raise ValidationFailed("reachback requires k >= 1")
    pred = {s: set() for s in mdp.states}
    for (s, _), row in kernel(mdp).items():
        for s2 in row:
            pred[s2].add(s)
    frontier, found = set(sets.pooled), set()
    for _ in range(k):
        frontier = {p for s in frontier for p in pred[s]} - found - sets.pooled
        found |= frontier
    return InfluenceSets(sets.per_time, sets.pooled, sets.path_states,
                         reachback_states=sets.pooled | (found - sets.path_states))


def prune_oracle(cf: CfMdp, k: int) -> tuple[list, list, int] | None:
    """`prune_cf_mdp` pair by pair: (reach, usable, nodes_all_layers), or
    None where no pair at (s_0, 0) survives.

    Admission is the literal definition: a pair at t is k-admitted when
    t >= T-k+1, or its nominal row meets S^tau_t, or some nominal
    continuation of at most k-1 further steps holds such a pair. The closure
    is the greatest fixpoint over every admitted pair at every layer: a pair
    stays while each of its counterfactual successors at t+1 < T has a pair
    that stays. Reach runs forward from s_0 through the pairs that stay.
    """
    mdp, path = cf.mdp, cf.path
    T, pairs = path.T, range(len(mdp.source))
    start, source = mdp.start.tolist(), mdp.source.tolist()
    nominal = [set(mdp.row(p)[0].tolist()) for p in pairs]
    stau = [nominal[p] for p in path.pair.tolist()]

    @cache
    def influenced(t, p, d):
        return bool(nominal[p] & stau[t]) or d > 0 and t + 1 < T and any(
            influenced(t + 1, q, d - 1) for s2 in nominal[p] for q in range(start[s2], start[s2 + 1]))

    admitted = [{p for p in pairs if t >= T - k + 1 or influenced(t, p, k - 1)} for t in range(T)]
    rows = [{p: set(succ.tolist()) for p, (succ, _) in cf_layer(cf, t, pairs).items()}
            for t in range(T)]
    kept = [set(layer) for layer in admitted]
    changed = True
    while changed:
        changed = False
        for t in range(T - 1):
            alive = {source[q] for q in kept[t + 1]}
            for p in [p for p in kept[t] if not rows[t][p] <= alive]:
                kept[t].discard(p)
                changed = True
    nodes_all_layers = sum(len({source[p] for p in layer}) for layer in admitted)
    nodes_all_layers += len(set().union(*(nominal[p] for p in admitted[T - 1])))
    reach, usable, nodes = [], [], {int(path.state[0])}
    for t in range(T):
        usable.append({p for p in kept[t] if source[p] in nodes})
        reach.append(nodes)
        nodes = set().union(*(rows[t][p] for p in usable[t]))
    if not usable[0]:
        return None
    return reach, usable, nodes_all_layers


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
    init = initial(mdp).items()

    def value(s, t):
        if t == horizon:
            return 0.0
        best = None
        for a in available_actions(mdp, s):
            q = reward(mdp, s, a)
            for s2, p in kernel_row(mdp, s, a).items():
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
    nodes = [(s, t) for t in range(horizon) for s in mdp.states if available_actions(mdp, s)]
    choices = [available_actions(mdp, s) for s, t in nodes]
    best = None
    for picks in product(*choices):
        table = dict(zip(nodes, picks))

        def policy_value(s, t):
            if t == horizon or (s, t) not in table:
                return 0.0
            a = table[(s, t)]
            return reward(mdp, s, a) + sum(
                p * policy_value(s2, t + 1) for s2, p in kernel_row(mdp, s, a).items()
            )

        v = sum(p * policy_value(s, 0) for s, p in initial(mdp).items())
        if best is None or v > best:
            best = v
    return best


def km_value_oracle(pruned: PrunedCfMdp, path: ObservedPath, m: int) -> float:
    """Budgeted counterfactual value by exhaustive recursion on the pruned MDP.

    Enumerates every budget-feasible, pruning-respecting action assignment via
    the recursion tree, consuming the same frozen kernel estimates as the
    solver. Each inner product is an np.dot over a column of a
    (successors, m+1) array, in the same successor order: the same BLAS dot,
    with the same (m+1)-strided column, that the solver's np.vecdot runs per
    row and column, so agreement can be exact. The stride matters: a BLAS
    dot can round a strided column differently from a contiguous array once
    a row has four or more entries, which is also why a base policy must be
    solved at the same m.
    """
    T = pruned.horizon
    cf = pruned.cf
    mdp = cf.mdp
    rows = [cf_layer(cf, t, np.flatnonzero(usable)) for t, usable in enumerate(pruned.usable)]

    def value(s, t, r):
        if t == T:
            return 0.0
        obs = path.steps[t][1]
        acts = pruned.actions.get((s, t), ())
        ordered = [a for a in acts if a == obs] + [a for a in acts if a != obs]
        best = float("-inf")
        for a in ordered:
            cost = 0 if a == obs else 1
            if cost > r:
                continue
            idx, probs = rows[t][pair_of(mdp, s, a)]
            child = np.zeros((len(idx), m + 1))
            child[:, r - cost] = [value(mdp.states[i], t + 1, r - cost) for i in idx]
            q = reward(mdp, s, a) + float(np.dot(probs, child[:, r - cost]))
            if q > best:
                best = q
        return best

    return value(path.steps[0][0], 0, m)


def solve_km_oracle(pruned: PrunedCfMdp, m: int, base: CfPolicy | None = None) -> CfPolicy:
    """`solve_km` as one loop per (state, pair, budget): each reached state
    tries its usable pairs, the observed action first, and keeps the first
    strict maximum per budget. Expected child values are one np.dot per
    distinct row and budget column, over the (m+1)-strided column of the
    row's child table: the same BLAS dot, with the same stride, as each
    (row, column) value of the solver's np.vecdot, so the value and choice
    tables agree bit for bit, -inf included. `rows_priced` counts the
    distinct rows per solved layer, as the solver's does. The loop fills
    (|S|, m+1) tables; the policy keeps the rows of each layer's states."""
    T = pruned.horizon
    if not 0 <= m <= T:
        raise ValidationFailed(f"budget m={m} outside 0..{T}")
    if base is not None and (base.k < pruned.k or base.m != m):
        raise ValidationFailed("base policy must be solved at the same m and at k or more")
    cf = pruned.cf
    mdp = cf.mdp
    n = mdp.num_states
    shared_from = T if base is None else max(T - pruned.k + 1, 0)

    start, action, reward = mdp.start.tolist(), mdp.action.tolist(), mdp.reward.tolist()
    row_id = mdp.row_id.tolist()
    observed = cf.path.action.tolist()
    values = [np.full((n, m + 1), NEG_INF) for _ in range(T)] + [np.zeros((n, m + 1))]
    choices = [np.full((n, m + 1), -1, dtype=np.int64) for _ in range(T)]
    rows_priced = 0
    for t in range(T - 1, -1, -1):
        nodes = pruned.reach[t]
        if t >= shared_from:
            values[t][base.states[t]] = base.values[t]
            choices[t][base.states[t]] = base.choices[t]
            continue
        obs_a = observed[t]
        v_next = values[t + 1]
        usable = pruned.usable[t].tolist()
        rows = cf_layer(cf, t, np.flatnonzero(pruned.usable[t]))
        # Expected child value per budget column c, once per distinct row:
        # pairs that share a counterfactual row share it.
        expected: dict[int, list[float]] = {}
        for si in np.flatnonzero(nodes).tolist():
            pairs = [p for p in range(start[si], start[si + 1]) if usable[p]]
            # Observed action first so value ties resolve toward replay.
            pairs.sort(key=lambda p: action[p] != obs_a)
            best = values[t][si]
            best_a = choices[t][si]
            for p in pairs:
                cost = 0 if action[p] == obs_a else 1
                ev = expected.get(row_id[p])
                if ev is None or len(ev) < m + 1 - cost:
                    idx, probs = rows[p]
                    child = v_next[idx]
                    ev = [float(np.dot(probs, child[:, c])) for c in range(m + 1 - cost)]
                    expected[row_id[p]] = ev
                r_reward = reward[p]
                for r in range(cost, m + 1):
                    q = r_reward + ev[r - cost]
                    if q > best[r]:
                        best[r] = q
                        best_a[r] = action[p]
        rows_priced += len(expected)

    if values[0][cf.path.state[0], m] == NEG_INF:
        raise InfeasibleBudget(f"no feasible policy at m={m}")
    states = [np.flatnonzero(nodes) for nodes in pruned.reach]
    return CfPolicy(k=pruned.k, m=m, mdp=mdp, states=states,
                    choices=[c[layer] for c, layer in zip(choices, states)],
                    values=[v[layer] for v, layer in zip(values, states)], rows_priced=rows_priced)


def same_tables(policy: CfPolicy, other: CfPolicy) -> bool:
    """Whether two policies have bit-identical states, value and choice tables."""
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for tables in ((policy.states, other.states), (policy.values, other.values),
                              (policy.choices, other.choices))
               for a, b in zip(*tables, strict=True))

def rollout_oracle(pruned: PrunedCfMdp, policy: CfPolicy, n: int, feature: np.ndarray,
                   seed: int) -> RolloutSummary:
    """`rollout` as one scalar loop per trajectory: trajectory i draws its T
    uniforms one at a time from its own stream SeedSequence(seed, spawn_key=(i,)).
    A failing trajectory raises at its first failing step, trajectories in
    index order. `feature` holds one value per state index."""
    T = pruned.horizon
    cf = pruned.cf
    mdp = cf.mdp
    observed = [mdp.actions.index(a) for _, a in cf.path.steps]
    rows = [cf_layer(cf, t, np.flatnonzero(usable)) for t, usable in enumerate(pruned.usable)]
    feats = np.empty((n, T + 1))
    max_changes = 0
    # Each layer's choices by state index.
    tables = [dict(zip(layer.tolist(), table)) for layer, table in zip(policy.states, policy.choices)]
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        si = int(cf.path.state[0])
        j = 0
        for t in range(T):
            if not pruned.reach[t][si]:
                raise InvariantViolated(f"rollout left the pruned node set at ({mdp.states[si]}, t={t})")
            feats[i, t] = feature[si]
            a = tables[t][si][policy.m - j] if j <= policy.m else -1
            p = mdp.pair_at[si, a] if a >= 0 else -1
            if p < 0 or not pruned.usable[t][p]:
                raise UndefinedPolicyAction(
                    f"policy undefined or disallowed at ({mdp.states[si]}, t={t}, j={j})")
            if a != observed[t]:
                j += 1
            idx, probs = rows[t][p]
            si = idx[min(int(np.searchsorted(np.cumsum(probs), rng.random(), side="right")), len(idx) - 1)]
        feats[i, T] = feature[si]
        if j > policy.m:
            raise InvariantViolated(f"rollout exceeded budget: {j} > {policy.m}")
        max_changes = max(max_changes, j)
    return RolloutSummary(times=np.arange(T + 1), means=feats.mean(axis=0),
                          stds=feats.std(axis=0, ddof=0), n=n, seed=seed, max_changes=max_changes)


def cf_layer(cf: CfMdp, t: int, pairs) -> dict:
    """The counterfactual rows of `pairs` at time t, {pair: (successor
    indices, probabilities)}, from one `layer_rows` call."""
    pairs = np.asarray(pairs, dtype=np.int64)
    size, succ, prob = cf.layer_rows(t, pairs)
    return {p: (succ[end - n:end], prob[end - n:end])
            for p, n, end in zip(pairs.tolist(), size.tolist(), np.cumsum(size).tolist())}


def cf_row(cf: CfMdp, t: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The counterfactual row of pair p at time t as (successor indices,
    probabilities)."""
    return cf_layer(cf, t, [p])[p]


def cf_probs(cf: CfMdp, t: int, s, a) -> dict:
    """The counterfactual row of (s, a) at time t by label: {successor: probability}."""
    idx, probs = cf_row(cf, t, pair_of(cf.mdp, s, a))
    return {cf.mdp.states[i]: p for i, p in zip(idx.tolist(), probs.tolist())}


def cf_transition_probs(posterior, mdp: Mdp, t: int, s, a) -> dict:
    """`cf_transition`'s row of (s, a) at time t, by label."""
    idx, probs = cf_transition(posterior, mdp, t, pair_of(mdp, s, a))
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
    return dict_mdp(states, actions, kernel, rewards, {states[0]: 1.0}, name="random")


# -- the built-in environments from label dicts ----------------------------------
# The builders as they were before they emitted index arrays: one label dict
# per row, computed for every pair. The array builders must give the same
# MDP and digest, and a file whose rows expand to the same label dicts.

def build_gridworld_oracle(slip: float = 0.0) -> Mdp:
    """4x4 grid: shaping toward the goal, +goal/-danger entry bonuses.

    Goal and danger cells are absorbing with a dedicated no-op action and zero
    post-terminal reward. Entry bonuses are folded into R(s, a) in expectation
    over the slip outcomes.
    """
    if not (0.0 <= slip < 1.0):
        raise InvalidConfig(f"slip must be in [0, 1), got {slip}")

    cells = list(product(range(GRID_SIZE), repeat=2))
    states = tuple(_cell_label(r, c) for r, c in cells)
    actions = ("up", "down", "left", "right", "stay")

    def step(cell, direction):
        r, c = cell
        dr, dc = MOVES[direction]
        r2, c2 = r + dr, c + dc
        if 0 <= r2 < GRID_SIZE and 0 <= c2 < GRID_SIZE:
            return (r2, c2)
        return cell  # bump against the wall

    kernel: dict[tuple[State, Action], dict[State, float]] = {}
    rewards: dict[tuple[State, Action], float] = {}
    for cell in cells:
        label = _cell_label(*cell)
        if cell in (GOAL_CELL, DANGER_CELL):
            kernel[(label, "stay")] = {label: 1.0}
            rewards[(label, "stay")] = 0.0
            continue
        for a in MOVES:
            row: dict[State, float] = {}
            outcomes = [(step(cell, a), 1.0 - slip)]
            for perp in _PERP[a]:
                outcomes.append((step(cell, perp), slip / 2.0))
            for dest, p in outcomes:
                if p <= 0.0:
                    continue
                row[_cell_label(*dest)] = row.get(_cell_label(*dest), 0.0) + p
            kernel[(label, a)] = row
            bonus = 0.0
            for dest, p in outcomes:
                if dest == GOAL_CELL:
                    bonus += p * GOAL_REWARD
                elif dest == DANGER_CELL:
                    bonus -= p * DANGER_PENALTY
            rewards[(label, a)] = -SHAPING_SCALE * _dist_to_goal(cell) + bonus

    return dict_mdp(states, actions, kernel, rewards,
                    initial={_cell_label(*START_CELL): 1.0}, name=MDP_NAMES["gridworld"])


def build_epidemic_oracle(population: int = 10, initial_infected: int = 1) -> Mdp:
    """Exact transition rows of the vaccination MDP.

    Doing nothing keeps the vaccine stock and infects k ~ Hypergeom(S+I,
    min(S, I), S) susceptibles; vaccinating removes the vaccinated individual
    from the population permanently and draws infections from the reduced
    pool. Vaccination actions exist only while stock and targets remain.
    Reward is -I for every action.
    """
    P = population
    if P < 1 or not (0 <= initial_infected <= P):
        raise InvalidConfig("population must be >= 1 and 0 <= I0 <= population")
    states = tuple(
        _epi_label(s, i, v)
        for s in range(P + 1) for i in range(P + 1 - s) for v in range(2 * P + 1)
    )
    kernel: dict[tuple[State, Action], dict[State, float]] = {}
    rewards: dict[tuple[State, Action], float] = {}
    for label in states:
        S, I, V = epidemic_counts(label)
        rows: dict[Action, dict[State, float]] = {}
        rows[NIL] = {
            _epi_label(S - k, I + k, V): p
            for k in range(S + 1)
            if (p := _hypergeom_pmf(k, S + I, min(S, I), S)) > 0.0
        }
        if I >= 1 and V >= 1:
            rows[V_I] = {
                _epi_label(S - k, I - 1 + k, V - 1): p
                for k in range(S + 1)
                if (p := _hypergeom_pmf(k, S + I - 1, min(S, I - 1), S)) > 0.0
            }
        if S >= 1 and V >= 1:
            rows[V_S] = {
                _epi_label(S - 1 - k, I + k, V - 1): p
                for k in range(S)
                if (p := _hypergeom_pmf(k, S + I - 1, min(S - 1, I), S - 1)) > 0.0
            }
        for a, row in rows.items():
            kernel[(label, a)] = row
            rewards[(label, a)] = float(-I)

    s0 = _epi_label(P - initial_infected, initial_infected, 2 * P)
    return dict_mdp(states, (NIL, V_I, V_S), kernel, rewards, initial={s0: 1.0},
                    name=MDP_NAMES["epidemic"])


def build_sepsis_lite_oracle(treat_effect: tuple[float, float, float] = (0.8, 0.8, 0.8),
                             flux: float = 0.22, death_threshold: int = 3,
                             horizon: int = 10) -> Mdp:
    """Patient model over (4 vitals x 3 levels, 3 treatment flags); 8 actions.

    An action sets the treatment flags for the next state and its active
    treatments act on their target vitals immediately. Death (>= 3 abnormal
    vitals) and discharge (all normal, all treatments off) are absorbing under
    every action. Per-step reward is the end-scale divided by the horizon, so
    a full trajectory spans exactly [-1000, 1000]: constant death pays -1000,
    constant discharge +1000.
    """
    if len(treat_effect) != len(TREATMENTS):
        raise InvalidConfig(f"treat_effect needs one effect per treatment {TREATMENTS}, "
                            f"got {len(treat_effect)}")
    if not all(0.0 < p <= 1.0 for p in treat_effect):
        raise InvalidConfig("treatment effects must lie in (0, 1]")
    if horizon < 1:
        raise InvalidConfig(f"horizon must be >= 1, got {horizon}")
    if not (0.0 <= flux < 1.0):
        raise InvalidConfig("flux must lie in [0, 1)")
    if sum(1 for v in START_VITALS if v != NORMAL) >= death_threshold:
        raise InvalidConfig("start state would be dead on arrival")

    all_vitals = list(product((LOW, NORMAL, HIGH), repeat=4))
    all_flags = list(product((0, 1), repeat=3))
    states = tuple(_sepsis_label(v, f) for v in all_vitals for f in all_flags)
    action_bits = list(product((0, 1), repeat=3))
    actions = tuple(_action_label(b) for b in action_bits)

    def vital_dist(level: int, treated: bool, p_treat: float) -> dict[int, float]:
        if treated:
            if level == NORMAL:
                return {NORMAL: 1.0}
            return {NORMAL: p_treat, level: 1.0 - p_treat}
        if level == NORMAL and flux > 0.0:
            return {NORMAL: 1.0 - flux, LOW: flux / 2.0, HIGH: flux / 2.0}
        return {level: 1.0}

    def step_reward(vitals) -> float:
        abn = sum(1 for v in vitals if v != NORMAL)
        if abn >= death_threshold:
            return -REWARD_SCALE / horizon
        return (REWARD_SCALE - 500.0 * abn) / horizon

    kernel: dict[tuple[State, Action], dict[State, float]] = {}
    rewards: dict[tuple[State, Action], float] = {}
    for vitals in all_vitals:
        abn = sum(1 for v in vitals if v != NORMAL)
        dead = abn >= death_threshold
        for flags in all_flags:
            label = _sepsis_label(vitals, flags)
            discharged = abn == 0 and flags == (0, 0, 0)
            for bits in action_bits:
                a = _action_label(bits)
                if dead or discharged:
                    kernel[(label, a)] = {label: 1.0}
                    rewards[(label, a)] = step_reward(vitals)
                    continue
                dists = [
                    vital_dist(v, i < 3 and bits[i] == 1,
                               treat_effect[i] if i < 3 else 0.0)
                    for i, v in enumerate(vitals)
                ]
                row: dict[State, float] = {}
                for combo in product(*(d.items() for d in dists)):
                    nxt = tuple(lv for lv, _ in combo)
                    p = math.prod(pr for _, pr in combo)
                    dest = _sepsis_label(nxt, bits)
                    row[dest] = row.get(dest, 0.0) + p
                kernel[(label, a)] = row
                rewards[(label, a)] = step_reward(vitals)

    s0 = _sepsis_label(START_VITALS, (0, 0, 0))
    return dict_mdp(states, actions, kernel, rewards, initial={s0: 1.0}, name=MDP_NAMES["sepsis"])
