"""Optimal (k, m)-constrained counterfactual policies and rollout evaluation.

The dynamic program runs over augmented nodes (state, time, remaining action
changes). Indexing by the remaining budget r = m - changes_used makes the
table independent of the cap m, so one backward pass prices every budget
0..m at once; a sweep over m reads the answers off the initial node.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasibleBudget,
    InvariantViolated,
    OutOfMemory,
    UndefinedPolicyAction,
    ValidationFailed,
)
from .gumbel import CfMdp
from .influence import PrunedCfMdp, SizeReport, prune_cf_mdp, pruned_size_report
from .mdp import Mdp

NEG_INF = float("-inf")


@dataclass(eq=False)
class CfPolicy:
    """Action map over (state, time, changes used) with its value tables.

    `states[t]` (t = 0..T-1) lists the states of pruned layer t, ascending,
    and `values[t]` and `choices[t]` are (len(states[t]), m+1) arrays over
    those states and remaining budget r = 0..m, so the conventional
    V_t(s, j) with j changes used is entry r = m - j; the terminal values
    are 0. Values are -inf and choices (action indices) -1 where no feasible
    action exists. `states[0]` is s_0 alone, and `rows_priced` counts the
    (t, distinct row) expected values solved. A policy read back from an
    artifact has no value tables (`values` is empty).
    """

    k: int
    m: int
    mdp: Mdp
    states: list[np.ndarray]
    choices: list[np.ndarray]
    values: list[np.ndarray]
    rows_priced: int

    @property
    def v_s0(self) -> float:
        """V(s_0) under the solved cap m."""
        return self.initial_value(self.m)

    def initial_value(self, m: int) -> float:
        """V(s_0) under budget cap m (m <= the solved cap)."""
        if not 0 <= m <= self.m:
            raise ValidationFailed(f"budget {m} outside solved range 0..{self.m}")
        return float(self.values[0][0, m])


def solve_km(pruned: PrunedCfMdp, m: int, base: CfPolicy | None = None) -> CfPolicy:
    """Optimal policy changing at most m observed actions on the pruned MDP.

    Bellman recursion on (s, t, r): the observed action at time t costs no
    budget anywhere, any other action costs one unit. Infeasible nodes carry
    -inf and are avoided upstream. Under a posterior's rows replay is always
    feasible, as each observed pair's row before T-1 is the point mass on
    s_{t+1}; under nominal rows replay can leave the prune, and an m too
    small to avoid it raises InfeasibleBudget.

    Each layer is solved in arrays, each distinct counterfactual row priced
    once (`_pair_values`). The best action per state is the first maximum
    over its pairs, the observed action first so that value ties resolve
    toward replay. Every reached state has a usable pair (the prune's
    closure keeps one), so the layer's states are its usable pairs' sources.
    At most T-t changes remain at layer t, so the budgets r > T-t are not
    priced: their values and choices are copies of column T-t.

    `base`, the policy solved at the same m on the prune that `pruned` was
    derived from (a larger k), supplies the rows of the free layers
    t >= T-k+1: there the pruned MDPs agree, so the values and choices are
    the same. (The same m: each value is a BLAS dot over an (m+1)-strided
    budget column, and the unit-stride column of m = 0 can round otherwise.)
    """
    T = pruned.horizon
    if not 0 <= m <= T:
        raise ValidationFailed(f"budget m={m} outside 0..{T}")
    if base is not None and (base.k < pruned.k or base.m != m):
        raise ValidationFailed("base policy must be solved at the same m and at k or more")
    cf = pruned.cf
    mdp = cf.mdp
    shared_from = T if base is None else max(T - pruned.k + 1, 0)

    states = [np.flatnonzero(reach) for reach in pruned.reach]
    values, choices = [None] * T, [None] * T
    # Past the horizon every successor reads one row of zero values.
    terminal = (np.zeros(0, dtype=np.int64), np.zeros((1, m + 1)))
    rows_priced = 0
    for t in range(T - 1, -1, -1):
        if t >= shared_from:
            at = np.searchsorted(base.states[t], states[t])
            values[t], choices[t] = base.values[t][at], base.choices[t][at]
            continue
        pairs = np.flatnonzero(pruned.usable[t])
        top = min(m, T - t)
        cost = (mdp.action[pairs] != cf.path.action[t]).astype(np.int64)
        # Pairs by state, the observed action first, then in pair order.
        order = np.lexsort((pairs, cost, mdp.source[pairs]))
        pairs, cost = pairs[order], cost[order]
        _, first, count = np.unique(mdp.source[pairs], return_index=True, return_counts=True)
        q, priced = _pair_values(cf, t, pairs, cost, top,
                                 *(terminal if t + 1 == T else (states[t + 1], values[t + 1])))
        rows_priced += priced
        grid = np.full((len(first), int(count.max()), top + 1), NEG_INF)
        grid[np.repeat(np.arange(len(first)), count),
             np.arange(len(pairs)) - np.repeat(first, count)] = q
        slot = grid.argmax(axis=1)
        best = np.take_along_axis(grid, slot[:, None, :], axis=1)[:, 0]
        chosen = np.where(best > NEG_INF, mdp.action[pairs[first[:, None] + slot]], -1)
        budget = np.minimum(np.arange(m + 1), top)  # budgets above T-t read column T-t
        values[t], choices[t] = best[:, budget], chosen[:, budget]

    if values[0][0, m] == NEG_INF:
        raise InfeasibleBudget(f"no feasible policy at m={m}")
    return CfPolicy(k=pruned.k, m=m, mdp=mdp, states=states, choices=choices, values=values,
                    rows_priced=rows_priced)


def _pair_values(cf: CfMdp, t: int, pairs: np.ndarray, cost: np.ndarray, top: int,
                 next_states: np.ndarray, v_next: np.ndarray) -> tuple[np.ndarray, int]:
    """Q-values of `pairs` at layer t for budgets r = 0..top, -inf where the
    pair costs more than r: reward plus the expected value of column r - cost
    of `v_next`, the values of layer t+1's `next_states`, under the pair's
    counterfactual row; and the rows priced.

    Each distinct row is priced once, for columns 0..top, by one `np.vecdot`
    per row length: `np.dot`'s 1-D BLAS dot over a full-width gather, so each
    value is bit for bit the `np.dot` of the row and its (m+1)-strided column.
    """
    keys, first, which = np.unique(cf.mdp.row_id[pairs], return_index=True, return_inverse=True)
    size, succ, prob = cf.layer_rows(t, pairs[first])
    start, child = np.cumsum(size) - size, np.searchsorted(next_states, succ)
    ev = np.full((len(keys), top + 2), NEG_INF)  # column c + 1 is column c; 0 is out of budget
    for n in np.flatnonzero(np.bincount(size)).tolist():
        group = np.flatnonzero(size == n)
        at = start[group, None] + np.arange(n)  # the group's (row, entry) table
        ev[group, 1:] = np.vecdot(prob[at][:, :, None], v_next[child[at]][:, :, :top + 1], axis=1)
    q = cf.mdp.reward[pairs, None] + ev[which[:, None], np.arange(1, top + 2) - cost[:, None]]
    q[np.isnan(q)] = NEG_INF  # a NaN value (inf - inf in a dot) is never the best
    return q, len(keys)


@dataclass
class SweepResult:
    """V(s_0) grid over (k, m), per-k size reports, the rows built and
    priced, and `top`, the prune at the largest k, which read every row."""

    rows: list[tuple[int, int, float]]
    sizes: list[SizeReport]
    cf_rows_built: int
    dp_rows_priced: int
    top: PrunedCfMdp = field(compare=False, repr=False)


def sweep(cf: CfMdp, ks: list[int], ms: list[int]) -> SweepResult:
    """Solve every (k, m) cell, reusing one posterior and one CF row cache.

    The largest k is pruned and solved first, at the largest m. Every other k
    is pruned and solved with that result as `base`: the admission frontiers,
    the counterfactual rows, and the closure and value rows of the free layers
    t >= T-k+1 (where every pair is admitted) are shared, so only the
    constrained layers and a reachability pass are computed per k. Smaller
    budgets are read from the same table.
    """
    if not ks or not ms:
        raise ValidationFailed("sweep needs at least one k and one m")
    m_max, k_max = max(ms), max(ks)
    top = prune_cf_mdp(cf, k_max)
    top_policy = solve_km(top, m_max)
    rows, sizes, priced = [], [], top_policy.rows_priced
    for k in ks:
        if k == k_max:
            pruned, policy = top, top_policy
        else:
            pruned = prune_cf_mdp(cf, k, base=top)
            policy = solve_km(pruned, m_max, base=top_policy)
            priced += policy.rows_priced
        sizes.append(pruned_size_report(pruned))
        rows.extend((k, m, policy.initial_value(m)) for m in ms)
    return SweepResult(rows=rows, sizes=sizes, cf_rows_built=cf.rows_built, dp_rows_priced=priced,
                       top=top)


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


def rollout(pruned: PrunedCfMdp, policy: CfPolicy, n: int, feature: np.ndarray,
            seed: int) -> RolloutSummary:
    """Sample n trajectories from the frozen CF kernels under the policy and
    summarise `feature`, a 1-D float64 array with one value per state index.

    Trajectories cover states s_0..s_T. Trajectory i draws its T uniforms from
    its own stream, SeedSequence(seed, spawn_key=(i,)), so its path does not
    depend on n; `_stream_uniforms` computes all n streams at once. All
    trajectories advance one layer at a time; those whose pairs share a
    counterfactual row are sampled with one searchsorted. An n below 1 or
    above 2**32 (the streams' spawn keys are single uint32 words), an (n, T)
    float64 array that cannot be addressed, a negative seed or a feature of
    another shape is refused before anything is allocated, and uniforms that
    cannot be allocated raise OutOfMemory.

    Rollouts never leave the pruned node set and never exceed the
    action-change budget; both are verified on every trajectory because they
    are probability-one guarantees. Of several failures, the one reported is
    at the earliest t, then at the lowest trajectory index.
    """
    T = pruned.horizon
    if n < 1:
        raise ValidationFailed(f"rollout count must be >= 1, got {n}")
    if n > 2**32 or n * T * 8 > np.iinfo(np.intp).max:
        raise ValidationFailed(f"rollout count {n} is too large: at most 2**32 trajectories, "
                               f"and {n}x{T} float64 uniforms must be addressable")
    seed = operator.index(seed)  # an int, as SeedSequence requires
    if seed < 0:
        raise ValidationFailed(f"rollout seed must be >= 0, got {seed}")
    cf = pruned.cf
    mdp = cf.mdp
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape != (mdp.num_states,):
        raise ValidationFailed(f"rollout feature has shape {feature.shape}, not one value for "
                               f"each of the {mdp.num_states} states")
    try:
        uniforms = _stream_uniforms(seed, n, T)
    except MemoryError:
        raise OutOfMemory(f"out of memory drawing the rollout uniforms ({n}x{T} float64)") from None
    observed = cf.path.action
    si = np.full(n, policy.states[0][0], dtype=np.int64)
    j = np.zeros(n, dtype=np.int64)
    feats = np.empty((n, T + 1))
    for t in range(T):
        inside = pruned.reach[t][si]
        states = policy.states[t]
        row = np.minimum(np.searchsorted(states, si), len(states) - 1)
        col = policy.m - j  # negative once a trajectory is over budget: no action there
        a = np.where((col >= 0) & (states[row] == si), policy.choices[t][row, np.maximum(col, 0)], -1)
        p = np.where(a >= 0, mdp.pair_at[si, a], -1)
        ok = inside & (p >= 0) & pruned.usable[t][p]
        if not ok.all():
            i = int(np.argmin(ok))
            if not inside[i]:
                raise InvariantViolated(f"rollout left the pruned node set at ({mdp.states[si[i]]}, t={t})")
            raise UndefinedPolicyAction(
                f"policy undefined or disallowed at ({mdp.states[si[i]]}, t={t}, j={j[i]})")
        feats[:, t] = feature[si]
        j += a != observed[t]
        si = _next_states(cf, t, p, uniforms[:, t])
    feats[:, T] = feature[si]
    if (j > policy.m).any():
        raise InvariantViolated(f"rollout exceeded budget: {j.max()} > {policy.m}")
    return RolloutSummary(
        times=np.arange(T + 1),
        means=feats.mean(axis=0),
        stds=feats.std(axis=0, ddof=0),
        n=n, seed=seed, max_changes=int(j.max(initial=0)),
    )


def _next_states(cf: CfMdp, t: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Successor of each trajectory at layer t: the first entry of its pair's
    row whose cumulative probability exceeds its uniform u, clamped to the
    last entry. Trajectories on one row (pairs with one nominal row) are
    sampled together."""
    keys = cf.mdp.row_id[p]
    _, first, count = np.unique(keys, return_index=True, return_counts=True)
    size, succ, prob = cf.layer_rows(t, p[first])
    groups = np.split(np.argsort(keys, kind="stable"), np.cumsum(count)[:-1])
    out = np.empty_like(p)
    for group, hi, n in zip(groups, np.cumsum(size).tolist(), size.tolist()):
        pos = np.searchsorted(np.cumsum(prob[hi - n:hi]), u[group], side="right")
        out[group] = succ[hi - n + np.minimum(pos, n - 1)]
    return out


# SeedSequence's hash constants and PCG64's multiplier, both fixed by NEP 19.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF


def _stream_uniforms(seed: int, n: int, T: int) -> np.ndarray:
    """(n, T) array whose row i (i < 2**32) equals
    `np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,))).random(T)`,
    computed for every i at once.

    SeedSequence hashes its entropy words, the seed's uint32 words padded to
    four (a spawn key is present) and then i, into a pool of four words, and
    `generate_state(4, uint64)` expands the pool into PCG64's initial state
    and increment. PCG64 steps a 128-bit LCG and emits the XSL-RR of each new
    state, of which `random` keeps the top 53 bits. Every uint32 word and
    every 32-bit limb of a 128-bit number (low limb first) is a uint64
    array, so each product fits and is masked back to 32 bits.
    """
    hash_a = _INIT_A

    def hashmix(v):
        nonlocal hash_a
        v = v ^ hash_a
        hash_a = hash_a * _MULT_A & _M32
        v = v * hash_a & _M32
        return v ^ (v >> 16)

    def mix(x, y):
        v = (_MIX_L * x - _MIX_R * y) & _M32
        return v ^ (v >> 16)

    words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(n, w, dtype=np.uint64) for w in words + [0] * (4 - len(words))]
    entropy.append(np.arange(n, dtype=np.uint64))
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hash_b, state = _INIT_B, []
    for k in range(8):
        v = pool[k % 4] ^ hash_b
        hash_b = hash_b * _MULT_B & _M32
        v = v * hash_b & _M32
        state.append(v ^ (v >> 16))
    # uint64 word w is state[2w] + state[2w+1] << 32; initstate is words 0
    # (high) and 1, initseq words 2 (high) and 3, and inc = initseq << 1 | 1.
    initstate = [state[2], state[3], state[0], state[1]]
    seq = [state[6], state[7], state[4], state[5]]
    inc = [(seq[0] << 1 | 1) & _M32] + [(seq[k] << 1 | seq[k - 1] >> 31) & _M32 for k in (1, 2, 3)]
    mult = [_PCG_MULT >> (32 * k) & _M32 for k in range(4)]
    # Seeding: state 0, step (to inc), add initstate, step.
    lcg = _mul_add(_mul_add(inc, [1, 0, 0, 0], initstate), mult, inc)
    out = np.empty((n, T))
    for t in range(T):
        lcg = _mul_add(lcg, mult, inc)
        x = (lcg[2] | lcg[3] << 32) ^ (lcg[0] | lcg[1] << 32)
        rot = lcg[3] >> 26
        x = x >> rot | x << ((64 - rot) & 63)
        out[:, t] = (x >> 11) * 2.0**-53
    return out


def _mul_add(a: list, b: list, c: list) -> list:
    """a * b + c mod 2**128 on 32-bit limbs, low limb first; `a` and `c` are
    lists of uint64 arrays, `b` a list of ints."""
    out, carry, high = [], 0, 0
    for k in range(4):
        acc = c[k] + carry + high
        high = 0
        for i in range(k + 1):
            prod = a[i] * b[k - i]
            acc = acc + (prod & _M32)
            high = high + (prod >> 32)
        out.append(acc & _M32)
        carry = acc >> 32
    return out
