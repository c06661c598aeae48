"""k-step influence pruning of the counterfactual MDP.

A transition is 1-step influenced at time t when its nominal support overlaps
the support of the observed transition at t. The k-step relaxation admits a
pair when some nominal continuation of at most k-1 further steps contains an
influenced pair. Pairs in the last k-1 decision steps (t >= T-k+1) are always
admitted: the remaining path is too short to decide influence, so it is
granted conservatively.

After admission, the counterfactual MDP is reduced to a closed, reachable
sub-MDP: actions whose counterfactual successors can leak outside are deleted,
dead nodes cascade backwards, and only nodes forward-reachable from (s_0, 0)
remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyPrunedMdp, ValidationFailed
from .gumbel import CfMdp, held_rows
from .mdp import Action, Mdp, ObservedPath, State


@dataclass(frozen=True)
class SizeReport:
    """Pruned-MDP size figures, one row of the Table-1-style CSV."""

    k: int
    nodes_all_layers: int
    nodes_reachable: int
    distinct_states: int


@dataclass(frozen=True)
class _Closure:
    """What a prune at horizon k leaves for any prune at a smaller k.

    `hits[d][t]` marks the pairs whose nominal support meets S^tau_t or
    M[d][t+1], for d = 0..k-1 and t < T-d. `sound[t]` marks, over the MDP's
    row table, the rows of layer t the prune built whose counterfactual
    successors all stay alive in the backward closure.
    """

    hits: list[list[np.ndarray]]
    sound: list[np.ndarray]


@dataclass(eq=False)
class PrunedCfMdp:
    """Closed, reachable restriction of a counterfactual MDP.

    `reach[t]` marks the allowed states of decision layer t (t = 0..T-1) and
    `usable[t]` the allowed pairs of the MDP at those states; the
    terminal layer T is implicit and unrestricted (influence is always granted
    at the horizon boundary). Every counterfactual successor of an allowed
    pair is itself allowed (no probability mass leaks outside). `layers` and
    `actions` give the same sets by label; only `perfbench/tracer.py`'s
    counters read them.

    `rows[t]` is layer t's counterfactual rows the prune built, one per
    nominal row of an admitted pair at a node its forward sweep reached:
    (ids, size, succ, prob), the nominal rows ascending and `cf.layer_rows`
    of them, which `layer_rows` looks up. A prune with `base` holds the
    base's rows.
    """

    cf: CfMdp
    k: int
    reach: tuple[np.ndarray, ...]
    usable: tuple[np.ndarray, ...]
    nodes_all_layers: int
    rows: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    closure: _Closure

    @property
    def horizon(self) -> int:
        return self.cf.horizon

    def layer_rows(self, t: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`cf.layer_rows(t, pairs)`, looked up in the rows the prune built."""
        return held_rows(self.rows[t], t, self.cf.mdp.row_id[pairs])

    @cached_property
    def layers(self) -> tuple[frozenset[State], ...]:
        states = self.cf.mdp.states
        return tuple(frozenset(states[i] for i in np.flatnonzero(r).tolist()) for r in self.reach)

    @cached_property
    def actions(self) -> dict[tuple[State, int], tuple[Action, ...]]:
        mdp = self.cf.mdp
        out: dict[tuple[State, int], list[Action]] = {}
        for t, usable in enumerate(self.usable):
            ids = np.flatnonzero(usable)
            for si, ai in zip(mdp.source[ids].tolist(), mdp.action[ids].tolist()):
                out.setdefault((mdp.states[si], t), []).append(mdp.actions[ai])
        return {node: tuple(acts) for node, acts in out.items()}


def _admission_hits(mdp: Mdp, path: ObservedPath, depth: int) -> list[list[np.ndarray]]:
    """hits[d][t] for d = 0..depth and t < T-d: pairs at t admitted through M[d].

    A pair (s, a) at t < T-k+1 is k-step admitted when its nominal support
    meets S^tau_t, or meets M[k-1][t+1], the states of layer t+1 with an
    influenced pair within k-1 steps: that is hits[k-1][t]. Every pair at
    t >= T-k+1 is admitted, so hits[d] stops at t = T-d-1. M[d][t] holds the
    states with some pair in hits[d-1][t]; M[0] and layer T are empty.
    """
    T, n = path.T, mdp.num_states
    stau = np.zeros((T, n), dtype=bool)
    for t, p in enumerate(path.pair.tolist()):
        stau[t, mdp.row(p)[0]] = True
    frontier = np.zeros((T + 1, n), dtype=bool)  # M[d][t]
    hits: list[list[np.ndarray]] = []
    for d in range(depth + 1):
        # Per layer, the pairs whose nominal row meets the layer's target
        # states: an OR over each table row's entries (one or more), per pair.
        target = (stau[:T - d] | frontier[1:T - d + 1])[:, mdp.succ]
        hits.append(list(np.logical_or.reduceat(target, mdp.row_start[:-1], axis=1)[:, mdp.row_id]))
        if d < depth:
            t, p = np.nonzero(hits[-1])
            frontier = np.zeros((T + 1, n), dtype=bool)
            frontier[t, mdp.source[p]] = True
    return hits


def _admitted(k: int, hits: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Per decision layer t: the k-step-admitted pairs (every pair at t >= T-k+1)."""
    T = len(hits[0])
    everything = np.ones_like(hits[0][0])
    return [everything if t >= T - k + 1 else hits[k - 1][t] for t in range(T)]


def _cf_rows(cf: CfMdp, admitted: list[np.ndarray]) -> list[tuple[np.ndarray, ...]]:
    """Forward sweep from s_0 through admitted pairs, building their CF rows.

    Per layer: the nominal rows of the pairs admitted at a node the sweep
    reached, ascending, and their counterfactual rows as (ids, size, succ,
    prob), from one `layer_rows` call per layer.
    """
    mdp = cf.mdp
    nodes = np.bincount(cf.path.state[:1], minlength=mdp.num_states) > 0
    rows = []
    for t, adm in enumerate(admitted):
        pairs = np.flatnonzero(adm & nodes[mdp.source])
        ids, first = np.unique(mdp.row_id[pairs], return_index=True)
        rows.append((ids, *cf.layer_rows(t, pairs[first])))
        nodes = np.bincount(rows[-1][2], minlength=mdp.num_states) > 0
    return rows


def prune_cf_mdp(cf: CfMdp, k: int, base: PrunedCfMdp | None = None) -> PrunedCfMdp:
    """Restrict `cf` to k-step-influenced transitions, then close and trim.

    Admission is decided on the nominal transition graph (the influence
    definitions live there); closure and reachability run on the
    counterfactual supports, which are subsets of the nominal ones.

    `base`, a prune of the same `cf` at a larger horizon, shares its work:
    the admission frontiers, the counterfactual rows it built, and its
    closure on the free layers t >= T-k+1, where every pair is admitted and
    the closure does not depend on k. Only the constrained layers and the
    reachability pass are recomputed, and the result equals a prune without
    `base`.
    """
    mdp, path = cf.mdp, cf.path
    T, n = path.T, mdp.num_states
    if T == 0:
        raise ValidationFailed("pruning requires an observed path, got an empty one")
    if not 1 <= k <= T + 1:  # k = T+1 already admits every pair
        raise ValidationFailed(f"pruning requires 1 <= k <= {T + 1} (T+1), got k={k}")
    if base is None:
        hits = _admission_hits(mdp, path, k - 1)
        shared_from = T
    else:
        if base.cf is not cf or base.k < k:
            raise ValidationFailed("base must be a prune of the same counterfactual MDP at k or more")
        hits = base.closure.hits
        shared_from = max(T - k + 1, 0)  # the free layers
    admitted = _admitted(k, hits)
    rows = _cf_rows(cf, admitted) if base is None else base.rows

    # Backward closure: a built row is sound when none of its successors is
    # dead, and a pair is closed when admitted with a sound row; a node with
    # no closed pair is dead and cascades to its predecessors.
    alive = np.ones(n, dtype=bool)
    sound, closed = [None] * T, [None] * T
    for t in range(T - 1, -1, -1):
        if t >= shared_from:
            sound[t] = base.closure.sound[t]
        else:
            ids, size, succ, _ = rows[t]
            sound[t] = np.zeros(len(mdp.row_start) - 1, dtype=bool)
            sound[t][ids] = True
            sound[t][ids[np.repeat(np.arange(len(ids)), size)[~alive[succ]]]] = False
        closed[t] = admitted[t] & sound[t][mdp.row_id]
        alive = np.bincount(mdp.source[closed[t]], minlength=n) > 0

    s0 = int(path.state[0])
    if not alive[s0]:
        if cf.posterior is None:  # the observed pairs keep their whole nominal rows
            raise EmptyPrunedMdp(
                f"k={k} pruning left no usable action at the initial node: under nominal rows an "
                "observed transition can reach states that k does not admit; use a larger k")
        raise EmptyPrunedMdp(
            f"k={k} pruning left no usable action at the initial node; "
            "the counterfactual kernel is inconsistent with the path"
        )

    # Forward reachability over closed pairs; successors are alive by closure.
    reach, usable = [], []
    nodes = np.bincount([s0], minlength=n) > 0
    for t, (ids, size, succ, _) in enumerate(rows):
        usable.append(closed[t] & nodes[mdp.source])
        reach.append(nodes)
        used = np.zeros(len(mdp.row_start) - 1, dtype=bool)
        used[mdp.row_id[usable[t]]] = True
        nodes = np.bincount(succ[np.repeat(used[ids], size)], minlength=n) > 0

    return PrunedCfMdp(
        cf=cf, k=k, reach=tuple(reach), usable=tuple(usable),
        nodes_all_layers=_count_all_layers(mdp, admitted), rows=rows,
        closure=_Closure(hits, sound),
    )


def _count_all_layers(mdp: Mdp, admitted: list[np.ndarray]) -> int:
    """Admitted (state, layer) count before reachability, terminal layer included.

    This is the Table-1 convention: at k = T+1 it equals |S| * (T+1).
    """
    n = mdp.num_states
    last = np.bincount(mdp.row_id[admitted[-1]], minlength=len(mdp.row_start) - 1) > 0
    layers = [mdp.source[adm] for adm in admitted] + [mdp.succ[last[mdp.owner]]]
    return sum(int(np.count_nonzero(np.bincount(idx, minlength=n))) for idx in layers)


def pruned_size_report(pruned: PrunedCfMdp) -> SizeReport:
    return SizeReport(
        k=pruned.k,
        nodes_all_layers=pruned.nodes_all_layers,
        nodes_reachable=sum(int(r.sum()) for r in pruned.reach),
        distinct_states=int(np.logical_or.reduce(pruned.reach).sum()),
    )
