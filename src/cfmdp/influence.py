"""Influence sets and pruning of the counterfactual MDP.

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

import numpy as np

from .errors import EmptyPrunedMdp, ValidationFailed
from .gumbel import CfKernelEstimate, CfMdp
from .mdp import Action, Mdp, ObservedPath, State


@dataclass(frozen=True)
class InfluenceSets:
    """Observed-support sets S^tau_t, their union, and the reachback set."""

    per_time: tuple[frozenset[State], ...]
    pooled: frozenset[State]
    path_states: frozenset[State]
    k: int | None = None
    reachback_states: frozenset[State] | None = None


def one_step_influenced(mdp: Mdp, path: ObservedPath, t: int, s: State, a: Action) -> bool:
    """Whether supp P(.|s,a) overlaps supp P(.|s_t,a_t) (time-indexed form)."""
    if t >= path.T:
        raise ValidationFailed(f"time {t} outside path horizon {path.T}")
    obs_s, obs_a = path.steps[t]
    obs = mdp.row(obs_s, obs_a)
    return any(s2 in obs for s2 in mdp.row(s, a))


def influenced_states(mdp: Mdp, path: ObservedPath) -> InfluenceSets:
    """S^tau_t = support of the observed row at t; pooled union across t."""
    per_time = tuple(frozenset(mdp.row(s, a)) for s, a in path.steps)
    pooled = frozenset().union(*per_time) if per_time else frozenset()
    return InfluenceSets(per_time, pooled, path.visited_states)


def _predecessors(mdp: Mdp) -> dict[State, set[State]]:
    pred: dict[State, set[State]] = {s: set() for s in mdp.states}
    for (s, _a), row in mdp.kernel.items():
        for s2 in row:
            pred[s2].add(s)
    return pred


def reachback(mdp: Mdp, sets: InfluenceSets, k: int) -> InfluenceSets:
    """S^{tau,k}: S^tau plus states within k reverse-BFS steps of it.

    States already on the observed path are not added by the BFS: every
    non-initial path state sits in S^tau anyway (it is the realized successor
    of the previous step), and the worked example counts the sets this way.
    The pruner re-admits observed path nodes explicitly regardless.
    """
    if k < 1:
        raise ValidationFailed("reachback requires k >= 1")
    pred = _predecessors(mdp)
    frontier = set(sets.pooled)
    found: set[State] = set()
    for _ in range(k):
        frontier = {p for s in frontier for p in pred[s]} - found - sets.pooled
        if not frontier:
            break
        found |= frontier
    added = frozenset(found - sets.path_states)
    return InfluenceSets(sets.per_time, sets.pooled, sets.path_states,
                         k=k, reachback_states=sets.pooled | added)


@dataclass(frozen=True)
class SizeReport:
    """Pruned-MDP size figures, one row of the Table-1-style CSV."""

    k: int
    nodes_all_layers: int
    nodes_reachable: int
    distinct_states: int


@dataclass
class PrunedCfMdp:
    """Closed, reachable restriction of a counterfactual MDP.

    `layers[t]` lists the allowed states of decision layer t (t = 0..T-1); the
    terminal layer T is implicit and unrestricted (influence is always granted
    at the horizon boundary). `actions[(s, t)]` is the allowed action tuple at
    an allowed node: every counterfactual successor of an allowed action is
    itself allowed (no probability mass leaks outside).
    """

    cf: CfMdp
    k: int
    layers: tuple[frozenset[State], ...]
    actions: dict[tuple[State, int], tuple[Action, ...]]
    nodes_all_layers: int

    @property
    def horizon(self) -> int:
        return self.cf.horizon

    @property
    def initial_state(self) -> State:
        return self.cf.initial_state

    def allowed_node(self, s: State, t: int) -> bool:
        return t < self.horizon and s in self.layers[t]

    def allowed_actions(self, s: State, t: int) -> tuple[Action, ...]:
        return self.actions.get((s, t), ())

    def kernel(self, t: int, s: State, a: Action) -> CfKernelEstimate:
        return self.cf.kernel(t, s, a)

    @property
    def allowed_states(self) -> frozenset[State]:
        return frozenset().union(*self.layers) if self.layers else frozenset()


def _admitted_actions(mdp: Mdp, path: ObservedPath, k: int) -> list[dict[State, list[Action]]]:
    """Per decision layer t: each state's k-step-admitted actions.

    A pair (s, a) at t < T-k+1 is admitted when its nominal support meets
    S^tau_t, or meets M[k-1][t+1], the states of layer t+1 with an influenced
    pair within k-1 steps. M[d][t] holds the states with some action whose
    support meets S^tau_t or M[d-1][t+1]; M[0] is empty. Actions keep their
    availability order; states with no admitted action are absent.
    """
    T, n = path.T, mdp.num_states
    pairs = [(s, a) for s in mdp.states for a in mdp.available_actions(s)]
    rows = [mdp.row_arrays(s, a)[0] for s, a in pairs]
    succ = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    owner = np.repeat(np.arange(len(pairs)), [len(r) for r in rows])
    source = np.array([mdp.state_index(s) for s, _ in pairs], dtype=np.int64)

    def pair_hits(target: np.ndarray) -> np.ndarray:
        """Pairs whose nominal support meets the boolean state mask `target`."""
        return np.bincount(owner, weights=target[succ], minlength=len(pairs)) > 0

    stau = []
    for support in influenced_states(mdp, path).per_time:
        mask = np.zeros(n, dtype=bool)
        mask[[mdp.state_index(s) for s in support]] = True
        stau.append(mask)

    empty = np.zeros(n, dtype=bool)
    frontier = [empty] * (T + 1)  # M[d][t]; layer T is always empty
    for _ in range(k - 1):
        hits = [pair_hits(stau[t] | frontier[t + 1]) for t in range(T)]
        frontier = [np.bincount(source, weights=h, minlength=n) > 0 for h in hits] + [empty]

    free_from = T - k + 1  # steps t >= free_from are always admitted
    table: list[dict[State, list[Action]]] = []
    for t in range(T):
        hits = (np.ones(len(pairs), dtype=bool) if t >= free_from
                else pair_hits(stau[t] | frontier[t + 1]))
        layer: dict[State, list[Action]] = {}
        for p in np.flatnonzero(hits):
            s, a = pairs[p]
            layer.setdefault(s, []).append(a)
        table.append(layer)
    return table


def prune_cf_mdp(cf: CfMdp, mdp: Mdp, path: ObservedPath, k: int) -> PrunedCfMdp:
    """Restrict `cf` to k-step-influenced transitions, then close and trim.

    Admission is decided on the nominal transition graph (the influence
    definitions live there); closure and reachability run on the
    counterfactual supports, which are subsets of the nominal ones.
    """
    if k < 1:
        raise ValidationFailed("pruning requires k >= 1")
    T = path.T
    admitted = _admitted_actions(mdp, path, k)

    # Forward sweep: candidate nodes reachable through admitted pairs.
    candidates: list[set[State]] = [set() for _ in range(T + 1)]
    candidates[0] = {path.state(0)}
    admitted_pairs: dict[int, list[tuple[State, Action]]] = {t: [] for t in range(T)}
    for t in range(T):
        for s in sorted(candidates[t], key=mdp.state_index):
            for a in admitted[t].get(s, ()):
                admitted_pairs[t].append((s, a))
                candidates[t + 1].update(cf.support(t, s, a))

    # Backward closure: drop actions that can leak onto dead nodes; a node with
    # no surviving action is dead and cascades to its predecessors.
    alive: list[set[State]] = [set() for _ in range(T + 1)]
    alive[T] = set(mdp.states)  # horizon boundary: influence always granted
    usable: dict[tuple[State, int], list[Action]] = {}
    for t in range(T - 1, -1, -1):
        for s, a in admitted_pairs[t]:
            if all(s2 in alive[t + 1] for s2 in cf.support(t, s, a)):
                usable.setdefault((s, t), []).append(a)
                alive[t].add(s)

    if (path.state(0), 0) not in usable:
        raise EmptyPrunedMdp(
            f"k={k} pruning left no usable action at the initial node; "
            "the counterfactual kernel is inconsistent with the path"
        )

    # Forward reachability over usable pairs; successors are alive by closure.
    reach: list[set[State]] = [set() for _ in range(T)]
    reach[0] = {path.state(0)}
    for t in range(T - 1):
        for s in reach[t]:
            for a in usable.get((s, t), ()):
                reach[t + 1].update(s2 for s2 in cf.support(t, s, a) if s2 in alive[t + 1])

    actions = {
        (s, t): tuple(sorted(usable[(s, t)], key=mdp.action_index))
        for t in range(T) for s in reach[t] if (s, t) in usable
    }
    layers = tuple(frozenset(reach[t]) for t in range(T))

    return PrunedCfMdp(
        cf=cf, k=k, layers=layers, actions=actions,
        nodes_all_layers=_count_all_layers(mdp, admitted),
    )


def _count_all_layers(mdp: Mdp, admitted: list[dict[State, list[Action]]]) -> int:
    """Admitted (state, layer) count before reachability, terminal layer included.

    This is the Table-1 convention: at k = T+1 it equals |S| * (T+1).
    """
    terminal = {int(i) for s, acts in admitted[-1].items() for a in acts
                for i in mdp.row_arrays(s, a)[0]}
    return sum(len(layer) for layer in admitted) + len(terminal)


def pruned_size_report(pruned: PrunedCfMdp) -> SizeReport:
    nodes = sum(len(layer) for layer in pruned.layers)
    return SizeReport(
        k=pruned.k,
        nodes_all_layers=pruned.nodes_all_layers,
        nodes_reachable=nodes,
        distinct_states=len(pruned.allowed_states),
    )
