"""Finite-horizon MDP core: representation, validation, path sampling and
backward-induction value iteration.

States and actions are plain string identifiers so every artifact round-trips
through JSON unchanged. Transition rows are stored sparsely: a missing
(state, action) entry means the action is unavailable in that state.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import MissingKernelRow, UndefinedPolicyAction, ValidationFailed

State = str
Action = str

# Probability sanity tolerance; rows off by more than this are rejected at load.
PROB_TOL = 1e-9


@dataclass(frozen=True)
class Mdp:
    """Immutable finite MDP with sparse transition rows.

    Rewards are keyed by (state, action); a missing entry means reward 0.
    Instances are safe to share across workers: all operations on them are
    pure functions of explicit inputs. The label dicts are the interchange
    form; `pair_table()` is the compiled form the algorithms run on.
    """

    states: tuple[State, ...]
    actions: tuple[Action, ...]
    kernel: dict[tuple[State, Action], dict[State, float]]
    rewards: dict[tuple[State, Action], float]
    initial: dict[State, float]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_sidx", {s: i for i, s in enumerate(self.states)})
        object.__setattr__(self, "_aidx", {a: i for i, a in enumerate(self.actions)})
        object.__setattr__(self, "_pairs", None)
        object.__setattr__(self, "_hash", None)

    @property
    def num_states(self) -> int:
        return len(self.states)

    def state_index(self, s: State) -> int:
        return self._sidx[s]

    def action_index(self, a: Action) -> int:
        return self._aidx[a]

    def has_row(self, s: State, a: Action) -> bool:
        return (s, a) in self.kernel

    def row(self, s: State, a: Action) -> dict[State, float]:
        try:
            return self.kernel[(s, a)]
        except KeyError:
            raise MissingKernelRow(f"no kernel row for ({s}, {a})") from None

    def pair(self, s: State, a: Action) -> int:
        """Index of the (s, a) row in `pair_table()`."""
        self.row(s, a)  # MissingKernelRow if there is none
        return int(self.pair_table().pair_at[self._sidx[s], self._aidx[a]])

    def row_arrays(self, s: State, a: Action):
        """Support of P(.|s,a) as aligned arrays (indices, probs, log probs).

        Support indices are ascending, which fixes argmax tie-breaking to the
        lowest state index everywhere downstream.
        """
        return self.pair_table().row(self.pair(s, a))

    def available_actions(self, s: State) -> tuple[Action, ...]:
        return tuple(a for a in self.actions if (s, a) in self.kernel)

    def reward(self, s: State, a: Action) -> float:
        return self.rewards.get((s, a), 0.0)

    def pair_table(self) -> PairTable:
        """The MDP compiled to integer arrays; built once, on first use, so an
        invalid MDP can still be constructed and handed to `validate_mdp`."""
        if self._pairs is None:
            sidx, aidx = self._sidx, self._aidx
            keys = sorted(self.kernel, key=lambda sa: (sidx[sa[0]], aidx[sa[1]]))
            rows = [self.kernel[key] for key in keys]
            sizes = [len(row) for row in rows]
            owner = np.repeat(np.arange(len(keys)), sizes)
            succ = np.array([sidx[x] for row in rows for x in row], dtype=np.int64)
            order = np.lexsort((succ, owner))  # successors ascending within each pair
            prob = np.array([p for row in rows for p in row.values()], dtype=np.float64)[order]
            source = np.array([sidx[s] for s, _ in keys], dtype=np.int64)
            action = np.array([aidx[a] for _, a in keys], dtype=np.int64)
            pair_at = np.full((self.num_states, len(self.actions)), -1, dtype=np.int64)
            pair_at[source, action] = np.arange(len(keys))
            object.__setattr__(self, "_pairs", PairTable(
                source=source,
                action=action,
                start=np.searchsorted(source, np.arange(self.num_states + 1)),
                row_start=np.cumsum([0] + sizes),
                owner=owner,
                succ=succ[order],
                prob=prob,
                logp=np.log(prob),
                reward=np.array([self.rewards.get(key, 0.0) for key in keys], dtype=np.float64),
                pair_at=pair_at,
            ))
        return self._pairs


@dataclass(frozen=True)
class PairTable:
    """The (state, action) pairs that have a kernel row, indexed 0..P-1.

    Pair p is (state `source[p]`, action `action[p]`) with reward
    `reward[p]`, and `pair_at[s, a]` is the pair of state s and action a, -1
    where there is no row. Pairs are ordered by state index, then action
    index, so the pairs of state i are `start[i]:start[i+1]`. Entries
    `row_start[p]:row_start[p+1]` are the nominal row of pair p: entry e is
    successor `succ[e]` of pair `owner[e]` with probability `prob[e]` and log
    probability `logp[e]`, successors ascending within a pair.
    """

    source: np.ndarray
    action: np.ndarray
    start: np.ndarray
    row_start: np.ndarray
    owner: np.ndarray
    succ: np.ndarray
    prob: np.ndarray
    logp: np.ndarray
    reward: np.ndarray
    pair_at: np.ndarray

    def row(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nominal row of pair p as (successor indices, probs, log probs) views."""
        lo, hi = self.row_start[p], self.row_start[p + 1]
        return self.succ[lo:hi], self.prob[lo:hi], self.logp[lo:hi]

    @cached_property
    def row_id(self) -> np.ndarray:
        """Per pair, the first pair whose nominal row is bit-identical (same
        successors, same probabilities). Many actions leave a state's dynamics
        unchanged, so pairs share far fewer distinct rows than there are pairs.
        Built on first use: only counterfactual row building reads it."""
        entries = np.stack([self.succ, self.prob.view(np.int64)], axis=1)
        bounds = self.row_start.tolist()
        first: dict[bytes, int] = {}
        return np.array([first.setdefault(entries[lo:hi].tobytes(), p)
                         for p, (lo, hi) in enumerate(zip(bounds, bounds[1:]))], dtype=np.int64)


@dataclass(frozen=True)
class ObservedPath:
    """Time-indexed sequence of (state, action) pairs of length T."""

    steps: tuple[tuple[State, Action], ...]

    @property
    def T(self) -> int:
        return len(self.steps)

    def state(self, t: int) -> State:
        return self.steps[t][0]

    def action(self, t: int) -> Action:
        return self.steps[t][1]

    @property
    def visited_states(self) -> frozenset[State]:
        return frozenset(s for s, _ in self.steps)


@dataclass(frozen=True)
class Policy:
    """Deterministic time-dependent policy.

    The wrapped function may return None for (state, time) pairs it does not
    cover; consumers raise UndefinedPolicyAction when such a pair is reached.
    """

    fn: Callable[[State, int], Action | None]

    def action(self, s: State, t: int) -> Action | None:
        return self.fn(s, t)

    @staticmethod
    def tabular(table: Mapping[tuple[State, int], Action]) -> "Policy":
        return Policy(lambda s, t: table.get((s, t)))

    @staticmethod
    def constant(a: Action) -> "Policy":
        return Policy(lambda s, t: a)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def require(self) -> None:
        """Raise ValidationFailed listing every violation, if there is one."""
        if self.violations:
            raise ValidationFailed("; ".join(self.violations))


def validate_mdp(mdp: Mdp) -> ValidationReport:
    """Check every structural invariant; the report lists each violation."""
    bad: list[str] = []
    known = set(mdp.states)
    known_actions = set(mdp.actions)
    for kind, labels in (("state", mdp.states), ("action", mdp.actions)):
        bad.extend(f"duplicate {kind} label {x}" for x, c in Counter(labels).items() if c > 1)

    for (s, a), row in mdp.kernel.items():
        if s not in known:
            bad.append(f"kernel row ({s},{a}) has unknown source state {s}")
        if a not in known_actions:
            bad.append(f"kernel row ({s},{a}) has unknown action {a}")
        total = 0.0
        for s2, p in row.items():
            if s2 not in known:
                bad.append(f"row ({s},{a}) references unknown state {s2}")
            if not math.isfinite(p):
                bad.append(f"row ({s},{a}) has non-finite probability {p!r} at {s2}")
            if p < 0:
                bad.append(f"row ({s},{a}) has negative probability {p!r} at {s2}")
            total += p
        if abs(total - 1.0) > PROB_TOL:
            bad.append(f"row ({s},{a}) sums to {total!r}")

    total = 0.0
    for s, p in mdp.initial.items():
        if s not in known:
            bad.append(f"initial distribution references unknown state {s}")
        if not math.isfinite(p):
            bad.append(f"initial distribution has non-finite probability {p!r} at {s}")
        if p < 0:
            bad.append(f"initial distribution has negative probability {p!r} at {s}")
        total += p
    if abs(total - 1.0) > PROB_TOL:
        bad.append(f"initial distribution sums to {total!r}")

    for (s, a) in mdp.rewards:
        if s not in known:
            bad.append(f"reward entry ({s},{a}) references unknown state {s}")
        if a not in known_actions:
            bad.append(f"reward entry ({s},{a}) references unknown action {a}")

    return ValidationReport(tuple(bad))


def validate_path(mdp: Mdp, path: ObservedPath) -> ValidationReport:
    """Check ObservedPath invariants against an MDP."""
    bad: list[str] = []
    if path.T == 0:
        return ValidationReport(())
    s0 = path.state(0)
    if mdp.initial.get(s0, 0.0) <= 0.0:
        bad.append(f"initial state {s0} has zero initial probability")
    for t in range(path.T):
        s, a = path.steps[t]
        if not mdp.has_row(s, a):
            bad.append(f"step {t}: no kernel row for ({s},{a})")
            continue
        if t + 1 < path.T:
            s_next = path.state(t + 1)
            if mdp.row(s, a).get(s_next, 0.0) <= 0.0:
                bad.append(f"step {t}: transition {s} -> {s_next} under {a} has probability 0")
    return ValidationReport(tuple(bad))


def _draw(rng: np.random.Generator, items: list[State], probs: np.ndarray) -> State:
    cum = np.cumsum(probs)
    u = rng.random() * cum[-1]
    return items[int(np.searchsorted(cum, u, side="right").clip(0, len(items) - 1))]


def sample_path(mdp: Mdp, policy: Policy, horizon: int, seed: int) -> ObservedPath:
    """Sample a length-`horizon` path; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    init_states = [s for s in mdp.states if mdp.initial.get(s, 0.0) > 0.0]
    init_probs = np.array([mdp.initial[s] for s in init_states])
    s = _draw(rng, init_states, init_probs)
    steps: list[tuple[State, Action]] = []
    for t in range(horizon):
        a = policy.action(s, t)
        if a is None or not mdp.has_row(s, a):
            raise UndefinedPolicyAction(f"policy has no usable action at ({s}, t={t})")
        steps.append((s, a))
        idx, probs, _ = mdp.row_arrays(s, a)
        pos = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right").clip(0, len(idx) - 1))
        s = mdp.states[idx[pos]]
    return ObservedPath(tuple(steps))


def path_return(mdp: Mdp, path: ObservedPath) -> float:
    """Undiscounted sum of R(s_t, a_t) over the path."""
    return float(sum(mdp.reward(s, a) for s, a in path.steps))


def value_iteration(mdp: Mdp, horizon: int) -> tuple[Policy, list[dict[State, float]]]:
    """Optimal time-dependent policy for the undiscounted finite-horizon sum.

    Returns the policy and V_t(s) for t = 0..T (V_T = 0). Ties are broken by
    the lowest action index. States with no available action have value 0.
    """
    values: list[dict[State, float]] = [dict.fromkeys(mdp.states, 0.0)]
    table: dict[tuple[State, int], Action] = {}
    for t in range(horizon - 1, -1, -1):
        v_next = values[0]
        v_here: dict[State, float] = {}
        for s in mdp.states:
            best_v, best_a = 0.0, None
            for a in mdp.available_actions(s):
                row = mdp.kernel[(s, a)]
                q = mdp.reward(s, a) + sum(p * v_next[s2] for s2, p in row.items())
                if best_a is None or q > best_v:
                    best_v, best_a = q, a
            v_here[s] = best_v if best_a is not None else 0.0
            if best_a is not None:
                table[(s, t)] = best_a
        values.insert(0, v_here)
    return Policy.tabular(table), values


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def mdp_to_json(mdp: Mdp) -> dict:
    transitions = [
        {"s": s, "a": a, "to": {s2: p for s2, p in sorted(row.items())}}
        for (s, a), row in sorted(mdp.kernel.items())
    ]
    rewards = [{"s": s, "a": a, "r": r} for (s, a), r in sorted(mdp.rewards.items())]
    return {
        "name": mdp.name,
        "states": list(mdp.states),
        "actions": list(mdp.actions),
        "transitions": transitions,
        "rewards": rewards,
        "initial": {s: p for s, p in sorted(mdp.initial.items())},
    }


def mdp_from_json(obj: Mapping) -> Mdp:
    """Load an MDP, renormalizing rows within PROB_TOL and rejecting worse.

    Zero-probability entries are dropped, so every stored entry is support.
    """
    try:
        states = tuple(str(s) for s in obj["states"])
        actions = tuple(str(a) for a in obj["actions"])
        kernel: dict[tuple[State, Action], dict[State, float]] = {}
        for tr in obj["transitions"]:
            row = {str(s2): float(p) for s2, p in tr["to"].items() if float(p) != 0.0}
            total = sum(row.values())
            if abs(total - 1.0) > PROB_TOL:
                raise ValidationFailed(
                    f"row ({tr['s']},{tr['a']}) sums to {total!r}, outside tolerance {PROB_TOL}"
                )
            if abs(total - 1.0) > 1e-12:  # renormalize real drift, not float noise
                row = {s2: p / total for s2, p in row.items()}
            kernel[(str(tr["s"]), str(tr["a"]))] = row
        rewards = {(str(e["s"]), str(e["a"])): float(e["r"]) for e in obj.get("rewards", [])}
        initial = {str(s): float(p) for s, p in obj["initial"].items()}
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailed(f"malformed MDP JSON: {exc}") from exc
    mdp = Mdp(states, actions, kernel, rewards, initial, name=str(obj.get("name", "")))
    validate_mdp(mdp).require()
    return mdp


def path_to_json(path: ObservedPath) -> dict:
    return {"steps": [{"t": t, "s": s, "a": a} for t, (s, a) in enumerate(path.steps)]}


def path_from_json(obj: Mapping) -> ObservedPath:
    try:
        steps = sorted(obj["steps"], key=lambda e: int(e["t"]))
        if [int(e["t"]) for e in steps] != list(range(len(steps))):
            raise ValidationFailed("path steps are not consecutively indexed from 0")
        return ObservedPath(tuple((str(e["s"]), str(e["a"])) for e in steps))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailed(f"malformed path JSON: {exc}") from exc


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def mdp_hash(mdp: Mdp) -> str:
    """SHA-256 of the canonical MDP JSON; computed once per MDP."""
    if mdp._hash is None:
        blob = canonical_dumps(mdp_to_json(mdp)).encode()
        object.__setattr__(mdp, "_hash", hashlib.sha256(blob).hexdigest())
    return mdp._hash


def path_hash(path: ObservedPath) -> str:
    return hashlib.sha256(canonical_dumps(path_to_json(path)).encode()).hexdigest()
