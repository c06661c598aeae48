"""Finite-horizon MDP core: the compiled MDP, the checked observed path and
path sampling, and the JSON interchange.

States and actions are plain string identifiers so every artifact round-trips
through JSON unchanged; everything else is integer arrays over the (state,
action) pairs that have a transition row. A missing pair means the action is
unavailable in that state.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import UndefinedPolicyAction, ValidationFailed

State = str
Action = str

# Probability sanity tolerance; rows off by more than this are rejected at load.
PROB_TOL = 1e-9


class Mdp:
    """Immutable finite MDP compiled to integer arrays, built by
    `Mdp.from_arrays` from index arrays. Zero-probability entries are
    dropped, so every entry is support.

    Pair p is (state `source[p]`, action `action[p]`) with reward
    `reward[p]` and nominal row `row_id[p]`; `pair_at[s, a]` is the pair of
    state s and action a, -1 where there is no row. Pairs are ordered by
    state index, then action index, so the pairs of state i are
    `start[i]:start[i+1]`. The rows are a table of the distinct nominal rows
    (pairs with bit-identical rows share one), numbered by their first pair:
    entries `row_start[r]:row_start[r+1]` are row r, entry e is successor
    `succ[e]` of row `owner[e]` with probability `prob[e]` and log
    probability `logp[e]`, successors ascending within a row, which fixes
    argmax tie-breaking to the lowest state index everywhere downstream.
    `initial[i]` is the initial probability of state i, and `digest` is
    `mdp_hash` of the whole. The labels `states` and `actions` name the
    indices; no label dict is kept, as `ObservedPath` compiles path labels.
    """

    @classmethod
    def from_arrays(cls, states, actions, source, action, reward, row, owner, succ, prob,
                    init_state, init_prob, name: str = "") -> Mdp:
        """The MDP of index arrays, in any order: pair p is (state `source[p]`,
        action `action[p]`) with reward `reward[p]` and row `row[p]` of a table
        whose entry e is successor `succ[e]` of row `owner[e]` (rows 0 to the
        largest `owner`) with probability `prob[e]`, and initial entry i gives
        state `init_state[i]` probability `init_prob[i]`. A negative `owner`,
        a `row` outside the table or a row no pair names is refused before
        any other fault is looked for. Every other broken invariant is listed
        in one ValidationFailed: duplicate labels, an index outside the labels
        (-1, say), a pair, a row's successor or an initial state given twice,
        non-finite or negative probabilities, a non-finite reward, and a row
        or the initial distribution not summing to one. Faults name known
        indices by their labels and unknown ones as #index, pairs in the
        compiled order (unknown indices last, in the given order), and a
        row's entries in the given order, once for each pair that names the
        row."""
        mdp = cls.__new__(cls)
        mdp.states, mdp.actions, mdp.name = tuple(states), tuple(actions), name
        n, na = len(mdp.states), len(mdp.actions)
        source, action, row, owner, succ, init_state = (
            np.asarray(x, dtype=np.int64) for x in (source, action, row, owner, succ, init_state))
        reward, prob, init_prob = (np.asarray(x, dtype=np.float64)
                                   for x in (reward, prob, init_prob))
        if (owner < 0).any():  # no row to name the fault by
            raise ValidationFailed("; ".join(f"entry {e} has unknown row #{o}"
                                             for e, o in enumerate(owner.tolist()) if o < 0))
        rows = int(owner.max(initial=-1)) + 1
        if (p := _first((row < 0) | (row >= rows))) is not None:
            raise ValidationFailed(f"row ({_label(mdp.states, int(source[p]))},"
                                   f"{_label(mdp.actions, int(action[p]))}) names row {row[p]}, "
                                   f"not one of the {rows} rows of the MDP's row table")
        if (unnamed := np.flatnonzero(np.bincount(row, minlength=rows) == 0)).size:
            raise ValidationFailed("; ".join(f"row {r} of the MDP's row table is named by no pair"
                                             for r in unnamed.tolist()))
        known_s, known_a = (source >= 0) & (source < n), (action >= 0) & (action < na)
        known_e, known_i = (succ >= 0) & (succ < n), (init_state >= 0) & (init_state < n)
        # Pairs by (state, action), rows renumbered by the first pair naming
        # each, and entries by (row, successor), unknown indices last in the
        # given order: one stable sort of a combined key each, which is the
        # order of a lexsort.
        key = np.where(known_s, source, n) * (na + 1) + np.where(known_a, action, na)
        order = np.argsort(key, kind="stable")
        rank = np.argsort(np.argsort(np.unique(row[order], return_index=True)[1]))
        row, owner = rank[row], rank[owner]
        entry_key = owner * (n + 1) + np.where(known_e, succ, n)
        entries = np.argsort(entry_key, kind="stable")
        pair_twice = _repeats(key, order, known_s & known_a)
        entry_twice = _repeats(entry_key, entries, known_e)
        init_twice = _repeats(init_state, np.argsort(init_state, kind="stable"), known_i)
        total = np.bincount(owner, weights=prob, minlength=rows)
        init_total = np.bincount(np.zeros(len(init_prob), dtype=np.int64), weights=init_prob,
                                 minlength=1)
        if (len(set(mdp.states)) < n or len(set(mdp.actions)) < na
                or not all(m.all() for m in (known_s, known_a, known_e, known_i, np.isfinite(prob),
                                             prob >= 0, np.abs(total - 1.0) <= PROB_TOL,
                                             np.isfinite(reward), np.isfinite(init_prob),
                                             init_prob >= 0, np.abs(init_total - 1.0) <= PROB_TOL))
                or pair_twice.any() or entry_twice.any() or init_twice.any()):
            pairs = [(_label(mdp.states, s), _label(mdp.actions, a))
                     for s, a in zip(source.tolist(), action.tolist())]
            at = [_label(mdp.states, x) for x in succ.tolist()]
            initials = [_label(mdp.states, x) for x in init_state.tolist()]

            def row_name(p):
                return "row ({},{})".format(*pairs[p])

            def listed(mask):
                return order[mask[order]].tolist()

            # Pair by pair, the entries of its row in the given order: entry
            # `listing[i]` of pair `order[item[i]]`.
            item, at_row = gather_rows(np.bincount(owner, minlength=rows), row[order])
            listing = np.argsort(owner, kind="stable")[at_row]

            def entry_faults(mask):
                hit = mask[listing]
                return zip(order[item[hit]].tolist(), listing[hit].tolist())

            bad = [f"duplicate {kind} label {x}" for kind, names in (("state", mdp.states),
                                                                     ("action", mdp.actions))
                   for x, c in Counter(names).items() if c > 1]
            bad += [f"kernel {row_name(p)} has unknown source state {pairs[p][0]}"
                    for p in listed(~known_s)]
            bad += [f"kernel {row_name(p)} has unknown action {pairs[p][1]}"
                    for p in listed(~known_a)]
            bad += [f"{row_name(p)} is given twice" for p in listed(pair_twice)]
            bad += [f"{row_name(p)} references unknown state {at[e]}"
                    for p, e in entry_faults(~known_e)]
            bad += [f"{row_name(p)} lists successor {at[e]} twice"
                    for p, e in entry_faults(entry_twice)]
            bad += _distribution_faults(prob[listing], item, total[row[order]],
                                        lambda i: row_name(order[i]), lambda i: at[listing[i]])
            bad += [f"{row_name(p)} has non-finite reward {reward[p].item()!r}"
                    for p in listed(~np.isfinite(reward))]
            bad += [f"initial distribution references unknown state {initials[i]}"
                    for i in np.flatnonzero(~known_i).tolist()]
            bad += [f"initial distribution lists state {initials[i]} twice"
                    for i in np.flatnonzero(init_twice).tolist()]
            bad += _distribution_faults(init_prob, np.zeros(len(init_prob), dtype=np.int64),
                                        init_total, lambda _: "initial distribution",
                                        initials.__getitem__)
            raise ValidationFailed("; ".join(bad))

        # Zero entries dropped (a row keeps one or more: it sums to one), and
        # of the rows of one content the first by pair kept, renumbered.
        entries = entries[prob[entries] != 0.0]
        owner, succ, prob = owner[entries], succ[entries], prob[entries]
        same = _same_rows(owner, succ, prob, rows)
        first = same == np.arange(rows)
        kept, number = first[owner], np.cumsum(first) - 1
        mdp.source, mdp.action, mdp.reward = source[order], action[order], reward[order]
        mdp.row_id = number[same[row[order]]]
        mdp.owner, mdp.succ, mdp.prob = number[owner[kept]], succ[kept], prob[kept]
        mdp.start = np.searchsorted(mdp.source, np.arange(n + 1))
        mdp.row_start = np.searchsorted(mdp.owner, np.arange(first.sum() + 1))
        mdp.logp = np.log(mdp.prob)
        mdp.pair_at = np.full((n, na), -1, dtype=np.int64)
        mdp.pair_at[mdp.source, mdp.action] = np.arange(len(order))
        mdp.initial = np.zeros(n)
        mdp.initial[init_state] = init_prob
        for a in (mdp.source, mdp.action, mdp.row_id, mdp.owner, mdp.start, mdp.row_start,
                  mdp.succ, mdp.prob, mdp.logp, mdp.reward, mdp.pair_at, mdp.initial):
            a.flags.writeable = False  # `digest` is computed once
        mdp.digest = mdp_hash(mdp)
        return mdp

    @property
    def num_states(self) -> int:
        return len(self.states)

    def row(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nominal row of pair p as (successor indices, probs, log probs) views."""
        r = self.row_id[p]
        lo, hi = self.row_start[r], self.row_start[r + 1]
        return self.succ[lo:hi], self.prob[lo:hi], self.logp[lo:hi]


def _repeats(key: np.ndarray, order: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Mask of the `known` items whose `key` equals that of the item before
    them in `order`, a stable sort of `key`: each repeat after the first."""
    twice = np.zeros(len(key), dtype=bool)
    twice[order[1:]] = (key[order[1:]] == key[order[:-1]]) & known[order[1:]]
    return twice


def _same_rows(owner: np.ndarray, succ: np.ndarray, prob: np.ndarray, rows: int) -> np.ndarray:
    """Per row of a table whose entries are listed row by row (entry e is
    successor `succ[e]` of row `owner[e]` with probability `prob[e]`), a row
    with the same successors and the same probability bits: one np.unique
    over the rows of each size, each row's entries as one opaque item."""
    size = np.bincount(owner, minlength=rows)
    start = np.cumsum(size) - size
    same = np.arange(rows)
    for k in set(size.tolist()):
        r = np.flatnonzero(size == k)
        at = start[r, None] + np.arange(k)
        items = np.concatenate([succ[at], prob[at].view(np.int64)], axis=1)
        _, first, inverse = np.unique(items.view(np.dtype((np.void, items.shape[1] * 8))).ravel(),
                                      return_index=True, return_inverse=True)
        same[r] = r[first[inverse]]
    return same


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true element of `mask`, None if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _label(labels: tuple, i: int):
    """Label i, or #i where i is not an index of `labels`."""
    return labels[i] if 0 <= i < len(labels) else f"#{i}"


def _distribution_faults(prob: np.ndarray, owner: np.ndarray, total: np.ndarray,
                         name: Callable[[int], str], at: Callable[[int], State]) -> list[str]:
    """Faults of distributions whose entries sum to `total`: entry e, in the
    order listed, of distribution `name(owner[e])` has probability `prob[e]`
    at state `at(e)`; each must be finite and non-negative, and each
    distribution must sum to one within PROB_TOL."""
    bad = [f"{name(owner[e])} has non-finite probability {prob[e].item()!r} at {at(e)}"
           for e in np.flatnonzero(~np.isfinite(prob)).tolist()]
    bad += [f"{name(owner[e])} has negative probability {prob[e].item()!r} at {at(e)}"
            for e in np.flatnonzero(prob < 0).tolist()]
    return bad + [f"{name(i)} sums to {float(total[i])!r}"
                  for i in np.flatnonzero(np.abs(total - 1.0) > PROB_TOL).tolist()]


@dataclass(frozen=True, init=False)
class ObservedPath:
    """The observed path tau of length T, checked and compiled against its MDP.

    `steps` holds the (state, action) labels; only JSON and `path_hash` read
    it. `mdp_digest` is the `digest` of the MDP the path was built against;
    every consumer checks it before reading the indices. The read-only int
    arrays `state[t]`, `action[t]` and `pair[t]` are the indices of step t,
    and `next_pos[t]` (t < T-1) is the position of s_{t+1} in the nominal row
    of `pair[t]`, all built here from label maps, `mdp.pair_at` and a search
    of each row's ascending successors. Every broken invariant (an initial
    state of zero initial probability, a step without a kernel row, a
    transition of probability zero) is listed in one ValidationFailed; an
    empty path is valid. Paths are immutable and compare by `steps` and
    `mdp_digest`.
    """

    steps: tuple[tuple[State, Action], ...]
    mdp_digest: str
    state: np.ndarray = field(compare=False, repr=False)
    action: np.ndarray = field(compare=False, repr=False)
    pair: np.ndarray = field(compare=False, repr=False)
    next_pos: np.ndarray = field(compare=False, repr=False)

    def __init__(self, mdp: Mdp, steps):
        steps = tuple(steps)
        sidx, aidx = (dict(zip(labels, range(len(labels)))) for labels in (mdp.states, mdp.actions))
        state, action = [sidx.get(s, -1) for s, _ in steps], [aidx.get(a, -1) for _, a in steps]
        bad, pair, pos = [], [], []
        if steps and (state[0] < 0 or mdp.initial[state[0]] <= 0.0):
            bad.append(f"initial state {steps[0][0]} has zero initial probability")
        for t, (s, a) in enumerate(steps):
            pair.append(int(mdp.pair_at[state[t], action[t]]) if min(state[t], action[t]) >= 0 else -1)
            if pair[-1] < 0:
                bad.append(f"step {t}: no kernel row for ({s},{a})")
            elif t + 1 < len(steps):
                succ = mdp.row(pair[-1])[0]
                pos.append(int(succ.searchsorted(state[t + 1])))  # successors ascend
                if pos[-1] == len(succ) or succ[pos[-1]] != state[t + 1]:
                    bad.append(f"step {t}: transition {s} -> {steps[t + 1][0]} under {a} has probability 0")
        if bad:
            raise ValidationFailed("; ".join(bad))
        T = len(steps)
        flat = np.array(state + action + pair + pos, dtype=np.int64)
        flat.flags.writeable = False
        vars(self).update(steps=steps, mdp_digest=mdp.digest, state=flat[:T],  # frozen
                          action=flat[T:2 * T], pair=flat[2 * T:3 * T], next_pos=flat[3 * T:])

    @property
    def T(self) -> int:
        return len(self.steps)


def sample_path(mdp: Mdp, policy: Callable[[State, int], Action | None], horizon: int,
                seed: int) -> ObservedPath:
    """Sample a length-`horizon` path under `policy`, a (state, t) -> action
    callable; deterministic given the seed. An action label (or None) with
    no row at its state raises UndefinedPolicyAction. Of the seed's
    `horizon + 1` uniforms, u[0] times the initial support's total draws s_0
    and u[t+1] the successor at step t, each the first entry whose np.cumsum
    exceeds it, clamped to the last. A horizon whose `horizon + 1` float64
    uniforms cannot be addressed is refused before any draw."""
    if (horizon + 1) * 8 > np.iinfo(np.intp).max:
        raise ValidationFailed(f"sample horizon {horizon} is too large: its {horizon + 1} "
                               "float64 uniforms must be addressable")
    u = np.random.default_rng(seed).random(horizon + 1)
    support = np.flatnonzero(mdp.initial > 0.0)
    cum = mdp.initial[support].cumsum()
    si = support[min(int(cum.searchsorted(u[0] * cum[-1], side="right")), len(support) - 1)]
    aidx = dict(zip(mdp.actions, range(len(mdp.actions))))
    steps: list[tuple[State, Action]] = []
    for t in range(horizon):
        s = mdp.states[si]
        a = policy(s, t)
        if (ai := aidx.get(a)) is None or (p := mdp.pair_at[si, ai]) < 0:
            raise UndefinedPolicyAction(f"policy has no usable action at ({s}, t={t})")
        succ, probs, _ = mdp.row(p)
        steps.append((s, a))
        cum = probs.cumsum()
        si = succ[min(int(cum.searchsorted(u[t + 1], side="right")), len(succ) - 1)]
    return ObservedPath(mdp, steps)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def read_json(file):
    """Parsed JSON of `file`; a missing or malformed file, or one nested
    deeper than `json` can recurse, is a validation error."""
    try:
        with open(file) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationFailed(f"cannot read JSON from {file}: {exc}") from exc


def mdp_to_json(mdp: Mdp) -> dict:
    """The MDP in its own indexing: label lists, the pairs in compiled order as
    columns `s`, `a`, `r` and `row`, which indexes the MDP's row table of the
    distinct nominal rows, and the initial support as columns `s`, `p`."""
    start = np.flatnonzero(mdp.initial)
    return {"name": mdp.name, "states": list(mdp.states), "actions": list(mdp.actions),
            "pairs": {"s": mdp.source.tolist(), "a": mdp.action.tolist(),
                      "r": mdp.reward.tolist(), "row": mdp.row_id.tolist()},
            "rows": {"size": np.diff(mdp.row_start).tolist(), "succ": mdp.succ.tolist(),
                     "prob": mdp.prob.tolist()},
            "initial": {"s": start.tolist(), "p": mdp.initial[start].tolist()}}


def mdp_from_json(obj: Mapping) -> Mdp:
    """The MDP of a `mdp_to_json` object: a JSON string name, JSON arrays of
    string labels and JSON integer columns (numbers for probabilities and
    rewards) of matching lengths. A row off one by over 1e-12 but within
    PROB_TOL is renormalized; other faults are left to `Mdp.from_arrays`,
    which takes the row table as it is."""
    try:
        name, = json_values([obj.get("name", "")], "MDP name", str)
        states, actions = (json_values(obj[f"{key}s"], f"MDP {key}", str)
                           for key in ("state", "action"))
        pairs, rows, initial = obj["pairs"], obj["rows"], obj["initial"]
        source = json_values(pairs["s"], "MDP pair state", int)
        action = json_values(pairs["a"], "MDP pair action", int)
        reward = json_values(pairs["r"], "MDP reward", float)
        row = json_values(pairs["row"], "MDP pair row", int)
        size = json_values(rows["size"], "MDP row size", int)
        succ = json_values(rows["succ"], "MDP row successor", int)
        prob = json_values(rows["prob"], "MDP row probability", float)
        if (size < 0).any() or not sum(rows["size"]) == len(succ) == len(prob):  # cannot overflow
            raise ValidationFailed("the row sizes of the MDP's row table do not split its "
                                   f"{len(succ)} successors and {len(prob)} probabilities")
        init_state = json_values(initial["s"], "MDP initial state", int)
        init_prob = json_values(initial["p"], "MDP initial probability", float)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailed(f"malformed MDP JSON: {exc}") from exc
    owner = np.repeat(np.arange(len(size)), size)  # each entry's row
    lengths = [len(x) for x in (source, action, reward, row, init_state, init_prob)]
    if len(set(lengths[:4])) > 1 or lengths[4] != lengths[5]:
        raise ValidationFailed("MDP pair columns s, a, r, row and initial columns s, p have "
                               f"{', '.join(map(str, lengths))} entries")
    total = np.bincount(owner, weights=prob, minlength=len(size))
    drift = np.abs(total - 1.0)
    near = (drift > 1e-12) & (drift <= PROB_TOL)
    if near.any():
        prob = np.where(near[owner], prob / total[owner], prob)
    return Mdp.from_arrays(states, actions, source, action, reward, row, owner, succ, prob,
                           init_state, init_prob, name=name)


def gather_rows(size: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared rows expanded per item: row r of a table holds the `size[r]`
    entries after rows 0..r-1, and item i names row `index[i]`. Returns each
    entry's item and its position in the table, item by item."""
    length = size[index]
    at = np.repeat((np.cumsum(size) - size)[index] - (np.cumsum(length) - length), length)
    at += np.arange(len(at))
    return np.repeat(np.arange(len(index)), length), at


def path_to_json(path: ObservedPath) -> dict:
    return {"steps": [{"t": t, "s": s, "a": a} for t, (s, a) in enumerate(path.steps)]}


def path_from_json(obj: Mapping, mdp: Mdp) -> ObservedPath:
    """The path of a `path_to_json` object, checked and compiled against `mdp`.
    Each step's `t` must be a JSON integer, the steps are 0..T-1, and each
    step's `s` and `a` are JSON strings."""
    try:
        steps = json_values(obj["steps"], "path step", dict)
        t = json_values([e["t"] for e in steps], "path step t", int)
        if sorted(t.tolist()) != list(range(len(steps))):
            raise ValidationFailed("path steps are not consecutively indexed from 0")
        s, a = (json_values([e[key] for e in steps], f"path step {key}", str) for key in "sa")
        steps = [(s[i], a[i]) for i in np.argsort(t).tolist()]
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailed(f"malformed path JSON: {exc}") from exc
    return ObservedPath(mdp, steps)


# Each kind of JSON value: the Python types json.loads gives it, and its name.
JSON_KINDS = {int: ({int}, "an integer"), float: ({int, float}, "a number"), str: ({str}, "a string"),
              list: ({list}, "a JSON array"), dict: ({dict}, "a JSON object")}


def json_values(values: list, field: str, kind: type) -> np.ndarray | tuple:
    """`values`, a JSON array of JSON integers (`kind` int), numbers (float),
    strings (str), arrays (list) or objects (dict), as an int64 array, a
    float64 array or a tuple. Any other value in its place or in it is a
    validation error naming `field` and showing at most 80 characters of the
    value's repr (a wrong value can be a whole table): a bool is never an
    integer or a number, and nothing is truncated, parsed or passed through
    str(). An integer beyond int64 raises OverflowError."""
    types, name = JSON_KINDS[kind]
    if type(values) is not list:
        raise ValidationFailed(f"{field} list {values!r:.80} is not a JSON array")
    if not set(map(type, values)) <= types:
        value = next(v for v in values if type(v) not in types)
        raise ValidationFailed(f"{field} {value!r:.80} is not {name}")
    if kind not in (int, float):
        return tuple(values)
    return np.array(values, dtype=np.int64 if kind is int else np.float64)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def mdp_hash(mdp: Mdp) -> str:
    """SHA-256 of the labels and the stored arrays, whose row table `from_arrays`
    makes canonical: one kernel has one digest however its rows are
    factored. Each Mdp keeps it as `mdp.digest`, computed once when built."""
    h = hashlib.sha256(canonical_dumps([mdp.name, mdp.states, mdp.actions,
                                        len(mdp.source), len(mdp.succ)]).encode())
    for a in (mdp.source, mdp.action, mdp.row_id, mdp.row_start, mdp.succ, mdp.prob, mdp.reward,
              mdp.initial):
        h.update(a)
    return h.hexdigest()


def path_hash(path: ObservedPath) -> str:
    return hashlib.sha256(canonical_dumps(path_to_json(path)).encode()).hexdigest()
