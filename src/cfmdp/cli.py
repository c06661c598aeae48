"""Command-line front end: environment emission, path sampling, posterior
construction, pruning, solving, sweeps and rollouts.

All outputs are deterministic given the flags (CSV bytes included); the
manifest records input hashes and cache statistics so a sweep can be audited
and reproduced.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from itertools import chain, islice

import numpy as np

from . import __version__
from .errors import CfmdpError, MissingKernelRow, ValidationFailed
from .gumbel import (
    CfMdp,
    build_cf_mdp,
    build_posterior,
    load_posterior,
    nominal_cf_mdp,
    posterior_cache_key,
    save_posterior,
)
from .influence import PrunedCfMdp, prune_cf_mdp, pruned_size_report
from .mdp import (
    PROB_TOL,
    Mdp,
    ObservedPath,
    json_integers,
    json_numbers,
    mdp_from_json,
    mdp_to_json,
    path_from_json,
    path_hash,
    path_to_json,
    read_json,
    sample_path,
)
from .solver import CfPolicy, check_sweep_monotonicity, policy_to_json, rollout, solve_km, sweep
from . import environments as envs

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _sweep_grid(args, T: int) -> tuple[list[int], list[int]]:
    """The sweep's k and m values, checked against the path horizon T."""
    k_values = list(range(args.k_min, (T + 1 if args.k_max is None else args.k_max) + 1))
    m_values = list(range(args.m_min, (T if args.m_max is None else args.m_max) + 1))
    if not k_values or min(k_values) < 1 or max(k_values) > T + 1:
        raise ValidationFailed(f"k range must lie within [1, {T + 1}]")
    if not m_values or min(m_values) < 0 or max(m_values) > T:
        raise ValidationFailed(f"m range must lie within [0, {T}]")
    return k_values, m_values


def _unwritable(file: str, exc: OSError) -> ValidationFailed:
    return ValidationFailed(f"cannot write {file}: {exc}")


def _write_text(path: str, text: str) -> str:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    return hashlib.sha256(text.encode()).hexdigest()


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _load_mdp(file: str) -> Mdp:
    return mdp_from_json(read_json(file))


def _load_observation(args) -> tuple[Mdp, ObservedPath]:
    """The --mdp and --path files, the path checked against the MDP."""
    mdp = _load_mdp(args.mdp)
    return mdp, path_from_json(read_json(args.path), mdp)


def cmd_env(args) -> int:
    """Emit the environment under the --config file and the flag overrides.
    JSON arrays, as for a grid cell, become the config's tuples."""
    over = {}
    if args.config:
        loaded = read_json(args.config)
        if not isinstance(loaded, dict):
            raise ValidationFailed("--config must contain a JSON object")
        over.update(loaded)
    for key in ("population", "initial_infected", "slip", "shaping_scale", "flux"):
        val = getattr(args, key)
        if val is not None:
            over[key] = val
    if args.danger is not None:
        try:
            r, c = (int(x) for x in args.danger.split(","))
        except ValueError:
            raise ValidationFailed(f"--danger must be ROW,COL, got {args.danger!r}") from None
        over["danger"] = [r, c]
    try:
        mdp = envs.build_environment(args.env, **{key: tuple(val) if isinstance(val, list) else val
                                                  for key, val in over.items()})
    except TypeError as exc:
        raise ValidationFailed(f"bad option for environment {args.env!r}: {exc}") from exc
    _emit(json.dumps(mdp_to_json(mdp), sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    """The path of preset --policy on --mdp, at the preset's frozen seed and
    horizon unless --seed or --horizon is given. The MDP must be one of the
    preset's environment."""
    env, policy, seed, horizon = envs.PRESETS[args.policy]
    mdp = _load_mdp(args.mdp)
    if mdp.name != envs.MDP_NAMES[env]:
        raise ValidationFailed(f"preset {args.policy!r} observes the {env} environment "
                               f"(MDP name {envs.MDP_NAMES[env]!r}), but --mdp is {mdp.name!r}")
    path = sample_path(mdp, policy, args.horizon or horizon,
                       seed if args.seed is None else args.seed)
    _emit(json.dumps(path_to_json(path), sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_cf_build(args) -> int:
    mdp, path = _load_observation(args)
    posterior = build_posterior(mdp, path, args.samples, args.seed or 0)
    try:
        save_posterior(posterior, args.out)
    except OSError as exc:
        raise _unwritable(args.out, exc) from exc
    key = posterior_cache_key(mdp, path, args.samples, args.seed or 0)
    sys.stdout.write(f"posterior written to {args.out} (key {key[:16]})\n")
    return EXIT_OK


def _pruned_to_json(pruned: PrunedCfMdp) -> dict:
    """Artifact contents. `rows[t]` holds the distinct counterfactual rows of
    the usable pairs at decision layer t, one per `cf.row_key[t]` value in
    ascending order; each node maps its usable actions to their rows'
    indices in `rows[t]`. Nodes are listed by t, then state label."""
    cf = pruned.cf
    mdp, states, actions = cf.mdp, cf.mdp.states, cf.mdp.actions
    label_rank = np.empty(len(states), dtype=np.int64)
    label_rank[sorted(range(len(states)), key=states.__getitem__)] = np.arange(len(states))
    rows, nodes = [], []
    for t, usable in enumerate(pruned.usable):
        pairs = np.flatnonzero(usable)
        _, first, index = np.unique(cf.row_key[t][pairs], return_index=True, return_inverse=True)
        built = [cf.row(t, p) for p in pairs[first].tolist()]
        # One (label, probability) stream for the layer, cut into its rows.
        entries = zip([states[i] for idx, _ in built for i in idx.tolist()],
                      [x for _, probs in built for x in probs.tolist()])
        rows.append([dict(islice(entries, len(idx))) for idx, _ in built])
        # The layer's pairs by state label; a state's pairs stay in action order.
        order = np.argsort(label_rank[mdp.source[pairs]], kind="stable")
        source = mdp.source[pairs[order]]
        start = np.flatnonzero(np.diff(source, prepend=-1))  # each state's first pair
        entries = zip([actions[a] for a in mdp.action[pairs[order]].tolist()], index[order].tolist())
        nodes += [{"t": t, "s": states[si], "actions": dict(islice(entries, size))}
                  for si, size in zip(source[start].tolist(), np.diff(np.r_[start, len(pairs)]).tolist())]
    return {
        "k": pruned.k,
        "mdp_hash": mdp.digest,
        "path": path_to_json(cf.path),
        "samples": cf.posterior.n if cf.posterior is not None else 0,
        "nodes_all_layers": pruned.nodes_all_layers,
        "layers": [sorted(layer) for layer in pruned.layers],
        "rows": rows,
        "actions": nodes,
    }


def _layers(t: np.ndarray, T: int) -> np.ndarray:
    """Artifact time indices t, checked to be decision layers 0..T-1."""
    if (e := _first((t < 0) | (t >= T))) is not None:
        raise ValidationFailed(f"time {int(t[e])!r} outside decision layers 0..{T - 1}")
    return t


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true element of `mask`, None if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _row_key(nodes: list, rows: list, mdp: Mdp, state_at: dict) -> np.ndarray:
    """The artifact's (T, pairs) row indices, -1 where a pair is not usable.

    Each node's `t` must be a JSON integer naming a decision layer, no node
    may be listed twice, every usable action must have a nominal row, and it
    must name one of the rows of its layer by an int index (not a bool, and
    never negative). `state_at` maps state labels to indices.
    """
    T, n = len(rows), mdp.num_states
    node = (_layers(json_integers([e["t"] for e in nodes], "pruned node t"), T) * n
            + np.array([state_at[e["s"]] for e in nodes], dtype=np.int64))
    twice = np.sort(node)
    if (e := _first(twice[1:] == twice[:-1])) is not None:
        t, si = divmod(int(twice[e]), n)
        raise ValidationFailed(f"node ({mdp.states[si]}, t={t}) is listed twice")
    acts = [e["actions"] for e in nodes]
    t, si = np.divmod(np.repeat(node, [len(a) for a in acts]), n)
    labels = list(chain.from_iterable(acts))
    action_at = dict(zip(mdp.actions, range(len(mdp.actions))))
    act = np.array([action_at.get(a, -1) for a in labels], dtype=np.int64)
    pair = np.where(act >= 0, mdp.pair_at[si, act], -1)
    raw = list(chain.from_iterable(map(dict.values, acts)))
    size = np.array([len(layer) for layer in rows], dtype=np.int64)
    most = int(size.max(initial=0))
    index = np.array([i if type(i) is int and 0 <= i < most else -1 for i in raw], dtype=np.int64)
    if (e := _first((pair < 0) | (index < 0) | (index >= size[t]))) is not None:
        where = f"allowed ({mdp.states[si[e]]}, {labels[e]}) at t={t[e]}"
        if pair[e] < 0:
            raise ValidationFailed(f"{where} has no nominal row")
        raise ValidationFailed(f"{where} names row {raw[e]!r}, not one of the "
                               f"{size[t[e]]} rows of layer {t[e]}")
    key = np.full((T, len(mdp.source)), -1, dtype=np.int64)
    key[t, pair] = index
    return key


def _pruned_from_json(obj: dict, mdp: Mdp) -> PrunedCfMdp:
    """The pruned MDP stored by `_pruned_to_json`; a malformed artifact is a
    validation error.

    `k`, `nodes_all_layers` and each node's `t` must be JSON integers, and
    each row probability a JSON number. Besides its shape, the artifact must
    describe a closed pruned MDP: every row is a distribution (each value in
    (0, 1], the sum one within PROB_TOL) that lies on the nominal support of
    every pair naming it, every row at t < T-1 stays inside layer t+1, layer
    0 is {s_0}, and each layer t holds exactly the states of the nodes
    listed at t. The rows are read into flat arrays, one list pass per
    column, and checked as masks.
    """
    try:
        if obj["mdp_hash"] != mdp.digest:
            raise ValidationFailed("pruned artifact was built from a different MDP")
        path = path_from_json(obj["path"], mdp)
        T, n, rows = path.T, mdp.num_states, obj["rows"]
        if type(obj["samples"]) is not int or obj["samples"] < 0:
            raise ValidationFailed(f"pruned artifact sample count {obj['samples']!r} is not >= 0")
        for field in ("k", "nodes_all_layers"):
            if type(obj[field]) is not int:
                raise ValidationFailed(f"pruned artifact {field} {obj[field]!r} is not an integer")
        if not 1 <= (k := obj["k"]) <= T + 1:
            raise ValidationFailed(f"pruned artifact k={k} outside 1..{T + 1}")
        if len(obj["layers"]) != T or len(rows) != T:
            raise ValidationFailed(f"pruned artifact has {len(obj['layers'])} layers and "
                                   f"{len(rows)} row layers, path has {T}")
        state_at = dict(zip(mdp.states, range(n)))
        reach = np.zeros((T, n), dtype=bool)
        for t, layer in enumerate(obj["layers"]):
            reach[t][[state_at[s] for s in layer]] = True
        if T == 0 or np.flatnonzero(reach[0]).tolist() != path.state[:1].tolist():
            raise ValidationFailed("pruned artifact layer 0 is not {s_0}")
        key = _row_key(obj["actions"], rows, mdp, state_at)

        # Row g is rows[row_t[g]][row_i[g]]; entries ascend by (row, successor).
        flat = list(chain.from_iterable(rows))
        row_t = np.repeat(np.arange(T), [len(layer) for layer in rows])
        first = np.searchsorted(row_t, np.arange(T))
        row_i = np.arange(len(flat)) - first[row_t]
        owner = np.repeat(np.arange(len(flat)), [len(row) for row in flat])
        succ = np.array([state_at[s2] for s2 in chain.from_iterable(flat)], dtype=np.int64)
        prob = json_numbers(list(chain.from_iterable(map(dict.values, flat))), "pruned row probability")
        order = np.lexsort((succ, owner))
        succ, prob = succ[order], prob[order]
        bad = np.bincount(owner, weights=~((prob > 0) & (prob <= 1)), minlength=len(flat)) > 0
        bad |= np.abs(np.bincount(owner, weights=prob, minlength=len(flat)) - 1.0) > PROB_TOL
        if (g := _first(bad)) is not None:  # NaN is outside (0, 1]
            raise ValidationFailed(f"row {row_i[g]} of layer {row_t[g]} is not a distribution")
        nxt = row_t[owner] + 1
        leaks = (nxt < T) & ~reach[np.minimum(nxt, T - 1), succ]
        if (g := _first(np.bincount(owner, weights=leaks, minlength=len(flat)) > 0)) is not None:
            raise ValidationFailed(
                f"row {row_i[g]} of layer {row_t[g]} is not closed in layer {row_t[g] + 1}")

        # Each (t, pair, row) lies on the pair's nominal support. Pairs with
        # one nominal row have one support, so each (row, nominal row) is
        # checked once, at its first pair.
        t, pair = np.nonzero(key >= 0)
        g = first[t] + key[t, pair]
        _, rep, which = np.unique(g * len(mdp.source) + mdp.row_id[pair], return_index=True,
                                  return_inverse=True)
        bounds = np.searchsorted(owner, np.arange(len(flat) + 1))
        size = bounds[g[rep] + 1] - bounds[g[rep]]
        entry = np.arange(size.sum()) + np.repeat(bounds[g[rep]] - np.cumsum(size) + size, size)
        nominal = mdp.owner * n + mdp.succ  # ascending
        want = np.repeat(pair[rep], size) * n + succ[entry]
        off = nominal[np.minimum(np.searchsorted(nominal, want), len(nominal) - 1)] != want
        off = np.bincount(np.repeat(np.arange(len(rep)), size), weights=off, minlength=len(rep)) > 0
        if (e := _first(off[which])) is not None:
            s, a = mdp.states[mdp.source[pair[e]]], mdp.actions[mdp.action[pair[e]]]
            raise ValidationFailed(f"row {key[t[e], pair[e]]} of layer {t[e]} is off the "
                                   f"nominal support of ({s}, {a})")

        # Each layer is the states of its nodes.
        nodes = np.zeros((T, n), dtype=bool)
        nodes[t, mdp.source[pair]] = True
        if (e := _first(nodes.ravel() != reach.ravel())) is not None:
            t, si = divmod(e, n)
            if nodes[t, si]:
                raise ValidationFailed(f"node ({mdp.states[si]}, t={t}) is outside layer {t}")
            raise ValidationFailed(f"layer {t} lists {mdp.states[si]}, which has no usable action")

        bounds = bounds.tolist()
        cf_rows = {(t, i): (succ[lo:hi], prob[lo:hi])
                   for t, i, lo, hi in zip(row_t.tolist(), row_i.tolist(), bounds, bounds[1:])}
        cf = CfMdp(mdp, path, None, row_key=key, rows=cf_rows)
        return PrunedCfMdp(cf=cf, k=k, reach=tuple(reach), usable=tuple(key >= 0),
                           nodes_all_layers=obj["nodes_all_layers"])
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, MissingKernelRow) as exc:
        raise ValidationFailed(f"malformed pruned artifact: {exc!r}") from exc


def cmd_prune(args) -> int:
    mdp, path = _load_observation(args)
    if args.nominal:
        cf = nominal_cf_mdp(mdp, path)
    else:  # CfMdp refuses a posterior built from another path
        cf = CfMdp(mdp, path, load_posterior(args.posterior, mdp))
    pruned = prune_cf_mdp(cf, args.k)
    text = json.dumps(_pruned_to_json(pruned), sort_keys=True)
    _emit(text + "\n", args.out)
    report = pruned_size_report(pruned)
    sys.stderr.write(
        f"k={report.k} nodes_all_layers={report.nodes_all_layers} "
        f"nodes_reachable={report.nodes_reachable} distinct_states={report.distinct_states}\n"
    )
    return EXIT_OK


def _pruned_hash(pruned: PrunedCfMdp, samples: int) -> str:
    """SHA-256 of what `_pruned_from_json` built from a pruned artifact with
    `samples` samples: its counts, the MDP and path hashes, the row keys and
    the rows in key order. The layers are left out: the loader checks that
    they are the states of the nodes, which the row keys fix. A compact and
    an indented copy, or a copy with an unread key, agree."""
    cf = pruned.cf
    keys = sorted(cf.rows)
    rows = [cf.rows[key] for key in keys]
    h = hashlib.sha256(json.dumps([pruned.k, samples, pruned.nodes_all_layers, cf.mdp.digest,
                                   path_hash(cf.path)]).encode())
    for a in (cf.row_key, np.array(keys, dtype=np.int64), np.array([len(r[0]) for r in rows]),
              np.concatenate([r[0] for r in rows]), np.concatenate([r[1] for r in rows])):
        h.update(a.tobytes())
    return h.hexdigest()


def cmd_solve(args) -> int:
    mdp = _load_mdp(args.mdp)
    obj = read_json(args.pruned)
    pruned = _pruned_from_json(obj, mdp)
    policy = solve_km(pruned, args.m)
    meta = {"samples": obj["samples"], "mdp_hash": mdp.digest}
    out = dict(policy_to_json(policy, meta), pruned_hash=_pruned_hash(pruned, obj["samples"]))
    _emit(json.dumps(out, sort_keys=True) + "\n", args.out)
    sys.stderr.write(f"V(s0) = {policy.v_s0!r}\n")
    return EXIT_OK


def _policy_from_json(obj: dict, pruned: PrunedCfMdp, pruned_hash: str) -> CfPolicy:
    """The policy stored by `cmd_solve` for the pruned artifact whose
    `_pruned_hash` is `pruned_hash`; a malformed policy, or one solved on
    another pruned artifact, is a validation error. Only `m`, the actions
    and `pruned_hash` are read: the policy's `k` is the artifact's, and its
    `v_s0` is a report. `m` and each entry's `t` and `j` must be JSON
    integers. The entries are read one list pass per field and checked as
    masks."""
    mdp, T, n = pruned.cf.mdp, pruned.horizon, pruned.cf.mdp.num_states
    try:
        if type(m := obj["m"]) is not int:
            raise ValidationFailed(f"policy m {m!r} is not an integer")
        if not 0 <= m <= T:
            raise ValidationFailed(f"policy budget m={m} outside 0..{T}")
        if obj.get("pruned_hash") != pruned_hash:
            raise ValidationFailed("policy was not solved on this pruned artifact; solve it again")
        entries = obj["actions"]
        t = _layers(json_integers([e["t"] for e in entries], "policy entry t"), T)
        j = json_integers([e["j"] for e in entries], "policy entry j")
        if (e := _first((j < 0) | (j > m))) is not None:
            raise ValidationFailed(f"policy entry uses {int(j[e])!r} changes, outside 0..{m}")
        s, a = [e["s"] for e in entries], [e["a"] for e in entries]
        state_at = dict(zip(mdp.states, range(n)))
        action_at = dict(zip(mdp.actions, range(len(mdp.actions))))
        si = np.array([state_at.get(x, -1) for x in s], dtype=np.int64)
        ai = np.array([action_at.get(x, -1) for x in a], dtype=np.int64)
        pair = np.where((si >= 0) & (ai >= 0), mdp.pair_at[si, ai], -1)
        if (e := _first(pair < 0)) is not None:
            mdp.pair(s[e], a[e])  # raises MissingKernelRow naming (s, a)
        if (e := _first(~np.array(pruned.usable)[t, pair])) is not None:
            raise ValidationFailed(f"policy action {a[e]!r} is not usable at ({s[e]}, t={t[e]})")
        slot = (t * n + si) * (m + 1) + m - j
        order = np.argsort(slot, kind="stable")
        later = order[1:][slot[order[1:]] == slot[order[:-1]]]
        if later.size:  # the first entry, in file order, that repeats an earlier one
            e = int(later.min())
            raise ValidationFailed(f"policy entry ({s[e]}, t={t[e]}, j={j[e]}) appears twice")
        choices = np.full((T, n, m + 1), -1, dtype=np.int64)
        choices[t, si, m - j] = mdp.action[pair]
        return CfPolicy(k=pruned.k, m=m, mdp=mdp, s0=int(pruned.cf.path.state[0]),
                        choices=list(choices), values=[])
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, MissingKernelRow) as exc:
        raise ValidationFailed(f"malformed policy artifact: {exc!r}") from exc


def cmd_rollout(args) -> int:
    mdp = _load_mdp(args.mdp)
    obj = read_json(args.pruned)
    pruned = _pruned_from_json(obj, mdp)
    policy = _policy_from_json(read_json(args.policy), pruned, _pruned_hash(pruned, obj["samples"]))
    features = envs.environment_features(args.env) if args.env else {}
    if args.feature not in features:
        raise ValidationFailed(
            f"unknown feature {args.feature!r}; available: {sorted(features)} (set --env)"
        )
    feature = features[args.feature]
    try:
        for s in mdp.states:
            feature(s)
    except ValueError as exc:  # the feature parses another environment's state labels
        raise ValidationFailed(
            f"feature {args.feature!r} of --env {args.env} cannot read this MDP's states: {exc!r}"
        ) from exc
    summary = rollout(pruned, policy, args.n, feature, args.seed or 0)
    lines = ["t,mean,std"]
    for t, mean, std in zip(summary.times, summary.means, summary.stds):
        lines.append(f"{int(t)},{float(mean)!r},{float(std)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    mdp, path = _load_observation(args)
    T = path.T
    k_values, m_values = _sweep_grid(args, T)
    posterior_seed = args.seed if args.seed is not None else 0

    posterior = build_posterior(mdp, path, args.samples, posterior_seed)
    cf = build_cf_mdp(posterior, mdp)
    result = sweep(cf, k_values, m_values)

    violations = check_sweep_monotonicity(result)
    if violations:
        raise CfmdpError("sweep failed monotonicity post-check: " + "; ".join(violations))

    sweep_lines = ["k,m,V_s0"] + [f"{k},{m},{v!r}" for k, m, v in result.rows]
    size_lines = ["k,nodes_all_layers,nodes_reachable,distinct_states"] + [
        f"{r.k},{r.nodes_all_layers},{r.nodes_reachable},{r.distinct_states}"
        for r in result.sizes
    ]
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise _unwritable(args.out, exc) from exc
    sweep_csv = os.path.join(args.out, "sweep.csv")
    sizes_csv = os.path.join(args.out, "sizes.csv")
    hashes = {
        "sweep.csv": _write_text(sweep_csv, "\n".join(sweep_lines) + "\n"),
        "sizes.csv": _write_text(sizes_csv, "\n".join(size_lines) + "\n"),
    }

    manifest = {
        "tool_version": __version__,
        "created_unix": time.time(),
        "config": {
            "mdp_file": args.mdp, "path_file": args.path, "horizon": T,
            "posterior_seed": posterior_seed, "samples": args.samples,
            "k_values": k_values, "m_values": m_values,
        },
        "input_hashes": {"mdp": mdp.digest, "path": path_hash(path),
                         "posterior_key": posterior_cache_key(mdp, path, args.samples,
                                                              posterior_seed)},
        "outputs": hashes,
        "statistics": {"cf_rows_built": result.cf_rows_built},
    }
    _write_text(os.path.join(args.out, "manifest.json"), json.dumps(manifest, sort_keys=True, indent=2))
    sys.stderr.write(f"wrote {sweep_csv}, {sizes_csv} and manifest.json\n")
    return EXIT_OK


def _at_least(low: int):
    """argparse type: an integer >= low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value
    return integer


def _add_shared(p: argparse.ArgumentParser, *names: str) -> None:
    """Add the named flags; each is read by several subcommands."""
    flags = {"seed": dict(type=_at_least(0), default=None),
             "samples": dict(type=int, default=1000, help="posterior sample count N"),
             "horizon": dict(type=_at_least(1), default=None)}
    for name in names:
        p.add_argument(f"--{name}", **flags[name])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The cfmdp argument parser. It is built once per process: parsing does
    not change it, and building it costs more than most commands on small
    inputs."""
    parser = argparse.ArgumentParser(
        prog="cfmdp",
        description="Influence-constrained counterfactual policies for finite-horizon MDPs",
    )
    parser.add_argument("--version", action="version", version=f"cfmdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("env", help="emit a built-in environment as MDP JSON")
    p.add_argument("env", choices=list(envs.ENVIRONMENTS))
    p.add_argument("--config", help="JSON file with environment config overrides")
    p.add_argument("--population", type=int)
    p.add_argument("--initial-infected", dest="initial_infected", type=int)
    p.add_argument("--slip", type=float)
    p.add_argument("--shaping-scale", dest="shaping_scale", type=float)
    p.add_argument("--danger", help="gridworld danger cell as ROW,COL")
    p.add_argument("--flux", type=float)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_env)

    p = sub.add_parser("sample", help="sample an observed path under a policy preset")
    p.add_argument("--mdp", required=True)
    p.add_argument("--policy", required=True, choices=sorted(envs.PRESETS))
    _add_shared(p, "seed", "horizon")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("cf-build", help="build and store a Gumbel posterior artifact")
    p.add_argument("--mdp", required=True)
    p.add_argument("--path", required=True)
    _add_shared(p, "seed", "samples")
    p.add_argument("--out", required=True, help="output JSON file")
    p.set_defaults(fn=cmd_cf_build)

    p = sub.add_parser("prune", help="prune the counterfactual MDP at a given k")
    p.add_argument("--mdp", required=True)
    p.add_argument("--path", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--posterior", help="JSON artifact from cf-build")
    source.add_argument("--nominal", action="store_true",
                        help="use exact nominal rows instead of a posterior")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("solve", help="solve a pruned artifact for an m budget")
    p.add_argument("--mdp", required=True)
    p.add_argument("--pruned", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="full (k, m) sweep with size reports and manifest")
    p.add_argument("--mdp", required=True)
    p.add_argument("--path", required=True)
    _add_shared(p, "seed", "samples")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("rollout", help="roll out a solved policy on a pruned artifact")
    p.add_argument("--mdp", required=True)
    p.add_argument("--pruned", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--env", choices=list(envs.ENVIRONMENTS),
                   help="environment providing the feature extractor")
    p.add_argument("--feature", required=True)
    p.add_argument("-n", type=_at_least(1), default=1000)
    _add_shared(p, "seed")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_rollout)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except CfmdpError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
