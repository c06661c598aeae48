"""Command-line front end: environment emission, path sampling, posterior
construction, pruning, solving, sweeps and rollouts.

All outputs are deterministic given the flags (CSV bytes included); the
manifest records input hashes and the rows built and priced, so a sweep can
be audited and reproduced.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import CfmdpError, EmptyPrunedMdp, OutOfMemory, ValidationFailed
from .gumbel import (
    CfMdp,
    build_cf_mdp,
    build_posterior,
    load_posterior,
    nominal_cf_mdp,
    save_posterior,
)
from .influence import PrunedCfMdp, prune_cf_mdp, pruned_size_report
from .mdp import (
    PROB_TOL,
    Mdp,
    ObservedPath,
    _first,
    gather_rows,
    json_values,
    mdp_from_json,
    mdp_to_json,
    path_from_json,
    path_hash,
    path_to_json,
    read_json,
    sample_path,
)
from .solver import CfPolicy, check_sweep_monotonicity, rollout, solve_km, sweep
from . import environments as envs

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _sweep_grid(args, T: int) -> tuple[list[int], list[int]]:
    """The sweep's k and m values, checked against the path horizon T."""
    grid = []
    for name, low, high in (("k", 1, T + 1), ("m", 0, T)):
        first, last = getattr(args, f"{name}_min"), getattr(args, f"{name}_max")
        last = high if last is None else last
        if first > last:
            raise ValidationFailed(f"{name} range [{first}, {last}] is empty")
        if first < low or last > high:
            raise ValidationFailed(f"{name} range [{first}, {last}] must lie within [{low}, {high}]")
        grid.append(list(range(first, last + 1)))
    return grid[0], grid[1]


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
    """Emit the environment under the --config file and --population."""
    over = read_json(args.config) if args.config else {}
    if not isinstance(over, dict):
        raise ValidationFailed("--config must contain a JSON object")
    if args.population is not None:
        over["population"] = args.population
    mdp = envs.build_environment(args.env, **over)
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
    horizon = args.horizon or horizon
    try:
        path = sample_path(mdp, policy, horizon, seed if args.seed is None else args.seed)
    except MemoryError:
        raise OutOfMemory(f"out of memory drawing the path uniforms ({horizon + 1} float64)") from None
    _emit(json.dumps(path_to_json(path), sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_cf_build(args) -> int:
    mdp, path = _load_observation(args)
    posterior = build_posterior(mdp, path, args.samples, args.seed or 0)
    try:
        save_posterior(posterior, args.out)
    except OSError as exc:
        raise _unwritable(args.out, exc) from exc
    sys.stdout.write(f"posterior written to {args.out}\n")
    return EXIT_OK


def _pruned_to_json(pruned: PrunedCfMdp) -> dict:
    """Artifact contents, in the core's indexing. `rows[t]` holds the
    counterfactual rows the prune built at layer t (`pruned.rows[t]`): `row`
    lists their nominal rows, ascending, and `prob` the counterfactual
    probability of each nominal successor of those rows, in the MDP's entry
    order, 0.0 off the counterfactual support. Without a posterior the rows
    are the MDP's, and every list is empty. `layers[t]` lists the states of
    layer t, ascending."""
    cf = pruned.cf
    mdp, n = cf.mdp, cf.mdp.num_states
    nominal = mdp.owner * n + mdp.succ  # the MDP's row table, ascending
    rows = []
    for ids, size, succ, q in pruned.rows:
        if cf.posterior is None:
            rows.append({"row": [], "prob": []})
            continue
        at = gather_rows(np.diff(mdp.row_start), ids)[1]  # the listed rows' nominal entries
        prob = np.zeros(len(at))
        prob[np.searchsorted(at, np.searchsorted(nominal, np.repeat(ids, size) * n + succ))] = q
        rows.append({"row": ids.tolist(), "prob": prob.tolist()})
    samples = cf.posterior.n if cf.posterior is not None else 0
    return {"k": pruned.k, "mdp_hash": mdp.digest, "path": path_to_json(cf.path), "samples": samples,
            "nodes_all_layers": pruned.nodes_all_layers, "rows": rows,
            "layers": [np.flatnonzero(reach).tolist() for reach in pruned.reach]}


def _pruned_from_json(obj: dict, mdp: Mdp) -> PrunedCfMdp:
    """The pruned MDP stored by `_pruned_to_json`, pruned again at its k from
    its rows; a malformed artifact is a validation error. Counts, states and
    row ids must be JSON integers, and probabilities JSON numbers. The rows
    must fit `samples`, and the stored rows, layers and count must be the
    prune's (README, "Pruned artifact", lists each rule)."""
    try:
        if obj["mdp_hash"] != mdp.digest:
            raise ValidationFailed("pruned artifact was built from a different MDP")
        path = path_from_json(obj["path"], mdp)
        T = path.T
        samples = json_values([obj["samples"]], "pruned artifact sample count", int).item()
        if samples < 0:
            raise ValidationFailed(f"pruned artifact sample count {samples} is not >= 0")
        k = json_values([obj["k"]], "pruned artifact k", int).item()
        nodes = json_values([obj["nodes_all_layers"]], "pruned artifact nodes_all_layers", int).item()
        if not 1 <= k <= T + 1:
            raise ValidationFailed(f"pruned artifact k={k} outside 1..{T + 1}")
        if len(stored := json_values(obj["rows"], "pruned row layer", dict)) != T:
            raise ValidationFailed(f"pruned artifact has {len(stored)} row layers, path has {T}")

        sizes, rows, ids = np.diff(mdp.row_start), [], []
        for t, layer in enumerate(stored):
            ids.append(json_values(layer["row"], "pruned row id", int))
            prob = json_values(layer["prob"], "pruned row probability", float)
            if not samples and (len(ids[t]) or len(prob)):
                raise ValidationFailed(f"pruned layer {t} stores rows, but an artifact without "
                                       "samples has the MDP's rows")
            if ((ids[t] < 0) | (ids[t] >= len(sizes))).any() or (np.diff(ids[t]) <= 0).any():
                raise ValidationFailed(f"pruned layer {t} row ids are not strictly ascending rows "
                                       f"0..{len(sizes) - 1} of the MDP's row table")
            # Entry e is nominal entry at[e], of the layer's row ids[t][owner[e]].
            owner, at = gather_rows(sizes, ids[t])
            if len(prob) != len(at):
                raise ValidationFailed(f"pruned layer {t} has {len(prob)} probabilities, not one "
                                       f"per nominal successor of its rows ({len(at)})")
            bad = np.bincount(owner, weights=~((prob >= 0) & (prob <= 1)), minlength=len(ids[t]))
            total = np.bincount(owner, weights=prob, minlength=len(ids[t]))
            if (i := _first((bad > 0) | (np.abs(total - 1.0) > PROB_TOL))) is not None:
                raise ValidationFailed(f"row {ids[t][i]} of layer {t} is not a distribution over "
                                       "its nominal successors")
            hit = prob > 0
            owner, succ, prob = owner[hit], mdp.succ[at[hit]], prob[hit]
            rows.append((ids[t], np.bincount(owner, minlength=len(ids[t])), succ, prob))
            # Every posterior sample replays the observed step: before T-1
            # the observed pair's row is the point mass on s_{t+1}.
            r = int(mdp.row_id[path.pair[t]])
            mine = ids[t][owner] == r
            if samples and t < T - 1 and (succ[mine].tolist(), prob[mine].tolist()) != (
                    [int(path.state[t + 1])], [1.0]):
                raise ValidationFailed(f"row {r} of layer {t}, the observed pair's, is not the "
                                       f"point mass on the observed {path.steps[t + 1][0]}")

        # With samples the prune reads the stored rows, which must be the rows it builds.
        pruned = prune_cf_mdp(CfMdp(mdp, path, None, rows if samples else ()), k)
        for t, (want, _, _, _) in enumerate(pruned.rows if samples else ()):
            if (e := _first(~np.isin(ids[t], want, assume_unique=True))) is not None:
                raise ValidationFailed(f"pruned layer {t} stores nominal row {ids[t][e]}, which "
                                       f"the prune at k={k} does not build")
        layers = json_values(obj["layers"], "pruned layer", list)
        if len(layers) != T or any(not np.array_equal(json_values(layer, "pruned layer state", int),
                                                      np.flatnonzero(reach))
                                   for layer, reach in zip(layers, pruned.reach)):
            raise ValidationFailed(f"pruned artifact layers are not the states the prune at k={k} "
                                   "reaches")
        if nodes != pruned.nodes_all_layers:
            raise ValidationFailed(f"pruned artifact nodes_all_layers {nodes} is "
                                   f"not {pruned.nodes_all_layers}, the admitted count at k={k}")
        return pruned
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, EmptyPrunedMdp) as exc:
        raise ValidationFailed(f"malformed pruned artifact: {exc!r}") from exc


def cmd_prune(args) -> int:
    mdp, path = _load_observation(args)
    if args.nominal:
        cf = nominal_cf_mdp(mdp, path)
    else:  # CfMdp refuses a posterior built from another path
        cf = CfMdp(mdp, path, load_posterior(args.posterior, mdp))
    pruned = prune_cf_mdp(cf, args.k)
    _emit(json.dumps(_pruned_to_json(pruned), sort_keys=True) + "\n", args.out)
    report = pruned_size_report(pruned)
    sys.stderr.write(
        f"k={report.k} nodes_all_layers={report.nodes_all_layers} "
        f"nodes_reachable={report.nodes_reachable} distinct_states={report.distinct_states}\n"
    )
    return EXIT_OK


def _pruned_hash(pruned: PrunedCfMdp, samples: int) -> str:
    """SHA-256 of what `_pruned_from_json` built from a pruned artifact with
    `samples` samples: its counts, the MDP and path hashes, and the
    counterfactual rows the prune built, in (t, nominal row) order. The
    layers are left out: the prune derives them from the rows. A compact and
    an indented copy, or a copy with an unread key, agree."""
    cf = pruned.cf
    ids, size, succ, prob = (np.concatenate(x) for x in zip(*pruned.rows))
    t = np.repeat(np.arange(len(pruned.rows)), [len(layer[0]) for layer in pruned.rows])
    h = hashlib.sha256(json.dumps([pruned.k, samples, pruned.nodes_all_layers, cf.mdp.digest,
                                   path_hash(cf.path)]).encode())
    for a in (np.column_stack([t, ids]), size, succ, prob):
        h.update(a.tobytes())
    return h.hexdigest()


def _policy_to_json(policy: CfPolicy, pruned: PrunedCfMdp, samples: int) -> dict:
    """Artifact contents of `policy`, solved on `pruned` as read from its
    artifact, which has `samples` samples. `actions[t]` is the row-major
    len(layers[t]) x (m+1) table of the action index chosen at each state
    of pruned layer t with j = 0..m changes used, -1 where there is none."""
    # Budget column r = m - j, so reversing the columns puts j in ascending order.
    return {"k": policy.k, "m": policy.m, "v_s0": policy.v_s0,
            "meta": {"samples": samples, "mdp_hash": policy.mdp.digest},
            "pruned_hash": _pruned_hash(pruned, samples),
            "actions": [c[:, ::-1].ravel().tolist() for c in policy.choices]}


def cmd_solve(args) -> int:
    mdp = _load_mdp(args.mdp)
    obj = read_json(args.pruned)
    pruned = _pruned_from_json(obj, mdp)
    policy = solve_km(pruned, args.m)
    _emit(json.dumps(_policy_to_json(policy, pruned, obj["samples"]), sort_keys=True) + "\n",
          args.out)
    sys.stderr.write(f"V(s0) = {policy.v_s0!r}\n")
    return EXIT_OK


def _policy_from_json(obj: dict, pruned: PrunedCfMdp, samples: int) -> CfPolicy:
    """The policy stored by `_policy_to_json` for `pruned`, read from an
    artifact with `samples` samples; a malformed policy, or one solved on
    another pruned artifact, is a validation error. Only `m`, the actions
    and `pruned_hash` are read: the policy's `k` is the artifact's, and its
    `v_s0` is a report."""
    mdp, T, na = pruned.cf.mdp, pruned.horizon, len(pruned.cf.mdp.actions)
    try:
        m = json_values([obj["m"]], "policy m", int).item()
        if not 0 <= m <= T:
            raise ValidationFailed(f"policy budget m={m} outside 0..{T}")
        if obj.get("pruned_hash") != _pruned_hash(pruned, samples):
            raise ValidationFailed("policy was not solved on this pruned artifact; solve it again")
        if len(tables := json_values(obj["actions"], "policy action table", list)) != T:
            raise ValidationFailed(f"policy has {len(tables)} action tables, path has {T}")
        states = [np.flatnonzero(reach) for reach in pruned.reach]
        choices = []
        for t, (table, layer, usable) in enumerate(zip(tables, states, pruned.usable)):
            a = json_values(table, "policy action index", int)
            if len(a) != len(layer) * (m + 1):
                raise ValidationFailed(f"policy actions[{t}] has {len(a)} action indices, not "
                                       f"{len(layer)} states x {m + 1} budgets")
            a = a.reshape(len(layer), m + 1)  # by state, then j
            if (e := _first((a < -1) | (a >= na))) is not None:
                i, j = divmod(e, m + 1)
                raise ValidationFailed(f"policy action index {a[i, j]} at ({mdp.states[layer[i]]}, "
                                       f"t={t}, j={j}) is outside -1..{na - 1}")
            pair = mdp.pair_at[layer[:, None], np.maximum(a, 0)]
            if (e := _first((a >= 0) & ((pair < 0) | ~usable[pair]))) is not None:
                s, action = mdp.states[layer[e // (m + 1)]], mdp.actions[a.flat[e]]
                if pair.flat[e] < 0:
                    raise ValidationFailed("malformed policy artifact: "
                                           f"no kernel row for ({s}, {action})")
                raise ValidationFailed(f"policy action {action!r} is not usable at ({s}, t={t})")
            choices.append(a[:, ::-1])
        return CfPolicy(k=pruned.k, m=m, mdp=mdp, states=states, choices=choices, values=[],
                        rows_priced=0)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailed(f"malformed policy artifact: {exc!r}") from exc


def cmd_rollout(args) -> int:
    mdp = _load_mdp(args.mdp)
    obj = read_json(args.pruned)
    pruned = _pruned_from_json(obj, mdp)
    policy = _policy_from_json(read_json(args.policy), pruned, obj["samples"])
    features = envs.environment_features(args.env) if args.env else {}
    if args.feature not in features:
        raise ValidationFailed(
            f"unknown feature {args.feature!r}; available: {sorted(features)} (set --env)"
        )
    try:
        feature = np.array([features[args.feature](s) for s in mdp.states], dtype=np.float64)
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

    # Monte-Carlo standard error of each entry of the rows built with > 1 successor
    probs = np.concatenate([q[np.repeat(size > 1, size)] for _, size, _, q in result.top.rows])
    se = np.sqrt(probs * (1 - probs) / args.samples)
    manifest = {
        "tool_version": __version__,
        "created_unix": time.time(),
        "config": {
            "mdp_file": args.mdp, "path_file": args.path, "horizon": T,
            "posterior_seed": posterior_seed, "samples": args.samples,
            "k_values": k_values, "m_values": m_values,
        },
        "input_hashes": {"mdp": mdp.digest, "path": path_hash(path)},
        "outputs": hashes,
        "statistics": {"cf_rows_built": result.cf_rows_built,
                       "dp_rows_priced": result.dp_rows_priced,
                       "cf_row_se_max": float(se.max(initial=0.0)),
                       "cf_row_se_mean": float(se.mean()) if se.size else 0.0},
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
