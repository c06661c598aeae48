"""Command-line front end: environment emission, path sampling, posterior
construction, pruning, solving, sweeps and rollouts.

All outputs are deterministic given the flags (CSV bytes included); the
manifest records input hashes and cache statistics so a sweep can be audited
and reproduced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import partial

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
    mdp_from_json,
    mdp_to_json,
    path_from_json,
    path_hash,
    path_to_json,
    sample_path,
    validate_path,
)
from .solver import CfPolicy, check_sweep_monotonicity, policy_to_json, rollout, solve_km, sweep
from . import environments as envs

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

POLICY_PRESETS = {
    "gridworld": ("gridworld", None),
    "epidemic": ("epidemic", None),
    "sepsis-catastrophic": ("sepsis", "catastrophic"),
    "sepsis-suboptimal": ("sepsis", "suboptimal"),
}


def _sweep_grid(args, T: int) -> tuple[list[int], list[int]]:
    """The sweep's k and m values, checked against the path horizon T."""
    k_values = list(range(args.k_min, (args.k_max or T + 1) + 1))
    m_values = list(range(args.m_min, (args.m_max or T) + 1))
    if not k_values or min(k_values) < 1 or max(k_values) > T + 1:
        raise ValidationFailed(f"k range must lie within [1, {T + 1}]")
    if not m_values or min(m_values) < 0 or max(m_values) > T:
        raise ValidationFailed(f"m range must lie within [0, {T}]")
    return k_values, m_values


def _write_text(path: str, text: str) -> str:
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _read_json(file: str):
    """Parsed JSON of `file`; a missing or malformed file is a validation error."""
    try:
        with open(file) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationFailed(f"cannot read JSON from {file}: {exc}") from exc


def _load_mdp(file: str) -> Mdp:
    return mdp_from_json(_read_json(file))


def _load_observation(args) -> tuple[Mdp, ObservedPath]:
    """The --mdp and --path files, the path checked against the MDP."""
    mdp, path = _load_mdp(args.mdp), path_from_json(_read_json(args.path))
    validate_path(mdp, path).require()
    return mdp, path


def _env_overrides(args) -> dict:
    over = {}
    if args.config:
        loaded = _read_json(args.config)
        if not isinstance(loaded, dict):
            raise ValidationFailed("--config must contain a JSON object")
        over.update(loaded)
    for key in ("population", "initial_infected", "slip", "shaping_scale", "flux", "horizon"):
        val = getattr(args, key, None)
        if val is not None:
            over[key] = val
    if getattr(args, "danger", None) is not None:
        try:
            r, c = (int(x) for x in args.danger.split(","))
        except ValueError:
            raise ValidationFailed(f"--danger must be ROW,COL, got {args.danger!r}") from None
        over["danger"] = (r, c)
    return over


def _build_env(args) -> Mdp:
    over = _env_overrides(args)
    over.pop("horizon", None)  # horizon is a sampling parameter, not an MDP field
    try:
        return envs.build_environment(args.env, **over)
    except TypeError as exc:
        raise ValidationFailed(f"bad option for environment {args.env!r}: {exc}") from exc


def cmd_env(args) -> int:
    _emit(json.dumps(mdp_to_json(_build_env(args)), sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _resolve_observation(args) -> tuple[Mdp, ObservedPath, int | None]:
    """(mdp, path, observation seed) from an env/preset pair or explicit files."""
    if args.mdp and args.path:
        return (*_load_observation(args), None)
    if not args.env:
        raise ValidationFailed("provide either --env or both --mdp and --path")
    preset = getattr(args, "preset", None)
    mdp = _build_env(args)
    policy = envs.observed_policy(args.env, preset)
    horizon = args.horizon or envs.default_horizon(args.env)
    seed = envs.default_observation_seed(args.env, preset)
    return mdp, sample_path(mdp, policy, horizon, seed), seed


def cmd_sample(args) -> int:
    env_name, preset = POLICY_PRESETS.get(args.policy, (None, None))
    if env_name is None:
        raise ValidationFailed(
            f"unknown policy preset {args.policy!r}; choose from {sorted(POLICY_PRESETS)}"
        )
    mdp = _load_mdp(args.mdp) if args.mdp else envs.build_environment(env_name)
    policy = envs.observed_policy(env_name, preset)
    horizon = args.horizon or envs.default_horizon(env_name)
    seed = args.seed if args.seed is not None else envs.default_observation_seed(env_name, preset)
    path = sample_path(mdp, policy, horizon, seed)
    _emit(json.dumps(path_to_json(path), sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_cf_build(args) -> int:
    mdp, path = _load_observation(args)
    posterior = build_posterior(mdp, path, args.samples, args.sampler, args.seed or 0)
    save_posterior(posterior, args.out)
    key = posterior_cache_key(mdp, path, args.samples, args.sampler, args.seed or 0)
    sys.stdout.write(f"posterior written to {args.out} (key {key[:16]})\n")
    return EXIT_OK


def _pruned_to_json(pruned: PrunedCfMdp) -> dict:
    """Artifact contents. Each kernel entry is a callable that the encoder
    turns into its dict (see cmd_prune), so the label dicts of all rows never
    exist at once."""
    cf = pruned.cf
    n = cf.posterior.n if cf.posterior is not None else 0
    nodes = sorted(pruned.actions.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def kernel(t, s, a):
        return {"t": t, "s": s, "a": a, "n": n, "probs": cf.probs(t, s, a)}

    return {
        "k": pruned.k,
        "mdp_hash": cf.mdp.digest,
        "path": path_to_json(cf.path),
        "nodes_all_layers": pruned.nodes_all_layers,
        "layers": [sorted(layer) for layer in pruned.layers],
        "actions": [{"s": s, "t": t, "actions": list(acts)} for (s, t), acts in nodes],
        "kernels": [partial(kernel, t, s, a) for (s, t), acts in nodes for a in acts],
    }


def _layer(t, T: int) -> int:
    """Artifact time index t, checked to be a decision layer 0..T-1."""
    if not 0 <= int(t) < T:
        raise ValidationFailed(f"time {t!r} outside decision layers 0..{T - 1}")
    return int(t)


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true element of `mask`, None if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _kernel_entries(entries: list, mdp: Mdp, T: int) -> tuple[np.ndarray, ...]:
    """The artifact's kernel rows as flat arrays, checked as a whole.

    Returns `times` and `pair`, the layer and pair of each row, and `owner`,
    `succ` and `prob`, one element per row entry, ascending by (owner row,
    successor index). Every layer must be a decision layer, every (s, a) must
    have a nominal row and at most one row per layer, and every row must be
    a distribution on the nominal support of its pair: each value in (0, 1],
    the sum one within PROB_TOL.
    """
    state = {s: i for i, s in enumerate(mdp.states)}
    action = {a: i for i, a in enumerate(mdp.actions)}
    times = np.array([int(e["t"]) for e in entries], dtype=np.int64)
    src = np.array([state.get(e["s"], -1) for e in entries], dtype=np.int64)
    act = np.array([action.get(e["a"], -1) for e in entries], dtype=np.int64)
    rows = [e["probs"] for e in entries]
    owner = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    succ = np.array([state[s2] for row in rows for s2 in row.keys()], dtype=np.int64)
    prob = np.array([v for row in rows for v in row.values()], dtype=np.float64)

    def name(e: int) -> str:
        return f"({entries[e]['s']}, {entries[e]['a']}) at t={entries[e]['t']}"

    if (e := _first((times < 0) | (times >= T))) is not None:
        _layer(entries[e]["t"], T)  # raises: t is outside 0..T-1
    pair = np.where((src >= 0) & (act >= 0), mdp.pair_at[src, act], -1)
    if (e := _first(pair < 0)) is not None:
        raise ValidationFailed(f"kernel row {name(e)} has no nominal row")
    key = times * len(mdp.source) + pair
    order = np.argsort(key, kind="stable")
    key = key[order]
    if (e := _first(key[1:] == key[:-1])) is not None:
        raise ValidationFailed(f"kernel row {name(int(order[e + 1]))} appears twice")

    order = np.lexsort((succ, owner))
    succ, prob = succ[order], prob[order]
    nominal = mdp.owner * mdp.num_states + mdp.succ  # ascending
    flat = pair[owner] * mdp.num_states + succ
    on_support = nominal[np.minimum(np.searchsorted(nominal, flat), len(nominal) - 1)] == flat
    fine = on_support & (prob > 0) & (prob <= 1)  # NaN fails
    bad = np.bincount(owner, weights=~fine, minlength=len(rows)) > 0
    bad |= np.abs(np.bincount(owner, weights=prob, minlength=len(rows)) - 1.0) > PROB_TOL
    if (e := _first(bad)) is not None:
        raise ValidationFailed(f"kernel row {name(e)} is not a distribution on its nominal support")
    return times, pair, owner, succ, prob


def _pruned_from_json(obj: dict, mdp: Mdp) -> PrunedCfMdp:
    """The pruned MDP stored by `_pruned_to_json`; a malformed artifact is a
    validation error.

    Besides its shape, the artifact must describe a closed pruned MDP: every
    row is a distribution on the nominal support of its pair (see
    `_kernel_entries`), every usable pair has a row, layer 0 is {s_0}, and
    every successor of a usable pair at t < T-1 lies in layer t+1.
    """
    try:
        if obj["mdp_hash"] != mdp.digest:
            raise ValidationFailed("pruned artifact was built from a different MDP")
        path = path_from_json(obj["path"])
        validate_path(mdp, path).require()
        T, pairs = path.T, len(mdp.source)
        times, pair, owner, succ, prob = _kernel_entries(obj["kernels"], mdp, T)
        if len(obj["layers"]) != T:
            raise ValidationFailed(f"pruned artifact has {len(obj['layers'])} layers, path has {T}")
        reach = np.zeros((T, mdp.num_states), dtype=bool)
        for t, layer in enumerate(obj["layers"]):
            reach[t][[mdp.state_index(s) for s in layer]] = True
        if T == 0 or np.flatnonzero(reach[0]).tolist() != [mdp.state_index(path.state(0))]:
            raise ValidationFailed("pruned artifact layer 0 is not {s_0}")
        usable = np.zeros((T, pairs), dtype=bool)
        for e in obj["actions"]:
            usable[_layer(e["t"], T)][[mdp.pair(e["s"], a) for a in e["actions"]]] = True
        has_row = np.zeros((T, pairs), dtype=bool)
        has_row[times, pair] = True
        nxt = times[owner] + 1
        leaks = (nxt < T) & ~reach[np.minimum(nxt, T - 1), succ]
        leaky = np.zeros((T, pairs), dtype=bool)
        leaky[times, pair] = np.bincount(owner, weights=leaks, minlength=len(times)) > 0
        faults = np.argwhere(usable & (leaky | ~has_row))  # (t, pair), ascending
        if len(faults):
            t, p = faults[0].tolist()
            s, a = mdp.states[mdp.source[p]], mdp.actions[mdp.action[p]]
            fault = "missing" if not has_row[t, p] else f"not closed in layer {t + 1}"
            raise ValidationFailed(f"kernel row of allowed ({s}, {a}) at t={t} is {fault}")
        # Rows stay per pair: an edited artifact may give two pairs with the
        # same nominal row different rows.
        bounds = np.searchsorted(owner, np.arange(len(times) + 1)).tolist()
        rows = {(t, p): (succ[lo:hi], prob[lo:hi])
                for t, p, lo, hi in zip(times.tolist(), pair.tolist(), bounds, bounds[1:])}
        cf = CfMdp(mdp, path, None, given_rows=rows)
        return PrunedCfMdp(cf=cf, k=int(obj["k"]), reach=tuple(reach), usable=tuple(usable),
                           nodes_all_layers=int(obj["nodes_all_layers"]))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, MissingKernelRow) as exc:
        raise ValidationFailed(f"malformed pruned artifact: {exc!r}") from exc


def _posterior_cf(args, mdp: Mdp, path: ObservedPath) -> CfMdp:
    if args.posterior:
        posterior = load_posterior(args.posterior, mdp)
        if posterior.path.steps != path.steps:
            raise ValidationFailed("posterior artifact was built from a different path")
        return build_cf_mdp(posterior, mdp)
    if args.nominal:
        return nominal_cf_mdp(mdp, path)
    posterior = build_posterior(mdp, path, args.samples, args.sampler, args.seed or 0)
    return build_cf_mdp(posterior, mdp)


def cmd_prune(args) -> int:
    mdp, path = _load_observation(args)
    cf = _posterior_cf(args, mdp, path)
    pruned = prune_cf_mdp(cf, args.k)
    # Each kernel entry becomes a dict only while it is encoded, so the label
    # dicts of all rows never exist at once.
    text = json.dumps(_pruned_to_json(pruned), sort_keys=True, default=lambda entry: entry())
    _emit(text + "\n", args.out)
    report = pruned_size_report(pruned)
    sys.stderr.write(
        f"k={report.k} nodes_all_layers={report.nodes_all_layers} "
        f"nodes_reachable={report.nodes_reachable} distinct_states={report.distinct_states}\n"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    mdp = _load_mdp(args.mdp)
    pruned = _pruned_from_json(_read_json(args.pruned), mdp)
    policy = solve_km(pruned, args.m)
    meta = {"samples": args.samples, "seed": args.seed, "mdp_hash": mdp.digest}
    _emit(json.dumps(policy_to_json(policy, meta), sort_keys=True) + "\n", args.out)
    sys.stderr.write(f"V(s0) = {policy.v_s0!r}\n")
    return EXIT_OK


def _policy_from_json(obj: dict, pruned: PrunedCfMdp) -> CfPolicy:
    """The policy stored by `policy_to_json`; a malformed artifact is a
    validation error."""
    mdp, T = pruned.cf.mdp, pruned.horizon
    try:
        m = int(obj["m"])
        if not 0 <= m <= T:
            raise ValidationFailed(f"policy budget m={m} outside 0..{T}")
        choices = [np.full((mdp.num_states, m + 1), -1, dtype=np.int64) for _ in range(T)]
        for e in obj["actions"]:
            t, j, s = _layer(e["t"], T), int(e["j"]), e["s"]
            if not 0 <= j <= m:
                raise ValidationFailed(f"policy entry uses {j!r} changes, outside 0..{m}")
            if not pruned.usable[t][mdp.pair(s, e["a"])]:
                raise ValidationFailed(f"policy action {e['a']!r} is not usable at ({s}, t={t})")
            choices[t][mdp.state_index(s), m - j] = mdp.action_index(e["a"])
        return CfPolicy(k=int(obj["k"]), m=m, mdp=mdp, s0=mdp.state_index(pruned.cf.initial_state),
                        choices=choices, values=[], v_s0=float(obj["v_s0"]))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, MissingKernelRow) as exc:
        raise ValidationFailed(f"malformed policy artifact: {exc!r}") from exc


def cmd_rollout(args) -> int:
    mdp = _load_mdp(args.mdp)
    pruned = _pruned_from_json(_read_json(args.pruned), mdp)
    policy = _policy_from_json(_read_json(args.policy), pruned)
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
    mdp, path, obs_seed = _resolve_observation(args)
    T = path.T
    k_values, m_values = _sweep_grid(args, T)
    posterior_seed = args.seed if args.seed is not None else 0

    posterior = build_posterior(mdp, path, args.samples, args.sampler, posterior_seed)
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
    os.makedirs(args.out, exist_ok=True)
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
            "env": args.env, "preset": args.preset, "mdp_file": args.mdp,
            "path_file": args.path, "horizon": T,
            "observation_seed": obs_seed, "posterior_seed": posterior_seed,
            "samples": args.samples, "sampler": args.sampler,
            "k_values": k_values, "m_values": m_values,
        },
        "input_hashes": {"mdp": mdp.digest, "path": path_hash(path),
                         "posterior_key": posterior_cache_key(mdp, path, args.samples,
                                                              args.sampler, posterior_seed)},
        "outputs": hashes,
        "statistics": {"cf_rows_built": result.cf_rows_built},
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
    sys.stderr.write(f"wrote {sweep_csv}, {sizes_csv} and manifest.json\n")
    return EXIT_OK


def _add_env_flags(p: argparse.ArgumentParser, with_preset: bool = False) -> None:
    p.add_argument("--config", help="JSON file with environment config overrides")
    p.add_argument("--population", type=int)
    p.add_argument("--initial-infected", dest="initial_infected", type=int)
    p.add_argument("--slip", type=float)
    p.add_argument("--shaping-scale", dest="shaping_scale", type=float)
    p.add_argument("--danger", help="gridworld danger cell as ROW,COL")
    p.add_argument("--flux", type=float)
    if with_preset:
        p.add_argument("--preset", choices=["catastrophic", "suboptimal"])


def _at_least(low: int):
    """argparse type: an integer >= low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value
    return integer


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_at_least(0), default=None)
    p.add_argument("--samples", type=int, default=1000, help="posterior sample count N")
    p.add_argument("--sampler", choices=["topdown", "rejection"], default="topdown")
    p.add_argument("--horizon", type=_at_least(1), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmdp",
        description="Influence-constrained counterfactual policies for finite-horizon MDPs",
    )
    parser.add_argument("--version", action="version", version=f"cfmdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("env", help="emit a built-in environment as MDP JSON")
    p.add_argument("env", choices=list(envs.ENVIRONMENTS))
    _add_env_flags(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_env)

    p = sub.add_parser("sample", help="sample an observed path under a policy preset")
    p.add_argument("--mdp", help="MDP JSON file (defaults to the preset's environment)")
    p.add_argument("--policy", required=True, choices=sorted(POLICY_PRESETS))
    _add_shared(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("cf-build", help="build and store a Gumbel posterior artifact")
    p.add_argument("--mdp", required=True)
    p.add_argument("--path", required=True)
    _add_shared(p)
    p.add_argument("--out", required=True, help="output .npz file")
    p.set_defaults(fn=cmd_cf_build)

    p = sub.add_parser("prune", help="prune the counterfactual MDP at a given k")
    p.add_argument("--mdp", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--posterior", help=".npz artifact from cf-build")
    p.add_argument("--nominal", action="store_true",
                   help="use exact nominal rows instead of a posterior")
    p.add_argument("--k", type=int, required=True)
    _add_shared(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("solve", help="solve a pruned artifact for an m budget")
    p.add_argument("--mdp", required=True)
    p.add_argument("--pruned", required=True)
    p.add_argument("--m", type=int, required=True)
    _add_shared(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="full (k, m) sweep with size reports and manifest")
    p.add_argument("--env", choices=list(envs.ENVIRONMENTS))
    p.add_argument("--mdp")
    p.add_argument("--path")
    _add_env_flags(p, with_preset=True)
    _add_shared(p)
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
    p.add_argument("--seed", type=_at_least(0), default=None)
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
