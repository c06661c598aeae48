"""Span tracing for the cfmdp benchmark, applied from outside the library.

The library is never edited for tracing. Instead, the public names that one
cfmdp module imported from another (``cfmdp.cli.prune_cf_mdp``,
``cfmdp.solver.solve_km``, ...) are rebound to wrappers that record one span
per call: name, start, end, parent and, for some boundaries, counts taken
from the call's arguments or return value. A span's self time is its
duration minus the union of its child spans.

Run as a script, it traces one ``cfmdp`` CLI invocation in a fresh process
and writes the spans to a JSON file::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json sweep --mdp ...

The exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


def _prune_counts(args, kwargs, pruned) -> dict:
    return {"nodes_admitted": pruned.nodes_all_layers,
            "nodes_reachable": sum(len(layer) for layer in pruned.layers)}


def _solve_counts(args, kwargs, policy) -> dict:
    pruned = args[0]
    return {"dp_triples": sum(len(acts) for acts in pruned.actions.values())}


def _posterior_counts(args, kwargs, posterior) -> dict:
    # Computed size of the dense (T, N, |S|) float64 noise tensor.
    return {"posterior_mb": posterior.T * posterior.n * posterior.noise[0].shape[1] * 8 / 1e6}


def _rollout_counts(args, kwargs, summary) -> dict:
    pruned = args[0]
    return {"rollout_steps": summary.n * pruned.horizon}


# (module, attribute, span name, counter). Span names are "<layer>.<stage>";
# a span name whose boundaries are not all present is reported as untraced.
BOUNDARIES = [
    ("cfmdp.cli", "build_posterior", "gumbel.posterior", _posterior_counts),
    ("cfmdp.cli", "build_cf_mdp", "gumbel.cf_mdp", None),
    ("cfmdp.cli", "save_posterior", "gumbel.save", None),
    ("cfmdp.cli", "load_posterior", "gumbel.load", None),
    ("cfmdp.cli", "prune_cf_mdp", "influence.prune", _prune_counts),
    ("cfmdp.cli", "solve_km", "solver.solve", _solve_counts),
    ("cfmdp.cli", "sweep", "solver.sweep", None),
    ("cfmdp.cli", "rollout", "solver.rollout", _rollout_counts),
    ("cfmdp.cli", "check_sweep_monotonicity", "solver.check", None),
    ("cfmdp.cli", "mdp_from_json", "mdp.load", None),
    ("cfmdp.cli", "sample_path", "mdp.sample_path", None),
    ("cfmdp.solver", "prune_cf_mdp", "influence.prune", _prune_counts),
    ("cfmdp.solver", "solve_km", "solver.solve", _solve_counts),
    ("cfmdp.gumbel", "cf_transition", "gumbel.cf_row", None),
    ("cfmdp.environments", "build_environment", "environments.build", None),
]
ROOT = "cli.main"


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.untraced: set[str] = set()
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, counter=None):
        kwargs = kwargs or {}
        i = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(i)
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[i][1], self.spans[i][2] = start, end
        if counter is not None:
            self.spans[i][4] = counter(args, kwargs, out)
        return out

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return traced

    def install(self, boundaries=BOUNDARIES) -> None:
        """Rebind every boundary name; a missing name marks its span untraced."""
        for module, attr, name, counter in boundaries:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.untraced.add(name)
                continue
            setattr(mod, attr, self.wrap(name, fn, counter))

    def to_json(self) -> dict:
        return {"spans": self.spans, "untraced": sorted(self.untraced)}


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import cfmdp.cli

    try:
        return tracer.call(ROOT, cfmdp.cli.main, (cli_args,))
    finally:
        with open(spans_file, "w") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
