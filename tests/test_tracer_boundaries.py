"""The benchmark tracer rebinds library names from outside; they must exist.

`perfbench/tracer.py` is loaded read-only from its file. A boundary name that
no longer resolves would silently turn a per-layer metric into `untraced`, and
a counter that reads a renamed attribute would fail only under `--trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import cfmdp.solver
from cfmdp.gumbel import CfMdp, build_cf_mdp, build_posterior
from cfmdp.influence import prune_cf_mdp
from cfmdp.solver import rollout, solve_km

TRACER_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves(tracer):
    assert tracer.BOUNDARIES
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracer.BOUNDARIES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_counters_read_existing_attributes(tracer, fig2_toy):
    mdp, path = fig2_toy
    posterior = build_posterior(mdp, path, 50, seed=0)
    pruned = prune_cf_mdp(build_cf_mdp(posterior, mdp), 2)
    policy = solve_km(pruned, 1)
    summary = rollout(pruned, policy, 4, np.zeros(mdp.num_states), seed=0)
    counters = {name: counter for _, _, name, counter in tracer.BOUNDARIES if counter}
    counts = {
        "gumbel.posterior": counters["gumbel.posterior"]((), {}, posterior),
        "influence.prune": counters["influence.prune"]((), {}, pruned),
        "solver.solve": counters["solver.solve"]((pruned, 1), {}, policy),
        "solver.rollout": counters["solver.rollout"]((pruned, policy), {}, summary),
    }
    assert set(counts) == set(counters)
    assert counts["influence.prune"]["nodes_reachable"] > 0
    assert counts["solver.rollout"] == {"rollout_steps": 4 * path.T}
    assert np.isfinite(counts["gumbel.posterior"]["posterior_mb"])


def test_sweep_prunes_and_solves_once_per_k(tracer, fig2_toy, monkeypatch):
    # `--trace 1` splits sweep time into prune and solve spans only while
    # `sweep` calls these two names once per k, with shared work passed as an
    # argument rather than done inside `sweep` itself.
    mdp, path = fig2_toy
    cf = build_cf_mdp(build_posterior(mdp, path, 50, seed=0), mdp)
    recorder = tracer.Tracer()
    for module, attr, name, _ in tracer.BOUNDARIES:
        if module == "cfmdp.solver":
            monkeypatch.setattr(cfmdp.solver, attr, recorder.wrap(
                name, getattr(cfmdp.solver, attr), lambda args, kwargs, out: {"k": out.k}))
    ks = [1, 3, 2, 4]
    cfmdp.solver.sweep(cf, ks, [0, 1])
    for name in ("influence.prune", "solver.solve"):
        assert sorted(span[4]["k"] for span in recorder.spans if span[0] == name) == sorted(ks)


def test_sweep_calls_cf_transition_once_per_built_row(tracer, fig2_toy, monkeypatch):
    # `gumbel.cf_rows_built` is the `cf_transition` call count, and the
    # manifest's `cf_rows_built` counts the rows of the top prune: the two
    # must agree, also after a solve and a rollout on that prune, which look
    # its rows up. The rows come from one `CfMdp.layer_rows` call per layer.
    # fig2_toy has pairs with one nominal row (s2 and s3 under a0), which
    # share a row.
    mdp, path = fig2_toy
    cf = build_cf_mdp(build_posterior(mdp, path, 50, seed=0), mdp)
    recorder = tracer.Tracer()
    module, attr, name, _ = next(b for b in tracer.BOUNDARIES if b[2] == "gumbel.cf_row")
    monkeypatch.setattr(importlib.import_module(module), attr,
                        recorder.wrap(name, getattr(importlib.import_module(module), attr)))
    layer_calls, layer_rows = [], CfMdp.layer_rows

    def counted(self, t, pairs):
        layer_calls.append(t)
        return layer_rows(self, t, pairs)

    monkeypatch.setattr(CfMdp, "layer_rows", counted)
    result = cfmdp.solver.sweep(cf, list(range(1, path.T + 2)), [0, 1])
    policy = solve_km(result.top, 0)
    rollout(result.top, policy, 20, np.zeros(mdp.num_states), seed=0)
    calls = sum(span[0] == name for span in recorder.spans)
    assert calls == result.cf_rows_built == sum(len(ids) for ids, _, _, _ in result.top.rows) > 0
    assert layer_calls == list(range(path.T))
