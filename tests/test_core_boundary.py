"""The core modules read the observed path and the MDP by index only.

Labels become indices at the boundary alone: `ObservedPath` compiles a
path's labels, `sample_path` its policy's actions, and `cmd_rollout` reads a
feature into a vector. `Mdp` keeps no label dict and has no label lookup,
which a guard checks on every built-in environment's MDP and on its JSON
round trip. A second guard parses the core modules and fails on a lookup
call (`state_index`, `action_index`, `pair`) or a read of the path's label
`steps`. A third parses every module: `Mdp.from_arrays` is the one
constructor, so none calls `Mdp(...)` with arguments. A fourth checks that
`CfMdp` keeps no row table: its fields are its MDP, path, posterior and a
pruned artifact's stored rows, and `layer_rows` builds the rows it is asked
for. A fifth parses every module: `json_values` is the one reader of a JSON
value's kind, so no other function compares a `type(...)` with int, float or
str, or calls `isinstance` naming int, float, str or bool (a check against
dict, list or tuple is a structure's, and stays).
A sixth parses every module but `influence.py`: a prune's closure is what it
leaves for a prune at a smaller k, and the rows it built are `pruned.rows`,
so none reads `.closure`.
"""

import json
from pathlib import Path

import ast
import pytest

from cfmdp.environments import ENVIRONMENTS, build_environment
from cfmdp.gumbel import CfMdp
from cfmdp.mdp import mdp_from_json, mdp_to_json

SRC = Path(__file__).resolve().parents[1] / "src" / "cfmdp"
CORE = ("gumbel.py", "influence.py", "solver.py")
LOOKUPS = ("state_index", "action_index", "pair")


@pytest.mark.parametrize("env", sorted(ENVIRONMENTS))
def test_mdp_keeps_no_label_dict(env):
    mdp = build_environment(env)
    for m in (mdp, mdp_from_json(json.loads(json.dumps(mdp_to_json(mdp))))):
        assert [name for name, value in vars(m).items() if isinstance(value, dict)] == []


def label_lookups(source: str) -> list[str]:
    """Each call of a lookup method and each read of `.steps` in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in LOOKUPS):
            found.append(f"line {node.lineno}: .{node.func.attr}(")
        elif isinstance(node, ast.Attribute) and node.attr == "steps":
            found.append(f"line {node.lineno}: .steps")
    return found


@pytest.mark.parametrize("module", CORE)
def test_core_module_makes_no_label_lookup(module):
    assert label_lookups((SRC / module).read_text()) == []


def adapter_calls(source: str) -> list[str]:
    """Each call of `Mdp(...)` with arguments in `source`."""
    return [f"line {node.lineno}: Mdp(" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and (node.args or node.keywords)
            and "Mdp" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_module_calls_the_mdp_class_with_arguments(module):
    assert adapter_calls((SRC / module).read_text()) == []


@pytest.mark.parametrize("line", [
    "mdp = Mdp(states, actions, kernel, rewards, initial)",
    "mdp = cfmdp.mdp.Mdp(states, actions, kernel, rewards, initial={s0: 1.0})",
])
def test_adapter_guard_fails_on_a_reintroduced_call(line):
    assert adapter_calls(line + "\n") and not adapter_calls("mdp = Mdp.from_arrays(*arrays)\n")


@pytest.mark.parametrize("line", [
    "s0 = mdp.state_index(cf.path.steps[0][0])",
    "observed = [mdp.action_index(a) for a in labels]",
    "p = cf.mdp.pair(s, a)",
    "for s, a in path.steps: pass",
])
def test_guard_fails_on_a_reintroduced_lookup(line):
    source = (SRC / "solver.py").read_text() + "\n\ndef _reintroduced():\n    " + line + "\n"
    assert label_lookups(source)


def test_cf_mdp_hands_out_rows_by_layer_only():
    # `CfMdp` keeps no row table: `layer_rows` builds what it is asked for,
    # and a prune's rows are the one copy of the rows it built.
    assert set(CfMdp.__dataclass_fields__) == {"mdp", "path", "posterior", "stored"}


def type_tests(source: str) -> list[str]:
    """Each comparison in `source`, outside `json_values`, of a `type(...)`
    with int, float or str, and each `isinstance(...)` call there naming
    int, float, str or bool."""
    tree = ast.parse(source)
    reader = {id(node) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.name == "json_values" for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in reader or not isinstance(node, (ast.Compare, ast.Call)):
            continue
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Compare):
            flagged = "type" in names and names & {"int", "float", "str"}
        else:
            flagged = (getattr(node.func, "id", None) == "isinstance"
                       and names & {"int", "float", "str", "bool"})
        if flagged:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_function_but_the_reader_tests_a_json_type(module):
    assert type_tests((SRC / module).read_text()) == []


@pytest.mark.parametrize("line", [
    "if type(samples := obj['samples']) is not int or samples < 0: pass",
    "if type(recipe[key]) is not int: pass",
    "bad = [v for v in values if type(v) not in (int, float)]",
    "ok = set(map(type, values)) <= {str}",
    "ok = not isinstance(obj, bool) and isinstance(obj, (int, float))",
    "ok = all(isinstance(v, str) for v in values)",
])
def test_type_test_guard_fails_on_a_reintroduced_check(line):
    source = (SRC / "cli.py").read_text() + "\n\ndef _reintroduced(obj, recipe, key, values):\n    " + line + "\n"
    assert type_tests(source)
    assert not type_tests("ok = isinstance(obj, dict) or isinstance(obj, (list, tuple))\n")


def closure_reads(source: str) -> list[str]:
    """Each read of an attribute named `closure` in `source`."""
    return [f"line {node.lineno}: .closure" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "closure"]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")
                                          if path.name != "influence.py"))
def test_no_module_but_influence_reads_the_closure(module):
    assert closure_reads((SRC / module).read_text()) == []


@pytest.mark.parametrize("line", [
    "for t, (built, _, _) in enumerate(pruned.closure.rows): pass",
    "hits = result.top.closure.hits",
])
def test_closure_guard_fails_on_a_reintroduced_read(line):
    source = (SRC / "cli.py").read_text() + "\n\ndef _reintroduced(pruned, result):\n    " + line + "\n"
    assert closure_reads(source)
    assert closure_reads((SRC / "influence.py").read_text())  # the guard sees the owner's reads
