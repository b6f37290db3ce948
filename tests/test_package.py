"""The package's public surface."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import samplex

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src" / "samplex"


def test_every_public_name_resolves_to_a_non_module():
    assert len(set(samplex.__all__)) == len(samplex.__all__)
    for name in samplex.__all__:
        assert not isinstance(getattr(samplex, name), types.ModuleType), name


def _trace_targets() -> tuple[tuple[str, str, bool], ...]:
    """The tracer's TARGETS, read without running the tracer."""
    tree = ast.parse(TRACER.read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )


def test_every_benchmark_trace_target_resolves():
    # look each entry up the way the tracer patches it: the last part in
    # its owner's __dict__
    targets = _trace_targets()
    assert targets
    for module, path, _hot in targets:
        owner = importlib.import_module(f"samplex.{module}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"samplex.{module}.{path}"


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SCOPES = _FUNCTIONS + (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound(scope: ast.AST) -> set[str]:
    """Names a function, lambda or comprehension binds for itself: its
    parameters and its assignment, loop and comprehension targets."""
    names = set()
    if isinstance(scope, _FUNCTIONS):
        args = scope.args
        names |= {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            pending.extend(ast.iter_child_nodes(node))
    return names


def _loaded(node: ast.AST, local: frozenset[str] = frozenset()) -> set[str]:
    """Names ``node`` reads from module scope, and every attribute name it
    reads; a name that an enclosing scope binds for itself is local."""
    if isinstance(node, _SCOPES):
        local = local | _bound(node)
    out = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            if isinstance(child.ctx, ast.Load) and child.id not in local:
                out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
        out |= _loaded(child, local)
    return out


def _library_loads() -> tuple[set[str], dict[str, set[str]]]:
    """The names cli.py's top-level code loads, and for each top-level
    definition in src/samplex (outside __init__.py) the names it loads."""
    cli_loads: set[str] = set()
    loads: dict[str, set[str]] = {}
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if path.name == "cli.py":
                cli_loads |= _loaded(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in defined:
                loads.setdefault(name, set()).update(_loaded(node))
    return cli_loads, loads


def _reachable(roots: set[str], loads: dict[str, set[str]]) -> set[str]:
    live: set[str] = set()
    pending = list(roots)
    while pending:
        name = pending.pop()
        if name not in live:
            live.add(name)
            pending.extend(loads.get(name, ()))
    return live


def test_every_public_name_has_a_user():
    # a public name is live when the CLI module's code, a benchmark trace
    # target or an acceptance criterion's import reaches it through the
    # names each top-level definition in src/samplex loads; a name that
    # only unit tests (or other unused names) reach is not public surface
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    roots, loads = _library_loads()
    roots |= {path.split(".")[0] for _module, path, _hot in _trace_targets()}
    roots |= {
        alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and node.module == "samplex"
        for alias in node.names
    }
    live = _reachable(roots, loads)
    assert [name for name in samplex.__all__ if name not in live] == []


def test_no_run_reaches_the_posterior_state_api():
    # the step-by-step posterior API and the fixed-length samplers are
    # references for the tests, kept public only by benchmark trace pins:
    # nothing that cli.py's code reaches loads them
    cli_loads, loads = _library_loads()
    reference = {
        "PosteriorState", "posterior_update", "check_stop", "Decision",
        "markov_sample", "iid_sample",
    }
    assert _reachable(cli_loads, loads) & reference == set()


def test_no_field_block_in_the_cli_runs_trials():
    # a run is checked before its first trial: no ``with _field(...)``
    # block in cli.py calls a Monte Carlo trial loop, trace or curve
    tree = ast.parse((SRC / "cli.py").read_text())
    runners = {"mc_sample_complexity", "posterior_trace", "expected_sc_evaluator"}
    wrapped = [
        f"{ast.unparse(node.items[0])}: {call.func.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.With)
        and any(
            isinstance(item.context_expr, ast.Call)
            and getattr(item.context_expr.func, "id", None) == "_field"
            for item in node.items
        )
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in runners
    ]
    assert wrapped == []


def test_the_cli_imports_only_public_library_names():
    # the CLI is the library's first caller, so what it needs is public;
    # a dunder such as __version__ is public by convention
    tree = ast.parse((SRC / "cli.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("samplex"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def _private_names(tree: ast.Module) -> set[str]:
    """Names a module defines with a leading underscore: module-level
    and class-level definitions and assignments, and attributes its code
    stores on an object; dunders are not private."""
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for scope in scopes:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_only_processes_reads_its_private_names():
    # how a chain steps is known to processes alone: no other module
    # imports or reads an attribute that only processes defines privately
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    own = _private_names(trees.pop("processes"))
    own -= set().union(*map(_private_names, trees.values()))
    reads = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            reads += [f"{module}: {name}" for name in names if name in own]
    assert reads == []


def test_one_loop_reads_fair_bits():
    # processes._walk reads the fair-bit word in place; next_bit is the
    # per-flip reader of the test oracles, so no library function but
    # BitSource's own (__init__, next_bit, reseed) calls it or touches
    # the word
    readers = {
        f"{path.stem}.{func.name}"
        for path in SRC.glob("*.py")
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr in ("next_bit", "_buf", "_left")
    }
    assert readers == {
        "processes.__init__", "processes.next_bit", "processes.reseed", "processes._walk"
    }


def test_only_the_likelihood_scorers_read_the_log_table():
    # a member's likelihood is written once: the posterior step, the
    # stopping rule's support check, the step-path trial loop and the
    # class scorer (the class walk and the count-path trials) are the
    # library's only readers of HypothesisSet._log_table
    readers = {
        f"{path.stem}.{func.name}"
        for path in SRC.glob("*.py")
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "_log_table"
    }
    assert readers == {
        "bayes.posterior_update", "bayes._stopping_rule", "bayes._trial_loop",
        "bayes._class_loglik",
    }


def test_one_rule_checks_the_mass_of_a_probability_list():
    # a prior and a process's weights meet one unit-mass tolerance: no
    # top-level definition but info.ProbVector reads MASS_TOL, nothing
    # imports it, and processes keeps no 2**-40 check of its own
    readers = {
        f"{path.stem}.{getattr(scope, 'name', '<module>')}"
        for path in SRC.glob("*.py")
        for scope in ast.parse(path.read_text()).body
        for node in ast.walk(scope)
        if (isinstance(node, ast.Name) and node.id == "MASS_TOL"
            and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "MASS_TOL")
        or (isinstance(node, ast.alias) and node.name == "MASS_TOL")
    }
    assert readers == {"info.ProbVector"}
    assert "1 << 40" not in (SRC / "processes.py").read_text()


def test_validate_config_reads_no_field_of_its_config():
    # each cross-field constraint is refused by the library object that
    # owns it, so validate_config only hands its argument to the schema
    # validator and returns it: no subscript, no .get, no kind branch
    tree = ast.parse((SRC / "cli.py").read_text())
    func = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "validate_config"
    )
    (param,) = func.args.args
    parents = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
    uses = []
    for node in ast.walk(func):
        if not (isinstance(node, ast.Name) and node.id == param.arg):
            continue
        parent = parents[node]
        validated = (
            isinstance(parent, ast.Call)
            and parent.args == [node]
            and isinstance(parent.func, ast.Attribute)
            and parent.func.attr == "iter_errors"
        )
        if not (validated or isinstance(parent, ast.Return)):
            uses.append(ast.unparse(parent))
    assert uses == []


def test_a_monte_carlo_run_imports_no_numpy(tmp_path):
    # numpy and jsonschema (with the packages it pulls in) are installed
    # here but are no runtime dependency; a fresh interpreter shows what a
    # run really imports
    cfg = tmp_path / "bayes.json"
    cfg.write_text(json.dumps({
        "kind": "bayes", "ideal": [0.5, 0.5],
        "hypotheses": [[0.5, 0.5], [0.3, 0.7]],
        "prior": [0.5, 0.5], "p": 0.9, "trials": 5, "seed": 5,
    }))
    out = tmp_path / "out.json"
    script = (
        "import sys\n"
        "from samplex.cli import main\n"
        f"code = main(['run', '--config', {str(cfg)!r}, '--out', {str(out)!r}])\n"
        "print(code, *(name in sys.modules for name in\n"
        "    ('numpy', 'jsonschema', 'referencing', 'attrs', 'rpds')))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split() == ["0"] + ["False"] * 5
    method = json.loads(out.read_text())["payload"]["analytic_expected_t"]["method"]
    assert method == "monte-carlo"
