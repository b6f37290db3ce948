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


def test_every_public_name_resolves_to_a_non_module():
    assert len(set(samplex.__all__)) == len(samplex.__all__)
    for name in samplex.__all__:
        assert not isinstance(getattr(samplex, name), types.ModuleType), name


def test_every_benchmark_trace_target_resolves():
    # read the tracer's TARGETS without running the tracer, then look each
    # entry up the way it patches it: the last part in its owner's __dict__
    tree = ast.parse(TRACER.read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    assert targets
    for module, path, _hot in targets:
        owner = importlib.import_module(f"samplex.{module}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"samplex.{module}.{path}"


def test_a_monte_carlo_run_imports_no_numpy(tmp_path):
    # numpy is installed here but is no runtime dependency; a fresh
    # interpreter shows what a run really imports
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
        "print(code, 'numpy' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split() == ["0", "False"]
    method = json.loads(out.read_text())["payload"]["analytic_expected_t"]["method"]
    assert method == "monte-carlo"
