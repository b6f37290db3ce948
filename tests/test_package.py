"""The package's public surface."""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import samplex

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
