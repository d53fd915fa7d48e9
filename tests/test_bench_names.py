"""Every library name the benchmark harness traces or imports exists, so a
later change that removes or renames one fails here, not only when
``bench/run.py --trace 1`` runs.  The harness files are read, never
imported or changed."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _missing(pairs):
    """The (module, dotted attribute) pairs that do not resolve."""
    out = []
    for module, dotted in pairs:
        obj = importlib.import_module(module)
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            out.append((module, dotted))
    return out


def test_traced_targets_resolve():
    (targets,) = [
        node.value
        for node in _tree("tracer.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert pairs
    assert _missing(pairs) == []


def test_names_the_bench_imports_from_whitham_exist():
    pairs = [
        (node.module, alias.name)
        for name in ("layers.py", "workloads.py")
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("whitham")
        for alias in node.names
    ]
    assert pairs
    assert _missing(pairs) == []
