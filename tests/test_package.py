import ast
import importlib.util
from pathlib import Path

import whitham


def test_exports_are_the_imported_public_names():
    namespace = {}
    exec("from whitham import *", namespace)
    assert len(whitham.__all__) == len(set(whitham.__all__))
    tree = ast.parse(Path(whitham.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert set(whitham.__all__) == public
    assert public <= set(namespace)


def _unused_imports(path):
    """Top-level imported names that the module never mentions, neither as
    a name in its code nor in its ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_no_unused_top_level_imports():
    root = Path(__file__).resolve().parent
    files = [
        *sorted(Path(whitham.__file__).parent.glob("*.py")),
        *sorted(root.glob("*.py")),
        *sorted(SCRIPTS.glob("*.py")),
    ]
    assert [u for f in files for u in _unused_imports(f)] == []


def test_scripts_import_without_running():
    """Each script imports every name it uses from ``whitham`` at load time,
    so a renamed library name fails here; loading it under its own module
    name leaves ``main`` unrun."""
    for path in sorted(SCRIPTS.glob("*.py")):
        spec = importlib.util.spec_from_file_location(path.stem, path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
