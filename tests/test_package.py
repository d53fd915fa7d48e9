import ast
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
