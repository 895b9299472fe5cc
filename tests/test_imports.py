"""Every name a library module imports is used in that module."""

import ast
import pathlib

import ydcheck

SRC = pathlib.Path(ydcheck.__file__).parent


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
