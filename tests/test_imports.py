"""Every name a library module or a test module imports is used in that
module."""

import ast
import pathlib

import ydcheck

SRC = pathlib.Path(ydcheck.__file__).parent
TESTS = pathlib.Path(__file__).parent


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unused_in(directory):
    found = {path.name: unused_imports(path)
             for path in sorted(directory.glob("*.py"))}
    return {name: names for name, names in found.items() if names}


def test_no_module_imports_a_name_it_never_uses():
    assert unused_in(SRC) == {}


def test_no_test_module_imports_a_name_it_never_uses():
    assert unused_in(TESTS) == {}
