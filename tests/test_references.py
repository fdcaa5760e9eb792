"""The test modules keep one reference per library function, in
references.py: no other module defines an oracle by the names the
retired copies of replaced code had, and every public function that
references.py defines is imported by some test module."""

import ast
import pathlib
import re

TESTS = pathlib.Path(__file__).parent
ORACLE_NAME = re.compile(r"(old|_old|loop|reference)_")


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(TESTS.glob("*.py"))}


def test_no_module_but_references_defines_an_oracle():
    found = [(name, node.name) for name, tree in _trees().items() if name != "references.py"
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and ORACLE_NAME.match(node.name)]
    assert found == []


def test_every_reference_is_imported_by_a_test_module():
    trees = _trees()
    defined = {node.name for node in trees["references.py"].body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    imported = {alias.name for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "references"
                for alias in node.names}
    assert defined and defined <= imported, sorted(defined - imported)
