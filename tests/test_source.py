"""Checks on the package's source text, read with ``ast`` alone."""

import ast
from collections import Counter
from pathlib import Path

import ldcost


def _defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [target.id for target in statement.targets if isinstance(target, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _references(tree: ast.AST) -> Counter:
    """How often each name is read, named as an attribute or imported in ``tree``."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def test_every_private_module_name_has_a_reference():
    """A module-level ``_name`` in the package is referenced somewhere in
    the package outside its own definition: code with no caller is deleted."""
    package = Path(ldcost.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    references = sum((_references(tree) for tree in trees.values()), Counter())
    private = [
        (module, name, statement)
        for module, tree in trees.items()
        for statement in tree.body
        for name in _defined_names(statement)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert len(private) > 50  # the walk finds the package's private names
    unreferenced = [
        f"{module}: {name}"
        for module, name, statement in private
        if references[name] == _references(statement)[name]
    ]
    assert unreferenced == []
