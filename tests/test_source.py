"""Checks on the package's source text, read with ``ast`` alone."""

import ast
import re
from collections import Counter
from pathlib import Path

import ldcost

PACKAGE = Path(ldcost.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"

# Public names kept although nothing in the package reads them and README
# does not name them, each with the reason.
UNREAD_PUBLIC_NAMES = {
    "build_resolution_groups": "perfbench/layers.py traces it as a layer of the analysis",
    "detect_star_joins": "perfbench/layers.py traces it as a layer of the analysis",
}


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


def _package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _module_names(trees: dict[str, ast.Module], public: bool) -> list[tuple[str, str, ast.stmt]]:
    """(module, name, defining statement) for each public, or each private,
    module-level name; dunder names are neither."""
    return [
        (module, name, statement)
        for module, tree in trees.items()
        for statement in tree.body
        for name in _defined_names(statement)
        if not name.startswith("__") and name.startswith("_") != public
    ]


def _readme_code_words() -> set[str]:
    """The words in README's code: its fenced blocks and inline spans."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```.*?```", text, re.S)
    spans = re.findall(r"`[^`\n]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"\w+", " ".join(blocks + spans)))


def test_every_private_module_name_has_a_reference():
    """A module-level ``_name`` in the package is referenced somewhere in
    the package outside its own definition: code with no caller is deleted."""
    trees = _package_trees()
    references = sum((_references(tree) for tree in trees.values()), Counter())
    private = _module_names(trees, public=False)
    assert len(private) > 50  # the walk finds the package's private names
    unreferenced = [
        f"{module}: {name}"
        for module, name, statement in private
        if references[name] == _references(statement)[name]
    ]
    assert unreferenced == []


def test_every_public_module_name_is_read_or_documented():
    """A public module-level name in the package is read somewhere in the
    package outside its own definition and ``__init__``'s re-export, or is
    named in README's code: a public name that nothing reads and nobody is
    told of is deleted.  ``UNREAD_PUBLIC_NAMES`` lists the exceptions, and
    each must still be one."""
    trees = _package_trees()
    references = sum((_references(tree) for tree in trees.values()), Counter())
    for statement in trees["__init__.py"].body:
        if isinstance(statement, ast.ImportFrom):
            references -= _references(statement)
    public = _module_names(trees, public=True)
    assert len(public) > 50  # the walk finds the package's public names
    documented = _readme_code_words()
    unread = {
        name: module
        for module, name, statement in public
        if references[name] == _references(statement)[name] and name not in documented
    }
    assert {name: module for name, module in unread.items() if name not in UNREAD_PUBLIC_NAMES} == {}
    assert set(UNREAD_PUBLIC_NAMES) <= set(unread)
