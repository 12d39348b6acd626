"""Every name a package module exports is used by the package itself."""

import ast
from pathlib import Path

import epspectra

SRC = Path(epspectra.__file__).parent

# bench/tracing.py hooks these two; they leave together with its hook list
# (ROADMAP item 12)
ALLOWED = {"spectra.exact_spectrum", "spectra.match_branches"}


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _defines(node, name) -> bool:
    """Whether the top-level statement ``node`` defines ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    return False


def _uses(tree, name, skip=()) -> bool:
    """Whether ``tree`` reads ``name`` as a Name or an Attribute outside ``skip``."""
    skipped = {id(n) for stmt in skip for n in ast.walk(stmt)}
    return any(id(n) not in skipped and (
        isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name)
        for n in ast.walk(tree))


def test_every_export_has_a_caller_in_the_package():
    # docstrings are string constants, and imports bind aliases, not Names:
    # neither counts as a use
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = set()
    for module, tree in trees.items():
        for name in _exports(tree):
            own = [stmt for stmt in tree.body if _defines(stmt, name)]
            if not any(_uses(t, name, own if other == module else ())
                       for other, t in trees.items()):
                unused.add(f"{module}.{name}")
    assert unused == ALLOWED
