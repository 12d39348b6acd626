"""Every name a package module exports, and every function and method it
defines, is used by the package itself."""

import ast
from pathlib import Path

import epspectra

SRC = Path(epspectra.__file__).parent

# names with no caller in the package, each kept for its caller outside it
ALLOWED = {
    # argparse calls it on a parse error
    "cli._Parser.error",
    # bench/tracing.py hooks these two; they leave together with its hook
    # list (ROADMAP item 12)
    "spectra.exact_spectrum",
    "spectra.match_branches",
    # bench/checks.py confirms each printed EP with it
    "ep_locator._exact_count",
    # bench/checks.py scales its tolerances by it
    "operators.HamiltonianFamily.max_abs",
}


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


def _functions(tree):
    """(qualified name, def node) of every module-level function and method.

    Dunder methods are left out: Python itself calls them.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def _uses(tree, name, skip=()) -> bool:
    """Whether ``tree`` reads ``name`` as a Name or an Attribute outside ``skip``."""
    skipped = {id(n) for stmt in skip for n in ast.walk(stmt)}
    return any(id(n) not in skipped and (
        isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name)
        for n in ast.walk(tree))


def test_every_export_and_function_has_a_caller_in_the_package():
    # docstrings are string constants, and imports bind aliases, not Names:
    # neither counts as a use; nor does a function's use of itself
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = set()
    for module, tree in trees.items():
        targets = {name: [stmt for stmt in tree.body if _defines(stmt, name)]
                   for name in _exports(tree)}
        targets.update((qualified, [node]) for qualified, node in _functions(tree))
        for qualified, own in targets.items():
            name = qualified.rpartition(".")[2]
            if not any(_uses(t, name, own if other == module else ())
                       for other, t in trees.items()):
                unused.add(f"{module}.{qualified}")
    assert unused == ALLOWED
