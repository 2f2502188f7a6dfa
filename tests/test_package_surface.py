"""The package keeps only what it runs: every public module-level function
and class of ``src/signreg``, and every public method of its classes, is
named somewhere other than its definition and the package's re-exports,
or ``KEEP`` says why it stays.

A function or class counts as used when it is referenced in its own
module, imported by or reached as ``module.name`` from another package
module, or named by one of the ``scripts/``. A method (or property)
counts as used when ``.name`` appears in the package or the scripts.
Tests do not count: code that only tests reach is code the package does
not need, and the oracles the tests check it against live in
``tests/oracles.py``.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "signreg")
SCRIPTS = os.path.join(ROOT, "scripts")

KEEP = {
    "cli.main": "the entry point of the signreg console script (pyproject.toml "
                "[project.scripts])",
}


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _modules():
    return {name[:-3]: _parse(os.path.join(PACKAGE, name))
            for name in sorted(os.listdir(PACKAGE))
            if name.endswith(".py") and name != "__init__.py"}


def _definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _methods(tree):
    """``Class.name`` of every public method and property defined in a class."""
    return [f"{cls.name}.{node.name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _attributes(tree):
    """Every ``.name`` read or called in a module."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _own_uses(tree):
    """Names loaded in a module: calls, references and annotations."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _uses_of(tree, module):
    """Names of ``module`` another module imports or reaches as ``module.name``
    (or as ``alias.name`` after ``import ... module as alias``)."""
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    aliases = {module} | {alias.asname for node in imports for alias in node.names
                          if alias.asname and alias.name.split(".")[-1] == module}
    used = set()
    for node in imports:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            used.update(alias.name for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and \
                node.value.id in aliases:
            used.add(node.attr)
    return used


def unreferenced():
    """``module.name`` of every public definition, and ``module.Class.name`` of
    every public method, that no other code names."""
    modules = _modules()
    scripts = [_parse(os.path.join(SCRIPTS, name))
               for name in sorted(os.listdir(SCRIPTS)) if name.endswith(".py")]
    attributes = set().union(*map(_attributes, [*modules.values(), *scripts]))
    found = []
    for module, tree in modules.items():
        used = _own_uses(tree)
        for other, other_tree in modules.items():
            if other != module:
                used |= _uses_of(other_tree, module)
        for script in scripts:
            used |= _uses_of(script, module)
        found += [f"{module}.{name}" for name in _definitions(tree) if name not in used]
        found += [f"{module}.{method}" for method in _methods(tree)
                  if method.split(".")[1] not in attributes]
    return found


def test_every_public_definition_is_used_or_kept():
    extra = sorted(set(unreferenced()) - set(KEEP))
    assert not extra, f"named only at their definition (delete, or KEEP with a reason): {extra}"


def test_keep_lists_only_unreferenced_definitions():
    stale = sorted(set(KEEP) - set(unreferenced()))
    assert not stale, f"KEEP entries that are used, or no longer defined: {stale}"
