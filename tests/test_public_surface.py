"""Every public function or class in the package has a production or
benchmark caller; a helper only tests use belongs in ``tests/reference.py``.

The census reads source, not runtime state.  A name defined at module
level in ``src/roadpatch/<module>.py`` counts as reached when another
package module imports it from ``roadpatch`` or reads it as a module
attribute, when its own module uses it outside its own definition, or
when ``bench/`` imports it, reads it as an attribute, or names it as the
attribute ``spans.install`` rebinds.  The package root only re-exports,
so its imports reach nothing.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "roadpatch"

# Kept without a use until the reference code moves out of ``attack``
# together with the benchmark hooks that look names up there (ROADMAP
# item 3, after item 2).
_ALLOWED = {("attack", "frame_gradient"),
            ("attack", "aggregate_gradients_bev")}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in _PACKAGE.glob("*.py")
            if p.stem != "__init__"}


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _module_aliases(tree: ast.Module, package: set[str]) -> dict[str, str]:
    """Local names bound to a package module, by ``from roadpatch import m``,
    ``from . import m`` or ``import roadpatch.m as x``."""
    aliases = {}
    for node in ast.walk(tree):
        # only a relative import (``from . import m``) names no module
        if isinstance(node, ast.ImportFrom) and node.module in ("roadpatch",
                                                                None):
            for a in node.names:
                if a.name in package:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                head, _, mod = a.name.partition(".")
                if head == "roadpatch" and mod in package and a.asname:
                    aliases[a.asname] = mod
    return aliases


def _uses(tree: ast.Module, package: set[str]) -> set[tuple[str, str]]:
    """``(module, name)`` pairs ``tree`` reaches by import or attribute."""
    aliases = _module_aliases(tree, package)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            mod = node.module.rpartition(".")[2]
            if mod in package and (node.level
                                   or node.module.startswith("roadpatch.")):
                found |= {(mod, a.name) for a in node.names}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            found.add((aliases[node.value.id], node.attr))
    return found


def _installed(tree: ast.Module) -> set[str]:
    """Attribute names passed to ``Tracer.install`` (its third argument)."""
    return {node.args[2].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "install" and len(node.args) > 2
            and isinstance(node.args[2], ast.Constant)}


def _used_locally(tree: ast.Module, name: str, definition: ast.stmt) -> bool:
    inside = {id(n) for n in ast.walk(definition)}
    return any(isinstance(n, ast.Name) and n.id == name and id(n) not in inside
               for n in ast.walk(tree))


def _unreached() -> set[tuple[str, str]]:
    modules = _modules()
    package = set(modules)
    reached = set()
    for tree in modules.values():
        reached |= _uses(tree, package)
    installed = set()
    for path in (_ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text())
        reached |= _uses(tree, package)
        installed |= _installed(tree)
    unreached = set()
    for mod, tree in modules.items():
        for name, node in _defined(tree).items():
            if ((mod, name) in reached or name in installed
                    or _used_locally(tree, name, node)):
                continue
            unreached.add((mod, name))
    return unreached


def test_every_public_name_has_a_production_or_benchmark_use():
    unused = _unreached()
    assert unused - _ALLOWED == set(), sorted(unused - _ALLOWED)
    assert _ALLOWED <= unused, "an allowed name gained a use; unlist it"
