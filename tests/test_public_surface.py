"""Every public function or class in the package has a production or
benchmark caller; a helper only tests use belongs in ``tests/reference.py``;
and every field, public property and public method of a package class has
a reader.

The censuses read source, not runtime state.  A name defined at module
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
    assert unused == set(), sorted(unused)


# Dataclass introspection reads every field of the class it is given.
_INTROSPECTION = {"asdict", "astuple", "fields"}


def _members(cls: ast.ClassDef) -> dict[str, bool]:
    """``cls``'s fields (class-body annotations and attributes its methods
    assign on ``self``) mapped to True, and its public properties and
    methods mapped to False."""
    members = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                          ast.Name):
            members[node.target.id] = True
        elif isinstance(node, ast.FunctionDef):
            if not node.name.startswith("_"):
                members[node.name] = False
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    members[sub.attr] = True
    return members


def _called(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Attribute names ``tree`` loads, augments or names to ``getattr``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx,
                                                              ast.Store):
            found.add(node.attr)
        elif (isinstance(node, ast.AugAssign)
              and isinstance(node.target, ast.Attribute)):
            found.add(node.target.attr)
        elif (_called(node) == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            found.add(node.args[1].value)
    return found


def _introspected(trees: list[ast.Module]) -> set[str]:
    """Names in the arguments of a dataclass introspection call, or of a
    call to a function that introspects one of its own parameters."""
    wrappers = set()
    for tree in trees:
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = {a.arg for a in fn.args.args}
            if any(_called(n) in _INTROSPECTION and n.args
                   and isinstance(n.args[0], ast.Name)
                   and n.args[0].id in params for n in ast.walk(fn)):
                wrappers.add(fn.name)
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if _called(node) in _INTROSPECTION | wrappers:
                names |= {n.id for arg in node.args for n in ast.walk(arg)
                          if isinstance(n, ast.Name)}
    return names


def _write_only() -> set[str]:
    here = Path(__file__).resolve()
    trees = [ast.parse(p.read_text())
             for d in ("src", "bench", "tests")
             for p in sorted((_ROOT / d).rglob("*.py")) if p != here]
    reads = set().union(*map(_attribute_reads, trees))
    introspected = _introspected(trees)
    unread = set()
    for mod, tree in _modules().items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, is_field in _members(cls).items():
                if name in reads or (is_field and cls.name in introspected):
                    continue
                unread.add(f"{mod}.{cls.name}.{name}")
    return unread


def test_every_class_member_has_a_reader():
    # Attributes are matched by name, so a member counts as read when any
    # object's attribute of that name is; this census sees only the
    # members nothing reads at all.
    assert _write_only() == set(), sorted(_write_only())
