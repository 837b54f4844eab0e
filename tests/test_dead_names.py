"""No dead name in `src/tubekit`, checked with the standard library's `ast`
alone: every module-level private name is used somewhere in the package
beyond its definition, and every imported name is used in the module that
imports it. An import on a `# noqa` line of `__init__.py` is a re-export.
No module uses another module's private name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tubekit"


def parsed():
    """(path, source lines, tree) of every module of the package."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        yield path, text.splitlines(), ast.parse(text, filename=str(path))


def used(tree):
    """The names a tree reads: loaded names, attribute names and the names
    imported from a module (a private name imported by another module is
    used there)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def private(name):
    """Whether `name` is private: one leading underscore, not a dunder."""
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree):
    """The module-level names of a tree that start with one underscore and
    that a def, class or assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and private(name.id):
                    yield name.id


def test_every_private_module_name_is_used():
    modules = list(parsed())
    uses = set().union(*(used(tree) for _, _, tree in modules))
    dead = [f"{path.name}: {name}" for path, _, tree in modules for name in private_definitions(tree)
            if name not in uses]
    assert not dead


def test_every_imported_name_is_used_in_its_module():
    dead = []
    for path, lines, tree in parsed():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if path.name == "__init__.py" and "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in loaded:
                    dead.append(f"{path.name}:{node.lineno}: {bound}")
    assert not dead


def test_no_module_imports_another_modules_private_name():
    # a name one module takes from another is public: no `from .m import _name`
    # and no `m._name` on a package module `m` bound by `from . import m`
    found = []
    for path, _, tree in parsed():
        relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
        modules = {alias.asname or alias.name for node in relative if node.module is None for alias in node.names}
        for node in relative:
            found.extend(f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names if private(alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules \
                    and private(node.attr):
                found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert not found
