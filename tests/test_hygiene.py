"""Source hygiene without a linter: every import in a package module is used,
and every private module-level function, class or constant is referenced
somewhere in the package, so deleting a caller cannot leave dead code behind;
and no text is written one row per call."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cmatch"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds "a"
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    assert sorted(imported - used) == []


def _module_level_names(tree: ast.Module):
    """The names a module's body defines: functions, classes and the plain
    names it assigns (its constants)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_private_function_and_class_is_referenced():
    # a reference is a name read, an attribute read (module._name) or an
    # import by another module; a definition or an assignment is not one,
    # so a private constant is also unreferenced until something reads it
    referenced = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = [f"{path.name}:{name}" for path in MODULES
                    for name in _module_level_names(_tree(path))
                    if name.startswith("_") and not name.startswith("__")
                    and name not in referenced]
    assert unreferenced == []


def test_package_exports_exactly_what_it_imports():
    # a rename must move the import and the __all__ entry together
    import cmatch

    tree = _tree(PACKAGE / "__init__.py")
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(cmatch.__all__) == len(set(cmatch.__all__))
    assert set(cmatch.__all__) == imported


def _write_calls(node: ast.AST):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr in ("write", "writelines")]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "_io.py"),
                         ids=lambda p: p.name)
def test_no_write_call_runs_per_row(path):
    # text goes out through _io.write_rows, one block of rows per call; a
    # write inside a loop body or a comprehension is per-row emission
    looped = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            looped += [c for stmt in node.body + node.orelse for c in _write_calls(stmt)]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            looped += _write_calls(node)
    assert sorted({c.lineno for c in looped}) == []
