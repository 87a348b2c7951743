import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "loccdist"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports (``__future__`` aside) and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_modules_read_every_name_they_import():
    # __init__.py imports names to re-export them, so it is left out
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [hit for p in modules for hit in _unused_imports(p)] == []


def _private_definitions(path: Path) -> dict[str, int]:
    """Module-level ``_private`` functions, classes and constants, by line."""
    defined = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def test_the_package_reads_every_private_module_level_name():
    # a helper that nothing reads any more, for example after a tier is
    # deleted, is caught here; reads count from any module of the package
    modules = sorted(SRC.glob("*.py"))
    read = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    unread = [f"{path.name}:{line}: {name}" for path in modules
              for name, line in _private_definitions(path).items() if name not in read]
    assert unread == []
