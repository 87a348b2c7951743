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
