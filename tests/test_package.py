import ast
from pathlib import Path

import geohpi


def private_imports(package: Path) -> list[str]:
    """``module: source.name`` for each underscore-prefixed, non-dunder name a
    module under ``package`` imports from a sibling module."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").split(".")[0] == package.name):
                continue
            found += [f"{path.stem}: {node.module or '.'}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    assert private_imports(Path(geohpi.__file__).parent) == []
