import ast
import os
import subprocess
import sys
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


def test_readme_library_import_block_runs():
    """README's ``from geohpi import (...)`` block under "Library surface" imports,
    so renaming or dropping an export it names fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library surface\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert block.startswith("from geohpi import (")
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["GeoTree"] is geohpi.GeoTree


def test_cli_import_leaves_heavy_modules_unloaded():
    """``import geohpi.cli`` loads none of these: each raises the peak RSS of
    every run, and ``plotting`` imports ``xml.sax`` only when it draws."""
    heavy = ["xml.sax", "urllib.request", "ssl", "email"]
    src = Path(geohpi.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, geohpi.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
