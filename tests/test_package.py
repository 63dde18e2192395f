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


def csv_reader_calls(package: Path) -> list[str]:
    """``module.function`` enclosing each ``csv.reader`` or ``csv.DictReader`` call
    in a module under ``package``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("reader", "DictReader")
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "csv"):
                found.append(where)
            visit(child, where)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_csv_rows_are_read_in_one_place():
    """Every CSV input is split into rows by ``ingestion.read_rows``, the one home
    of the header, line and ``csv.Error`` rules."""
    assert csv_reader_calls(Path(geohpi.__file__).parent) == ["ingestion.read_rows"]


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


_LEAN_INDEX = """\
import sys
import geohpi.cli as cli
if sys.argv[1] == "broken":
    def broken(*args, **kwargs):
        raise RuntimeError("engine exploded")
    cli.compute_index = broken
code = cli.main(sys.argv[2:])
print(code, [m for m in {modules!r} if m in sys.modules])
sys.exit(code)
"""


def _index_in_fresh_interpreter(tmp_path, mode: str, modules: list[str]):
    from geohpi.cli import main

    data = tmp_path / "data"
    assert main(["synth", "--output-dir", str(data), "--months", "4",
                 "--records-per-month", "20", "--seed", "3"]) == 0
    src = Path(geohpi.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", _LEAN_INDEX.format(modules=modules), mode,
         "index", "--input", str(data / "listings.csv"),
         "--output-dir", str(tmp_path / mode)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def test_index_run_leaves_median_and_traceback_modules_unloaded(tmp_path):
    """A whole ``geohpi index`` run loads none of these: ``statistics`` brings
    ``decimal`` and ``fractions``, and ``traceback`` is needed only at exit 3."""
    lean = ["statistics", "decimal", "fractions", "traceback"]
    done = _index_in_fresh_interpreter(tmp_path, "clean", lean)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_internal_error_in_fresh_interpreter_prints_traceback(tmp_path):
    done = _index_in_fresh_interpreter(tmp_path, "broken", [])
    assert done.returncode == 3
    assert "internal error: engine exploded" in done.stderr
    assert "Traceback (most recent call last)" in done.stderr
    assert "RuntimeError: engine exploded" in done.stderr


def test_every_python_file_parses_with_the_3_10_grammar():
    """``pyproject.toml`` allows Python 3.10, so every ``.py`` file under
    ``src/``, ``tests/``, ``scripts/`` and ``perfbench/`` must parse with its
    grammar: no ``except*`` and no PEP 695 ``type`` statements or generics.
    This checks syntax only, not calls into library functions that 3.10 lacks."""
    root = Path(__file__).resolve().parent.parent
    paths = sorted(path for folder in ("src", "tests", "scripts", "perfbench")
                   for path in (root / folder).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
