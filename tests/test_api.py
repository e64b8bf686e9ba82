"""The package root exports the documented API and nothing else."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import gencactus

ROOT = Path(__file__).resolve().parents[1]


def readme_api() -> list[str]:
    """Names in the bullet lines of the README's "Library API" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith("- ")]
    return [name for line in bullets for name in re.findall(r"`(\w+)`", line)]


def root_imports(path: Path) -> set[str]:
    """Names a file imports with `from gencactus import ...`."""
    tree = ast.parse(path.read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gencactus" and not node.level
        for alias in node.names
    }


def test_import_binds_the_submodules():
    # a fresh interpreter, so no other test has imported a submodule first
    code = (
        "import gencactus\n"
        "for name in ('cactus', 'coxeter', 'errors', 'racg', 'rep', 'scalar'):\n"
        "    getattr(gencactus, name).__name__\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_all_is_the_readme_list():
    names = readme_api()
    assert len(names) == 31
    assert gencactus.__all__ == names
    for name in names:
        assert hasattr(gencactus, name)


def test_root_imports_of_tests_and_bench_are_documented():
    used = root_imports(ROOT / "tests" / "conftest.py")
    used |= root_imports(ROOT / "perfbench" / "test_bench.py")
    assert used
    assert used <= set(readme_api())
