"""The package root exports the documented API and nothing else."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def fresh(code: str) -> str:
    """stdout of code in a fresh interpreter, where no other test has
    imported a submodule or read a name of the package first."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_binds_the_submodules():
    fresh(
        "import gencactus\n"
        "for name in ('cactus', 'coxeter', 'cyclotomic', 'errors', 'linalg', 'racg', 'rep',\n"
        "             'scalar'):\n"
        "    getattr(gencactus, name).__name__\n"
    )


def test_import_loads_no_submodule_until_one_is_read():
    out = fresh(
        "import sys\n"
        "import gencactus\n"
        "print(sorted(m for m in sys.modules if m.startswith('gencactus.')))\n"
        "gencactus.CactusWord\n"
        "print(sorted(m for m in sys.modules if m.startswith('gencactus.')))\n"
    )
    assert out.splitlines() == [
        "[]", "['gencactus.cactus', 'gencactus.coxeter', 'gencactus.errors']"
    ]


def test_each_name_is_the_object_its_submodule_defines():
    # the lazy table names, for every exported name, the submodule that
    # defines it, not one that re-exports it
    assert list(gencactus._HOME) == gencactus.__all__
    for name, home in gencactus._HOME.items():
        module = importlib.import_module(f"gencactus.{home}")
        value = getattr(gencactus, name)
        assert value is getattr(module, name)
        assert value.__module__ == module.__name__, name


def test_star_import_and_dir_list_every_name():
    out = fresh(
        "import gencactus\n"
        "listed = dir(gencactus)\n"
        "names = {}\n"
        "exec('from gencactus import *', names)\n"
        "print(sorted(set(names) - {'__builtins__'}))\n"
        "print(sorted(set(gencactus.__all__) - set(listed)))\n"
    )
    star, unlisted = out.splitlines()
    assert star == str(sorted(gencactus.__all__))
    assert unlisted == "[]"
    assert set(gencactus.__all__) | {"rep", "linalg"} <= set(dir(gencactus))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'mat_mul'"):
        gencactus.mat_mul
    assert not hasattr(gencactus, "cli_main")
    # a private name of a submodule is not re-exported
    assert not hasattr(gencactus, "_Rep")


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
