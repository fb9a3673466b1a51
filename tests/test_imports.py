"""Every import in ``src/``, ``tests/``, ``benchmarks/`` and ``examples/``
is used by the module that makes it, and no ``src/`` module reads the
environment.

No lint tool runs in CI, so this test is the check: it parses each module
with :mod:`ast` and fails on a bound import name that no expression or
annotation (quoted ones included) of the module reads and that its
``__all__`` does not export, and on any ``os.environ`` or ``os.getenv``
in ``src/``: an environment variable the library reads is a switch that
no signature or option shows.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: ``(module path under the repository root, name)`` pairs imported for
#: another reader.
ALLOWED = {
    # e2ebench's traced live_chaos workload wraps lanes.decode_packet by
    # name, so the binding must stay in that namespace.
    ("src/repro/live/lanes.py", "decode_packet"),
}

#: Modules under ``src/`` allowed to read the environment.
ENV_READERS: set = set()

#: ``os`` attributes that read the environment.
_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def quoted_annotation_names(tree: ast.AST):
    """Names read inside string annotations such as ``"List[Network]"``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                for name in ast.walk(ast.parse(part.value, mode="eval")):
                    if isinstance(name, ast.Name):
                        yield name.id


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set(quoted_annotation_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                element.value
                for element in getattr(node.value, "elts", ())
                if isinstance(element, ast.Constant)
            )
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def unused_under(directory: str):
    """``path:line: name`` of every unused import below ``directory``."""
    found = []
    for path in sorted((ROOT / directory).rglob("*.py")):
        module = path.relative_to(ROOT).as_posix()
        found += [
            f"{module}:{line}: {name}"
            for line, name in unused_imports(path)
            if (module, name) not in ALLOWED
        ]
    return found


def environment_reads(path: Path):
    """Lines of ``path`` that read ``os.environ`` or call ``os.getenv``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in _ENV_NAMES for alias in node.names)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_src_modules_use_every_import():
    assert unused_under("src") == []


@pytest.mark.parametrize("directory", ["tests", "benchmarks", "examples"])
def test_tests_benchmarks_and_examples_use_every_import(directory):
    assert unused_under(directory) == []


def test_allow_list_names_imports_that_exist():
    # An allow-list entry whose import is gone (or now used) is stale.
    for module, name in ALLOWED:
        assert name in {n for _, n in unused_imports(ROOT / module)}


def test_src_modules_read_no_environment():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = path.relative_to(ROOT).as_posix()
        if module not in ENV_READERS:
            found += [f"{module}:{line}" for line in environment_reads(path)]
    assert found == []


def test_environment_reads_finds_every_form(tmp_path):
    # The check above has nothing to find in src/, so pin that it sees
    # each way a module reads the environment, and nothing else.
    module = tmp_path / "reader.py"
    module.write_text(
        "import os\n"
        "from os import getenv, path\n"
        "home = os.environ['HOME']\n"
        "user = os.environ.get('USER')\n"
        "shell = os.getenv('SHELL')\n"
        "joined = os.path.join(home, user)\n"
        "environ = {}\n",
        encoding="utf-8",
    )
    assert environment_reads(module) == [2, 3, 4, 5]
