"""Repository hygiene: the README's CLI examples parse, no module of the
package imports a name it never uses, and every name the package defines is
used somewhere else."""

import ast
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

from expanderlab import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "expanderlab"
# where a definition of the package may be named: code, tests and the benchmark
CALLERS = ("src", "tests", "perfbench")


def _readme_cli_lines() -> list[str]:
    """The `expanderlab ...` lines of the first sh block under the README's CLI heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("expanderlab ")]


def test_readme_cli_block_is_not_empty():
    assert len(_readme_cli_lines()) >= 15


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_line_parses(line):
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _definitions(path: Path) -> list[str]:
    """Top-level functions, classes and assigned names of a module, and the
    non-dunder methods of its classes."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return names


def test_every_definition_is_named_elsewhere():
    # a name that occurs once in the whole code base occurs only where it is
    # defined: nothing calls, reads or tests it
    words = Counter(word for top in CALLERS for path in (ROOT / top).rglob("*.py")
                    for word in re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unused = [f"{path.name} {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _definitions(path) if words[name] < 2]
    assert unused == []
