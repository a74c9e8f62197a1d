"""Repository hygiene: the README's CLI examples parse, and no module of the
package imports a name it never uses."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from expanderlab import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "expanderlab"


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
