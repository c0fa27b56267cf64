"""Every module-level import of the package and of the tests is read.

No linter ships with the project, so this is its one lint rule, written
on the standard library: each module of `src/clcc` and `tests/` is
parsed, and a name bound by an import statement at module level must
be read somewhere in that module, as a `Name` or as a function
parameter (so a fixture imported from `conftest` counts when a test
takes it).  `from __future__` imports set compiler flags and bind
nothing, and the imports of `src/clcc/__init__.py` are the package's
exports, so both are skipped."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPORTS = ROOT / "src" / "clcc" / "__init__.py"


def unread_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name that a module-level import of the file
    binds and that the file never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
    return [(line, name) for line, name in bound if name not in read]


def modules() -> list[Path]:
    paths = sorted((ROOT / "src" / "clcc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    return [p for p in paths if p != EXPORTS]


def test_every_module_level_import_is_read():
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in modules()
        for line, name in unread_imports(path)
    ]
    assert not unread, "imported and never read:\n" + "\n".join(unread)


def test_the_guard_sees_an_unread_import_and_a_fixture(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from itertools import (chain,\n    combinations)\n"
        "from conftest import c4\n"
        "def test_it(c4):\n"
        "    return chain(os.sep)\n"
        '"""combinations and osp are named only here."""\n'
    )
    assert unread_imports(src) == [(2, "osp"), (4, "combinations")]
