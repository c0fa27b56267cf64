"""The committed lists of `tools/mutants.py` and `tools/linecov.py` stay
current: every mutant's old text occurs exactly once in its file, every
listed unreached line is exactly one line of its file, and each listed
line names a mutant on the list.  No trace and no mutant runs here; a
stale entry fails Tier-1, not the next run of a tool."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_once(monkeypatch):
    mutants = load_tool("mutants")
    assert mutants.stale_entries() == []
    monkeypatch.setattr(mutants, "MUTANTS", [("src/clcc/canon.py", "no such text", "", [])])
    assert mutants.main([]) == 2


def test_every_listed_unreached_line_occurs_once_and_names_a_mutant(monkeypatch):
    linecov = load_tool("linecov")
    assert linecov.stale_entries() == []
    mutant_names = re.findall(r"\(  # (.*)\n", (ROOT / "tools" / "mutants.py").read_text())
    for _, _, reason in linecov.UNREACHED:
        assert re.search(r'mutant "(.*)"$', reason)[1] in mutant_names, reason
    monkeypatch.setattr(linecov, "UNREACHED", [("src/clcc/canon.py", "no such line", "")])
    assert linecov.main() == 2
