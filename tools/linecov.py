"""Line trace of the tests: every line of a library function must run.

Usage, from the repository root:

    python3 tools/linecov.py

It runs `pytest tests` with `sys.settrace` on, in the test process and
in every CLI child the tests start: a `sitecustomize` module, put first
on `PYTHONPATH` in a temporary directory, starts the trace when an
interpreter starts and writes the lines it ran in `src/clcc` when the
interpreter exits.  The lines counted are those inside library
functions: the lines of the code objects of the functions, lambdas and
comprehensions of `src/clcc`, less each function's own `def` line
(a docstring compiles to no line).

UNREACHED lists the lines that stay although no test reaches them, as
(file, exact line text, reason).  Each re-checks a verdict that no
public input can break, and its reason names the mutant of
`tools/mutants.py` that reaches it.  Its text, stripped of indentation,
must be exactly one line of its file; if any is not, the command names
it and exits 2 before running anything, so the list cannot go stale
unseen.  The command prints the counts, then every unreached line that
is not on the list and every listed line that the tests reached, and
exits 1 when there is one or when the traced tests fail; else 0.  This
is not part of Tier-1; a full run takes about 4 minutes on two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from inspect import CO_NEWLOCALS
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

UNREACHED = [
    ("src/clcc/hyperbolicity.py",
     'raise RuntimeError(f"subdivision produced a non-bicolor empty square: {bad_a or bad_b}")',
     "a re-check of the subdivision; mutant "
     '"the subdivision splits each full flag into two chains: no vertex meets a face"'),
    ("src/clcc/hyperbolicity.py",
     'raise RuntimeError(f"subdivided pair is not pairwise 5-large: {bad_pair}")',
     "a re-check of the subdivided pair; mutant "
     '"both factors subdivided with the first factor\'s colors"'),
    ("src/clcc/homology_z2.py",
     'raise AssertionError("support complex is not pure of the expected dimension")',
     "a re-check of the cycle's support; mutant "
     '"a chain\'s support keeps only its cells"'),
    ("src/clcc/clcc_core.py",
     'raise ComplexError(f"link image at {v} is not a full subcomplex")',
     "a re-check of the local isometry; mutant "
     '"every injective map taken for a full inclusion"'),
    ("src/clcc/pocset_hyperplanes.py",
     "return False, None  # a guard of the verdict: every cube of X is a rebuild cube",
     "a re-check of the duality verdict; mutant "
     '"the rebuild\'s edges list their vertices last first"'),
]

# Written to the front of each traced interpreter's PYTHONPATH.  Lines
# are recorded per file, by a local trace function made once per file
# of `src/clcc`; every other frame is left untraced.
SITECUSTOMIZE = '''
import atexit, json, os, sys, tempfile, threading

_OUT, _SRC = os.environ["LINECOV_OUT"], os.environ["LINECOV_SRC"]
_hits, _tracers = {}, {}


def _tracer_for(name):
    add = _hits.setdefault(name, set()).add

    def trace(frame, event, arg):
        add(frame.f_lineno)
        return trace

    return trace


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    tracer = _tracers.get(name, 0)
    if tracer == 0:
        inside = os.path.realpath(name).startswith(_SRC)
        tracer = _tracers[name] = _tracer_for(name) if inside else None
    return tracer


def _write():
    sys.settrace(None)
    fd, path = tempfile.mkstemp(suffix=".json", dir=_OUT)
    with os.fdopen(fd, "w") as fh:
        json.dump({os.path.realpath(k): sorted(v) for k, v in _hits.items()}, fh)


atexit.register(_write)
threading.settrace(_call)
sys.settrace(_call)
'''


def line_of(path: str, text: str) -> int | None:
    """The number of the one line of `path` whose stripped text is
    `text`, or None when there is not exactly one."""
    found = [k for k, line in enumerate((ROOT / path).read_text().splitlines(), 1)
             if line.strip() == text]
    return found[0] if len(found) == 1 else None


def stale_entries() -> list[tuple[int, str]]:
    """(entry number, file) of each UNREACHED entry whose text is not
    exactly one line of its file."""
    return [(k, path) for k, (path, text, _) in enumerate(UNREACHED, 1)
            if line_of(path, text) is None]


def function_lines(path: Path) -> set[int]:
    """The lines of every function, lambda and comprehension code object
    of a module, less each function's own first (`def` or decorator)
    line; module and class bodies are not functions."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
        if not code.co_flags & CO_NEWLOCALS:
            continue
        own = {line for _, _, line in code.co_lines() if line is not None}
        if not code.co_name.startswith("<"):
            own.discard(code.co_firstlineno)
        lines |= own
    return lines


def traced_run(out: Path) -> subprocess.CompletedProcess:
    site = out / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    hits = out / "hits"
    hits.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(site), str(SRC)]),
               LINECOV_OUT=str(hits), LINECOV_SRC=str(SRC / "clcc") + os.sep)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def main() -> int:
    stale = stale_entries()
    for k, path in stale:
        print(f"entry {k}: its text is not exactly one line of {path}")
    if stale:
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        run = traced_run(Path(tmp))
        ran: dict[str, set[int]] = {}
        for part in (Path(tmp) / "hits").glob("*.json"):
            for name, lines in json.loads(part.read_text()).items():
                ran.setdefault(name, set()).update(lines)
    print(run.stdout.strip().splitlines()[-1] if run.stdout.strip() else run.stderr)
    listed = {(path, line_of(path, text)) for path, text, _ in UNREACHED}
    total, unreached, unlisted = 0, [], []
    for path in sorted((SRC / "clcc").glob("*.py")):
        rel = str(path.relative_to(ROOT))
        lines = function_lines(path)
        total += len(lines)
        for line in sorted(lines - ran.get(str(path.resolve()), set())):
            unreached.append((rel, line))
            if (rel, line) not in listed:
                unlisted.append((rel, line))
    reached = sorted(listed - set(unreached))
    print(f"{total} function lines, {len(unreached)} unreached, {len(listed)} listed "
          f"({time.perf_counter() - start:.0f} s traced)")
    for rel, line in unlisted:
        text = (ROOT / rel).read_text().splitlines()[line - 1].strip()
        print(f"unreached, not listed: {rel}:{line}: {text}")
    for rel, line in reached:
        print(f"listed, but reached: {rel}:{line}")
    return 1 if unlisted or reached or run.returncode != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
