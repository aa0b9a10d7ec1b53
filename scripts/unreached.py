"""Executable lines of ``src/ncpde`` that no test runs.

Usage (from the repository root):

    python3 scripts/unreached.py

It runs ``tests/`` in this process under ``sys.settrace`` and
``threading.settrace``, recording the lines executed in the files of
``src/ncpde``, and prints ``src/ncpde/<module>.py:line: source`` for every
executable line (a line number of some code object's ``co_lines``) that no
test ran.  Lines run only in a subprocess that a test starts are not seen.
The listing is a report, not a gate: the script always exits 0.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncpde"


def executable_lines(code: CodeType) -> set[int]:
    """Line numbers of ``code`` and of every code object nested in it (a
    module's code starts at the line 0, which holds no source)."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


@contextlib.contextmanager
def recording(prefix: str):
    """Yield the set of (filename, line) pairs run, in any thread, by code
    whose filename starts with ``prefix``; the tracers in place before are
    restored on exit."""
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    before, before_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        yield ran
    finally:
        sys.settrace(before)
        threading.settrace(before_threads)


def unreached(path: Path, ran: set[tuple[str, int]]) -> list[tuple[int, str]]:
    """(line, source) of every executable line of the file ``path`` not in ``ran``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    done = {line for name, line in ran if name == str(path)}
    return [(n, lines[n - 1].strip())
            for n in sorted(executable_lines(compile(source, str(path), "exec")) - done)]


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    with recording(str(PACKAGE)) as ran:
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in unreached(path, ran):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
