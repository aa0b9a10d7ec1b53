"""Executable lines of ``src/ncpde`` that no test runs, and those that no
CLI traffic runs.

Usage (from the repository root):

    python3 scripts/unreached.py

It imports the package, runs ``tests/`` and then runs the CLI traffic in
this process under ``sys.settrace`` and ``threading.settrace``, recording
the lines executed in the files of ``src/ncpde``.  The traffic is every
``corpus/`` config and every pool variant of every workload in
``perfbench/workloads.py``, each through ``cli.run`` (quiet, artifacts to a
temporary directory).  For each of the two sections it prints
``src/ncpde/<module>.py:line: source`` for every executable line (a line
number of some code object's ``co_lines``) that the import and that section
left unrun.  Lines run only in a subprocess that a test starts are not
seen.  The listing is a report, not a gate: the script exits 0 unless a
CLI run raises.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
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


def cli_configs() -> list[dict]:
    """The ``corpus/`` configs, then the runs of every pool variant of every
    workload in ``perfbench/workloads.py``."""
    configs = [json.loads(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "corpus").glob("*.json"))]
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import POOL, WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return configs + [run.config for workload in WORKLOADS.values()
                      for variant in range(POOL) for run in workload.variant(variant)]


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    with recording(str(PACKAGE)) as imported:
        from ncpde import cli
    with recording(str(PACKAGE)) as tested:
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    configs = cli_configs()
    with recording(str(PACKAGE)) as served, tempfile.TemporaryDirectory() as out:
        for i, config in enumerate(configs):
            cli.run(config, out_dir=f"{out}/{i}", quiet=True)
    for title, ran in [("no test runs", tested),
                       (f"none of the {len(configs)} CLI traffic configs runs", served)]:
        print(f"# lines that {title}")
        for path in sorted(PACKAGE.glob("*.py")):
            for line, text in unreached(path, imported | ran):
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
