"""Regenerate ``reference.json``: the quantities of interest of every run
in every workload's variant pool.

Usage (from the repository root): python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted; the benchmark then holds
later commits to these values within the tolerances in ``check.py``.  Runs
that exit non-zero are stored too (the benchmark still demands exit 0 from
them) and listed on stdout.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"     # the setting the benchmark runs with

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from ncpde import cli  # noqa: E402

from check import quantities  # noqa: E402
from workloads import POOL, WORKLOADS  # noqa: E402


def main() -> int:
    work = ROOT / ".bench_work" / "reference"
    refs: dict = {}
    try:
        for name, workload in WORKLOADS.items():
            refs[name] = {}
            for v in range(POOL):
                for run in workload.variant(v):
                    out = work / run.key
                    code = cli.run(run.config, out_dir=str(out), quiet=True)
                    if code != 0:
                        print(f"{name} {run.key}: exit {code}")
                    refs[name][run.key] = quantities(run.config["command"], out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # one line per run keeps the file small and its diffs readable
    workloads = [
        f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(refs[name][key])}" for key in sorted(refs[name]))
        + "\n }"
        for name in sorted(refs)]
    text = "{\n" + ",\n".join(workloads) + "\n}\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
