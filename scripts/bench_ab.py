"""Alternated A/B runs of ``perfbench/run.py`` on two git refs.

Usage (from the repository root):

    python3 scripts/bench_ab.py PARENT CHANGE --out BENCH_N.json \\
        --workload solve --workload all:15 [--pairs 5] [--seed 1] \\
        [--trace evolve-fixed:40 --trace solve] [--note "what the change does"]

Each ref is exported with ``git archive`` into its own fresh directory, so
both sides run from clean committed files and the repository itself is left
untouched.  For each ``--workload NAME:SECONDS`` the driver runs
``python3 perfbench/run.py --workload NAME --seed SEED --seconds SECONDS``
``--pairs`` times per side (SECONDS defaults to ``run_seconds`` of
``BENCHMARK.json``), one run at a time, alternating the sides as
parent, change, change, parent, ... so that a slow drift of the machine's
speed falls on both sides alike.  Each ``--trace NAME:SECONDS``
(repeatable) adds one ``--trace 1`` run per side, in a section named
``trace:NAME``.

The output has one section per workload with the command, the run order,
the ``# meta`` line of the first run, every run's last stdout line verbatim
and, in ``median``, per end-to-end metric of ``BENCHMARK.json``: each
side's median and inclusive quartiles, the parent's interquartile range,
the change-over-parent ratio and ``change_wins_pairs``, the number of pairs
(same index) in which the change's run is better.  ``bytecode`` records
whether the benchmark interpreters write bytecode: ``PYTHONDONTWRITEBYTECODE``
as passed on to them, and their ``sys.flags.dont_write_bytecode``.  Each side
runs from an export with no ``__pycache__``, so an interpreter that writes
none compiles all of ``src/`` in every fresh start that ``setup_s`` times.
``filesystem`` records the mount that holds the checkouts (mount point,
device, type and options, from ``/proc/mounts``; null where that table is
missing): each run writes its artifacts there, and how long a write waits
on the disk depends on the filesystem and its mount options.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(ref: str, dest: Path) -> None:
    """The committed files of ``ref``, written under ``dest``."""
    dest.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", "--format=tar", ref], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if proc.returncode:
        raise SystemExit(f"git archive {ref} failed")


def _workload(spec: str, default_seconds: float) -> tuple[str, float]:
    name, _, seconds = spec.partition(":")
    return name, float(seconds or default_seconds)


def _command(name: str, seed: int, seconds: float, trace: int) -> list[str]:
    cmd = ["perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", f"{seconds:g}"]
    return cmd + ["--trace", "1"] if trace else cmd


def _run(checkout: Path, args: list[str]) -> tuple[dict, dict]:
    """One benchmark run: its ``# meta`` line and its last stdout line."""
    proc = subprocess.run([sys.executable, *args], cwd=checkout, capture_output=True,
                          text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(args)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[len("# meta "):]) for line in lines
                if line.startswith("# meta "))
    return meta, json.loads(lines[-1])


def _bytecode() -> dict:
    """Whether the interpreters that ``_run`` starts write bytecode."""
    probe = "import sys; print(sys.flags.dont_write_bytecode)"
    flag = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                          text=True).stdout.strip()
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "dont_write_bytecode": bool(int(flag))}


def _filesystem(path: Path, mounts: Path = Path("/proc/mounts")) -> dict | None:
    """The entry of the mount table ``mounts`` whose mount point is the
    longest one that is ``path`` (absolute, resolved) or one of its parents."""
    if not mounts.exists():
        return None
    found, depth = None, -1
    for line in mounts.read_text(encoding="utf-8").splitlines():
        # fields: device, mount point, type, options; a space is written \040
        fields = [re.sub(r"\\([0-7]{3})", lambda m: chr(int(m[1], 8)), f)
                  for f in line.split()[:4]]
        point = Path(fields[1])
        # ">=": a later entry on the same point is mounted over the earlier one
        if path.is_relative_to(point) and len(point.parts) >= depth:
            depth = len(point.parts)
            found = dict(zip(("device", "mount_point", "type", "options"), fields))
    return found


def _order(pairs: int) -> list[str]:
    sides = []
    for i in range(1, pairs + 1):
        first, second = ("parent", "change") if i % 2 else ("change", "parent")
        sides += [f"{first}:{i}", f"{second}:{i}"]
    return sides


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _medians(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for key, entry in parent[0]["metrics"].items():
        # "runs_per_s" for one workload, "solve.runs_per_s" for all of them
        direction = next((way for name, way in better.items()
                          if key == name or key.endswith("." + name)), None)
        if direction is None:
            continue
        p = [run["metrics"][key]["value"] for run in parent]
        c = [run["metrics"][key]["value"] for run in change]
        pq, cq = _quartiles(p), _quartiles(c)
        wins = sum((b < a) if direction == "lower" else (b > a) for a, b in zip(p, c))
        out[key] = {
            "unit": entry["unit"], "better": direction,
            "parent": statistics.median(p), "change": statistics.median(c),
            "change_over_parent": statistics.median(c) / statistics.median(p),
            "parent_quartiles": pq, "change_quartiles": cq,
            "parent_iqr": pq[1] - pq[0], "change_wins_pairs": f"{wins}/{len(p)}",
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git ref of the parent")
    parser.add_argument("change", help="git ref of the change")
    parser.add_argument("--out", required=True, help="path of the BENCH_*.json to write")
    parser.add_argument("--workload", action="append", default=[], metavar="NAME[:SECONDS]",
                        help="a workload of perfbench/run.py (or all); repeatable")
    parser.add_argument("--trace", action="append", default=[], metavar="NAME[:SECONDS]",
                        help="one --trace 1 run per side of this workload; repeatable")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--note", default="", help="what the change does, for 'about'")
    parser.add_argument("--workdir", default=None,
                        help="where to put the two checkouts (created if missing)")
    args = parser.parse_args(argv)
    if not args.workload and not args.trace:
        parser.error("give at least one --workload or --trace")

    commits = {"parent": _git("rev-parse", "--short", args.parent),
               "change": _git("rev-parse", "--short", args.change)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    result = {"about": (
        f"{args.note} " if args.note else "") + (
        "End-to-end metrics of BENCHMARK.json, parent vs change, written by "
        "scripts/bench_ab.py. Each entry of runs is the last stdout line of one run, "
        "verbatim; meta is the '# meta' line of the section's first run. Runs alternated "
        "parent and change in run_order, each side from its own clean export of its "
        "commit on the same machine, one run at a time. In median, change_wins_pairs "
        "counts the pairs (same index) in which the change's run is better; "
        "parent_quartiles and change_quartiles are the inclusive quartiles of each "
        "side's runs. Workloads not in BENCHMARK.json are reported by name, not claimed."),
        "bytecode": _bytecode()}
    if args.workdir is not None:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        result["filesystem"] = _filesystem(Path(tmp).resolve())
        checkouts = {side: Path(tmp) / side for side in commits}
        for side, path in checkouts.items():
            _export(commits[side], path)
        for spec_ in args.workload:
            name, seconds = _workload(spec_, spec["run_seconds"])
            cmd = _command(name, args.seed, seconds, trace=0)
            runs, metas = {"parent": [], "change": []}, []
            order = _order(args.pairs)
            for slot in order:
                side = slot.split(":")[0]
                meta, run = _run(checkouts[side], cmd)
                metas.append(meta)
                runs[side].append(run)
                print(f"{name} {slot}: correct={run['correct']} failed={run['failed']}",
                      file=sys.stderr, flush=True)
            result[name] = {
                "command": " ".join(["python3", *cmd]), "run_order": order, "meta": metas[0],
                "median": _medians(runs["parent"], runs["change"], better),
                **{side: {"commit": commits[side], "runs": runs[side]} for side in commits},
            }
        for spec_ in args.trace:
            name, seconds = _workload(spec_, spec["run_seconds"])
            cmd = _command(name, args.seed, seconds, trace=1)
            traced = {side: _run(checkouts[side], cmd) for side in ("parent", "change")}
            result[f"trace:{name}"] = {
                "command": " ".join(["python3", *cmd]), "run_order": ["parent:1", "change:1"],
                "meta": traced["parent"][0],
                **{side: {"commit": commits[side], "run": traced[side][1]} for side in commits},
            }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
