"""Output check: each run's quantities of interest against stored references.

A run *passes* when ``cli.run`` returns exit code 0, its quantities of
interest match ``reference.json`` and its artifacts are byte-identical to
those of every earlier run of the same config in this process.  The
quantities are the ones a user reads off a run: solutions, terminal states,
the spectral gap, the largest passing curvature bound, and the verdict of
every check the command performed.  Rounding-level residuals are not
compared.

A run that exits non-zero but whose quantities still match the reference
has *failed* without being *wrong*; ``wrong`` marks runs whose answer is
missing, different or not reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Solutions and terminal states, relative to their norm.  Refactors that
# reorder floating-point sums stay many orders of magnitude inside this.
RTOL_STATE = 1e-8
RTOL_GAP = 1e-9
# largest_passing_K is found by bisection against a -1e-9 margin slack; an
# exact generalised-eigenvalue bound differs from it by about that slack.
ATOL_K = 1e-6


def _terminal_state(path: Path) -> list[list[float]]:
    last = path.read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)[-1]
    vals = [float(x) for x in last.split(",")[1:]]
    return [list(p) for p in zip(vals[0::2], vals[1::2])]


def _solution(path: Path) -> list[list[float]]:
    return json.loads(path.read_text(encoding="utf-8"))["data"]


def quantities(command: str, out_dir: Path) -> dict:
    """Quantities of interest of one run, read from its artifacts.  States
    are coordinate vectors as ``[re, im]`` pairs; checks are ``[name,
    passed]`` pairs in report order."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    q: dict = {"checks": [[c["name"], bool(c["passed"])] for c in report["checks"]]}
    if command == "evolve":
        q["state"] = _terminal_state(out_dir / "trajectory.csv")
    elif command in ("solve-poisson", "solve-quasilinear"):
        q["state"] = _solution(out_dir / "solution.json")
    elif command == "gap":
        q["gap"] = report["gap"]
    elif command == "be-check":
        q["largest_passing_K"] = report["largest_passing_K"]
    return q


def compare(q: dict, ref: dict) -> list[str]:
    """Descriptions of every mismatch between ``q`` and its reference.

    A check that passed in the reference must still pass.  One that failed
    there may now pass: the reference records the program as it was, and a
    fixed bug is not a wrong answer."""
    bad = []
    if set(q) != set(ref):
        return [f"quantities {sorted(q)} != reference {sorted(ref)}"]
    names = [name for name, _ in q["checks"]]
    if names != [name for name, _ in ref["checks"]]:
        bad.append(f"checks {names} != {[name for name, _ in ref['checks']]}")
    else:
        broken = [name for (name, ok), (_, was) in zip(q["checks"], ref["checks"])
                  if was and not ok]
        if broken:
            bad.append(f"checks that passed in the reference now fail: {broken}")
    if "state" in q:
        got, want = np.asarray(q["state"], dtype=float), np.asarray(ref["state"], dtype=float)
        err = float(np.linalg.norm(got - want)) if got.shape == want.shape else np.inf
        norm = float(np.linalg.norm(want))
        if not err <= RTOL_STATE * norm:
            bad.append(f"state differs by {err:.3e} (norm {norm:.3e})")
    if "gap" in q and not abs(q["gap"] - ref["gap"]) <= RTOL_GAP * abs(ref["gap"]):
        bad.append(f"gap {q['gap']!r} != {ref['gap']!r}")
    if "largest_passing_K" in q:
        got, want = q["largest_passing_K"], ref["largest_passing_K"]
        if (got is None) != (want is None) or (
                got is not None and not abs(got - want) <= ATOL_K * max(1.0, abs(want))):
            bad.append(f"largest_passing_K {got!r} != {want!r}")
    return bad


def artifact_hash(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Outcome:
    passed: bool
    wrong: bool
    reason: str = ""


class OutputCheck:
    """Checks runs against ``references`` ({run key: quantities}) and
    remembers each key's artifact bytes to demand identical reruns."""

    def __init__(self, references: dict):
        self.references = references
        self._hashes: dict[str, str] = {}

    def __call__(self, key: str, command: str, exit_code: int | None,
                 out_dir: Path) -> Outcome:
        if exit_code is None:
            return Outcome(False, True, "raised")
        try:
            hashed = artifact_hash(out_dir)
            known = self._hashes.get(key)
            if known is None:        # first run of this key: compare its quantities
                if key not in self.references:
                    return Outcome(False, True, "no reference stored")
                bad = compare(quantities(command, out_dir), self.references[key])
                if bad:
                    return Outcome(False, True, "; ".join(bad))
                self._hashes[key] = hashed
            elif known != hashed:
                return Outcome(False, True, "artifacts differ from an earlier identical run")
        except (OSError, KeyError, ValueError) as exc:
            return Outcome(False, True, f"artifacts unreadable: {exc!r}")
        if exit_code != 0:
            return Outcome(False, False, f"exit code {exit_code}")
        return Outcome(True, False)
