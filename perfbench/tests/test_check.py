import copy
import json
from pathlib import Path

import pytest
from ncpde import cli

from check import OutputCheck, compare, quantities
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
REFS = json.loads((ROOT / "perfbench" / "reference.json").read_text())


def _run(workload: str, case: str, tmp_path: Path):
    run = next(r for r in WORKLOADS[workload].variant(0) if r.case == case)
    out = tmp_path / run.key
    code = cli.run(run.config, out_dir=str(out), quiet=True)
    return run, code, out


CASES = [("evolve-fixed", "heat-matrix4-0", "state"),
         ("solve", "poisson-matrix6", "state"),
         ("verify", "gap-torus8", "gap"),
         ("verify", "be-rational5-0", "largest_passing_K")]


@pytest.mark.parametrize("workload,case,field", CASES)
def test_run_matches_reference_and_perturbation_is_flagged(workload, case, field, tmp_path):
    run, code, out = _run(workload, case, tmp_path)
    ref = REFS[workload][run.key]
    assert code == 0
    assert compare(quantities(run.config["command"], out), ref) == []
    bad = copy.deepcopy(ref)
    if field == "state":
        norm = sum(re * re + im * im for re, im in bad["state"]) ** 0.5
        bad["state"][-1][1] += 1e-6 * norm
    else:
        bad[field] += 1e-3 * max(1.0, abs(bad[field]))
    assert compare(quantities(run.config["command"], out), bad)
    outcome = OutputCheck({run.key: bad})(run.key, run.config["command"], code, out)
    assert not outcome.passed and outcome.wrong


def test_check_that_passed_in_the_reference_must_still_pass(tmp_path):
    run, code, out = _run("verify", "calculus-torus4", tmp_path)
    ref = REFS["verify"][run.key]
    got = quantities("calculus-check", out)
    assert code == 0 and all(ok for _, ok in got["checks"])
    got["checks"][0][1] = False
    assert compare(got, ref)
    was_failing = copy.deepcopy(ref)
    was_failing["checks"][0][1] = False
    assert compare(got, was_failing) == []


def test_project_kernel_run_that_is_fixed_stays_correct(tmp_path):
    # its residual checks fail in the reference; passing them is not wrong
    run, code, out = _run("solve", "quasilinear-torus2-projected", tmp_path)
    ref = REFS["solve"][run.key]
    got = quantities("solve-quasilinear", out)
    assert not all(ok for _, ok in ref["checks"])
    assert compare(got, ref) == []
    got["checks"] = [[name, True] for name, _ in got["checks"]]
    assert compare(got, ref) == []


def test_rerun_must_be_byte_identical(tmp_path):
    run, code, out = _run("verify", "gap-torus8", tmp_path)
    check = OutputCheck(REFS["verify"])
    assert check(run.key, "gap", code, out).passed
    code = cli.run(run.config, out_dir=str(out), quiet=True)
    assert check(run.key, "gap", code, out).passed
    report = out / "report.json"
    report.write_text(report.read_text() + " ")
    outcome = check(run.key, "gap", code, out)
    assert not outcome.passed and outcome.wrong


def test_project_kernel_run_fails_without_being_wrong(tmp_path):
    # the residual checks of a project_kernel solve compare against the
    # unprojected f, so the run exits 2 although its solution is right
    run, code, out = _run("solve", "poisson-torus8-projected", tmp_path)
    outcome = OutputCheck(REFS["solve"])(run.key, "solve-poisson", code, out)
    assert code == 2
    assert not outcome.passed and not outcome.wrong


def test_raising_run_is_wrong(tmp_path):
    outcome = OutputCheck({})("k#0", "gap", None, tmp_path)
    assert not outcome.passed and outcome.wrong
