import csv
import io
import json
import math
import os
import reprlib
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from ncpde import backends as bk
from ncpde import cli
from ncpde import elliptic as el
from ncpde import serialize as sz
from ncpde.calculus import tangent_components
from ncpde.dirichlet import build_space
from conftest import THETA_IRR, backend_from_spec, dense_form, loop_random_data

CORPUS = sorted(Path(__file__).resolve().parent.parent.glob("corpus/*.json"))
# artifacts of every corpus config, committed: a fresh run must match them
# with check names, verdicts, flags and every other string, bool and integer
# equal, and floats within GOLDEN_RTOL relative, or GOLDEN_ATOL absolute for
# rounding-level numbers such as solve residuals and conservation defects
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_RTOL, GOLDEN_ATOL = 1e-9, 1e-12

TORUS_BACKEND = {"kind": "nc_torus", "level": 3, "theta": THETA_IRR, "rational": None}
QUBIT_BACKEND = {
    "kind": "matrix", "dim": 2,
    "generators": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]],
}


def run_main(tmp_path, config, *extra):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    return cli.main(["--config", str(cfg), *extra])


def test_gap_output_shape(tmp_path, capsys):
    code = run_main(tmp_path, {"command": "gap", "backend": TORUS_BACKEND, "seed": 7})
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out == {"C_P": 1.0, "gap": 1.0, "kernel_dim": 1}


def test_describe_qubit(tmp_path, capsys):
    code = run_main(tmp_path, {"command": "describe", "backend": QUBIT_BACKEND})
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["spectrum"] == [0.0, 0.0, 4.0, 4.0]
    assert out["kernel_dim"] == 2
    assert out["l2_dim"] == 4


def test_malformed_config_exits_1_without_output(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = run_main(
        tmp_path,
        {"command": "gap", "backend": TORUS_BACKEND, "unexpected": 1},
        "--out", str(out_dir),
    )
    assert code == 1
    assert not out_dir.exists()
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("tolerances", {"check": 1e-6, "gap": 1e-8}), ("out", "artifacts")])
def test_config_tolerances_and_out_fields_exit_1_naming_the_field(tmp_path, capsys, field, value):
    # --tol and --out set the check tolerance and the artifact directory
    config = {"command": "gap", "backend": TORUS_BACKEND, field: value}
    assert run_main(tmp_path, config) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: invalid config: config: Additional properties are not allowed "
        f"('{field}' was unexpected)\n")


def test_unreadable_config_exits_1(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "missing.json")]) == 1


def test_failing_check_exits_2(tmp_path, capsys):
    # an unattainable curvature bound makes be-check fail but still report
    config = {
        "command": "be-check",
        "backend": {"kind": "nc_torus", "level": 1, "theta": 1 / 3, "rational": [1, 3]},
        "problem": {"K": 1e6, "t_samples": [1.0], "battery": 2, "radius": 1},
        "seed": 1,
    }
    out_dir = tmp_path / "out"
    code = run_main(tmp_path, config, "--out", str(out_dir))
    assert code == 2
    report = json.loads((out_dir / "report.json").read_text())
    assert report["passed"] is False


def test_seed_and_quiet_flags(tmp_path, capsys):
    config = {
        "command": "markov-check",
        "backend": {"kind": "cyclic", "order": 4, "lengths": [0, 1, 2, 1]},
        "problem": {"t_samples": [0.5]},
        "seed": 1,
    }
    code = run_main(tmp_path, config, "--quiet", "--seed", "99")
    assert code == 0
    assert capsys.readouterr().out == ""


def test_output_is_deterministic(tmp_path, capsys):
    config = {
        "command": "markov-check",
        "backend": QUBIT_BACKEND,
        "problem": {"t_samples": [0.1, 1.0], "battery": 8},
        "seed": 21,
    }
    run_main(tmp_path, config)
    first = capsys.readouterr().out
    run_main(tmp_path, config)
    second = capsys.readouterr().out
    assert first == second and first


def test_solution_json_round_trips_with_same_residuals(tmp_path, capsys):
    t = bk.NCTorus(2, THETA_IRR)
    f = bk.monomial(t, 1, 0) + bk.scale(0.5j, bk.monomial(t, 1, 1))
    config = {
        "command": "solve-poisson",
        "backend": t.to_json(),
        "problem": {"f": sz.element_to_json(f)["data"], "method": "spectral"},
        "seed": 2,
    }
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir), "--quiet") == 0
    blob = json.loads((out_dir / "solution.json").read_text())
    u = sz.element_from_json(blob)
    space = build_space(t)
    rep = el.solve_poisson(space, f)
    assert np.array_equal(u.data, rep.solution.data)
    strong = bk.norm_l2(
        bk.from_l2(t, dense_form(space)[0] @ bk.to_l2(u)) - f) / bk.norm_l2(f)
    assert strong == pytest.approx(rep.residual_strong, abs=1e-15)


def test_tol_override_can_fail_a_check(tmp_path, capsys):
    # an absurdly tight tolerance flips benign fp noise (Choi eigenvalues
    # around -1e-16) into a failure
    config = {
        "command": "markov-check",
        "backend": {"kind": "cyclic", "order": 4, "lengths": [0, 1, 2, 1]},
        "problem": {"t_samples": [1.0], "battery": 8},
        "seed": 4,
    }
    assert run_main(tmp_path, config, "--quiet") == 0
    code = run_main(tmp_path, config, "--quiet", "--tol", "1e-30")
    assert code == 2


def test_heat_coercivity_margins_are_positive_at_a_tight_tol(tmp_path):
    # the heat certificates (1/2, 1/2) leave the margin E(v) / 2 > 0, not a
    # rounding-level zero that a tight tolerance would fail
    config = json.loads((CORPUS[0].parent / "qubit_heat.json").read_text())
    assert cli.run(config, out_dir=str(tmp_path), quiet=True, tol_override=1e-16) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert min(report["coercivity_margins"]) > 0


def test_evolve_writes_trajectory(tmp_path, capsys):
    config = {
        "command": "evolve",
        "backend": QUBIT_BACKEND,
        "problem": {
            "form": "heat",
            "u0": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
            "horizon": 0.5,
            "dt": 0.1,
        },
        "seed": 6,
    }
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir), "--quiet") == 0
    lines = (out_dir / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0].startswith("t,re_000,im_000")
    assert len(lines) == 1 + 6   # header + n_steps + 1 states
    report = json.loads((out_dir / "report.json").read_text())
    assert report["passed"] is True
    assert "terminal_error_vs_oracle" in report


def test_trajectory_csv_and_pairs_bytes():
    # floats are written by repr: -0.0, subnormals and exact large integers
    # keep their form, and the pairs of a transposed array are row-major
    times = np.array([0.0, 0.1, 0.30000000000000004])
    parts = np.array([[1.0, -0.0, 1e-300, 123456789.0],          # (re_0, re_1, im_0, im_1)
                      [0.1 + 0.2, 5e-324, -1.5, 2.0 ** 60],
                      [1.0000000000000002, -1e300, -0.0, 1 / 3]])
    # assigned part by part, so that -0.0 survives
    z = np.empty((3, 2), dtype=np.complex128)
    z.real, z.imag = parts[:, :2], parts[:, 2:]
    assert cli._trajectory_csv(times, z).encode("utf-8") == (
        b"t,re_000,im_000,re_001,im_001\r\n"
        b"0.0,1.0,1e-300,-0.0,123456789.0\r\n"
        b"0.1,0.30000000000000004,-1.5,5e-324,1.152921504606847e+18\r\n"
        b"0.30000000000000004,1.0000000000000002,-0.0,-1e+300,0.3333333333333333\r\n")
    assert json.dumps(bk.to_pairs(z)) == (
        "[[1.0, 1e-300], [-0.0, 123456789.0], [0.30000000000000004, -1.5], "
        "[5e-324, 1.152921504606847e+18], [1.0000000000000002, -0.0], "
        "[-1e+300, 0.3333333333333333]]")
    assert json.dumps(bk.to_pairs(z.T)) == (
        "[[1.0, 1e-300], [0.30000000000000004, -1.5], [1.0000000000000002, -0.0], "
        "[-0.0, 123456789.0], [5e-324, 1.152921504606847e+18], "
        "[-1e+300, 0.3333333333333333]]")
    assert bk.from_pairs(bk.to_pairs(z), z.shape).tobytes() == z.tobytes()


def test_trajectory_csv_matches_csv_writer():
    # a (51, 65) table: random signs and mantissas with exponents from 1e-300
    # to 1e300, plus -0.0, the smallest subnormal and an exact large integer
    rng = np.random.default_rng(15)
    D = 32
    table = (rng.choice([-1.0, 1.0], (51, 2 * D + 1)) * rng.uniform(1.0, 10.0, (51, 2 * D + 1))
             * 10.0 ** rng.integers(-300, 300, (51, 2 * D + 1)))
    table[0, :3] = [-0.0, 5e-324, 2.0 ** 60]
    table[7, -3:] = [2.0 ** 60, -0.0, 5e-324]
    times, parts = table[:, 0], table[:, 1:]
    states = np.empty((51, D), dtype=np.complex128)
    states.real, states.imag = parts[:, :D], parts[:, D:]

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["t"] + [f"{p}_{i:03d}" for i in range(D) for p in ("re", "im")])
    for t, x in zip(times, parts):
        writer.writerow([float(t)] + [float(v) for i in range(D) for v in (x[i], x[D + i])])
    assert cli._trajectory_csv(times, states).encode("utf-8") == buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("command, extra", [
    ("solve-poisson", {"method": "both"}),
    ("solve-quasilinear", {"map": {"name": "identity"}}),
])
def test_project_kernel_solve_passes_its_checks(tmp_path, capsys, command, extra):
    # f = U + 0.3 * 1 has kernel mass 0.3; residuals are measured against
    # the projected right-hand side
    t = bk.NCTorus(1, THETA_IRR)
    f = bk.monomial(t, 1, 0) + bk.scale(0.3, bk.unit(t))
    config = {
        "command": command,
        "backend": t.to_json(),
        "problem": {"f": sz.element_to_json(f)["data"], "project_kernel": True, **extra},
        "seed": 3,
    }
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir), "--quiet") == 0
    report = json.loads((out_dir / "report.json").read_text())
    flags = [flag for key, value in report.items() if key.startswith("flags") for flag in value]
    assert "projected_kernel_mass=3.000000e-01" in flags


@pytest.mark.parametrize("command, extra", [
    ("solve-poisson", {"method": "both"}),
    ("solve-quasilinear", {"map": {"name": "identity"}}),
])
def test_kernel_mass_without_projection_exits_1(tmp_path, capsys, command, extra):
    # el.NoSolution is an AlgebraError, so main catches it without listing it
    t = bk.NCTorus(1, THETA_IRR)
    f = bk.monomial(t, 1, 0) + bk.scale(0.3, bk.unit(t))
    config = {"command": command, "backend": t.to_json(),
              "problem": {"f": sz.element_to_json(f)["data"], **extra}}
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    assert capsys.readouterr().err.startswith("error: kernel component 3.000e-01 exceeds tolerance")
    assert not out_dir.exists()


def test_empty_frame_calculus_check_passes_with_every_identity_zero(tmp_path):
    # all lengths 0: a zero generator and no tangent components (k = 0)
    config = {"command": "calculus-check", "seed": 1,
              "backend": {"kind": "cyclic", "order": 4, "lengths": [0, 0, 0, 0]}}
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir), "--quiet") == 0
    checks = json.loads((out_dir / "report.json").read_text())["checks"]
    assert len(checks) == 8 and all(c["passed"] and c["value"] == 0.0 for c in checks)


def test_project_kernel_quasilinear_with_empty_galerkin_basis(tmp_path):
    # [1, .] = 0: the generator vanishes, so the whole of f is kernel mass
    # and the Galerkin basis is empty (M = 0)
    config = {
        "command": "solve-quasilinear", "seed": 1,
        "backend": {"kind": "matrix", "dim": 2,
                    "generators": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]},
        "problem": {"f": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0]],
                    "map": {"name": "identity"}, "project_kernel": True},
    }
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir), "--quiet") == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["galerkin_dim"] == 0 and report["passed"]


def test_empty_frame_quasilinear_passes_the_structure_probes(tmp_path):
    # all lengths 0: every tangent vector is empty (k = 0), so no probe
    # sample bounds the monotonicity margin, and the Galerkin basis is empty
    config = {"command": "solve-quasilinear", "seed": 1,
              "backend": {"kind": "cyclic", "order": 4, "lengths": [0, 0, 0, 0]},
              "problem": {"f": [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, -1.0]],
                          "map": {"name": "identity"}, "project_kernel": True}}
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir), "--quiet") == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["galerkin_dim"] == 0
    assert {c["name"]: c["passed"] for c in report["checks"]} == {
        "strong_residual": True, "weak_residual": True}


def test_radius_zero_torus_calculus_check_flags_a_degenerate_battery(tmp_path):
    config = {"command": "calculus-check", "backend": TORUS_BACKEND, "seed": 1,
              "problem": {"battery": 4, "radius": 0}}
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir), "--quiet") == 0
    flags = json.loads((out_dir / "report.json").read_text())["flags"]
    assert "degenerate battery: triple products need level >= 3 for nonconstant supports" in flags


_TRIDIAGONAL_1E6 = [[0.0, 0.0], [1e6, 0.0], [0.0, 0.0], [1e6, 0.0], [0.0, 0.0], [1e6, 0.0],
                    [0.0, 0.0], [1e6, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("dim, generator", [
    (2, [[1e6, 0.0], [0.0, 0.0], [0.0, 0.0], [-1e6, 0.0]]),
    (2, [[1e8, 0.0], [0.0, 0.0], [0.0, 0.0], [-1e8, 0.0]]),
    (3, _TRIDIAGONAL_1E6),
], ids=["qubit-1e6", "qubit-1e8", "tridiagonal3-1e6"])
def test_large_generator_calculus_check_passes_leibniz(tmp_path, dim, generator):
    # the Leibniz defect is rounding of the terms d(a) b and a d(b), which
    # grow with the generator: scaled by their size it stays at machine
    # precision (scaled by ||a|| ||b|| it read 2.6e-10, 2.9e-8 and 2.8e-10)
    config = {"command": "calculus-check", "seed": 1,
              "backend": {"kind": "matrix", "dim": dim, "generators": [generator]}}
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir), "--quiet") == 0
    checks = json.loads((out_dir / "report.json").read_text())["checks"]
    assert next(c for c in checks if c["name"] == "leibniz")["value"] <= 1e-14


def test_negated_map_quasilinear_exits_1_naming_the_failed_probes(tmp_path, capsys):
    config = {"command": "solve-quasilinear", "backend": QUBIT_BACKEND, "seed": 1,
              "problem": {"f": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                          "map": {"name": "negated"}}}
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    assert "error: map negated failed structure probes: [" in capsys.readouterr().err
    assert not out_dir.exists()


def _qubit_config_with_entries(m):
    return {"command": "gap", "seed": 1,
            "backend": {**QUBIT_BACKEND,
                        "generators": [[[m, 0.0], [0.0, 0.0], [0.0, 0.0], [-m, 0.0]]]}}


def test_overflowing_matrix_generator_exits_1_naming_the_generator(tmp_path, capsys):
    # entries of 1e200 are finite, but the double commutators would overflow:
    # the descriptor rejects them before any arithmetic, so numpy warns of nothing
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_main(tmp_path, _qubit_config_with_entries(1e200), "--out", str(out_dir)) == 1
        assert capsys.readouterr().err == (
            "error: matrix generators must be finite, with entries' real and imaginary parts "
            "at most 1e+50 in magnitude\n")
        assert not out_dir.exists()
        # just inside the bound the space is built and its numbers are finite
        assert run_main(tmp_path, _qubit_config_with_entries(1e50)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kernel_dim"] == 2 and 0.0 < out["gap"] < math.inf


@pytest.mark.parametrize("config, field", [
    ({"command": "solve-poisson", "backend": TORUS_BACKEND,
      "problem": {"f": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 48}},
     "config.problem.f[0][0]"),
    ({"command": "gap", "backend": {"kind": "cyclic", "order": 4,
                                    "lengths": [0.0, float("nan"), 2.0, float("nan")]}},
     "config.backend.lengths[1]"),
    ({"command": "evolve", "backend": QUBIT_BACKEND,
      "problem": {"form": "heat", "u0": [[1.0, 0.0]] * 4, "horizon": 1.0,
                  "dt": float("nan")}},
     "config.problem.dt"),
    # an integer no float can hold is as unusable as NaN
    ({"command": "solve-poisson", "backend": {"kind": "cyclic", "order": 4,
                                              "lengths": [0.0, 1.0, 2.0, 1.0]},
      "problem": {"f": [[10**400, 0.0]] + [[0.0, 0.0]] * 3}},
     "config.problem.f[0][0]"),
    ({"command": "gap", "backend": {"kind": "cyclic", "order": 4,
                                    "lengths": [0.0, -10**400, 2.0, 1.0]}},
     "config.backend.lengths[1]"),
    # under a oneOf branch: the number fails its type, so no branch matches
    ({"command": "gap", "backend": {**TORUS_BACKEND, "theta": float("nan")}},
     "config.backend.theta"),
    ({"command": "gap", "backend": {**TORUS_BACKEND, "theta": 0.5, "rational": [1, 10**400]}},
     "config.backend.rational[1]"),
    ({"command": "evolve", "backend": QUBIT_BACKEND,
      "problem": {"form": "continuity", "u0": [[1.0, 0.0]] * 4, "horizon": 0.2, "dt": 0.1,
                  "epsilon": 0.1, "flow": {"constant_gradient_of": [[0.0, 0.0]] * 4,
                                           "scale": float("inf")}}},
     "config.problem.flow.scale"),
])
def test_non_finite_config_exits_1_naming_the_field(tmp_path, capsys, config, field):
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    assert capsys.readouterr().err == f"error: invalid config: {field} is not a finite number\n"
    assert not out_dir.exists()


_GOOD_QUBIT = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def _with_pair(value):
    return [_GOOD_QUBIT[0], value, *_GOOD_QUBIT[2:]]


_BAD_PAIRS = {
    "ragged": [[1.0, 0.0], [0.0], [0.0, 0.0, 0.0], [1.0, 0.0]],
    "short": _with_pair([1.0]),
    "long": _with_pair([0.0, 0.0, 0.0]),
    "string": _with_pair(["1.0", 0.0]),
    "bool": _with_pair([True, 0.0]),
    "null": _with_pair([None, 0.0]),
    "nan": _with_pair([float("nan"), 0.0]),
    "inf": _with_pair([0.0, float("inf")]),
    "pair-not-list": _with_pair(1.0),
    "not-list": {"re": 1.0},
}


def _pair_field_config(field, pairs):
    """A qubit config whose only fault is ``pairs`` at ``field``."""
    if field == "f":
        return {"command": "solve-poisson", "backend": QUBIT_BACKEND, "problem": {"f": pairs}}
    heat = {"form": "heat", "u0": _GOOD_QUBIT, "horizon": 0.2, "dt": 0.1}
    continuity = {**heat, "form": "continuity", "epsilon": 0.1}
    problem = {
        "u0": {**heat, "u0": pairs},
        "flow.constant_gradient_of": {**continuity, "flow": {"constant_gradient_of": pairs}},
        "flow.vectors": {**continuity, "flow": {"times": [0.0, 0.2],
                                                "vectors": [[_ZERO_QUBIT], [pairs]]}},
        "source.elements": {**heat, "source": {"times": [0.0, 0.2],
                                               "elements": [_ZERO_QUBIT, pairs]}},
    }[field]
    return {"command": "evolve", "backend": QUBIT_BACKEND, "problem": problem}


# each malformed pair list's stderr line: its first fault in document order,
# worded as stock jsonschema words that keyword
_MALFORMED_PAIR_MESSAGES = [
    ("f", "ragged", "config.problem.f[1]: [0.0] is too short"),
    ("f", "short", "config.problem.f[1]: [1.0] is too short"),
    ("f", "long", "config.problem.f[1]: [0.0, 0.0, 0.0] is too long"),
    ("f", "string", "config.problem.f[1][0]: '1.0' is not of type 'number'"),
    ("f", "bool", "config.problem.f[1][0]: True is not of type 'number'"),
    ("f", "null", "config.problem.f[1][0]: None is not of type 'number'"),
    ("f", "nan", "config.problem.f[1][0] is not a finite number"),
    ("f", "inf", "config.problem.f[1][1] is not a finite number"),
    ("f", "pair-not-list", "config.problem.f[1]: 1.0 is not of type 'array'"),
    ("f", "not-list", "config.problem.f: {'re': 1.0} is not of type 'array'"),
    ("u0", "ragged", "config.problem.u0[1]: [0.0] is too short"),
    ("u0", "short", "config.problem.u0[1]: [1.0] is too short"),
    ("u0", "long", "config.problem.u0[1]: [0.0, 0.0, 0.0] is too long"),
    ("u0", "string", "config.problem.u0[1][0]: '1.0' is not of type 'number'"),
    ("u0", "bool", "config.problem.u0[1][0]: True is not of type 'number'"),
    ("u0", "null", "config.problem.u0[1][0]: None is not of type 'number'"),
    ("u0", "nan", "config.problem.u0[1][0] is not a finite number"),
    ("u0", "inf", "config.problem.u0[1][1] is not a finite number"),
    ("u0", "pair-not-list", "config.problem.u0[1]: 1.0 is not of type 'array'"),
    ("u0", "not-list", "config.problem.u0: {'re': 1.0} is not of type 'array'"),
    ("flow.constant_gradient_of", "ragged",
     "config.problem.flow.constant_gradient_of[1]: [0.0] is too short"),
    ("flow.constant_gradient_of", "short",
     "config.problem.flow.constant_gradient_of[1]: [1.0] is too short"),
    ("flow.constant_gradient_of", "long",
     "config.problem.flow.constant_gradient_of[1]: [0.0, 0.0, 0.0] is too long"),
    ("flow.constant_gradient_of", "string",
     "config.problem.flow.constant_gradient_of[1][0]: '1.0' is not of type 'number'"),
    ("flow.constant_gradient_of", "bool",
     "config.problem.flow.constant_gradient_of[1][0]: True is not of type 'number'"),
    ("flow.constant_gradient_of", "null",
     "config.problem.flow.constant_gradient_of[1][0]: None is not of type 'number'"),
    ("flow.constant_gradient_of", "nan",
     "config.problem.flow.constant_gradient_of[1][0] is not a finite number"),
    ("flow.constant_gradient_of", "inf",
     "config.problem.flow.constant_gradient_of[1][1] is not a finite number"),
    ("flow.constant_gradient_of", "pair-not-list",
     "config.problem.flow.constant_gradient_of[1]: 1.0 is not of type 'array'"),
    ("flow.constant_gradient_of", "not-list",
     "config.problem.flow.constant_gradient_of: {'re': 1.0} is not of type 'array'"),
    ("flow.vectors", "ragged", "config.problem.flow.vectors[1][0][1]: [0.0] is too short"),
    ("flow.vectors", "short", "config.problem.flow.vectors[1][0][1]: [1.0] is too short"),
    ("flow.vectors", "long",
     "config.problem.flow.vectors[1][0][1]: [0.0, 0.0, 0.0] is too long"),
    ("flow.vectors", "string",
     "config.problem.flow.vectors[1][0][1][0]: '1.0' is not of type 'number'"),
    ("flow.vectors", "bool",
     "config.problem.flow.vectors[1][0][1][0]: True is not of type 'number'"),
    ("flow.vectors", "null",
     "config.problem.flow.vectors[1][0][1][0]: None is not of type 'number'"),
    ("flow.vectors", "nan", "config.problem.flow.vectors[1][0][1][0] is not a finite number"),
    ("flow.vectors", "inf", "config.problem.flow.vectors[1][0][1][1] is not a finite number"),
    ("flow.vectors", "pair-not-list",
     "config.problem.flow.vectors[1][0][1]: 1.0 is not of type 'array'"),
    ("flow.vectors", "not-list",
     "config.problem.flow.vectors[1][0]: {'re': 1.0} is not of type 'array'"),
    ("source.elements", "ragged", "config.problem.source.elements[1][1]: [0.0] is too short"),
    ("source.elements", "short", "config.problem.source.elements[1][1]: [1.0] is too short"),
    ("source.elements", "long",
     "config.problem.source.elements[1][1]: [0.0, 0.0, 0.0] is too long"),
    ("source.elements", "string",
     "config.problem.source.elements[1][1][0]: '1.0' is not of type 'number'"),
    ("source.elements", "bool",
     "config.problem.source.elements[1][1][0]: True is not of type 'number'"),
    ("source.elements", "null",
     "config.problem.source.elements[1][1][0]: None is not of type 'number'"),
    ("source.elements", "nan", "config.problem.source.elements[1][1][0] is not a finite number"),
    ("source.elements", "inf", "config.problem.source.elements[1][1][1] is not a finite number"),
    ("source.elements", "pair-not-list",
     "config.problem.source.elements[1][1]: 1.0 is not of type 'array'"),
    ("source.elements", "not-list",
     "config.problem.source.elements[1]: {'re': 1.0} is not of type 'array'"),
]


@pytest.mark.parametrize("field, case, message", _MALFORMED_PAIR_MESSAGES,
                         ids=[f"{field}-{case}" for field, case, _ in _MALFORMED_PAIR_MESSAGES])
def test_malformed_pair_list_exits_1_with_its_message(tmp_path, capsys, field, case, message):
    out_dir = tmp_path / "out"
    config = _pair_field_config(field, _BAD_PAIRS[case])
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    assert capsys.readouterr().err == f"error: invalid config: {message}\n"
    assert not out_dir.exists()


def _slow_non_finite_paths(obj, path="config"):
    """Reference walk: the path of every NaN, infinite or beyond-float-range
    number, in document order, one number at a time."""
    if isinstance(obj, (float, int)):
        try:
            finite = math.isfinite(float(obj))
        except OverflowError:
            finite = False
        if not finite:
            yield path
        return
    children = (obj.items() if isinstance(obj, dict)
                else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in children:
        yield from _slow_non_finite_paths(
            value, f"{path}.{key}" if isinstance(obj, dict) else f"{path}[{key}]")


def _stock_errors(config):
    """Stock jsonschema's errors of ``config`` against the config schema or,
    with none there, against its command's problem schema, each error paired
    with the path it names; the errors of a oneOf's branches (its context)
    follow it."""
    errors = list(Draft202012Validator(cli.CONFIG_SCHEMA).iter_errors(config))
    where = "config"
    if not errors:
        schema = cli.COMMANDS[config["command"]][0]
        errors = list(Draft202012Validator(schema).iter_errors(config.get("problem", {})))
        where = "config.problem"

    def named(errors):
        for error in errors:
            keys = error.absolute_path
            yield where + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys), error
            yield from named(error.context)

    return list(named(errors)), best_match(errors)


def _assert_verdict_matches_stock(config):
    # the walk accepts exactly what stock jsonschema plus the finiteness
    # check accept; its first fault is at a path stock jsonschema names, or a
    # number no float64 holds, and where stock's best match names the same
    # path and keyword the message is stock's word for word
    errors, best = _stock_errors(config)
    non_finite = list(_slow_non_finite_paths(config))
    where, fault = "config", cli._valid(config, cli.CONFIG_SCHEMA)
    if fault is None:
        schema = cli.COMMANDS[config["command"]][0]
        where, fault = "config.problem", cli._valid(config.get("problem", {}), schema)
    assert (fault is None) is (not errors and not non_finite)
    if fault is None:
        cli.validate_config(config)
        return
    path, keyword, message = where + fault[0], fault[1], fault[2]()
    with pytest.raises(cli.ConfigError) as info:
        cli.validate_config(config)
    if message is None:
        assert path in non_finite
        assert str(info.value) == f"invalid config: {path} is not a finite number"
        return
    assert str(info.value) == f"invalid config: {path}: {message}"
    assert path in {named for named, _ in errors}
    best_path = next(named for named, error in errors if error is best)
    if (best_path, best.validator) == (path, keyword):
        # an unmatched oneOf words its value by reprlib.repr, which cuts a long
        # one short where stock repeats it whole
        stock = best.message
        if stock.endswith(" is not valid under any of the given schemas"):
            stock = stock.replace(repr(best.instance), reprlib.repr(best.instance), 1)
        assert message == stock


_json_numbers = st.one_of(st.floats(), st.integers(min_value=-10**400, max_value=10**400))
_json_scalars = st.one_of(_json_numbers, st.booleans(), st.none(), st.text(max_size=2))
_pair_payloads = st.one_of(
    st.lists(st.lists(_json_numbers, min_size=2, max_size=2), max_size=6),   # mostly valid
    st.lists(st.one_of(st.lists(_json_scalars, max_size=3), _json_scalars), max_size=6),
    _json_scalars,
)


@settings(max_examples=300, deadline=None)
@given(payload=_pair_payloads)
def test_pair_list_validation_matches_stock_jsonschema(payload):
    # the array pass may only change how fast a pair list is accepted, never
    # whether it is, which error it gets or which number is reported non-finite
    problems = [
        ("solve-poisson", {"f": payload}),
        ("evolve", {"form": "heat", "u0": _GOOD_QUBIT, "horizon": 0.2, "dt": 0.1,
                    "source": {"times": [0.0, 0.2], "elements": [_ZERO_QUBIT, payload]}}),
    ]
    for command, problem in problems:
        _assert_verdict_matches_stock(
            {"command": command, "backend": QUBIT_BACKEND, "problem": problem})


_ZERO_QUBIT = [[0.0, 0.0]] * 4

_number_payloads = st.one_of(
    st.lists(_json_numbers, max_size=8),   # mostly valid
    st.lists(st.one_of(_json_scalars, st.lists(_json_numbers, max_size=2)), max_size=6),
    _json_scalars,
)


@settings(max_examples=300, deadline=None)
@given(payload=_number_payloads)
def test_number_list_validation_matches_stock_jsonschema(payload):
    # the same promise for number lists: flow and source times, cyclic lengths
    continuity = {"form": "continuity", "u0": _GOOD_QUBIT, "horizon": 0.2, "dt": 0.1}
    configs = [
        {"command": "evolve", "backend": QUBIT_BACKEND, "problem": {
            **continuity, "flow": {"times": payload, "vectors": [[_ZERO_QUBIT]] * 2}}},
        {"command": "evolve", "backend": QUBIT_BACKEND, "problem": {
            **continuity, "source": {"times": payload, "elements": [_ZERO_QUBIT] * 2}}},
        {"command": "gap", "backend": {"kind": "cyclic", "order": 4, "lengths": payload}},
    ]
    for config in configs:
        _assert_verdict_matches_stock(config)


_DROP = object()   # a mutation that deletes the value at its path


def _paths(value, path=()):
    """The path of ``value`` and of every value inside it."""
    yield path
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _replaced(value, path, new):
    """A copy of ``value`` with ``new`` at ``path`` (``_DROP`` deletes it);
    only the containers along ``path`` are copied."""
    if not path:
        return {} if new is _DROP else new
    key, rest = path[0], path[1:]
    copy = dict(value) if isinstance(value, dict) else list(value)
    if rest or new is not _DROP:
        copy[key] = _replaced(value[key], rest, new)
    else:
        del copy[key]
    return copy


def _mutations(value):
    """What one mutation may put in place of ``value``: nothing (a dropped
    field), another JSON type, an extreme or non-finite number, 1.0 for an
    integer and True for a number, an emptied or one-item array, an unknown
    key, or null in each field that a oneOf lets be null."""
    options = [_DROP, "x", None, True, [], {}, 1.0, 1e308, 5e-324, -0.0, math.nan, 10**400]
    if isinstance(value, dict):
        options += [{**value, "unknown": 1}]
        options += [{**value, key: None} for key in ("radius", "rational", "flow", "source")]
    if isinstance(value, list):
        options.append(value[:1])
    if type(value) is int and abs(value) <= 2**53:   # not a 10**400 put there before
        options.append(float(value))
    return options


@st.composite
def mutated_configs(draw):
    """A ``corpus/`` config after one or two mutations."""
    config = draw(st.sampled_from([json.loads(p.read_text()) for p in CORPUS]))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(config))))
        value = config
        for key in path:
            value = value[key]
        config = _replaced(config, path, draw(st.sampled_from(_mutations(value))))
    return config


@settings(max_examples=400, deadline=None)
@given(config=mutated_configs())
def test_walker_verdict_matches_stock_jsonschema_on_mutated_corpus(config):
    _assert_verdict_matches_stock(config)


def test_valid_config_runs_without_importing_jsonschema(tmp_path):
    # jsonschema is the tests' oracle only: neither a valid nor a rejected
    # config imports it
    bad = json.loads((CORPUS[0].parent / "torus_gap.json").read_text())
    bad["unexpected"] = 1
    (tmp_path / "bad.json").write_text(json.dumps(bad), encoding="utf-8")
    script = (
        "import json, sys\n"
        "from ncpde import cli\n"
        f"config = json.loads(open({str(CORPUS[0].parent / 'torus_gap.json')!r}).read())\n"
        f"assert cli.run(config, out_dir={str(tmp_path / 'out')!r}, quiet=True) == 0\n"
        "assert 'jsonschema' not in sys.modules\n"
        f"code = cli.main(['--config', {str(tmp_path / 'bad.json')!r}])\n"
        "assert 'jsonschema' not in sys.modules\n"
        "sys.exit(code)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ("error: invalid config: config: Additional properties are not "
                           "allowed ('unexpected' was unexpected)\n")


_QUBIT_HEAT = {"form": "heat", "u0": [[1.0, 0.0]] * 4, "horizon": 0.2, "dt": 0.1}


@pytest.mark.parametrize("config, message", [
    ({"command": "evolve", "backend": QUBIT_BACKEND, "problem": {**_QUBIT_HEAT, "dt": 0}},
     "config.problem.dt: 0 is less than or equal to the minimum of 0"),
    ({"command": "markov-check", "backend": QUBIT_BACKEND, "problem": {"t_samples": []}},
     "config.problem.t_samples: [] should be non-empty"),
    ({"command": "markov-check", "backend": QUBIT_BACKEND,
      "problem": {"t_samples": [1.0], "battery": 1}},
     "config.problem.battery: 1 is less than the minimum of 2"),
    ({"command": "solve-poisson", "backend": QUBIT_BACKEND,
      "problem": {"f": _GOOD_QUBIT, "method": "dense"}},
     "config.problem.method: 'dense' is not one of ['both', 'spectral', 'variational']"),
    ({"command": "be-check", "backend": QUBIT_BACKEND, "problem": {"t_samples": [1.0]}},
     "config.problem: 'K' is a required property"),
    ({"command": "gap", "backend": TORUS_BACKEND, "out": "a", "tolerances": {}},
     "config: Additional properties are not allowed ('out', 'tolerances' were unexpected)"),
    # the kind selects the backend's branch; a missing or unknown kind is
    # named before the branches, however long the backend
    ({"command": "gap", "backend": {**TORUS_BACKEND, "level": 0}},
     "config.backend.level: 0 is less than the minimum of 1"),
    ({"command": "gap", "backend": {"order": 64, "lengths": [0.0] * 64}},
     "config.backend: 'kind' is a required property"),
    ({"command": "gap", "backend": {"kind": "sphere", "level": 3}},
     "config.backend.kind: 'sphere' is not one of ['matrix', 'nc_torus', 'cyclic']"),
    # a value that no branch takes is named in a shortened repr
    ({"command": "evolve", "backend": QUBIT_BACKEND, "problem": {
        **_QUBIT_HEAT, "source": {"times": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]}}},
     "config.problem.source: {'times': [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, ...]} "
     "is not valid under any of the given schemas"),
    # without a kind, the branch whose type and required properties the value has
    ({"command": "evolve", "backend": QUBIT_BACKEND, "problem": {
        **_QUBIT_HEAT, "form": "continuity", "epsilon": 0.1,
        "flow": {"times": [0.0, 0.2], "vectors": [[_ZERO_QUBIT]] * 2, "unknown": 1}}},
     "config.problem.flow: Additional properties are not allowed ('unknown' was unexpected)"),
    ({"command": "calculus-check", "backend": QUBIT_BACKEND, "problem": {"radius": -1}},
     "config.problem.radius: -1 is less than the minimum of 0"),
], ids=["exclusiveMinimum", "minItems", "minimum", "enum", "required", "additionalProperties",
        "oneOf-kind", "kind-required", "kind-enum", "oneOf-none", "oneOf-flow", "oneOf-radius"])
def test_config_fault_exits_1_with_its_keywords_stock_message(tmp_path, capsys, config, message):
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    assert capsys.readouterr().err == f"error: invalid config: {message}\n"
    assert not out_dir.exists()


_QUBIT_CONTINUITY = {**_QUBIT_HEAT, "form": "continuity", "epsilon": 0.1}


@pytest.mark.parametrize("config, message", [
    ({"command": "solve-poisson", "backend": QUBIT_BACKEND, "problem": {"f": _ZERO_QUBIT[:3]}},
     "config.problem.f: expected 4 coefficient pairs"),
    ({"command": "solve-quasilinear", "backend": QUBIT_BACKEND,
      "problem": {"f": _ZERO_QUBIT * 2, "map": {"name": "identity"}}},
     "config.problem.f: expected 4 coefficient pairs"),
    ({"command": "evolve", "backend": QUBIT_BACKEND, "problem": {**_QUBIT_HEAT, "u0": []}},
     "config.problem.u0: expected 4 coefficient pairs"),
    ({"command": "evolve", "backend": QUBIT_BACKEND, "problem": {
        **_QUBIT_CONTINUITY, "flow": {"constant_gradient_of": _ZERO_QUBIT[:1]}}},
     "config.problem.flow.constant_gradient_of: expected 4 coefficient pairs"),
    ({"command": "evolve", "backend": QUBIT_BACKEND, "problem": {
        **_QUBIT_CONTINUITY, "flow": {"times": [0.0, 0.2], "vectors": [[_ZERO_QUBIT], []]}}},
     "config.problem.flow.vectors[1]: expected 1 components of 4 coefficient pairs each"),
    ({"command": "evolve", "backend": QUBIT_BACKEND, "problem": {
        **_QUBIT_HEAT, "source": {"times": [0.0, 0.2], "elements": [_ZERO_QUBIT, _ZERO_QUBIT[:2]]}}},
     "config.problem.source.elements[1]: expected 4 coefficient pairs"),
    ({"command": "describe", "backend": {"kind": "matrix", "dim": 3, "generators": [
        [[1.0, 0.0]] * 9, _ZERO_QUBIT]}},
     "config.backend.generators[1]: expected 9 coefficient pairs"),
], ids=["poisson-f", "quasilinear-f", "u0", "constant-flow", "flow-vector", "source-element",
        "generator"])
def test_coefficient_count_exits_1_naming_the_field(tmp_path, capsys, config, message):
    # one count rule for every coefficient list, not numpy's reshape error
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    assert capsys.readouterr().err == f"error: invalid config: {message}\n"
    assert not out_dir.exists()


def _subschemas(schema):
    """``schema`` and every schema inside it."""
    yield schema
    inner = [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    for sub in inner + ([schema["items"]] if "items" in schema else []):
        yield from _subschemas(sub)


# the keywords that read one instance type, by the "type" they must follow
_TYPED_KEYWORDS = {"array": {"items", "minItems", "maxItems"},
                   "object": {"properties", "required", "additionalProperties"},
                   "number": {"minimum", "maximum", "exclusiveMinimum"}}
_TYPED_KEYWORDS["integer"] = _TYPED_KEYWORDS["number"]


def test_config_schemas_keep_the_walks_assumptions():
    # an unknown keyword or type would raise KeyError in the walk; it tests ==
    # for enum and const, treats additionalProperties as false, words maxItems
    # as "too long" only, and stops at a failed "type" before a keyword that
    # reads one instance type could meet another
    roots = [cli.CONFIG_SCHEMA, *(schema for schema, _ in cli.COMMANDS.values()),
             *(cls.json_schema for cls in bk.BACKENDS)]
    for schema in (sub for root in roots for sub in _subschemas(root)):
        assert schema.keys() <= cli._KEYWORDS.keys(), schema
        assert schema.get("type", "null") in cli._TYPES
        assert schema.get("additionalProperties", False) is False
        assert all(isinstance(v, str) for v in [*schema.get("enum", []), schema.get("const", "")])
        assert schema.get("maxItems", 1) > 0
        typed = schema.keys() & set().union(*_TYPED_KEYWORDS.values())
        if typed:
            assert next(iter(schema)) == "type" and typed <= _TYPED_KEYWORDS[schema["type"]], schema


@pytest.mark.parametrize("instance, schema", [
    (1, {"oneOf": [{"type": "number"}, {"type": "integer"}, {"enum": [1]}]}),
    (1.5, {"oneOf": [{"type": "integer"}, {"type": "null"}]}),
], ids=["three-pass", "none-pass"])
def test_one_of_message_is_stock_jsonschemas(instance, schema):
    path, keyword, message = cli._valid(instance, schema)
    assert (path, keyword) == ("", "oneOf")
    assert message() == best_match(Draft202012Validator(schema).iter_errors(instance)).message


@pytest.mark.parametrize("grid, field", [
    ({"flow": {"times": [], "vectors": []}}, "flow"),
    ({"flow": {"times": [0.2, 0.0, 0.1], "vectors": [[_ZERO_QUBIT]] * 3}}, "flow"),
    ({"flow": {"times": [0.0, 0.2], "vectors": [[_ZERO_QUBIT]] * 3}}, "flow"),
    ({"source": {"times": [], "elements": []}}, "source"),
    ({"source": {"times": [0.1, 0.0], "elements": [_ZERO_QUBIT] * 2}}, "source"),
    ({"source": {"times": [0.0, 0.1, 0.2], "elements": [_ZERO_QUBIT] * 2}}, "source"),
], ids=["flow-empty", "flow-unsorted", "flow-count", "source-empty", "source-unsorted",
        "source-count"])
def test_malformed_sample_grid_exits_1_naming_the_field(tmp_path, capsys, grid, field):
    config = {
        "command": "evolve", "backend": QUBIT_BACKEND,
        "problem": {"form": "continuity", "u0": [[1.0, 0.0]] * 4, "horizon": 0.2,
                    "dt": 0.1, "epsilon": 0.1, **grid},
    }
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    assert field in capsys.readouterr().err
    assert not out_dir.exists()


_BAD_FLOW_VECTORS = [
    ("component-count", [_ZERO_QUBIT, _ZERO_QUBIT]),  # two components; the qubit frame has one
    ("pair-count", [_ZERO_QUBIT[:3]]),                # three coefficient pairs; the qubit has four
    ("empty", []),                                    # no component at all
]


@pytest.mark.parametrize("index, vector", [
    pytest.param(index, vector, id=name if index else f"first-{name}")
    for index in (1, 0) for name, vector in _BAD_FLOW_VECTORS])
def test_malformed_flow_vector_exits_1_naming_field_and_shape(tmp_path, capsys, index, vector):
    vectors = [[_ZERO_QUBIT]] * 3
    vectors[index] = vector
    config = {
        "command": "evolve", "backend": QUBIT_BACKEND,
        "problem": {"form": "continuity", "u0": [[1.0, 0.0]] * 4, "horizon": 0.2,
                    "dt": 0.1, "epsilon": 0.1,
                    "flow": {"times": [0.0, 0.1, 0.2], "vectors": vectors}},
    }
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"config.problem.flow.vectors[{index}]" in err
    assert "1 components of 4 coefficient pairs" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("extra, field", [
    ({"epsilon": 5.0}, "epsilon"),
    ({"epsilon": 0.0}, "epsilon"),
    ({"flow": {"constant_gradient_of": _ZERO_QUBIT}}, "flow"),
    ({"flow": {"times": [0.0, 1.0], "vectors": [[_ZERO_QUBIT]] * 2}}, "flow"),
    ({"epsilon": 5.0, "flow": {"constant_gradient_of": _ZERO_QUBIT}}, "epsilon"),
    ({"flow": None}, None),
], ids=["epsilon", "epsilon-zero", "constant-flow", "sampled-flow", "both", "null-flow"])
def test_heat_problem_rejects_epsilon_and_flow(tmp_path, capsys, extra, field):
    # the heat form reads neither, so a run that took them would ignore them;
    # the CLI names the field before EvolutionProblem would refuse it
    config = json.loads((CORPUS[0].parent / "qubit_heat.json").read_text())
    config["problem"].update(extra)
    out_dir = tmp_path / "out"
    if field is None:
        assert run_main(tmp_path, config, "--out", str(out_dir), "--quiet") == 0
        return
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    assert capsys.readouterr().err == (
        f"error: invalid config: config.problem.{field}: not a field of the heat form\n")
    assert not out_dir.exists()


def test_empty_frame_sampled_flow_of_empty_vectors_runs(tmp_path):
    # all lengths 0: the frame is empty (k = 0), so each flow vector is []
    config = {
        "command": "evolve", "backend": {"kind": "cyclic", "order": 4, "lengths": [0, 0, 0, 0]},
        "problem": {"form": "continuity", "u0": [[1.0, 0.0]] * 4, "horizon": 0.2,
                    "dt": 0.1, "epsilon": 0.1, "flow": {"times": [0.0, 0.2], "vectors": [[], []]}},
    }
    assert run_main(tmp_path, config, "--out", str(tmp_path / "out")) == 0


def test_markov_battery_below_two_exits_1_naming_battery(tmp_path, capsys):
    config = json.loads((CORPUS[0].parent / "qubit_markov.json").read_text())
    config["problem"]["battery"] = 1
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    assert "config.problem.battery" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("restarts", [101, 1e308])
def test_restarts_beyond_100_exit_1_naming_restarts(tmp_path, capsys, restarts):
    # each restart is a full solve, so an unbounded count never finishes
    config = json.loads((CORPUS[0].parent / "torus_quasilinear.json").read_text())
    config["problem"]["restarts"] = restarts
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    assert "config.problem.restarts" in capsys.readouterr().err
    assert not out_dir.exists()
    config["problem"]["restarts"] = 100
    cli.validate_config(config)


@pytest.mark.parametrize("name", ["qubit_markov", "torus13_be"])
def test_empty_time_grid_exits_1_naming_t_samples(tmp_path, capsys, name):
    # no sampled time would leave no check to fail
    config = json.loads((CORPUS[0].parent / f"{name}.json").read_text())
    config["problem"]["t_samples"] = []
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    assert "config.problem.t_samples" in capsys.readouterr().err
    assert not out_dir.exists()


def loop_batteries(space, seed, radius):
    """The calculus, markov and be batteries drawn one element (one frame
    component for h) at a time, as three successive runs seeded ``seed``."""
    desc, k = space.backend, tangent_components(space)

    def draw(rad=None, self_adjoint=False):
        return loop_random_data(desc, rng, rad, self_adjoint)

    rng = np.random.Generator(np.random.PCG64(seed))
    calculus = [[draw(radius), draw(radius)] + [draw(radius) for _ in range(k)]
                for _ in range(5)]
    rng = np.random.Generator(np.random.PCG64(seed))
    markov = [draw() for _ in range(4)]
    rng = np.random.Generator(np.random.PCG64(seed))
    be = [draw(radius, self_adjoint=True) for _ in range(3)]
    return np.array(calculus), np.array(markov), np.array(be)


@pytest.mark.parametrize("spec,radius", [(("torus", 3), 1), (("torus", 3), None),
                                         (("rational", 2), 1), (("cyclic", 16), None),
                                         (("matrix", 3), None)],
                         ids=["torus3-r1", "torus3", "rational2", "cyclic16", "matrix3"])
def test_battery_draws_match_per_call_loop(tmp_path, monkeypatch, spec, radius):
    # each battery is one stacked draw that must equal the per-element loop
    # bit for bit, so the checks see the batteries they saw one by one
    desc = backend_from_spec(spec)
    drawn = []

    def record(*args, **kwargs):
        drawn.append(random_data(*args, **kwargs))
        return drawn[-1]

    random_data = bk.random_data
    monkeypatch.setattr(bk, "random_data", record)
    backend = desc.to_json()
    # radius None is an explicit null: dense supports, not the default radius
    for command, problem in (("calculus-check", {"battery": 5, "radius": radius}),
                             ("markov-check", {"battery": 4, "t_samples": [0.5]}),
                             ("be-check", {"battery": 3, "K": 0.0, "t_samples": [0.5],
                                           "radius": radius})):
        config = {"command": command, "backend": backend, "problem": problem, "seed": 7}
        cli.run(config, out_dir=str(tmp_path / command), quiet=True)
    assert len(drawn) == 3
    for got, want in zip(drawn, loop_batteries(build_space(desc), 7, radius)):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_evolve_without_probes_writes_no_probe_diagnostics(tmp_path):
    config = json.loads((CORPUS[0].parent / "qubit_heat.json").read_text())
    config["problem"]["probes"] = 0
    assert cli.run(config, out_dir=str(tmp_path), quiet=True) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert "coercivity_margins" not in report and "boundedness_ratio_max" not in report
    assert [c["name"] for c in report["checks"]] == ["linear_solve_residual"]


def test_step_count_beyond_float_range_exits_1_naming_horizon_and_dt(tmp_path, capsys,
                                                                     monkeypatch):
    config = json.loads((CORPUS[0].parent / "qubit_heat.json").read_text())
    config["problem"].update(horizon=1e300, dt=1e-300)

    def unreachable(*args, **kwargs):
        raise AssertionError("the problem must be rejected before it is solved")

    monkeypatch.setattr(cli, "solve_evolution", unreachable)
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    err = capsys.readouterr().err
    assert err == "error: horizon / dt = 1e+300 / 1e-300 is not finite\n"
    assert not out_dir.exists()


def test_step_count_beyond_index_range_exits_1_naming_horizon_and_dt(tmp_path, capsys):
    config = json.loads((CORPUS[0].parent / "qubit_heat.json").read_text())
    config["problem"].update(horizon=1e300, dt=1.0)
    out_dir = tmp_path / "out"
    assert run_main(tmp_path, config, "--out", str(out_dir)) == 1
    err = capsys.readouterr().err
    assert err == "error: horizon / dt = 1e+300 / 1.0 is too many steps\n"
    assert not out_dir.exists()


def test_gap_with_empty_battery_writes_no_battery_check(tmp_path):
    config = json.loads((CORPUS[0].parent / "torus_gap.json").read_text())
    config["problem"] = {"battery": 0}
    assert cli.run(config, out_dir=str(tmp_path), quiet=True) == 0
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_not_json)
    assert report["battery_margin"] is None and report["checks"] == []


def test_non_finite_output_exits_1(tmp_path, capsys, monkeypatch):
    from ncpde.dirichlet import PoincareResult

    monkeypatch.setattr(cli, "poincare_constant",
                        lambda *args, **kwargs: PoincareResult(1.0, 1.0, 1, math.inf))
    config = json.loads((CORPUS[0].parent / "torus_gap.json").read_text())
    assert run_main(tmp_path, config, "--quiet") == 1
    assert "JSON" in capsys.readouterr().err


def _not_json(constant):
    raise ValueError(f"{constant} is not a JSON number")


def _artifacts(out):
    return {f.relative_to(out): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}


def _csv_cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parsed(name, data):
    text = data.decode("utf-8")
    if name.suffix == ".json":
        return json.loads(text, parse_constant=_not_json)
    return [[_csv_cell(cell) for cell in line.split(",")] for line in text.splitlines()]


def _assert_matches_golden(new, old, where):
    if isinstance(old, float) and isinstance(new, float):
        assert math.isclose(new, old, rel_tol=GOLDEN_RTOL, abs_tol=GOLDEN_ATOL), where
    elif isinstance(old, dict):
        assert isinstance(new, dict) and new.keys() == old.keys(), where
        for key in old:
            _assert_matches_golden(new[key], old[key], f"{where}.{key}")
    elif isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old), where
        for i, (a, b) in enumerate(zip(new, old)):
            _assert_matches_golden(a, b, f"{where}[{i}]")
    else:
        assert type(new) is type(old) and new == old, where


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_runs_clean(path, tmp_path):
    # a second run in the same process writes byte-identical artifacts, and
    # they match the committed golden run
    config = json.loads(path.read_text())
    artifacts = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.run(config, out_dir=str(out), quiet=True) == 0
        artifacts.append(_artifacts(out))
    assert artifacts[0] == artifacts[1] and artifacts[0]
    golden = _artifacts(GOLDEN / path.stem)
    assert artifacts[0].keys() == golden.keys()
    for name, data in golden.items():
        _assert_matches_golden(_parsed(name, artifacts[0][name]), _parsed(name, data),
                               f"{path.stem}/{name}")


def test_quasilinear_restarts_run_the_structure_probe_once(tmp_path, monkeypatch):
    config = json.loads((CORPUS[0].parent / "torus_quasilinear.json").read_text())
    assert config["problem"]["restarts"] == 2
    calls = []
    probe_map = el.probe_map

    def counted(*args, **kwargs):
        calls.append(1)
        return probe_map(*args, **kwargs)

    monkeypatch.setattr(el, "probe_map", counted)
    assert cli.run(config, out_dir=str(tmp_path / "once"), quiet=True) == 0
    assert len(calls) == 1
    # probing the restart solves as well, as the base solve does, writes the
    # same bytes: the probe draws from its own fixed seed
    solve = el.solve_quasilinear
    monkeypatch.setattr(cli, "solve_quasilinear",
                        lambda *args, **kw: solve(*args, **{**kw, "force": False}))
    assert cli.run(config, out_dir=str(tmp_path / "every"), quiet=True) == 0
    assert len(calls) == 4
    assert _artifacts(tmp_path / "once") == _artifacts(tmp_path / "every")


def test_config_schemas_are_valid_draft_2020_12():
    # a rejection builds its validators without checking their schemas
    Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)
    for schema, _ in cli.COMMANDS.values():
        Draft202012Validator.check_schema(schema)


@pytest.mark.parametrize("name, path, value", [
    ("torus_gap", ("problem", "battery"), 32),
    ("qubit_markov", ("problem", "battery"), 16),
    ("torus_calculus", ("problem", "battery"), 40),
    ("torus_calculus", ("problem", "radius"), 1),
    ("torus13_be", ("problem", "battery"), 4),
    ("torus13_be", ("problem", "radius"), 1),
    ("torus13_be", ("backend", "rational", 1), 3),
    ("torus_quasilinear", ("problem", "restarts"), 2),
    ("qubit_heat", ("problem", "probes"), 6),
    ("torus_gap", ("seed",), 11),
], ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)) if isinstance(v, tuple)
    else str(v))
def test_integer_valued_float_runs_as_its_int_twin(tmp_path, capsys, name, path, value):
    # Draft 2020-12 takes 1.0 for the integer 1: the run is the int twin's, byte for byte
    runs = []
    for number in (value, float(value)):
        config = _replaced(json.loads((CORPUS[0].parent / f"{name}.json").read_text()),
                           path, number)
        out = tmp_path / repr(number)
        assert run_main(tmp_path, config, "--out", str(out)) == 0
        runs.append((capsys.readouterr(), _artifacts(out)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", ["torus_poisson", "torus_quasilinear"])
def test_solve_writes_report_and_solution_only(tmp_path, name):
    config = json.loads((CORPUS[0].parent / f"{name}.json").read_text())
    assert cli.run(config, out_dir=str(tmp_path), quiet=True) == 0
    assert {f.name for f in tmp_path.iterdir()} == {"report.json", "solution.json"}


@pytest.mark.parametrize("name", ["torus_poisson", "qubit_heat"])
def test_rerun_replaces_each_artifact_by_a_new_file(tmp_path, name):
    # a hard link keeps each first-run inode alive, so that the second run
    # cannot be handed its number again: a truncating write would reuse it
    config = json.loads((CORPUS[0].parent / f"{name}.json").read_text())
    out, kept = tmp_path / "out", tmp_path / "kept"
    assert cli.run(config, out_dir=str(out), quiet=True) == 0
    first = _artifacts(out)
    kept.mkdir()
    for artifact in first:
        os.link(out / artifact, kept / artifact)
    assert cli.run(config, out_dir=str(out), quiet=True) == 0
    assert _artifacts(out) == first == _artifacts(kept)
    for artifact in first:
        assert (out / artifact).stat().st_ino != (kept / artifact).stat().st_ino


def test_longer_junk_report_is_replaced_whole(tmp_path):
    config = json.loads((CORPUS[0].parent / "torus_gap.json").read_text())
    assert cli.run(config, out_dir=str(tmp_path / "fresh"), quiet=True) == 0
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_bytes(b"junk" * 10_000)
    assert cli.run(config, out_dir=str(out), quiet=True) == 0
    assert _artifacts(out) == _artifacts(tmp_path / "fresh")


def test_symlinked_artifact_is_replaced_not_followed(tmp_path):
    config = json.loads((CORPUS[0].parent / "torus_poisson.json").read_text())
    assert cli.run(config, out_dir=str(tmp_path / "fresh"), quiet=True) == 0
    target, out = tmp_path / "elsewhere.json", tmp_path / "out"
    target.write_bytes(b"not an artifact\n")
    out.mkdir()
    (out / "solution.json").symlink_to(target)
    assert cli.run(config, out_dir=str(out), quiet=True) == 0
    assert not (out / "solution.json").is_symlink() and (out / "solution.json").is_file()
    assert _artifacts(out) == _artifacts(tmp_path / "fresh")
    assert target.read_bytes() == b"not an artifact\n"


def test_non_finite_report_leaves_the_out_dir_as_it_was(tmp_path, capsys, monkeypatch):
    # the handler renders solution.json, but the report's dump fails before
    # anything is written: the earlier files keep their bytes and inodes
    config = json.loads((CORPUS[0].parent / "torus_poisson.json").read_text())
    out = tmp_path / "out"
    out.mkdir()
    for artifact in ("report.json", "solution.json"):
        (out / artifact).write_text(f"an earlier {artifact}\n")
    before = {f: ((out / f).stat().st_ino, data) for f, data in _artifacts(out).items()}
    schema, handler = cli.COMMANDS["solve-poisson"]

    def nan_report(*args):
        result, report, artifacts = handler(*args)
        report.extra["kernel_component"] = math.nan
        return result, report, artifacts

    monkeypatch.setitem(cli.COMMANDS, "solve-poisson", (schema, nan_report))
    assert run_main(tmp_path, config, "--out", str(out), "--quiet") == 1
    assert "JSON" in capsys.readouterr().err
    assert {f: ((out / f).stat().st_ino, data) for f, data in _artifacts(out).items()} == before
    assert run_main(tmp_path, config, "--out", str(tmp_path / "new"), "--quiet") == 1
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("case", ["out-under-a-file", "directory-named-report.json"])
def test_unwritable_out_exits_1_naming_the_path(tmp_path, capsys, case):
    # report.json is written after trajectory.csv, but its name is checked
    # first: the earlier run's trajectory keeps its inode and bytes
    config = json.loads((CORPUS[0].parent / "qubit_heat.json").read_text())
    before = {}
    if case == "out-under-a-file":
        out = failing = Path(os.devnull) / "x"
    else:
        out = tmp_path / "out"
        failing = out / "report.json"
        failing.mkdir(parents=True)
        (out / "trajectory.csv").write_text("an earlier trajectory.csv\n")
        before = {f: ((out / f).stat().st_ino, data) for f, data in _artifacts(out).items()}
    assert run_main(tmp_path, config, "--out", str(out), "--quiet") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {failing}: ")
    after = {f: ((out / f).stat().st_ino, data) for f, data in _artifacts(out).items()}
    assert after == before


@pytest.mark.parametrize("name", ["qubit_heat", "torus_continuity", "torus_poisson"])
def test_no_out_dir_renders_only_the_report(tmp_path, capsys, monkeypatch, name):
    # the trajectory and solution texts are rendered only to be written; the
    # stdout and exit code do not depend on them
    config = json.loads((CORPUS[0].parent / f"{name}.json").read_text())
    rendered = []
    for fn in ("_trajectory_csv", "_dump_json"):
        def counted(*args, _fn=getattr(cli, fn), _name=fn):
            rendered.append((_name, _fn(*args)))
            return rendered[-1][1]
        monkeypatch.setattr(cli, fn, counted)
    code = cli.run(config)
    printed = capsys.readouterr().out
    # the report, and the stdout result
    assert [fn for fn, _ in rendered] == ["_dump_json", "_dump_json"]
    rendered.clear()
    out = tmp_path / "out"
    assert cli.run(config, out_dir=str(out)) == code
    assert capsys.readouterr().out == printed
    texts = {text for _, text in rendered}
    assert {f.name for f in out.iterdir()} == {f.name for f in (GOLDEN / name).iterdir()}
    for f in out.iterdir():
        assert f.read_bytes().decode("utf-8") in texts


def _sorted_keys(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


_EDGE_VALUES = {"b": [-0.0, 5e-324, 1e300, 0.1, 10**20],
                "a": {"z": "\u00e9\n", "y": None, "x": True}}


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*/*.json")) + [None],
                         ids=lambda p: "edge-values" if p is None else f"{p.parent.name}/{p.name}")
def test_dump_json_is_one_sorted_line_with_the_indented_values(path):
    value = _EDGE_VALUES if path is None else json.loads(path.read_text())
    text = cli._dump_json(value)
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert json.loads(text, object_pairs_hook=_sorted_keys) == \
        json.loads(json.dumps(value, indent=2, sort_keys=True))


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-10"])
def test_tol_override_must_be_finite_and_positive(tmp_path, capsys, tol):
    config = json.loads((CORPUS[0].parent / "torus_gap.json").read_text())
    assert run_main(tmp_path, config, "--quiet", f"--tol={tol}") == 1
    assert "--tol" in capsys.readouterr().err


def test_seed_override_must_be_nonnegative(tmp_path, capsys):
    config = json.loads((CORPUS[0].parent / "torus_gap.json").read_text())
    out = tmp_path / "out"
    assert run_main(tmp_path, config, "--quiet", "--seed=-1", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: invalid --seed: -1 is not an integer >= 0\n"
    assert not out.exists()
