"""Command-line driver.

Usage:  ncpde --config cfg.json [--out DIR] [--seed N] [--tol X] [--quiet]

The JSON config carries the command, the backend descriptor and the
per-command problem payload.  Before any computation one walk over its
schemas' Draft 2020-12 keywords judges it (unknown fields, non-finite numbers
and integers beyond float range fail) and words its first fault in that
keyword's stock message, e.g. "1.5 is not of type 'integer'".  A bool is not
a number and an integer-valued float such as 1.0 is an integer, read through
int() so it runs as its int twin.  All randomized batteries are drawn from
numpy's PCG64 generator seeded from the config (command-line --seed
overrides), so identical config + seed reproduces bit-identical JSON output
on a given platform/BLAS.  Exit codes: 0 success with all checks passed, 2
completed with check failures (reports still written), 1 errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import reprlib
import sys
from pathlib import Path

import numpy as np

from . import backends as bk
from . import serialize as sz
from .calculus import TangentVector, calculus_check, gradient, tangent_components
from .dirichlet import bakry_emery_check, build_space, markov_check, poincare_constant
from .elliptic import (
    curved_map,
    identity_map,
    minimize_dirichlet_energy,
    negated_map,
    solve_poisson,
    solve_quasilinear,
)
from .evolution import EvolutionProblem, solve_evolution
from .reports import Report, check_ge, check_le

_PAIRS = bk.PAIRS_SCHEMA
# a missing or unknown kind is named ahead of the branches that it selects
_BACKEND_SCHEMA = {"type": "object", "required": ["kind"],
                   "properties": {"kind": {"enum": [cls.kind for cls in bk.BACKENDS]}},
                   "oneOf": [cls.json_schema for cls in bk.BACKENDS]}

_FLOW_SCHEMA = {
    "oneOf": [
        {"type": "null"},
        {
            "type": "object",
            "properties": {
                "constant_gradient_of": _PAIRS,
                "scale": {"type": "number"},
            },
            "required": ["constant_gradient_of"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "times": {"type": "array", "items": {"type": "number"}},
                "vectors": {"type": "array", "items": {"type": "array", "items": _PAIRS}},
            },
            "required": ["times", "vectors"],
            "additionalProperties": False,
        },
    ]
}


class ConfigError(Exception):
    pass


def _number(x) -> bool:
    """Whether ``x`` is a JSON number (a bool is not) that float64 holds
    finitely: NaN, an infinity or an integer beyond float range is not one."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:   # an int no float can hold
        return False


_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: _number(x) and (isinstance(x, int) or x.is_integer()),   # 1.0 is one
    "null": lambda x: x is None,
    "number": _number,
    "object": lambda x: isinstance(x, dict),
}


def _first_fault(children):
    # True when every (key, value, schema) child passes, else the first fault
    for key, value, schema in children:
        fault = _valid(value, schema)
        if fault is not None:
            fault[0] = (f"[{key}]" if isinstance(key, int) else f".{key}") + fault[0]
            return fault
    return True


def _items(x, items, schema):
    # a number list, or a list of [re, im] number pairs, whose numbers (not
    # bools) are finite as one float64 array passes in one array pass
    pairs = items is _PAIRS["items"] and set(map(type, x)) <= {list} and set(map(len, x)) <= {2}
    flat = list(itertools.chain.from_iterable(x)) if pairs else x
    if (pairs or items == {"type": "number"}) and set(map(type, flat)) <= {float, int}:
        try:
            if np.isfinite(np.array(flat, dtype=np.float64)).all():
                return True
        except OverflowError:   # an int beyond float range
            pass
    return _first_fault((i, v, items) for i, v in enumerate(x))


def _one_of(x, branches, schema):
    faults = [_valid(x, b) for b in branches]
    passed = [b for b, fault in zip(branches, faults) if fault is None]
    if passed:
        return len(passed) == 1 or (lambda: f"{x!r} is valid under each of "
                                    f"{', '.join(map(repr, passed[1:] + passed[:1]))}")
    # blame the branch whose const a property of x matches (the backend kind),
    # else the only one that x fails neither by its type nor a required property
    chosen = [f for b, f in zip(branches, faults) if isinstance(x, dict) and any(
        x.get(k) == sub["const"] for k, sub in b.get("properties", {}).items() if "const" in sub)]
    chosen = chosen or [f for f in faults
                        if f[0] or f[1] not in ("type", "required") or f[2]() is None]
    return chosen[0] if len(chosen) == 1 else (
        lambda: f"{reprlib.repr(x)} is not valid under any of the given schemas")


def _none_unexpected(names):
    return not names or (lambda: "Additional properties are not allowed ({} {} unexpected)".format(
        ", ".join(map(repr, sorted(names, key=str))), "was" if len(names) == 1 else "were"))


# the Draft 2020-12 keywords of the config schemas, each (instance, value,
# schema) -> True when the instance passes, else the fault below it or a call
# wording its failure in the keyword's stock message (None: a number of the
# type that no float64 holds).  Every additionalProperties is false, every
# enum and const a string (== is JSON equality), and a keyword of one instance
# type follows a "type" of that type in its schema, so none meets another type
_KEYWORDS = {
    "additionalProperties": lambda x, extra, s: _none_unexpected(
        x.keys() - s.get("properties", {}).keys()),
    "const": lambda x, value, s: x == value or (lambda: f"{value!r} was expected"),
    "enum": lambda x, values, s: x in values or (lambda: f"{x!r} is not one of {values!r}"),
    "exclusiveMinimum": lambda x, low, s: x > low or (
        lambda: f"{x!r} is less than or equal to the minimum of {low!r}"),
    "items": _items,
    "maxItems": lambda x, n, s: len(x) <= n or (lambda: f"{x!r} is too long"),
    "maximum": lambda x, high, s: x <= high or (
        lambda: f"{x!r} is greater than the maximum of {high!r}"),
    "minItems": lambda x, n, s: len(x) >= n or (
        lambda: f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}"),
    "minimum": lambda x, low, s: x >= low or (
        lambda: f"{x!r} is less than the minimum of {low!r}"),
    "oneOf": _one_of,
    "properties": lambda x, props, s: _first_fault(
        (key, value, props[key]) for key, value in x.items() if key in props),
    "required": lambda x, names, s: all(k in x for k in names) or (
        lambda: f"{next(k for k in names if k not in x)!r} is a required property"),
    "type": lambda x, name, s: _TYPES[name](x) or (lambda: None if isinstance(
        x, {"number": (int, float), "integer": int}.get(name, ())) and not isinstance(x, bool)
        else f"{x!r} is not of type {name!r}"),
}


def _valid(x, schema: dict):
    """None when ``x`` passes ``schema``, else its first fault (keywords in the
    schema's order, members in the instance's): ``[path below x, built as the
    walk returns, keyword, the call that words its failure]``."""
    for key, value in schema.items():
        verdict = _KEYWORDS[key](x, value, schema)
        if verdict is not True:
            return ["", key, verdict] if callable(verdict) else verdict
    return None


def _invalid(path: str, message: str | None) -> ConfigError:
    # None for a number that no float64 holds
    return ConfigError(f"invalid config: {path}: {message}" if message is not None
                       else f"invalid config: {path} is not a finite number")


def validate_config(config: dict) -> None:
    """Raise ConfigError naming the first fault of ``config``, if it has one;
    its problem is checked against its command's schema once the rest passes."""
    fault = _valid(config, CONFIG_SCHEMA) or _first_fault(
        [("problem", config.get("problem", {}), COMMANDS[config["command"]][0])])
    if fault is not True:
        raise _invalid("config" + fault[0], fault[2]())


def _counted(path: str, pairs: list, D: int, k: int | None = None) -> list:
    # the one count rule of a config's coefficient lists: D [re, im] pairs or,
    # given k (a sampled flow's vector), k components of D pairs each
    if len(pairs) != D if k is None else [len(c) for c in pairs] != [D] * k:
        raise _invalid(path, f"expected {D} coefficient pairs" if k is None
                       else f"expected {k} components of {D} coefficient pairs each")
    return pairs


def _element(space, pairs: list, field: str) -> bk.AlgebraElement:
    return sz.element_data_from_json(space.backend,
                                     _counted(f"config.problem.{field}", pairs, space.dim))


def _dump_json(obj: dict) -> str:
    # C encoder (no indent); NaN and Infinity are not JSON, so they fail the run (exit 1)
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def _write_artifacts(out_dir: Path, artifacts: dict[str, str]) -> None:
    # unlinked, then created: no truncating open waits on ext4 writeback; a symlink is replaced.
    # Every name is checked before the first unlink, so a directory in the way
    # of one artifact leaves the earlier run's whole set in place
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = [out_dir / name for name in artifacts]
        for path in paths:
            if path.is_dir() and not path.is_symlink():
                raise ConfigError(f"cannot write {path}: Is a directory")
        for path, text in zip(paths, artifacts.values()):
            path.unlink(missing_ok=True)
            with open(path, "x", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or out_dir}: {exc.strerror}") from exc


def _trajectory_csv(times, states) -> str:
    D = states.shape[1]
    # one row per time: t, then re_i, im_i interleaved (the float view of the
    # complex row); floats by repr and CRLF line ends, the bytes csv.writer writes
    pairs = np.ascontiguousarray(states, dtype=np.complex128).view(np.float64)
    cells = np.column_stack([times, pairs])
    header = ",".join(["t"] + [f"{p}_{i:03d}" for i in range(D) for p in ("re", "im")])
    rows = (",".join(map(repr, row)) for row in cells.tolist())
    return "\r\n".join([header, *rows]) + "\r\n"


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


# an integer field may hold an integer-valued float (Draft 2020-12 takes 1.0
# for 1); each is read through int(), so that it runs as its int twin
def _radius(space, problem) -> int | None:
    radius = problem.get("radius", space.backend.default_radius())
    return None if radius is None else int(radius)


def _cmd_describe(space, problem, rng, tol):
    spectrum = [float(np.round(v, 10)) for v in space.evals]
    result = {
        "backend": space.backend.to_json(),
        "l2_dim": space.dim,
        "real_dim": 2 * space.dim,
        "kernel_dim": space.kernel_dim,
        "spectrum": spectrum,
        "tangent_components": tangent_components(space),
    }
    return result, Report(kind="describe", extra=result), {}


def _cmd_gap(space, problem, rng, tol):
    res = poincare_constant(space, rng, battery=int(problem.get("battery", 32)))
    result = {"C_P": res.c_p, "gap": res.gap, "kernel_dim": res.kernel_dim}
    report = Report(kind="gap", extra=res.to_dict())
    if res.battery_margin is not None:
        report.checks.append(check_ge("poincare_battery_margin", res.battery_margin, -tol))
    return result, report, {}


def _cmd_markov(space, problem, rng, tol):
    report = markov_check(space, problem["t_samples"], rng,
                          battery=int(problem.get("battery", 16)), tol=tol)
    return report.to_dict(), report, {}


def _cmd_calculus(space, problem, rng, tol):
    report = calculus_check(space, rng, int(problem.get("battery", 50)),
                            _radius(space, problem), tol)
    return report.to_dict(), report, {}


def _cmd_be(space, problem, rng, tol):
    battery = bk.random_data(space.backend, rng, (int(problem.get("battery", 4)),),
                             self_adjoint=True, radius=_radius(space, problem))
    report = bakry_emery_check(space, problem["K"], problem["t_samples"], battery)
    return report.to_dict(), report, {}


def _cmd_poisson(space, problem, rng, tol):
    f = _element(space, problem["f"], "f")
    method = problem.get("method", "both")
    project = problem.get("project_kernel", False)
    report = Report(kind="solve-poisson", extra={"method": method})
    reps = {}
    if method in ("both", "spectral"):
        reps["spectral"] = solve_poisson(space, f, project_kernel=project)
    if method in ("both", "variational"):
        reps["variational"] = minimize_dirichlet_energy(space, f, project_kernel=project)
    for name, rep in reps.items():
        report.checks.append(check_le(f"weak_residual[{name}]", rep.residual_weak, 1e-8))
        report.checks.append(check_le(f"strong_residual[{name}]", rep.residual_strong, 1e-8))
        report.extra[f"iterations[{name}]"] = rep.iterations
        report.extra[f"flags[{name}]"] = rep.flags
    if len(reps) == 2:
        diff = bk.norm_l2(reps["spectral"].solution - reps["variational"].solution)
        report.checks.append(check_le("solver_agreement_l2", diff, 1e-8))
    primary = reps.get("spectral") or reps["variational"]
    report.extra["kernel_component"] = primary.kernel_component
    return report.to_dict(), report, {
        "solution.json": lambda: _dump_json(sz.element_to_json(primary.solution))}


def _make_map(map_cfg: dict):
    name = map_cfg["name"]
    if name == "identity":
        return identity_map()
    if name == "curved":
        return curved_map(map_cfg.get("beta", 1.0))
    return negated_map()


def _cmd_quasilinear(space, problem, rng, tol):
    f = _element(space, problem["f"], "f")
    F = _make_map(problem["map"])
    project = problem.get("project_kernel", False)
    base = solve_quasilinear(space, F, f, project_kernel=project)
    report = Report(kind="solve-quasilinear", extra={
        "map": F.name, "iterations": base.iterations, "galerkin_dim": base.galerkin_dim,
        "flags": base.flags})
    report.checks.append(check_le("weak_residual", base.residual_weak, 1e-8))
    report.checks.append(check_le("strong_residual", base.residual_strong, 1e-8))
    restarts = int(problem.get("restarts", 0))
    worst = 0.0
    for _ in range(restarts):
        init = rng.standard_normal(base.galerkin_dim)
        # the base solve's structure probe is the gate: it draws from a fixed
        # seed, so rerunning it on the same map and space gives the same result
        other = solve_quasilinear(space, F, f, init=init, force=True, project_kernel=project)
        worst = max(worst, bk.norm_l2(base.solution - other.solution))
    if restarts:
        report.checks.append(check_le("restart_agreement_l2", worst, 1e-8))
    return report.to_dict(), report, {
        "solution.json": lambda: _dump_json(sz.element_to_json(base.solution))}


def _parse_flow(space, flow_cfg):
    if flow_cfg is None:
        return None, None
    if "constant_gradient_of" in flow_cfg:
        el = _element(space, flow_cfg["constant_gradient_of"], "flow.constant_gradient_of")
        h = flow_cfg.get("scale", 1.0) * gradient(space, el)
        return [0.0], [h]
    k = tangent_components(space)
    vectors = [_counted(f"config.problem.flow.vectors[{i}]", vec, space.dim, k)
               for i, vec in enumerate(flow_cfg["vectors"])]
    return [float(t) for t in flow_cfg["times"]], [
        TangentVector(space, bk.from_pairs(vec, (k,) + space.backend.shape())) for vec in vectors]


def _cmd_evolve(space, problem, rng, tol):
    if problem["form"] == "heat" and ("epsilon" in problem or problem.get("flow") is not None):
        field = "epsilon" if "epsilon" in problem else "flow"
        raise _invalid(f"config.problem.{field}", "not a field of the heat form")
    u0 = _element(space, problem["u0"], "u0")
    flow_times, flow = _parse_flow(space, problem.get("flow"))
    source_cfg = problem.get("source")
    source_times, source = (None, None) if source_cfg is None else (
        [float(t) for t in source_cfg["times"]],
        [_element(space, e, f"source.elements[{i}]") for i, e in enumerate(source_cfg["elements"])])
    prob = EvolutionProblem(
        space=space,
        form=problem["form"],
        u0=u0,
        horizon=float(problem["horizon"]),
        dt=float(problem["dt"]),
        scheme=problem.get("scheme", "implicit-euler"),
        epsilon=float(problem.get("epsilon", 0.0)),
        flow_times=flow_times,
        flow=flow,
        source_times=source_times,
        source=source,
    )
    res = solve_evolution(prob, rng=rng, probes=int(problem.get("probes", 8)))
    report = Report(kind="evolve", extra={"steps": prob.n_steps(), "scheme": prob.scheme})
    report.checks.append(check_le("linear_solve_residual", res.solve_residual_max, 1e-12))
    report.extra["conservation_drift_max"] = float(np.abs(res.conservation_defect).max())
    report.extra["conservation_defects"] = [float(v) for v in res.conservation_defect]
    if res.terminal_error_vs_oracle is not None:
        report.extra["terminal_error_vs_oracle"] = res.terminal_error_vs_oracle
    if res.coercivity_margin is not None:
        report.checks.append(
            check_ge("coercivity_margin_min", float(res.coercivity_margin.min()), -tol))
        report.extra["coercivity_margins"] = [float(v) for v in res.coercivity_margin]
    if res.boundedness_ratio is not None:
        report.extra["boundedness_ratio_max"] = float(res.boundedness_ratio.max())
    report.flags.extend(res.flags)
    return report.to_dict(), report, {
        "trajectory.csv": lambda: _trajectory_csv(res.times, res.states)}


# command -> (problem schema, handler); every handler takes (space, problem,
# rng, tol) and returns (stdout result, report, {artifact file name: a call
# that renders its text}), rendered only when there is an out dir
COMMANDS = {
    "describe": ({"type": "object", "properties": {}, "additionalProperties": False},
                 _cmd_describe),
    "gap": ({
        "type": "object",
        "properties": {"battery": {"type": "integer", "minimum": 0}},
        "additionalProperties": False,
    }, _cmd_gap),
    "markov-check": ({
        "type": "object",
        "properties": {
            "t_samples": {"type": "array", "items": {"type": "number", "minimum": 0},
                          "minItems": 1},
            "battery": {"type": "integer", "minimum": 2},   # trace symmetry takes pairs
        },
        "required": ["t_samples"],
        "additionalProperties": False,
    }, _cmd_markov),
    "calculus-check": ({
        "type": "object",
        "properties": {
            "battery": {"type": "integer", "minimum": 1},
            "radius": {"oneOf": [{"type": "null"}, {"type": "integer", "minimum": 0}]},
        },
        "additionalProperties": False,
    }, _cmd_calculus),
    "be-check": ({
        "type": "object",
        "properties": {
            "K": {"type": "number"},
            "t_samples": {"type": "array", "items": {"type": "number", "minimum": 0},
                          "minItems": 1},
            "battery": {"type": "integer", "minimum": 1},
            "radius": {"oneOf": [{"type": "null"}, {"type": "integer", "minimum": 0}]},
        },
        "required": ["K", "t_samples"],
        "additionalProperties": False,
    }, _cmd_be),
    "solve-poisson": ({
        "type": "object",
        "properties": {
            "f": _PAIRS,
            "method": {"enum": ["both", "spectral", "variational"]},
            "project_kernel": {"type": "boolean"},
        },
        "required": ["f"],
        "additionalProperties": False,
    }, _cmd_poisson),
    "solve-quasilinear": ({
        "type": "object",
        "properties": {
            "f": _PAIRS,
            "map": {
                "type": "object",
                "properties": {
                    "name": {"enum": ["identity", "curved", "negated"]},
                    "beta": {"type": "number"},
                },
                "required": ["name"],
                "additionalProperties": False,
            },
            # each restart is one more full solve: 100 is 50x the corpus's 2
            "restarts": {"type": "integer", "minimum": 0, "maximum": 100},
            "project_kernel": {"type": "boolean"},
        },
        "required": ["f", "map"],
        "additionalProperties": False,
    }, _cmd_quasilinear),
    "evolve": ({
        "type": "object",
        "properties": {
            "form": {"enum": ["heat", "continuity"]},
            "u0": _PAIRS,
            "horizon": {"type": "number", "exclusiveMinimum": 0},
            "dt": {"type": "number", "exclusiveMinimum": 0},
            "scheme": {"enum": ["implicit-euler", "crank-nicolson"]},
            "epsilon": {"type": "number", "minimum": 0},
            "flow": _FLOW_SCHEMA,
            "source": {
                "oneOf": [
                    {"type": "null"},
                    {
                        "type": "object",
                        "properties": {
                            "times": {"type": "array", "items": {"type": "number"}},
                            "elements": {"type": "array", "items": _PAIRS},
                        },
                        "required": ["times", "elements"],
                        "additionalProperties": False,
                    },
                ]
            },
            "probes": {"type": "integer", "minimum": 0},
        },
        "required": ["form", "u0", "horizon", "dt"],
        "additionalProperties": False,
    }, _cmd_evolve),
}


CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "backend": _BACKEND_SCHEMA,
        "problem": {"type": "object"},
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["command", "backend"],
    "additionalProperties": False,
}


def run(config: dict, out_dir: str | None = None, quiet: bool = False,
        seed_override: int | None = None, tol_override: float | None = None) -> int:
    """Execute one validated config; returns the process exit code."""
    validate_config(config)
    if tol_override is not None and not 0 < tol_override < math.inf:
        raise ConfigError(f"invalid --tol: {tol_override!r} is not a finite number > 0")
    for i, pairs in enumerate(config["backend"].get("generators", ())):   # a matrix backend's
        _counted(f"config.backend.generators[{i}]", pairs, int(config["backend"]["dim"]) ** 2)
    desc = sz.descriptor_from_json(config["backend"])
    tol = tol_override if tol_override is not None else 1e-10
    seed = seed_override if seed_override is not None else int(config.get("seed", 0))
    rng = np.random.Generator(np.random.PCG64(seed))
    out_path = Path(out_dir) if out_dir else None
    space = build_space(desc)
    _, handler = COMMANDS[config["command"]]
    result, report, artifacts = handler(space, config.get("problem", {}), rng, tol)

    # before any write, and with no out_path too: a non-finite report number fails the run
    report_json = _dump_json(report.to_dict())
    if out_path is not None:
        texts = {name: render() for name, render in artifacts.items()}
        _write_artifacts(out_path, {**texts, "report.json": report_json})
    if not quiet:
        sys.stdout.write(_dump_json(result))
    return 0 if report.passed else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncpde",
        description="Dirichlet-form calculus and PDE solvers on noncommutative measure spaces",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="directory for report/solution artifacts")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--tol", type=float, default=None, help="override the check tolerance")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout")
    args = parser.parse_args(argv)
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config, out_dir=args.out, quiet=args.quiet,
                   seed_override=args.seed, tol_override=args.tol)
    except (ConfigError, bk.AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
