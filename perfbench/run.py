"""Benchmark of the ``ncpde`` CLI: seeded workloads through ``ncpde.cli.run``.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads in ``workloads.py`` or ``all``, which
interleaves the workloads listed in ``BENCHMARK.json`` pass by pass in one
process.  One client runs configs back to back in one long-lived process
(a closed loop, no concurrency), with BLAS pinned to one thread.  Every run's output is
checked against ``reference.json`` (see ``check.py``).

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` is the separate traced run: it alternates
untraced and traced passes of the same configs, reports the per-layer
metrics from the spans (see ``tracing.py``) plus the kernel size sweep
(``sweep.py``), and writes the spans to ``.bench_out/``.

End-to-end metrics per workload: ``run_s.p50`` and ``run_s.tail`` (the
11th largest run, the highest percentile with ten samples beyond it) of the
wall seconds of one ``cli.run``, pooled over the passes; ``runs_per_s``,
runs per second of ``cli.run`` wall time over the timed part;
``cpu_s_per_run``, process CPU seconds per run; ``setup_s``, median over
fresh interpreters, started at intervals through the measurement, of the
time from before ``import ncpde`` until the workload's first run returns;
``peak_rss_mb``, peak resident memory of a fresh process that runs one pass
of only this workload.  ``failed_frac`` is printed with them.  The timed
part runs whole blocks of ``POOL`` passes, in which every variant of the
workload runs once, for as many blocks as end within ``--seconds`` (at
least one), after an untimed warm-up pass.

Every time is scaled to a reference host speed: the fixed kernel of
``calibrate.py`` is timed just before each run (and inside each set-up
probe), and a run's wall and CPU seconds are multiplied by
``calibrate.REFERENCE_S`` over the median kernel time around it.  On a
shared machine whose speed drifts over minutes this removes most of the
drift, which no statistic over one run can; a change to ``ncpde`` moves the
scaled times exactly as it moves the raw ones.  The unscaled figures and
the kernel's median time are printed beside them.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts runs that raised, exited non-zero or failed the output
check; ``correct`` is false when any run's answer was missing, wrong or not
reproducible.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# BLAS threads are fixed before numpy loads: the single-threaded run is the
# baseline, and extra threads would otherwise buy wall time with CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the pinning above)

import calibrate  # noqa: E402
from check import OutputCheck  # noqa: E402
from tracing import Tracer, layer_stats  # noqa: E402
from workloads import POOL, WORKLOADS, mix_shares  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9     # fresh interpreters per run; setup_s is their median
MIN_SAMPLES = 40     # timed runs per workload at least, so the tail sits above p75
MAX_TRACED_PASSES = 2  # bounds span memory: a solve pass records ~0.7M spans
CAL_WINDOW = 2       # host speed at a run: median of the calibrations 2 runs either side


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    """Import ``ncpde`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ncpde" / "__init__.py").is_file():
        _fail(f"no ncpde sources under {src}")
    sys.path.insert(0, str(src))
    import ncpde

    if Path(ncpde.__file__).resolve().parent != src / "ncpde":
        _fail(f"imported ncpde from {ncpde.__file__}, not from {src}")
    from ncpde import cli

    return cli


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------


def _blas_threads() -> int | str:
    """Thread count OpenBLAS reports, or the pinned setting when the library
    cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = sorted({ln.split()[-1] for ln in maps.splitlines()
                   if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, no concurrency",
    }


# ---------------------------------------------------------------------------
# Running and checking
# ---------------------------------------------------------------------------


class Runner:
    """Runs configs of one workload through ``cli.run`` and checks them."""

    def __init__(self, cli, references: dict, work: Path):
        self.cli = cli
        self.check = OutputCheck(references)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: Counter = Counter()

    def run(self, run) -> tuple[float, float, Path, int | None]:
        """Wall and CPU seconds of one ``cli.run`` (looked up on the module at
        call time, so tracing wrappers apply), its artifact directory and its
        exit code (None when it raised)."""
        out = self.work / run.key
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = self.cli.run(run.config, out_dir=str(out), quiet=True)
        except Exception as exc:   # a failed run is counted, not fatal
            code = None
            self.failures[(run.case, f"raised {type(exc).__name__}: {exc}")] += 1
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        outcome = self.check(run.key, run.config["command"], code, out)
        self.attempted += 1
        if not outcome.passed:
            self.failed += 1
            self.wrong += outcome.wrong
            if code is not None:
                self.failures[(run.case, outcome.reason)] += 1
        return wall, cpu, out, code


def _probe(configs: list[dict], work: Path) -> dict:
    """Runs ``configs`` in a fresh interpreter (``probe.py``) and returns its
    set-up time and peak RSS."""
    work.mkdir(parents=True, exist_ok=True)
    path = work / "probe.json"
    path.write_text(json.dumps(configs), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(path), str(work / "probe-out")],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_scale(cals: list[float]) -> list[float]:
    """Factor that takes each run's time to the reference host speed: the
    reference kernel time over the median of the calibrations within
    ``CAL_WINDOW`` runs of it (the one just after a run is the next run's)."""
    return [calibrate.REFERENCE_S
            / statistics.median(cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i in range(len(cals))]


def _tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it:
    the 11th largest.  Returns (value, percentile, sample count)."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


class WorkloadState:
    def __init__(self, workload, seed: int, cli, references: dict, work: Path):
        self.workload = workload
        self.stream = workload.passes(seed)
        self.runner = Runner(cli, references.get(workload.name, {}), work / workload.name)
        self.walls: list[float] = []       # timed wall seconds of each cli.run
        self.cpus: list[float] = []        # its process CPU seconds
        self.cals: list[float] = []        # calibration kernel seconds just before it
        self.cases: list[str] = []         # its template name
        self.passes = 0
        self.setups: list[float] = []      # set-up seconds of each probe
        self.setup_cals: list[float] = []  # calibration seconds in that probe
        self.rss = 0.0
        self.shares: list[dict] = []

    def next_pass(self):
        runs = next(self.stream)
        self.shares.append(mix_shares(runs))
        return runs

    def timed_pass(self):
        for run in self.next_pass():
            self.cals.append(calibrate.measure())
            self.cases.append(run.case)
            w, c, _, _ = self.runner.run(run)
            self.walls.append(w)
            self.cpus.append(c)
        self.passes += 1

    def probe(self):
        """One set-up sample, always on variant 0, so its first run is the same
        config on every seed.  The first probe runs the whole pass and gives
        the peak RSS."""
        configs = [r.config for r in self.workload.variant(0)]
        res = _probe(configs if not self.setups else configs[:1], self.runner.work)
        if not self.setups:
            self.rss = res["peak_rss_mb"]
        self.setups.append(res["setup_s"])
        self.setup_cals.append(res["calib_s"])


def timed(states: list[WorkloadState], seconds: float) -> dict:
    for st in states:
        for run in st.workload.variant(0):   # warm-up pass: checked, not timed
            st.runner.run(run)
    gc.collect()
    start = time.perf_counter()
    span = seconds * len(states)
    deadline = start + span
    # the set-up probes are spread over the measurement, so that they meet
    # the same drift in machine speed as the timed runs
    due = [start + (i + 0.5) * span / SETUP_PROBES for i in range(SETUP_PROBES)]
    rounds = probes = 0
    block_s = 0.0
    # whole blocks of POOL passes, so that every variant runs equally often
    # on every seed; a block starts only if it should end by the deadline
    while (rounds == 0 or any(len(st.walls) < MIN_SAMPLES for st in states)
           or time.perf_counter() + block_s <= deadline):
        block_start = time.perf_counter()
        for _ in range(POOL):
            for k in range(len(states)):
                states[(rounds + k) % len(states)].timed_pass()
            rounds += 1
            if probes < SETUP_PROBES and time.perf_counter() >= due[probes]:
                for st in states:
                    st.probe()
                probes += 1
        block_s = time.perf_counter() - block_start
    for _ in range(probes, SETUP_PROBES):
        for st in states:
            st.probe()
    out = {}
    for st in states:
        scale = host_scale(st.cals)
        walls = [w * f for w, f in zip(st.walls, scale)]
        cpus = [c * f for c, f in zip(st.cpus, scale)]
        setups = [s * calibrate.REFERENCE_S / c for s, c in zip(st.setups, st.setup_cals)]
        tail, pct, n = _tail(walls)
        by_case: dict[str, list[float]] = {}
        for case, w in zip(st.cases, walls):
            by_case.setdefault(case, []).append(w)
        out[st.workload.name] = {
            "metrics": {
                "run_s.p50": statistics.median(walls),
                "run_s.tail": tail,
                "runs_per_s": n / math.fsum(walls),
                "cpu_s_per_run": math.fsum(cpus) / n,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": st.rss,
            },
            "tail_percentile": pct,
            "samples": n,
            "passes": st.passes,
            "unscaled": {
                "run_s.p50": statistics.median(st.walls),
                "runs_per_s": n / math.fsum(st.walls),
                "setup_s": statistics.median(st.setups),
                "calibration_s.p50": statistics.median(st.cals),
            },
            "case_s.p50": {c: statistics.median(v) for c, v in sorted(by_case.items())},
            "setup_samples": st.setups,
            "setup_calibrations": st.setup_cals,
        }
    return out


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _derived(name: str, stats: dict, ctx: dict) -> float:
    """Per-layer metrics that are not a plain per-run call/busy/self total."""
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    if name == "trace.overhead_frac":
        return ctx["traced_wall"] / ctx["untraced_wall"] - 1.0
    if name == "cli.run.failed_frac":
        return ctx["failed"] / ctx["attempted"]
    if name == "backends.AlgebraElement.created":
        return ctx["created"] / ctx["runs"]
    if name == "evolution.form_matrix.per_step":
        return ratio(stats["evolution.form_matrix"]["calls"], stats["evolution.step"]["calls"])
    if name.endswith(".busy_frac"):
        fn = name[: -len(".busy_frac")]
        return ratio(stats[fn]["busy_s"], stats["cli.run"]["busy_s"])
    if name == "dirichlet.carre_du_champ.per_be_pair":
        return ratio(ctx["be_stats"]["dirichlet.carre_du_champ"]["calls"], ctx["be_pairs"])
    if name == "elliptic.hilbert_inner.per_newton_iter":
        return ratio(ctx["ql_stats"]["calculus.hilbert_inner"]["calls"], ctx["newton_iters"])
    if name == "elliptic.newton_iters":
        return ratio(ctx["newton_iters"], ctx["ql_runs"])
    if name == "elliptic.cg_iters":
        return ratio(ctx["cg_iters"], ctx["cg_runs"])
    if name.startswith("sweep."):
        return ctx["sweep"][name]
    fn, _, field = name.rpartition(".")
    if fn in stats and field in ("calls", "busy_s", "self_s"):
        return stats[fn][field] / ctx["runs"]
    raise KeyError(f"no rule for per-layer metric {name!r}")


def traced(st: WorkloadState, seconds: float, seed: int, metric_names: list[str]) -> dict:
    import sweep    # imports ncpde, so only after _import_package

    for run in st.next_pass():          # warm-up pass, untraced
        st.runner.run(run)
    tracer = Tracer()
    meta = []                           # (run, report) per traced run id
    wall = {False: 0.0, True: 0.0}
    gc.collect()
    deadline = time.perf_counter() + seconds
    pairs = 0
    # untraced and traced passes of the same configs alternate, and so does
    # which goes first, so drift falls on both sides of the overhead ratio
    while pairs < 1 or (pairs < MAX_TRACED_PASSES and time.perf_counter() < deadline):
        runs = st.next_pass()
        for on in ((False, True) if pairs % 2 == 0 else (True, False)):
            if on:
                tracer.install()
            try:
                for run in runs:
                    tracer.run_id = len(meta) if on else -1
                    w, _, out, code = st.runner.run(run)
                    wall[on] += w
                    if on:
                        report = {} if code is None else json.loads(
                            (out / "report.json").read_text(encoding="utf-8"))
                        meta.append((run, report))
            finally:
                tracer.uninstall()
        pairs += 1

    spans = tracer.arrays()
    names = tracer.names
    stats = layer_stats(spans, names)

    def ids(command: str) -> list[int]:
        return [i for i, (run, _) in enumerate(meta) if run.config["command"] == command]

    be, ql, po = ids("be-check"), ids("solve-quasilinear"), ids("solve-poisson")
    cg = [i for i in po if "iterations[variational]" in meta[i][1]]
    ctx = {
        "runs": len(meta),
        "traced_wall": wall[True],
        "untraced_wall": wall[False],
        "failed": st.runner.failed,
        "attempted": st.runner.attempted,
        "created": sum(tracer.created.values()),
        "be_stats": layer_stats(spans, names, np.array(be, dtype=np.int32)),
        "be_pairs": sum(len(meta[i][0].config["problem"]["t_samples"])
                        * meta[i][0].config["problem"].get("battery", 4) for i in be),
        "ql_stats": layer_stats(spans, names, np.array(ql, dtype=np.int32)),
        "ql_runs": len(ql),
        "newton_iters": sum(meta[i][1].get("iterations", 0) for i in ql),
        "cg_runs": len(cg),
        "cg_iters": sum(meta[i][1]["iterations[variational]"] for i in cg),
        "sweep": sweep.run(seed),
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    np.savez(out_dir / f"spans-{st.workload.name}.npz", names=np.array(names),
             **spans)
    return {
        "metrics": {name: _derived(name, stats, ctx) for name in metric_names},
        "traced_runs": len(meta),
        "spans": int(spans["start"].size),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    cli = _import_package()
    if args.workload == "all":
        chosen = [WORKLOADS[w["name"]] for w in spec["workloads"]]
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    if args.trace and len(chosen) != 1:
        _fail("the traced run takes one workload")
    references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    meta = metadata(args)
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        states = [WorkloadState(w, args.seed, cli, references, work) for w in chosen]
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            results = {chosen[0].name: traced(states[0], args.seconds, args.seed, names)}
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            results = timed(states, args.seconds)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    print("# meta " + json.dumps(meta, sort_keys=True))
    for st in states:
        name = st.workload.name
        res = results[name]
        shares = {k: statistics.fmean(s[k] for s in st.shares) for k in st.shares[0]}
        print(f"# {name}: {whys.get(name, 'runs by name only; not in BENCHMARK.json')}")
        print(f"# {name}: mix " + ", ".join(f"{k}={v:.3f}" for k, v in shares.items()))
        res["mix"] = shares
        for metric, value in res["metrics"].items():
            line = f"{name:15s} {metric:45s} {value:.6g} {units[metric]}"
            if metric == "run_s.tail":
                line += (f"  (p{res['tail_percentile']:.1f}, 10 of {res['samples']}"
                         " samples beyond)")
            print(line)
        if not args.trace:
            print(f"# {name}: unscaled " + ", ".join(
                f"{k}={v:.6g}" for k, v in res["unscaled"].items()))
            # 0 on most workloads, so it is printed here rather than listed as
            # an end-to-end metric; the traced run reports cli.run.failed_frac
            print(f"{name:15s} {'failed_frac':45s} "
                  f"{st.runner.failed / st.runner.attempted:.6g} frac")
        for (case, reason), count in sorted(st.runner.failures.items()):
            print(f"# {name}: failed {count}x {case}: {reason}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"meta": meta, "results": results}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8")

    single = len(states) == 1
    metrics = {}
    for st in states:
        for metric, value in results[st.workload.name]["metrics"].items():
            key = metric if single else f"{st.workload.name}.{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
    print(json.dumps({
        "correct": all(st.runner.wrong == 0 for st in states),
        "attempted": sum(st.runner.attempted for st in states),
        "failed": sum(st.runner.failed for st in states),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
