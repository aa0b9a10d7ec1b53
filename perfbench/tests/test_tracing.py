import cProfile
import pstats

import numpy as np
import ncpde
from ncpde import calculus, cli, elliptic, evolution

from tracing import Tracer, layer_stats, self_times


def test_self_time_subtracts_direct_children_only():
    #  A [0, 10] > B [1, 4] > C [2, 3];  A > D [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_busy_counts_outermost_span_of_a_recursive_name():
    spans = {"name_id": np.array([0, 0, 1], dtype=np.int32),
             "start": np.array([0.0, 1.0, 2.0]), "end": np.array([6.0, 5.0, 3.0]),
             "parent": np.array([-1, 0, 1], dtype=np.int32),
             "run": np.array([0, 0, 0], dtype=np.int32),
             "outer": np.array([True, False, True])}
    stats = layer_stats(spans, ["f", "g"])
    assert stats["f"] == {"calls": 2.0, "busy_s": 6.0, "self_s": 5.0}
    assert stats["g"] == {"calls": 1.0, "busy_s": 1.0, "self_s": 1.0}


TORUS = {"kind": "nc_torus", "level": 1, "theta": 0.3, "rational": None}
CONFIG = {
    "command": "evolve", "backend": TORUS, "seed": 1,
    "problem": {"form": "continuity", "u0": [[1.0, 0.5]] * 9, "horizon": 0.04,
                "dt": 0.02, "scheme": "crank-nicolson", "epsilon": 0.1, "probes": 2,
                "flow": {"constant_gradient_of": [[0.3, -0.2]] * 9}},
}


def test_traced_counts_match_cprofile(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_id = 0
        cli.run(CONFIG, out_dir=str(tmp_path / "traced"), quiet=True)
    finally:
        tracer.uninstall()
    profile = cProfile.Profile()
    profile.runcall(cli.run, CONFIG, out_dir=str(tmp_path / "profiled"), quiet=True)
    by_code = {(f, line, name): row[1] for (f, line, name), row
               in pstats.Stats(profile).stats.items()}
    stats = layer_stats(tracer.arrays(), tracer.names)
    checked = 0
    for name, fn in tracer.functions.items():
        code = fn.__code__
        profiled = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert stats[name]["calls"] == profiled, name
        checked += profiled > 0
    assert checked > 20
    assert stats["evolution.form_matrix"]["calls"] > 0
    assert stats["calculus.gradient"]["calls"] > 0


def test_uninstall_restores_every_binding():
    before = (calculus.gradient, cli.gradient, elliptic.gradient, evolution.gradient,
              ncpde.gradient, evolution.right_act)
    tracer = Tracer()
    tracer.install()
    assert cli.gradient is calculus.gradient is evolution.gradient is ncpde.gradient
    assert cli.gradient is not before[0]
    tracer.uninstall()
    assert (calculus.gradient, cli.gradient, elliptic.gradient, evolution.gradient,
            ncpde.gradient, evolution.right_act) == before
