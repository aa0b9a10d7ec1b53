"""Fixed calibration kernel: a measure of the host's speed at the moment.

On a shared machine the speed the benchmark gets drifts by tens of percent
over minutes with the load of other tenants, and the process's own CPU time
rises with its wall time, so CPU time does not remove the drift.
``kernel`` does a fixed amount of work of the kinds ``ncpde`` spends its
time on - interpreted Python with small-object churn, many small numpy
calls, and a dense complex product and solve - and uses no ``ncpde`` code,
so its time changes only with the host.  ``run.py`` times it next to the runs
and scales their times to a host on which one kernel call takes
``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import time

import numpy as np

# kernel seconds that define the reference host speed; about the kernel's
# time on an unloaded x86-64 server core, so scaled times read close to wall
# seconds there
REFERENCE_S = 0.004

_rng = np.random.default_rng(20161214)
_A = _rng.standard_normal((49, 49)) + 1j * _rng.standard_normal((49, 49))
_A += 10.0 * np.eye(49)
_V = _rng.standard_normal(49) + 1j * _rng.standard_normal(49)


def kernel() -> float:
    """One call of fixed work; returns a checksum so nothing is skipped."""
    acc = 0.0
    table: dict[tuple[int, int], float] = {}
    for i in range(1800):                       # interpreted object churn
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += len([k for k in key if k])
    x = _V.copy()
    for _ in range(360):                        # small numpy calls
        x = x / np.linalg.norm(x) + 0.1 * np.conj(x[::-1])
        acc += float(np.real(np.vdot(x, _V)))
    for _ in range(18):                         # dense complex kernels
        x = np.linalg.solve(_A, _A @ x)
    return acc + float(np.abs(x).sum()) + sum(table.values())


def measure() -> float:
    """Wall seconds of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
