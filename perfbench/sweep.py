"""Kernel size sweep at the sizes ROADMAP names, beyond the corpus.

One timed call of each kernel per size, on seeded dense inputs; these are
per-layer numbers, not workloads.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ncpde import backends as bk
from ncpde import evolution as ev
from ncpde.calculus import gradient
from ncpde.dirichlet import build_space

TORUS_LEVELS = range(2, 9)
FORM_LEVELS = range(2, 7)
MATRIX_DIMS = range(2, 7)
CYCLIC_ORDERS = (16, 32, 48, 64)
_THETA = 0.41421356237309515


def names() -> list[str]:
    return ([f"sweep.mul_with_loss.level{n}" for n in TORUS_LEVELS]
            + [f"sweep.represent.level{n}" for n in TORUS_LEVELS]
            + [f"sweep.form_matrix.level{n}" for n in FORM_LEVELS]
            + [f"sweep.build_space.dim{n}" for n in MATRIX_DIMS]
            + [f"sweep.mul.order{q}" for q in CYCLIC_ORDERS])


def _timed(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def _hermitian(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T) / np.sqrt(n)


def run(seed: int) -> dict[str, float]:
    """Seconds of one call per kernel and size."""
    rng = np.random.default_rng(seed)
    out = {}
    torus = {n: bk.NCTorus(n, _THETA) for n in TORUS_LEVELS}
    # one untimed call first, so the smallest size does not pay first-call costs
    small = bk.random_element(torus[2], rng)
    bk.represent(small)
    for n in TORUS_LEVELS:
        a, b = bk.random_element(torus[n], rng), bk.random_element(torus[n], rng)
        out[f"sweep.mul_with_loss.level{n}"] = _timed(bk.mul_with_loss, a, b)
    for n in TORUS_LEVELS:
        out[f"sweep.represent.level{n}"] = _timed(bk.represent, bk.random_element(torus[n], rng))
    for n in FORM_LEVELS:
        space = build_space(torus[n])
        h = gradient(space, bk.random_element(torus[n], rng))
        problem = ev.EvolutionProblem(space=space, form="continuity",
                                      u0=bk.random_element(torus[n], rng), horizon=0.1,
                                      dt=0.1, epsilon=0.1, flow_times=[0.0], flow=[h])
        out[f"sweep.form_matrix.level{n}"] = _timed(ev.form_matrix, problem, 0.0)
    for n in MATRIX_DIMS:
        desc = bk.MatrixAlgebra(n, (_hermitian(rng, n), _hermitian(rng, n)))
        out[f"sweep.build_space.dim{n}"] = _timed(build_space, desc)
    for q in CYCLIC_ORDERS:
        desc = bk.CyclicGroup(q, tuple(2.0 - 2.0 * np.cos(2 * np.pi * np.arange(q) / q)))
        a, b = bk.random_element(desc, rng), bk.random_element(desc, rng)
        out[f"sweep.mul.order{q}"] = _timed(bk.mul, a, b)
    return out
