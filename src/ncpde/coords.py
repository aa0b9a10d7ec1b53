"""Coordinate plumbing shared by the variational solvers.

Every solver works on complex L^2 coordinates, and the weak formulations
pair them through Re<.,.>.  The elliptic solvers apply adjoints by
conjugating vectors, (v^* W)^*, not a matrix.
"""

from __future__ import annotations

import numpy as np

from .dirichlet import DirichletSpace, _eigen_coords, _from_eigen


def realify_operator(H: np.ndarray) -> np.ndarray:
    """The real (2D, 2D) matrix of H acting on [Re c; Im c].  No solver calls
    it: the test oracles check the complex solvers in this real form, and a
    per-layer metric of BENCHMARK.json counts its calls."""
    return np.block([[H.real, -H.imag], [H.imag, H.real]])


def kernel_component(space: DirichletSpace, c: np.ndarray) -> float:
    """L^2 mass of the coordinate vector c inside ker(generator)."""
    return float(np.linalg.norm(_eigen_coords(space, c, slice(space.kernel_dim))))


def project_off_kernel(space: DirichletSpace, c: np.ndarray) -> np.ndarray:
    kernel = slice(space.kernel_dim)
    return c - _from_eigen(space, _eigen_coords(space, c, kernel), kernel)
