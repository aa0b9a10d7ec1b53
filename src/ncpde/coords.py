"""The real form of complex operators on L^2 coordinates, for test oracles."""

from __future__ import annotations

import numpy as np


def realify_operator(H: np.ndarray) -> np.ndarray:
    """The real (2D, 2D) matrix of H acting on [Re c; Im c].  No solver calls
    it: the test oracles check the complex solvers in this real form, and a
    per-layer metric of BENCHMARK.json counts its calls."""
    return np.block([[H.real, -H.imag], [H.imag, H.real]])
