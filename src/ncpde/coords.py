"""Coordinate plumbing shared by the variational solvers.

The weak formulations pair through Re<.,.>.  The Poisson solvers work on
complex L^2 coordinates under it and apply adjoints by conjugating
vectors, (v^* W)^*, never a matrix.  The evolution, whose transport form
is only real-linear, and the Galerkin basis use real coordinates: c maps
to x = [Re c; Im c], a Hermitian H to the symmetric [[Re H, -Im H],
[Im H, Re H]], and Re<c, d> becomes the plain dot product.
"""

from __future__ import annotations

import numpy as np

from .dirichlet import DirichletSpace


def realify_vector(c: np.ndarray) -> np.ndarray:
    return np.concatenate([c.real, c.imag])


def complexify_vector(x: np.ndarray) -> np.ndarray:
    D = x.size // 2
    return x[:D] + 1j * x[D:]


def realify_operator(H: np.ndarray) -> np.ndarray:
    return np.block([[H.real, -H.imag], [H.imag, H.real]])


def perp_eigenbasis(space: DirichletSpace) -> tuple[np.ndarray, np.ndarray]:
    """(positive eigenvalues, matching orthonormal complex eigenvectors) of
    the generator off its kernel, ascending; read-only views of the space's."""
    k = space.kernel_dim
    return space.evals[k:], space.evecs[:, k:]


def energy_orthonormal_basis(space: DirichletSpace) -> np.ndarray:
    """Real (2D, 2m) basis of the kernel complement, orthonormal in the
    energy inner product: columns are [w_k / sqrt(l_k), i w_k / sqrt(l_k)]
    realified."""
    lam, W = perp_eigenbasis(space)
    return realify_vector(np.hstack([W, 1j * W]) / np.sqrt(np.concatenate([lam, lam])))


def kernel_component(space: DirichletSpace, c: np.ndarray) -> float:
    """L^2 mass of the coordinate vector c inside ker(generator)."""
    K = space.evecs[:, : space.kernel_dim]
    return float(np.linalg.norm(c.conj() @ K))     # the norm of K^* c


def project_off_kernel(space: DirichletSpace, c: np.ndarray) -> np.ndarray:
    K = space.evecs[:, : space.kernel_dim]
    return c - K @ (c.conj() @ K).conj()
