"""Real-coordinate plumbing shared by the variational solvers.

The weak formulations pair everything through Re<.,.>, so the solvers work
over real coordinates: a complex L^2 coordinate vector c of length D maps
to x = [Re c; Im c] of length 2D, and a Hermitian operator H maps to the
symmetric block matrix [[Re H, -Im H], [Im H, Re H]].  Under this map
Re<c, d> becomes the plain dot product.
"""

from __future__ import annotations

import numpy as np

from . import backends as bk
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
    the generator off its kernel, ascending."""
    k = space.kernel_dim
    return space.evals[k:].copy(), space.evecs[:, k:].copy()


def energy_orthonormal_basis(space: DirichletSpace) -> np.ndarray:
    """Real (2D, 2m) basis of the kernel complement, orthonormal in the
    energy inner product: columns are [w_k / sqrt(l_k), i w_k / sqrt(l_k)]
    realified."""
    lam, W = perp_eigenbasis(space)
    return realify_vector(np.hstack([W, 1j * W]) / np.sqrt(np.concatenate([lam, lam])))


def kernel_component(space: DirichletSpace, c: np.ndarray) -> float:
    """L^2 mass of the coordinate vector c inside ker(generator)."""
    K = space.evecs[:, : space.kernel_dim]
    return float(np.linalg.norm(K.conj().T @ c))


def project_off_kernel(space: DirichletSpace, c: np.ndarray) -> np.ndarray:
    K = space.evecs[:, : space.kernel_dim]
    return c - K @ (K.conj().T @ c)


def element_from_real(space: DirichletSpace, x: np.ndarray) -> bk.AlgebraElement:
    return bk.from_l2(space.backend, complexify_vector(x))
