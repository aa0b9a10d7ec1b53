"""The tangent bimodule, gradient, divergence and metric pairing.

The square-integrable vector fields of a Dirichlet space are realized
concretely as a finite direct sum of L^2(tau) copies with componentwise
module actions, and the gradient is written componentwise.  The backend's
tangent frame fixes the components: one commutator [v_j, .] per matrix
generator, the two multipliers i n and i m on the torus, and one character
multiplier per active dual index on a cyclic group, whose left action is
twisted by that character (see each backend class).  With these choices the
derivation property d(ab) = d(a) b + a d(b) holds exactly and
sum_k ||d_k f||^2 reproduces the energy form.

A tangent vector is one complex array of shape (k,) + backend.shape(), the
coefficients of its k frame components in frame order.  Flattened row-major
it is the stacked L^2 coordinate vector of length k*D: the row order of
``gradient_matrix`` and the last axis of ``elliptic.NonlinearMap.func``.

The divergence is the literal Hilbert adjoint of the gradient (fixed by
the pairing <d a, h> = <a, div h>, not by a sign convention), so the
generator factorization L = div o grad holds to rounding by construction
and is verified, not assumed, by the test suite.

The metric pairing rho(h, g) = sum_j (h_j)^* g_j is a density: its trace
is the tangent inner product <h, g> (antilinear in the first slot, the
convention used for every sesquilinear map in this package) and rho(h, h)
is positive.  On gradients it coincides with the carre du champ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backends as bk
from .backends import AlgebraElement, Density
from .dirichlet import DirichletSpace, dirichlet_form


@dataclass(frozen=True, eq=False, repr=False)
class TangentVector:
    """A tangent vector over ``space``; ``data`` is its read-only coefficient
    stack in the layout of the module docstring."""

    space: DirichletSpace
    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128)   # always copy, then freeze
        shape = (tangent_components(self.space),) + self.space.backend.shape()
        if arr.shape != shape:
            raise ValueError(f"tangent coefficient shape {arr.shape} != {shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __repr__(self):
        return f"TangentVector(k={len(self.data)}, norm={hilbert_norm(self):.4g})"

    def __add__(self, other):
        _check_space(self, other)
        return TangentVector(self.space, self.data + other.data)

    def __sub__(self, other):
        _check_space(self, other)
        return TangentVector(self.space, self.data - other.data)

    def __rmul__(self, t):
        return TangentVector(self.space, complex(t) * self.data)

    def __neg__(self):
        return (-1.0) * self


def _check_space(h: TangentVector, g: TangentVector):
    if h.space is not g.space and not bk.same_backend(h.space.backend, g.space.backend):
        raise bk.BackendMismatch("tangent vectors over different spaces")


def _check_element(x: AlgebraElement, h: TangentVector):
    if not bk.same_backend(x.backend, h.space.backend):
        raise bk.BackendMismatch("element and tangent vector belong to different backends")


def zero_tangent(space: DirichletSpace) -> TangentVector:
    return TangentVector(space, np.zeros((tangent_components(space),) + space.backend.shape()))


# ---------------------------------------------------------------------------
# Frame: gradient, divergence and their matrix
# ---------------------------------------------------------------------------


def tangent_components(space: DirichletSpace) -> int:
    return space.backend.frame_size()


def gradient(space: DirichletSpace, a: AlgebraElement) -> TangentVector:
    return TangentVector(space, space.backend.derive(a.data))


def divergence(space: DirichletSpace, h: TangentVector) -> AlgebraElement:
    """Hilbert adjoint of the gradient; div o grad equals the generator."""
    return bk.element(space.backend, space.backend.codifferential(h.data))


def gradient_matrix(space: DirichletSpace) -> np.ndarray:
    """Stacked matrix of the gradient on L^2 coordinates, shape (k*D, D);
    its conjugate transpose is the divergence, so gm^H @ gm reproduces the
    generator."""
    return space.backend.frame_matrices().reshape(-1, space.dim)


# ---------------------------------------------------------------------------
# Module actions and involution
# ---------------------------------------------------------------------------


def left_act(x: AlgebraElement, h: TangentVector) -> TangentVector:
    _check_element(x, h)
    desc = h.space.backend
    return TangentVector(h.space, desc.mul_data(desc.left_multipliers(x.data), h.data)[0])


def right_act(h: TangentVector, y: AlgebraElement) -> TangentVector:
    _check_element(y, h)
    return TangentVector(h.space, h.space.backend.mul_data(h.data, y.data)[0])


def module_act(x: AlgebraElement, h: TangentVector, y: AlgebraElement) -> TangentVector:
    """x . h . y with the backend's bimodule actions."""
    return right_act(left_act(x, h), y)


def involution_j(h: TangentVector) -> TangentVector:
    """Antilinear bimodule involution with J(grad a) = grad(a^*)."""
    return TangentVector(h.space, h.space.backend.involution(h.data))


# ---------------------------------------------------------------------------
# Inner products, tensor norm, metric
# ---------------------------------------------------------------------------


def hilbert_inner(h: TangentVector, g: TangentVector) -> complex:
    """<h, g> = sum_j tau(h_j^* g_j); antilinear in the first slot."""
    _check_space(h, g)
    return complex(np.vdot(h.data, g.data))


def hilbert_norm(h: TangentVector) -> float:
    return float(np.sqrt(max(hilbert_inner(h, h).real, 0.0)))


def simple_tensor_norm_sq(space: DirichletSpace, a: AlgebraElement,
                          b: AlgebraElement) -> float:
    """Norm^2 of the elementary tensor a (x) b expressed through the energy
    form alone:  (E(a, a b b^*) + E(a b b^*, a) - E(b b^*, a^* a)) / 2.

    Equals ||grad(a) . b||^2 in the componentwise realization; agreement of
    the two evaluation routes is this module's central cross-check.
    """
    bbs = bk.mul(b, bk.adjoint(b))
    abbs = bk.mul(a, bbs)
    asa = bk.mul(bk.adjoint(a), a)
    val = (
        dirichlet_form(space, a, abbs)
        + dirichlet_form(space, abbs, a)
        - dirichlet_form(space, bbs, asa)
    )
    return float(0.5 * val.real)


def riemannian_metric(space: DirichletSpace, h: TangentVector, g: TangentVector) -> Density:
    """Density rho(h, g) = sum_j h_j^* g_j; tau(rho(h, g)) = <h, g>, and on
    gradients rho(grad a, grad b) is the carre du champ density.  The
    diagonal pairing rho(h, h) passes ``bk.require_positive``."""
    _check_space(h, g)
    desc = space.backend
    terms, leaks = desc.mul_data(desc.adjoint_data(h.data), g.data)
    rho = bk.as_density(bk.element(desc, terms.sum(0)), float(np.sum(leaks)))
    if np.array_equal(h.data, g.data):
        bk.require_positive(rho, "metric rho(h, h)")
    return rho


def random_tangent(space: DirichletSpace, rng: np.random.Generator, *,
                   radius: int | None = None) -> TangentVector:
    """One ``random_data`` draw per frame component, in frame order."""
    return TangentVector(space, [bk.random_data(space.backend, rng, radius=radius)
                                 for _ in range(tangent_components(space))])


__all__ = [
    "TangentVector",
    "divergence",
    "gradient",
    "gradient_matrix",
    "hilbert_inner",
    "hilbert_norm",
    "involution_j",
    "left_act",
    "module_act",
    "random_tangent",
    "riemannian_metric",
    "right_act",
    "simple_tensor_norm_sq",
    "tangent_components",
    "zero_tangent",
]
