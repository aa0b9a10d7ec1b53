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
    space: DirichletSpace
    parts: tuple[AlgebraElement, ...]

    def __post_init__(self):
        expected = tangent_components(self.space)
        if len(self.parts) != expected:
            raise ValueError(f"expected {expected} components, got {len(self.parts)}")
        for p in self.parts:
            if not bk.same_backend(p.backend, self.space.backend):
                raise bk.BackendMismatch("component belongs to a different backend")

    def __repr__(self):
        return f"TangentVector(k={len(self.parts)}, norm={hilbert_norm(self):.4g})"

    def __add__(self, other):
        _check_space(self, other)
        return TangentVector(self.space, tuple(a + b for a, b in zip(self.parts, other.parts)))

    def __sub__(self, other):
        _check_space(self, other)
        return TangentVector(self.space, tuple(a - b for a, b in zip(self.parts, other.parts)))

    def __rmul__(self, t):
        return TangentVector(self.space, tuple(bk.scale(t, p) for p in self.parts))

    def __neg__(self):
        return (-1.0) * self


def _check_space(h: TangentVector, g: TangentVector):
    if h.space is not g.space and not bk.same_backend(h.space.backend, g.space.backend):
        raise bk.BackendMismatch("tangent vectors over different spaces")


def zero_tangent(space: DirichletSpace) -> TangentVector:
    z = bk.zero(space.backend)
    return TangentVector(space, tuple(z for _ in range(tangent_components(space))))


# ---------------------------------------------------------------------------
# Frame: gradient, divergence and their matrix
# ---------------------------------------------------------------------------


def tangent_components(space: DirichletSpace) -> int:
    return space.backend.frame_size()


def gradient(space: DirichletSpace, a: AlgebraElement) -> TangentVector:
    desc = space.backend
    return TangentVector(space, tuple(bk.element(desc, P) for P in desc.derive(a.data)))


def divergence(space: DirichletSpace, h: TangentVector) -> AlgebraElement:
    """Hilbert adjoint of the gradient; div o grad equals the generator."""
    desc = space.backend
    return bk.element(desc, desc.codifferential([p.data for p in h.parts]))


def gradient_matrix(space: DirichletSpace) -> np.ndarray:
    """Stacked matrix of the gradient on L^2 coordinates, shape (k*D, D);
    its conjugate transpose is the divergence, so gm^H @ gm reproduces the
    generator."""
    mats = space.backend.frame_matrices()
    return np.array(mats, dtype=np.complex128).reshape(len(mats) * space.dim, space.dim)


# ---------------------------------------------------------------------------
# Module actions and involution
# ---------------------------------------------------------------------------


def left_act(x: AlgebraElement, h: TangentVector) -> TangentVector:
    desc = h.space.backend
    if not bk.same_backend(x.backend, desc):
        raise bk.BackendMismatch("element and tangent vector belong to different backends")
    parts = tuple(
        bk.mul(bk.AlgebraElement(desc, X), p)
        for X, p in zip(desc.left_multipliers(x.data), h.parts)
    )
    return TangentVector(h.space, parts)


def right_act(h: TangentVector, y: AlgebraElement) -> TangentVector:
    return TangentVector(h.space, tuple(bk.mul(p, y) for p in h.parts))


def module_act(x: AlgebraElement, h: TangentVector, y: AlgebraElement) -> TangentVector:
    """x . h . y with the backend's bimodule actions."""
    return right_act(left_act(x, h), y)


def involution_j(h: TangentVector) -> TangentVector:
    """Antilinear bimodule involution with J(grad a) = grad(a^*)."""
    desc = h.space.backend
    parts = desc.involution([p.data for p in h.parts])
    return TangentVector(h.space, tuple(bk.element(desc, P) for P in parts))


# ---------------------------------------------------------------------------
# Inner products, tensor norm, metric
# ---------------------------------------------------------------------------


def hilbert_inner(h: TangentVector, g: TangentVector) -> complex:
    """<h, g> = sum_j tau(h_j^* g_j); antilinear in the first slot."""
    _check_space(h, g)
    return complex(sum(bk.inner_l2(a, b) for a, b in zip(h.parts, g.parts)))


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
    acc = bk.zero(space.backend)
    leak = 0.0
    for p, q in zip(h.parts, g.parts):
        term, l = bk.mul_with_loss(bk.adjoint(p), q)
        acc = bk.add(acc, term)
        leak += l
    rho = bk.as_density(acc, leak)
    if all(np.array_equal(p.data, q.data) for p, q in zip(h.parts, g.parts)):
        bk.require_positive(rho, "metric rho(h, h)")
    return rho


def random_tangent(space: DirichletSpace, rng: np.random.Generator, *,
                   radius: int | None = None) -> TangentVector:
    parts = tuple(
        bk.random_element(space.backend, rng, radius=radius)
        for _ in range(tangent_components(space))
    )
    return TangentVector(space, parts)


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
