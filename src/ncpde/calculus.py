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
The metric and the tensor norm act on stacks of such arrays; the functions
on single vectors wrap them, and ``calculus_check`` runs them on a battery.

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

import functools
from dataclasses import dataclass

import numpy as np

from . import backends as bk
from .backends import AlgebraElement
from .dirichlet import DirichletSpace, _l2_generator, element_data, form_data
from .reports import Report, check_ge, check_le


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

    def __rmul__(self, t):
        return TangentVector(self.space, complex(t) * self.data)


def _check_space(h: TangentVector, g: TangentVector):
    if h.space is not g.space and not bk.same_backend(h.space.backend, g.space.backend):
        raise bk.BackendMismatch("tangent vectors over different spaces")


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
    """Stacked matrix of the gradient on L^2 coordinates, shape (k*D, D):
    column j is ``derive`` of the basis vector e_j.  Its conjugate transpose
    is the divergence, so gm^H @ gm reproduces the generator."""
    desc, D = space.backend, space.dim
    grads = desc.derive(np.eye(D, dtype=np.complex128).reshape((D,) + desc.shape()))
    return grads.reshape(D, tangent_components(space) * D).T


# ---------------------------------------------------------------------------
# Module actions and involution
# ---------------------------------------------------------------------------


def left_act(x: AlgebraElement, h: TangentVector) -> TangentVector:
    desc = h.space.backend
    X = desc.left_multipliers(element_data(h.space, x))
    return TangentVector(h.space, desc.mul_data(X, h.data)[0])


def right_act(h: TangentVector, y: AlgebraElement) -> TangentVector:
    return TangentVector(h.space, h.space.backend.mul_data(h.data, element_data(h.space, y))[0])


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


def _tensor_norm_sq(space: DirichletSpace, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``simple_tensor_norm_sq`` on coefficient stacks."""
    desc = space.backend
    bbs = desc.mul_data(B, desc.adjoint_data(B))[0]
    abbs = desc.mul_data(A, bbs)[0]
    asa = desc.mul_data(desc.adjoint_data(A), A)[0]
    val = form_data(space, A, abbs) + form_data(space, abbs, A) - form_data(space, bbs, asa)
    return 0.5 * val.real


def simple_tensor_norm_sq(space: DirichletSpace, a: AlgebraElement,
                          b: AlgebraElement) -> float:
    """Norm^2 of the elementary tensor a (x) b expressed through the energy
    form alone:  (E(a, a b b^*) + E(a b b^*, a) - E(b b^*, a^* a)) / 2.

    Equals ||grad(a) . b||^2 in the componentwise realization; agreement of
    the two evaluation routes is this module's central cross-check.
    """
    return float(_tensor_norm_sq(space, element_data(space, a), element_data(space, b)))


def _metric(desc: bk.Descriptor, H: np.ndarray, G: np.ndarray):
    """rho(h, g) and the L^2 mass its products truncated, on tangent stacks."""
    terms, leaks = desc.mul_data(desc.adjoint_data(H), G)
    return terms.sum(desc.frame_axis()), leaks.sum(-1)


def riemannian_metric(space: DirichletSpace, h: TangentVector, g: TangentVector) -> AlgebraElement:
    """The density rho(h, g) = sum_j h_j^* g_j; tau(rho(h, g)) = <h, g>, and
    on gradients rho(grad a, grad b) is the carre du champ.  The leak-free
    diagonal pairing rho(h, h) passes ``bk.require_positive_data``."""
    _check_space(h, g)
    desc = space.backend
    rho, leak = _metric(desc, h.data, g.data)
    if np.array_equal(h.data, g.data):
        bk.require_positive_data(desc, rho, bk.witness_data(desc, rho), leak, "metric rho(h, h)")
    return bk.element(desc, rho)


def random_tangent(space: DirichletSpace, rng: np.random.Generator, *,
                   radius: int | None = None) -> TangentVector:
    """One ``random_data`` stack of the k frame components, in frame order."""
    k = tangent_components(space)
    return TangentVector(space, bk.random_data(space.backend, rng, (k,), radius=radius))


# ---------------------------------------------------------------------------
# Verification battery
# ---------------------------------------------------------------------------


def calculus_check(space: DirichletSpace, rng: np.random.Generator, battery: int = 50,
                   radius: int | None = None, tol: float = 1e-10) -> Report:
    """The identities of this module, each as its worst case over ``battery``
    random triples (a, b, h) drawn as one ``random_data`` stack
    (battery, 2 + k) + shape: a, b, then the k components of h.  The metric
    rho(h, h) of the whole stack passes ``bk.require_positive_data``.
    ``generator_factorization`` is div o grad = L, ``codifferential`` of
    ``derive`` of the (D, *shape) identity stack against L on the identity,
    the frame operators every solver runs."""
    desc = space.backend
    norm = functools.partial(bk.norm_data, desc)
    report = Report(kind="calculus-check", extra={"battery": battery, "radius": radius})
    # a backend with a default radius bounds supports by it; radius 0 leaves constants
    if radius == 0 and desc.default_radius() is not None:
        report.flags.append(
            "degenerate battery: triple products need level >= 3 for nonconstant supports")
    eye = np.eye(space.dim, dtype=np.complex128)
    div_grad = desc.codifferential(desc.derive(eye.reshape((space.dim,) + desc.shape())))
    gen = _l2_generator(space, eye)   # row j is L e_j, as is row j of div_grad
    z = bk.random_data(desc, rng, (battery, 2 + tangent_components(space)), radius=radius)
    A, B, H = z[:, 0], z[:, 1], z[:, 2:]

    def inner(X, Y):   # per battery entry
        return np.sum(X.conj() * Y, axis=tuple(range(1, X.ndim)))

    grad_a, grad_b = desc.derive(A), desc.derive(B)
    grad_a_b = desc.mul_data(grad_a, np.expand_dims(B, desc.frame_axis()))[0]
    a_grad_b = desc.mul_data(desc.left_multipliers(A), grad_b)[0]
    rhs = grad_a_b + a_grad_b
    ip, e = inner(grad_a, H), form_data(space, A, B)
    tb, nh2 = inner(grad_a_b, grad_a_b).real, inner(H, H).real
    rho, leak = _metric(desc, H, H)
    witness = bk.witness_data(desc, rho)
    bk.require_positive_data(desc, rho, witness, leak, "metric rho(h, h)")
    checks = [
        ("generator_factorization", np.linalg.norm(bk.l2_coords(desc, div_grad) - gen)
         / max(np.linalg.norm(gen), 1e-300), 1e-10),
        ("leibniz", (norm(desc.derive(desc.mul_data(A, B)[0]) - rhs) / np.maximum(
            norm(grad_a_b) + norm(a_grad_b), 1.0)).max(-1, initial=0.0), 1e-10),
        ("gradient_divergence_adjointness",
         abs(ip - inner(A, desc.codifferential(H))) / np.maximum(abs(ip), 1.0), 1e-10),
        ("energy_identity", abs(inner(grad_a, grad_b) - e) / np.maximum(abs(e), 1.0), 1e-10),
        ("tensor_norm_agreement", abs(_tensor_norm_sq(space, A, B) - tb) / (1.0 + tb), 1e-9),
        ("metric_trace_pairing", abs(bk.trace_data(desc, rho).real - nh2) / (1.0 + nh2), 1e-10),
        ("involution_vs_gradient", norm(desc.involution(grad_a) - desc.derive(
            desc.adjoint_data(A))).max(-1, initial=0.0) / np.maximum(norm(A), 1.0), 1e-10),
    ]
    report.checks += [check_le(name, np.max(v, initial=0.0), bound) for name, v, bound in checks]
    scaled = witness / np.maximum(norm(rho), 1.0)
    if not np.all(np.isnan(scaled)):   # reported before the involution check
        report.checks.insert(-1, check_ge("metric_psd_witness", np.nanmin(scaled), -tol))
    return report
