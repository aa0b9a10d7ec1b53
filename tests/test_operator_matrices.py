"""The closed-form operator matrices (left multiplication, irrational-theta
``represent``, ``gradient_matrix`` and the evolution transport matrix)
against the basis-vector loops in conftest, the tangent layout against
the rows of ``gradient_matrix``, and the backend products, left
multiplication, representation and frame on stacks against one call per
entry, at sizes beyond the corpus."""

import math

import numpy as np
import pytest

from ncpde import backends as bk
from ncpde import calculus as ca
from ncpde import coords as co
from ncpde import evolution as ev
from ncpde.dirichlet import build_space
from conftest import (
    backend_from_spec,
    dense_form,
    loop_gradient_matrix,
    loop_lmul,
    loop_transport_matrix,
    make_rng,
)

RTOL = 1e-12


SPECS = ([("torus", n) for n in range(2, 7)] + [("rational", 2)]
         + [("cyclic", q) for q in (16, 32, 64)] + [("flat", 4)]
         + [("matrix", n) for n in range(2, 6)])
IDS = [f"{kind}{size}" for kind, size in SPECS]


def _rel(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_left_multiplication_matrix_matches_product_loop(spec):
    desc = backend_from_spec(spec)
    a = bk.random_element(desc, make_rng(510))
    want = loop_lmul(a)
    assert _rel(desc.lmul(a.data), want) <= RTOL
    if not desc.rep_is_exact():
        assert _rel(bk.represent(a), want) <= RTOL


# leading shapes of A and B in mul_data: stack x single, single x stack,
# stack x stack and a broadcast grid x stack
LEADS = [((3,), ()), ((), (3,)), ((3,), (3,)), ((2, 1), (3,))]


def _draws(desc, rng, lead):
    return np.array([bk.random_data(desc, rng) for _ in range(math.prod(lead))]
                    ).reshape(lead + desc.shape())


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_products_and_left_multiplication_act_on_stacks(spec):
    desc = backend_from_spec(spec)
    rng = make_rng(540)
    for lead_a, lead_b in LEADS:
        A, B = _draws(desc, rng, lead_a), _draws(desc, rng, lead_b)
        lead = np.broadcast_shapes(lead_a, lead_b)
        prods, losses = desc.mul_data(A, B)
        assert prods.shape == lead + desc.shape() and np.shape(losses) == lead
        A, B = np.broadcast_to(A, prods.shape), np.broadcast_to(B, prods.shape)
        for idx in np.ndindex(lead):
            want, want_loss = desc.mul_data(A[idx], B[idx])
            assert _rel(prods[idx], want) <= 1e-14
            assert abs(losses[idx] - want_loss) <= 1e-14 * want_loss
    S = _draws(desc, rng, (3,))
    assert _rel(desc.lmul(S), np.array([desc.lmul(X) for X in S])) <= 1e-14
    # representation, its inverse and the frame: one call on a stack is one
    # call per entry, the frame axis sitting just before the coefficient axes
    reps = desc.represent(S)
    assert _rel(reps, np.array([desc.represent(X) for X in S])) <= 1e-14
    if desc.rep_is_exact():
        assert _rel(desc.element_from_matrix(reps),
                    np.array([desc.element_from_matrix(R) for R in reps])) <= 1e-14
    k = desc.frame_size()
    grads = desc.derive(S)
    assert grads.shape == (3, k) + desc.shape()
    assert _rel(grads, np.array([desc.derive(X) for X in S])) <= 1e-14
    T = _draws(desc, rng, (2, 3, k))
    for name in ("codifferential", "involution"):
        got, op = getattr(desc, name)(T), getattr(desc, name)
        want = np.array([op(H) for H in T.reshape((6, k) + desc.shape())])
        assert _rel(got, want.reshape(got.shape)) <= 1e-14
    assert desc.codifferential(T).shape == (2, 3) + desc.shape()


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_gradient_matrix_matches_loop_and_factorizes_generator(spec):
    space = build_space(backend_from_spec(spec))
    gm = ca.gradient_matrix(space)
    assert _rel(gm, loop_gradient_matrix(space)) <= RTOL
    assert _rel(gm.conj().T @ gm, dense_form(space)[0]) <= RTOL


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_tangent_layout_is_gradient_matrix_row_order(spec):
    space = build_space(backend_from_spec(spec))
    rng = make_rng(530)
    a = bk.random_element(space.backend, rng)
    h = ca.random_tangent(space, rng)
    gm = ca.gradient_matrix(space)
    assert _rel(ca.gradient(space, a).data.reshape(-1), gm @ bk.to_l2(a)) <= 1e-14
    assert _rel(bk.to_l2(ca.divergence(space, h)), gm.conj().T @ h.data.reshape(-1)) <= 1e-14


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_transport_matrix_matches_loop(spec):
    space = build_space(backend_from_spec(spec))
    h = ca.random_tangent(space, make_rng(520))
    # the complex matrix, realified, is the real block of the transport form:
    # the form is complex-linear in u
    T = co.realify_operator(ev._transport_matrix(space, h))
    assert _rel(T, loop_transport_matrix(space, h)) <= RTOL
