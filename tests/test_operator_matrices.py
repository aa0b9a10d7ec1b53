"""The closed-form operator matrices (left multiplication, irrational-theta
``represent``, ``gradient_matrix`` and the evolution transport matrix)
against the basis-vector loops in conftest, and the tangent layout against
the rows of ``gradient_matrix``, at sizes beyond the corpus."""

import numpy as np
import pytest

from ncpde import backends as bk
from ncpde import calculus as ca
from ncpde import evolution as ev
from ncpde.dirichlet import build_space
from conftest import (
    backend_from_spec,
    loop_gradient_matrix,
    loop_lmul,
    loop_transport_matrix,
    make_rng,
)

RTOL = 1e-12


SPECS = ([("torus", n) for n in range(2, 7)] + [("rational", 2)]
         + [("cyclic", q) for q in (16, 32, 64)]
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


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_gradient_matrix_matches_loop_and_factorizes_generator(spec):
    space = build_space(backend_from_spec(spec))
    gm = ca.gradient_matrix(space)
    assert _rel(gm, loop_gradient_matrix(space)) <= RTOL
    assert _rel(gm.conj().T @ gm, space.generator) <= RTOL


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
    assert _rel(ev._transport_matrix(space, h), loop_transport_matrix(space, h)) <= RTOL
