import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpde import backends as bk
from ncpde import calculus as ca
from ncpde import dirichlet as dr
from conftest import (SIGMA_X, SIGMA_Y, SIGMA_Z, assert_elem_close, backend_from_spec,
                      count_rep_eigvalsh, dense_form, make_rng)


def tangent_close(h, g, tol=1e-12, scale=1.0):
    num = max(np.linalg.norm(a - b) for a, b in zip(h.data, g.data))
    assert num <= tol * scale, f"tangent vectors differ by {num:.3e}"


# spaces exercised nearly everywhere: (space, torus support radius for
# leak-free triple products)
def all_spaces(qubit_space, torus3_space, z4_space, z5_space):
    return [
        (qubit_space, None),
        (torus3_space, 1),
        (z4_space, None),
        (z5_space, None),
    ]


# backends beyond the corpus sizes with their support radius, extra inputs to
# the paper identities; the word-length cyclic backend has many frame
# components, which exercises the index of each component's J partner
SCALE_SPECS = [(("torus", 6), 2), (("torus", 8), 2), (("cyclic", 64), None), (("matrix", 6), None)]


@pytest.fixture(scope="module")
def scale_spaces():
    return [(dr.build_space(backend_from_spec(spec)), rad) for spec, rad in SCALE_SPECS]


# ---------------------------------------------------------------------------
# Gradient
# ---------------------------------------------------------------------------


def test_gradient_of_unit_vanishes(torus2_space):
    g = ca.gradient(torus2_space, bk.unit(torus2_space.backend))
    assert all(np.linalg.norm(p) == 0.0 for p in g.data)


def test_gradient_of_u(torus2, torus2_space):
    g = ca.gradient(torus2_space, bk.monomial(torus2, 1, 0))
    assert_elem_close(bk.element(torus2, g.data[0]), bk.monomial(torus2, 1, 0, 1j), tol=1e-14)
    assert np.linalg.norm(g.data[1]) == 0.0


def test_gradient_qubit_commutator(qubit, qubit_space):
    expected = SIGMA_Z @ SIGMA_X - SIGMA_X @ SIGMA_Z   # = 2 i sigma_y
    assert np.allclose(expected, 2j * SIGMA_Y)
    g = ca.gradient(qubit_space, bk.element(qubit, SIGMA_X))
    assert np.allclose(g.data[0], expected)


def test_leibniz_rule(qubit_space, torus3_space, z4_space, z5_space, scale_spaces):
    rng = make_rng(60)
    for sp, _ in all_spaces(qubit_space, torus3_space, z4_space, z5_space) + scale_spaces:
        for _ in range(100):
            a = bk.random_element(sp.backend, rng)
            b = bk.random_element(sp.backend, rng)
            lhs = ca.gradient(sp, bk.mul(a, b))
            rhs = ca.right_act(ca.gradient(sp, a), b) + ca.left_act(a, ca.gradient(sp, b))
            tangent_close(lhs, rhs, tol=1e-10,
                          scale=max(bk.norm_l2(a) * bk.norm_l2(b), 1.0))


# ---------------------------------------------------------------------------
# Divergence
# ---------------------------------------------------------------------------


def test_divergence_inverts_gradient_on_u(torus2, torus2_space):
    U = bk.monomial(torus2, 1, 0)
    assert_elem_close(ca.divergence(torus2_space, ca.gradient(torus2_space, U)), U, tol=1e-14)


def test_divergence_of_zero(torus2_space):
    assert bk.norm_l2(ca.divergence(torus2_space, ca.zero_tangent(torus2_space))) == 0.0


def test_divergence_qubit_commutator(qubit, qubit_space):
    expected = SIGMA_Z @ SIGMA_Y - SIGMA_Y @ SIGMA_Z   # = -2 i sigma_x
    assert np.allclose(expected, -2j * SIGMA_X)
    h = ca.TangentVector(qubit_space, [SIGMA_Y])
    assert np.allclose(ca.divergence(qubit_space, h).data, expected)


def test_tangent_vector_shape_is_checked(qubit_space):
    # the qubit has one frame component: a stack of two does not fit
    with pytest.raises(ValueError, match=r"tangent coefficient shape \(2, 2, 2\) != \(1, 2, 2\)"):
        ca.TangentVector(qubit_space, [SIGMA_X, SIGMA_Y])


def test_adjoint_identity(qubit_space, torus3_space, z4_space, z5_space):
    rng = make_rng(61)
    for sp, _ in all_spaces(qubit_space, torus3_space, z4_space, z5_space):
        for _ in range(30):
            a = bk.random_element(sp.backend, rng)
            h = ca.random_tangent(sp, rng)
            lhs = ca.hilbert_inner(ca.gradient(sp, a), h)
            rhs = bk.inner_l2(a, ca.divergence(sp, h))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_generator_factorization(qubit_space, pair3_space, torus2_space, z4_space, z5_space,
                                 scale_spaces):
    for sp in (qubit_space, pair3_space, torus2_space, z4_space, z5_space,
               *(sp for sp, _ in scale_spaces)):
        gm = ca.gradient_matrix(sp)
        gen = dense_form(sp)[0]
        rel = np.linalg.norm(gm.conj().T @ gm - gen) / np.linalg.norm(gen)
        assert rel <= 1e-10


def test_calculus_check_factorization_is_the_defect_of_div_grad(qubit_space, pair3_space,
                                                                 torus2_space, z5_space):
    # calculus_check reads div o grad off derive and codifferential; against a
    # space holding 2 L its relative defect is ||L - 2L|| / ||2L|| = 1/2, as the
    # gradient-matrix oracle says, and against L itself both are at rounding
    for sp in (qubit_space, pair3_space, torus2_space, z5_space):
        doubled = dr.space_from_matrix(sp.backend, 2.0 * sp.generator)
        for space, want in ((sp, 0.0), (doubled, 0.5)):
            report = ca.calculus_check(space, make_rng(63), battery=2)
            check = next(c for c in report.checks if c.name == "generator_factorization")
            gm, gen = ca.gradient_matrix(space), dense_form(space)[0]
            oracle = np.linalg.norm(gm.conj().T @ gm - gen) / np.linalg.norm(gen)
            assert abs(check.value - want) <= 1e-14 and abs(oracle - want) <= 1e-14
            assert check.passed == (want == 0.0)


def test_energy_identity(qubit_space, torus3_space, z4_space, z5_space):
    rng = make_rng(62)
    for sp, _ in all_spaces(qubit_space, torus3_space, z4_space, z5_space):
        for _ in range(30):
            a = bk.random_element(sp.backend, rng)
            b = bk.random_element(sp.backend, rng)
            lhs = ca.hilbert_inner(ca.gradient(sp, a), ca.gradient(sp, b))
            rhs = dr.dirichlet_form(sp, a, b)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


# ---------------------------------------------------------------------------
# Module actions
# ---------------------------------------------------------------------------


def test_unit_sandwich_is_identity(qubit_space, torus3_space, z4_space, z5_space):
    rng = make_rng(63)
    for sp, rad in all_spaces(qubit_space, torus3_space, z4_space, z5_space):
        h = ca.random_tangent(sp, rng, radius=rad)
        one = bk.unit(sp.backend)
        tangent_close(ca.module_act(one, h, one), h, tol=1e-14,
                      scale=max(ca.hilbert_norm(h), 1.0))


def test_action_associativity(qubit_space, z5_space):
    rng = make_rng(64)
    for sp in (qubit_space, z5_space):
        x = bk.random_element(sp.backend, rng)
        y = bk.random_element(sp.backend, rng)
        h = ca.random_tangent(sp, rng)
        lhs = ca.left_act(bk.mul(x, y), h)
        rhs = ca.left_act(x, ca.left_act(y, h))
        tangent_close(lhs, rhs, tol=1e-10, scale=ca.hilbert_norm(h) + 1.0)


def test_gradient_action_matches_tensor_norm(torus2, torus2_space):
    # || grad(U) . V || must equal the energy-form tensor norm of U (x) V
    U, V = bk.monomial(torus2, 1, 0), bk.monomial(torus2, 0, 1)
    via_action = ca.hilbert_norm(ca.right_act(ca.gradient(torus2_space, U), V)) ** 2
    via_form = ca.simple_tensor_norm_sq(torus2_space, U, V)
    assert via_action == pytest.approx(via_form, abs=1e-12)


def test_qubit_action_is_literal_matrix_product(qubit, qubit_space):
    h = ca.gradient(qubit_space, bk.element(qubit, SIGMA_X))
    acted = ca.left_act(bk.element(qubit, SIGMA_X), h)
    assert np.allclose(acted.data[0], SIGMA_X @ (2j * SIGMA_Y))


def test_module_contractivity(qubit_space, torus3_space, z4_space, z5_space):
    rng = make_rng(65)
    for sp, rad in all_spaces(qubit_space, torus3_space, z4_space, z5_space):
        for _ in range(10):
            a = bk.random_element(sp.backend, rng, radius=rad)
            h = ca.random_tangent(sp, rng, radius=rad)
            bound = bk.operator_norm(a) * ca.hilbert_norm(h) + 1e-10
            assert ca.hilbert_norm(ca.left_act(a, h)) <= bound
            assert ca.hilbert_norm(ca.right_act(h, a)) <= bound


# ---------------------------------------------------------------------------
# Involution
# ---------------------------------------------------------------------------


def test_involution_intertwines_gradient_and_star(
        qubit_space, torus3_space, z4_space, z5_space, scale_spaces):
    rng = make_rng(66)
    for sp, _ in all_spaces(qubit_space, torus3_space, z4_space, z5_space) + scale_spaces:
        for _ in range(20):
            a = bk.random_element(sp.backend, rng)
            tangent_close(ca.involution_j(ca.gradient(sp, a)),
                          ca.gradient(sp, bk.adjoint(a)),
                          tol=1e-12, scale=max(bk.norm_l2(a), 1.0))


def test_involution_is_involutive(qubit_space, torus3_space, z4_space, z5_space):
    rng = make_rng(67)
    for sp, rad in all_spaces(qubit_space, torus3_space, z4_space, z5_space):
        h = ca.random_tangent(sp, rng, radius=rad)
        tangent_close(ca.involution_j(ca.involution_j(h)), h, tol=1e-13,
                      scale=max(ca.hilbert_norm(h), 1.0))


def test_involution_is_antilinear(z5_space):
    rng = make_rng(68)
    h = ca.random_tangent(z5_space, rng)
    t = 0.7 - 1.3j
    lhs = ca.involution_j(t * h)
    rhs = np.conj(t) * ca.involution_j(h)
    tangent_close(lhs, rhs, tol=1e-12, scale=ca.hilbert_norm(h))


def test_involution_bimodule_identity(qubit_space, torus3_space, z4_space, z5_space):
    rng = make_rng(69)
    for sp, rad in all_spaces(qubit_space, torus3_space, z4_space, z5_space):
        for _ in range(20):
            x = bk.random_element(sp.backend, rng, radius=rad)
            y = bk.random_element(sp.backend, rng, radius=rad)
            h = ca.random_tangent(sp, rng, radius=rad)
            lhs = ca.involution_j(ca.module_act(x, h, y))
            rhs = ca.module_act(bk.adjoint(y), ca.involution_j(h), bk.adjoint(x))
            tangent_close(lhs, rhs, tol=1e-10,
                          scale=(bk.norm_l2(x) + 1) * (bk.norm_l2(y) + 1) * (ca.hilbert_norm(h) + 1))


def test_involution_qubit_componentwise_formula(qubit, qubit_space):
    rng = make_rng(70)
    m = bk.random_element(qubit, rng)
    h = ca.TangentVector(qubit_space, [m.data])
    assert np.allclose(ca.involution_j(h).data[0], -m.data.conj().T)
    # consistency: sigma_x self-adjoint so J fixes its gradient
    g = ca.gradient(qubit_space, bk.element(qubit, SIGMA_X))
    tangent_close(ca.involution_j(g), g, tol=1e-14)


# ---------------------------------------------------------------------------
# Tensor norm from the energy form
# ---------------------------------------------------------------------------


def test_tensor_norm_with_unit_right_leg_is_energy(torus2, torus2_space):
    val = ca.simple_tensor_norm_sq(torus2_space, bk.monomial(torus2, 1, 0), bk.unit(torus2))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_tensor_norm_with_unit_left_leg_vanishes(torus2, torus2_space):
    rng = make_rng(71)
    b = bk.random_element(torus2, rng, radius=1)
    assert ca.simple_tensor_norm_sq(torus2_space, bk.unit(torus2), b) == pytest.approx(0.0, abs=1e-12)


def test_tensor_norm_two_routes_agree(qubit_space, torus3_space, z4_space, z5_space,
                                      scale_spaces):
    rng = make_rng(72)
    for sp, rad in all_spaces(qubit_space, torus3_space, z4_space, z5_space) + scale_spaces:
        for _ in range(50):
            a = bk.random_element(sp.backend, rng, radius=rad)
            b = bk.random_element(sp.backend, rng, radius=rad)
            via_form = ca.simple_tensor_norm_sq(sp, a, b)
            via_parts = ca.hilbert_norm(ca.right_act(ca.gradient(sp, a), b)) ** 2
            assert abs(via_form - via_parts) <= 1e-9 * (1.0 + via_parts)


# ---------------------------------------------------------------------------
# Metric pairing
# ---------------------------------------------------------------------------


def test_metric_on_gradient_of_u(torus2, torus2_space):
    g = ca.gradient(torus2_space, bk.monomial(torus2, 1, 0))
    rho = ca.riemannian_metric(torus2_space, g, g)
    assert_elem_close(rho, bk.unit(torus2), tol=1e-14)
    assert bk.trace(rho).real == pytest.approx(1.0)


def test_metric_with_zero_argument(torus2_space):
    rng = make_rng(73)
    h = ca.random_tangent(torus2_space, rng, radius=1)
    rho = ca.riemannian_metric(torus2_space, h, ca.zero_tangent(torus2_space))
    assert bk.norm_l2(rho) == 0.0


def test_metric_trace_is_tangent_inner_product(
        qubit_space, torus3_space, z4_space, z5_space, scale_spaces):
    rng = make_rng(74)
    for sp, rad in all_spaces(qubit_space, torus3_space, z4_space, z5_space) + scale_spaces:
        for _ in range(30):
            h = ca.random_tangent(sp, rng, radius=rad)
            g = ca.random_tangent(sp, rng, radius=rad)
            rho = ca.riemannian_metric(sp, h, g)
            assert abs(bk.trace(rho) - ca.hilbert_inner(h, g)) <= 1e-10 * (
                1.0 + ca.hilbert_norm(h) * ca.hilbert_norm(g))


def test_metric_positive_on_diagonal(qubit_space, torus3_space, z4_space, z5_space):
    rng = make_rng(75)
    for sp, rad in all_spaces(qubit_space, torus3_space, z4_space, z5_space):
        for _ in range(20):
            h = ca.random_tangent(sp, rng, radius=rad)
            rho = ca.riemannian_metric(sp, h, h)
            witness = float(bk.witness_data(sp.backend, rho.data))
            assert not math.isnan(witness)
            assert witness >= -1e-10 * max(bk.norm_l2(rho), 1.0)


def test_only_the_diagonal_metric_computes_a_witness(
        monkeypatch, qubit_space, torus2_space, z4_space):
    rng = make_rng(82)
    for sp in (qubit_space, torus2_space, z4_space):
        calls = count_rep_eigvalsh(monkeypatch, sp.backend)
        h, g = (ca.random_tangent(sp, rng) for _ in range(2))
        ca.riemannian_metric(sp, h, g)
        assert calls == []                  # rho(h, g): no witness
        ca.riemannian_metric(sp, h, h)
        assert len(calls) == 1
    # a corrupted witness of a leak-free rho(h, h) trips the gate
    h = ca.random_tangent(qubit_space, rng)
    count_rep_eigvalsh(monkeypatch, qubit_space.backend, shift=-1e3)
    with pytest.raises(bk.NotPositive, match="metric rho"):
        ca.riemannian_metric(qubit_space, h, h)


def test_metric_on_simple_tensors_matches_sandwiched_gamma(qubit, qubit_space):
    # rho(grad(a) . b, grad(c) . d) == b^* Gamma(a, c) d, two independent routes
    rng = make_rng(76)
    for _ in range(20):
        a, b, c, d = (bk.random_element(qubit, rng) for _ in range(4))
        lhs = ca.riemannian_metric(
            qubit_space,
            ca.right_act(ca.gradient(qubit_space, a), b),
            ca.right_act(ca.gradient(qubit_space, c), d),
        )
        gamma = dr.carre_du_champ(qubit_space, a, c)
        rhs = bk.mul(bk.mul(bk.adjoint(b), gamma), d)
        assert_elem_close(lhs, rhs, tol=1e-11)


def test_metric_on_gradients_is_carre_du_champ(
        qubit_space, torus3_space, z4_space, z5_space):
    rng = make_rng(77)
    for sp, rad in all_spaces(qubit_space, torus3_space, z4_space, z5_space):
        a = bk.random_element(sp.backend, rng, radius=rad)
        b = bk.random_element(sp.backend, rng, radius=rad)
        rho = ca.riemannian_metric(sp, ca.gradient(sp, a), ca.gradient(sp, b))
        gam = dr.carre_du_champ(sp, a, b)
        assert_elem_close(rho, gam, tol=1e-11)


def test_metric_sesquilinearity_and_symmetry(z5_space):
    rng = make_rng(78)
    sp = z5_space
    h = ca.random_tangent(sp, rng)
    g = ca.random_tangent(sp, rng)
    t, s = 1.2 - 0.4j, -0.3 + 2.1j
    lhs = ca.riemannian_metric(sp, t * h, s * g)
    rhs = bk.scale(np.conj(t) * s, ca.riemannian_metric(sp, h, g))
    assert_elem_close(lhs, rhs, tol=1e-12)
    sym_l = bk.adjoint(ca.riemannian_metric(sp, h, g))
    sym_r = ca.riemannian_metric(sp, g, h)
    assert_elem_close(sym_l, sym_r, tol=1e-12)


def test_metric_right_covariance_and_left_exchange(
        qubit_space, torus3_space, z4_space, z5_space):
    rng = make_rng(79)
    for sp, rad in all_spaces(qubit_space, torus3_space, z4_space, z5_space):
        a = bk.random_element(sp.backend, rng, radius=rad)
        h = ca.random_tangent(sp, rng, radius=rad)
        g = ca.random_tangent(sp, rng, radius=rad)
        cov_l = ca.riemannian_metric(sp, h, ca.right_act(g, a))
        cov_r = bk.mul(ca.riemannian_metric(sp, h, g), a)
        assert_elem_close(cov_l, cov_r, tol=1e-11)
        ex_l = ca.riemannian_metric(sp, ca.left_act(a, h), g)
        ex_r = ca.riemannian_metric(sp, h, ca.left_act(bk.adjoint(a), g))
        assert_elem_close(ex_l, ex_r, tol=1e-11)


def test_metric_nondegeneracy(qubit_space, z4_space):
    rng = make_rng(80)
    for sp in (qubit_space, z4_space):
        h = ca.random_tangent(sp, rng)
        # pair against a spanning set: components of delta tangent frames
        worst = 0.0
        D = sp.dim
        k = ca.tangent_components(sp)
        for j in range(k):
            for col in range(D):
                e = np.zeros(D, dtype=complex)
                e[col] = 1.0
                parts = [bk.zero(sp.backend)] * k
                parts[j] = bk.from_l2(sp.backend, e)
                g = ca.TangentVector(sp, [p.data for p in parts])
                rho = ca.riemannian_metric(sp, h, g)
                worst = max(worst, bk.norm_l2(rho))
        assert worst > 1e-6 * ca.hilbert_norm(h)   # nonzero h pairs nontrivially


# ---------------------------------------------------------------------------
# Cyclic frame structure
# ---------------------------------------------------------------------------


def test_cyclic_frame_weights_reproduce_length(z4, z5):
    # |psi_k(g)|^2 = mu_k (1 - cos(2 pi k g / q)), whose sum over the frame is l(g)
    for desc in (z4, z5):
        psis = desc.psis()
        assert np.allclose((np.abs(psis) ** 2).sum(0), desc.lengths, atol=1e-12)
        assert np.all(np.abs(psis).max(1) > 0)   # no component with mu_k = 0
        # the frame is closed under k -> q - k, whose multiplier is -conj(psi_k)
        partners = -psis.conj()
        assert all(np.abs(psis - p).max(1).min() <= 1e-12 for p in partners)


def test_cyclic_component_energies_sum_to_form(z4, z4_space, z5, z5_space):
    rng = make_rng(81)
    for desc, sp in ((z4, z4_space), (z5, z5_space)):
        f = bk.random_element(desc, rng)
        total = sum(np.linalg.norm(p) ** 2 for p in ca.gradient(sp, f).data)
        assert total == pytest.approx(dr.dirichlet_form(sp, f).real, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_leibniz_rule_property(seed):
    sp = dr.build_space(bk.CyclicGroup(5, (0.0, 1.0, 2.0, 2.0, 1.0)))
    rng = make_rng(seed)
    a = bk.random_element(sp.backend, rng)
    b = bk.random_element(sp.backend, rng)
    lhs = ca.gradient(sp, bk.mul(a, b))
    rhs = ca.right_act(ca.gradient(sp, a), b) + ca.left_act(a, ca.gradient(sp, b))
    tangent_close(lhs, rhs, tol=1e-10, scale=max(bk.norm_l2(a) * bk.norm_l2(b), 1.0))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       tre=st.floats(-3, 3, allow_nan=False), tim=st.floats(-3, 3, allow_nan=False))
def test_metric_scaling_property(seed, tre, tim):
    sp = dr.build_space(bk.MatrixAlgebra(2, (SIGMA_Z,)))
    rng = make_rng(seed)
    h = ca.random_tangent(sp, rng)
    g = ca.random_tangent(sp, rng)
    t = complex(tre, tim)
    lhs = ca.riemannian_metric(sp, t * h, g)
    rhs = bk.scale(np.conj(t), ca.riemannian_metric(sp, h, g))
    assert_elem_close(lhs, rhs, tol=1e-11, scale=max(bk.norm_l2(rhs), 1.0))
