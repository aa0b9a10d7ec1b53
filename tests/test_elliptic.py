import numpy as np
import pytest

from ncpde import backends as bk
from ncpde import coords as co
from ncpde import elliptic as el
from conftest import SIGMA_X, assert_elem_close, make_rng


def perp_random(space, rng):
    f = bk.random_element(space.backend, rng)
    return bk.from_l2(space.backend, co.project_off_kernel(space, bk.to_l2(f)))


# ---------------------------------------------------------------------------
# Linear Poisson problem
# ---------------------------------------------------------------------------


def test_poisson_torus_single_mode(torus2, torus2_space):
    U = bk.monomial(torus2, 1, 0)
    rep = el.solve_poisson(torus2_space, U)
    assert_elem_close(rep.solution, U, tol=1e-13)
    assert rep.residual_weak <= 1e-12
    assert rep.residual_strong <= 1e-12


def test_poisson_zero_rhs(torus2_space):
    rep = el.solve_poisson(torus2_space, bk.zero(torus2_space.backend))
    assert bk.norm_l2(rep.solution) == 0.0


def test_poisson_qubit_quarter(qubit, qubit_space):
    rep = el.solve_poisson(qubit_space, bk.element(qubit, SIGMA_X))
    assert_elem_close(rep.solution, bk.element(qubit, SIGMA_X / 4.0), tol=1e-13)


def test_poisson_kernel_gate(torus2, torus2_space):
    U = bk.monomial(torus2, 1, 0)
    bad = bk.unit(torus2) + U
    with pytest.raises(el.NoSolution):
        el.solve_poisson(torus2_space, bad)
    rep = el.solve_poisson(torus2_space, bad, project_kernel=True)
    assert any(f.startswith("projected_kernel_mass") for f in rep.flags)
    assert_elem_close(rep.solution, U, tol=1e-13)
    assert rep.kernel_component == pytest.approx(1.0)


def test_kernel_gate_rejects_nan_right_hand_side(torus2, torus2_space):
    f = bk.from_l2(torus2, np.full(torus2.l2_dim(), np.nan, dtype=complex))
    with pytest.raises(el.NoSolution):
        el.solve_poisson(torus2_space, f)


def test_variational_matches_spectral_on_single_mode(torus2, torus2_space):
    U = bk.monomial(torus2, 1, 0)
    rep = el.minimize_dirichlet_energy(torus2_space, U)
    assert_elem_close(rep.solution, U, tol=1e-10)
    assert "energy_not_monotone" not in rep.flags


def test_variational_zero_rhs_converges_immediately(torus2_space):
    rep = el.minimize_dirichlet_energy(torus2_space, bk.zero(torus2_space.backend))
    assert rep.iterations <= 1
    assert bk.norm_l2(rep.solution) == 0.0


def test_variational_energy_is_monotone(pair3_space):
    rng = make_rng(90)
    rep = el.minimize_dirichlet_energy(pair3_space, perp_random(pair3_space, rng))
    hist = rep.energy_history
    assert all(h2 <= h1 + 1e-12 * (1 + abs(h1)) for h1, h2 in zip(hist, hist[1:]))


def test_variational_first_variation_identity(qubit_space):
    # at the minimizer, Re E(u, g) = Re <f, g> over the whole eigen test family
    rng = make_rng(91)
    f = perp_random(qubit_space, rng)
    rep = el.minimize_dirichlet_energy(qubit_space, f)
    u = bk.to_l2(rep.solution)
    fv = qubit_space.evecs.conj().T @ (qubit_space.generator @ u - bk.to_l2(f))
    assert np.abs(fv).max() <= 1e-10 * max(bk.norm_l2(f), 1.0)


def test_solver_agreement_battery(qubit_space, torus2_space, z4_space):
    rng = make_rng(92)
    for sp in (qubit_space, torus2_space, z4_space):
        for _ in range(20):
            f = perp_random(sp, rng)
            a = el.solve_poisson(sp, f)
            b = el.minimize_dirichlet_energy(sp, f)
            assert bk.norm_l2(a.solution - b.solution) <= 1e-8
            assert a.residual_strong <= 1e-8
            assert b.residual_strong <= 1e-8


# ---------------------------------------------------------------------------
# Structure probes
# ---------------------------------------------------------------------------


def test_probe_identity_map(torus2_space):
    report = el.probe_map(torus2_space, el.identity_map(), make_rng(93),
                          samples=100, radius=1)
    assert report.passed
    by_name = {c.name: c.value for c in report.checks}
    assert by_name["monotonicity_margin"] >= 1.0 - 1e-9
    assert by_name["growth_ratio"] <= 1.0 + 1e-12


def test_probe_curved_family_is_monotone(qubit_space):
    report = el.probe_map(qubit_space, el.curved_map(1.0), make_rng(94), samples=1000)
    assert report.passed
    by_name = {c.name: c.value for c in report.checks}
    assert by_name["monotonicity_margin"] >= -1e-12
    assert "coercivity_margin_quadratic" in report.extra


def test_probe_negated_map_fails(qubit_space):
    report = el.probe_map(qubit_space, el.negated_map(), make_rng(95), samples=50)
    assert not report.passed
    by_name = {c.name: c.value for c in report.checks}
    assert by_name["monotonicity_margin"] <= -1.0 + 1e-9


# ---------------------------------------------------------------------------
# Quasilinear solves
# ---------------------------------------------------------------------------


def test_quasilinear_identity_reduces_to_poisson(torus2, torus2_space):
    U = bk.monomial(torus2, 1, 0)
    lin = el.solve_poisson(torus2_space, U)
    non = el.solve_quasilinear(torus2_space, el.identity_map(), U)
    assert bk.norm_l2(lin.solution - non.solution) <= 1e-8
    assert non.residual_weak <= 1e-8


def test_quasilinear_scalar_benchmark(torus2, torus2_space):
    # single active mode: u = c U with c + c / sqrt(1 + c^2) = 1;
    # the reference root comes from bisection, done here, independent of the solver
    def root_by_bisection():
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + mid / np.sqrt(1.0 + mid * mid) < 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    c_star = root_by_bisection()
    U = bk.monomial(torus2, 1, 0)
    rep = el.solve_quasilinear(torus2_space, el.curved_map(1.0), U)
    coeff = rep.solution.data[torus2.level + 1, torus2.level]
    assert abs(coeff - c_star) <= 1e-8
    assert bk.norm_l2(rep.solution - bk.scale(coeff, U)) <= 1e-10
    assert rep.residual_weak <= 1e-8


def test_quasilinear_uniqueness_across_restarts(torus2, torus2_space):
    from ncpde.dirichlet import dirichlet_form

    U = bk.monomial(torus2, 1, 0)
    base = el.solve_quasilinear(torus2_space, el.curved_map(1.0), U)
    rng = make_rng(96)
    for _ in range(5):
        init = rng.standard_normal(base.galerkin_dim)
        other = el.solve_quasilinear(
            torus2_space, el.curved_map(1.0), U, el.QuasilinearOptions(init=init))
        diff = base.solution - other.solution
        assert bk.norm_l2(diff) <= 1e-8
        assert np.sqrt(dirichlet_form(torus2_space, diff).real) <= 1e-8


def test_quasilinear_multimode_rhs(qubit_space, z4_space):
    rng = make_rng(97)
    for sp in (qubit_space, z4_space):
        f = perp_random(sp, rng)
        rep = el.solve_quasilinear(sp, el.curved_map(0.7), f)
        assert rep.residual_weak <= 1e-8
        assert rep.residual_strong <= 1e-8


def test_quasilinear_weak_residual_against_full_basis(torus2, torus2_space):
    # kernel directions are part of the residual check: a kernel-heavy f fails the gate
    U = bk.monomial(torus2, 1, 0)
    with pytest.raises(el.NoSolution):
        el.solve_quasilinear(torus2_space, el.curved_map(1.0), bk.unit(torus2) + U)


def test_quasilinear_level_residuals_non_increasing(torus2, torus2_space):
    U = bk.monomial(torus2, 1, 0)
    rep = el.solve_quasilinear(torus2_space, el.curved_map(1.0), U)
    lr = rep.level_residuals
    assert all(b <= a * (1 + 1e-9) + 1e-12 for a, b in zip(lr, lr[1:]))


def test_quasilinear_rejects_non_monotone_map(qubit_space):
    rng = make_rng(98)
    f = perp_random(qubit_space, rng)
    with pytest.raises(el.ConvergenceFailure):
        el.solve_quasilinear(qubit_space, el.negated_map(), f)


def test_quasilinear_force_skips_probes(qubit_space):
    # the negated map on the kernel complement is invertible; with force=True
    # the solve itself may still succeed since -Delta u = f has a solution
    rng = make_rng(99)
    f = perp_random(qubit_space, rng)
    rep = el.solve_quasilinear(qubit_space, el.negated_map(), f,
                               el.QuasilinearOptions(force=True))
    assert rep.residual_weak <= 1e-8
