import dataclasses

import numpy as np
import pytest

from ncpde import backends as bk
from ncpde import coords as co
from ncpde import elliptic as el
from ncpde.calculus import gradient_matrix, tangent_components
from ncpde.dirichlet import build_space, project_off_kernel
from conftest import (
    SIGMA_X,
    assert_elem_close,
    backend_from_spec,
    dense_form,
    loop_dense_newton,
    loop_galerkin_residual,
    loop_random_data,
    loop_realified_cg,
    make_rng,
    realify_vector,
)


def perp_random(space, rng):
    f = bk.random_element(space.backend, rng)
    return bk.from_l2(space.backend, project_off_kernel(space, bk.to_l2(f)))


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
    gen, evecs = dense_form(qubit_space)
    fv = evecs.conj().T @ (gen @ u - bk.to_l2(f))
    assert np.abs(fv).max() <= 1e-10 * max(bk.norm_l2(f), 1.0)


def test_variational_energy_history_is_the_energy_functional(pair3_space, torus2_space):
    # each entry is I(x) = x.Ax/2 - b.x of the iterate, read off the CG residual
    rng = make_rng(89)
    for sp in (pair3_space, torus2_space):
        f = perp_random(sp, rng)
        rep = el.minimize_dirichlet_energy(sp, f)
        x = realify_vector(bk.to_l2(rep.solution))
        A = co.realify_operator(dense_form(sp)[0])
        b = realify_vector(bk.to_l2(f))
        want = 0.5 * x @ (A @ x) - b @ x
        assert abs(rep.energy_history[-1] - want) <= 1e-12 * max(abs(want), 1.0)


@pytest.mark.parametrize("name", ["qubit", "pair3", "torus2", "z4", "torus8", "cyclic64",
                                  "matrix6"])
def test_variational_cg_matches_realified_loop(request, name):
    # complex coordinates under Re<.,.> iterate as CG on the realified system,
    # and agree with the spectral solution (the Poisson cross-check)
    specs = {"torus8": ("torus", 8), "cyclic64": ("cyclic", 64), "matrix6": ("matrix", 6)}
    sp = (build_space(backend_from_spec(specs[name])) if name in specs
          else request.getfixturevalue(f"{name}_space"))
    rng = make_rng(94)
    for _ in range(3):
        f = perp_random(sp, rng)
        rep = el.minimize_dirichlet_energy(sp, f)
        x, iters, history = loop_realified_cg(sp, f)
        assert rep.iterations == iters > 0
        assert rep.galerkin_dim == 2 * sp.dim
        u = bk.to_l2(rep.solution)
        assert np.linalg.norm(u - x) <= 1e-12 * np.linalg.norm(x)
        # ||r||^2 of the CG recursion: ||f||^2 first, one entry per update
        rr = np.array(rep.cg_history)
        assert rr.shape == (iters + 1,) and rr[0] == pytest.approx(bk.norm_l2(f) ** 2, rel=1e-14)
        assert np.sqrt(rr[-1]) <= el.CG_RTOL * np.sqrt(rr[0])
        spectral = el.solve_poisson(sp, f)
        assert bk.norm_l2(spectral.solution - rep.solution) <= 1e-8
        assert spectral.residual_strong <= 1e-8 and rep.residual_strong <= 1e-8
        h, h_ref = np.array(rep.energy_history), np.array(history)
        assert h.shape == h_ref.shape
        assert abs(h[-1] - h_ref[-1]) <= 1e-12 * abs(h_ref[-1])
        # mid-run, CG amplifies rounding: merely reordering the realified
        # coordinates moves the torus-8 history by up to ~5e-11 relative
        assert np.abs(h - h_ref).max() <= 1e-9 * np.abs(h_ref).max()


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
    report = el.probe_map(torus2_space, el.identity_map(), make_rng(93), samples=100)
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


def counting(F):
    """F with the same constants, and the list that records the shape of the
    array each application maps."""
    calls = []

    def func(h):
        calls.append(h.shape)
        return F(h)

    return dataclasses.replace(F, func=func), calls


def test_probe_applies_the_map_twice_per_sample(torus2_space):
    F, calls = counting(el.identity_map())
    report = el.probe_map(torus2_space, F, make_rng(93), samples=100)
    want = el.probe_map(torus2_space, el.identity_map(), make_rng(93), samples=100)
    assert report.to_dict() == want.to_dict()
    # once on all h and once on all v, each stacked as (samples, k*D)
    k_dim = tangent_components(torus2_space) * torus2_space.dim
    assert calls == [(100, k_dim)] * 2


def loop_probe_draws(space, rng, samples):
    """The probe's h and v drawn one ``loop_random_data`` call per frame
    component, h and v of every sample before all the scales, one
    ``uniform`` call each: the reference for the probe's stacked draw."""
    k = tangent_components(space)

    def draw():
        return np.concatenate([loop_random_data(space.backend, rng).reshape(-1)
                               for _ in range(k)])

    h = np.empty((samples, k * space.dim), dtype=np.complex128)
    v = np.empty_like(h)
    for i in range(samples):
        h[i], v[i] = draw(), draw()
    h *= np.array([[rng.uniform(0.1, 3.0)] for _ in range(samples)])
    return h, v


@pytest.mark.parametrize("spec", [("torus", 3), ("cyclic", 16), ("matrix", 3)],
                         ids=["torus3", "cyclic16", "matrix3"])
def test_probe_draws_match_per_call_loop(spec):
    # the map sees bit-identical h and v, so the probe report is the one the
    # per-call draws give
    space = build_space(backend_from_spec(spec))
    seen = []

    def record(h):
        seen.append(h.copy())
        return h

    F = dataclasses.replace(el.identity_map(), func=record)
    el.probe_map(space, F, make_rng(604), samples=20)
    h, v = loop_probe_draws(space, make_rng(604), 20)
    assert np.array_equal(seen[0], h) and np.array_equal(seen[1], v)


def test_probe_draws_its_samples_in_one_call(torus2_space, monkeypatch):
    calls = []
    random_data = bk.random_data

    def counted(*args, **kwargs):
        calls.append(1)
        return random_data(*args, **kwargs)

    monkeypatch.setattr(bk, "random_data", counted)
    el.probe_map(torus2_space, el.identity_map(), make_rng(93))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Quasilinear solves
# ---------------------------------------------------------------------------

RESIDUAL_SPECS = [("torus", 2), ("torus", 3), ("rational", 2), ("rational", 3),
                  ("cyclic", 16), ("cyclic", 32), ("matrix", 3), ("matrix", 4)]


@pytest.mark.parametrize("make_map", [el.curved_map, el.identity_map, el.negated_map],
                         ids=["curved", "identity", "negated"])
@pytest.mark.parametrize("spec", RESIDUAL_SPECS, ids=[f"{k}{n}" for k, n in RESIDUAL_SPECS])
def test_galerkin_residual_matches_loop(spec, make_map):
    space = build_space(backend_from_spec(spec))
    M = 2 * (space.dim - space.kernel_dim)
    Wb = el._from_galerkin(space, np.eye(M)).T   # column k holds w_k
    # the grad w_j are orthonormal under Re<.,.>, and the w_j lie off the kernel
    Gb = gradient_matrix(space) @ Wb
    assert np.abs((Gb.conj().T @ Gb).real - np.eye(M)).max() <= 1e-12
    K = dense_form(space)[1][:, : space.kernel_dim]
    assert np.abs(K.conj().T @ Wb).max() <= 1e-12 * np.abs(Wb).max()
    rng = make_rng(600)
    rhs = rng.standard_normal(M)
    F = make_map()
    V = el.galerkin_residual(space, F, rhs)
    V_ref = loop_galerkin_residual(space, F, Wb, rhs)
    ds = rng.standard_normal((3, M))
    want = np.array([V_ref(d) for d in ds])
    for d, w in zip(ds, want):
        assert np.linalg.norm(V(d) - w) <= 1e-12 * np.linalg.norm(w)
    # a batch maps each row as a single call does
    assert np.linalg.norm(V(ds) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("spec", [("torus", 4), ("cyclic", 32), ("matrix", 4)],
                         ids=["torus4", "cyclic32", "matrix4"])
def test_quasilinear_identity_equals_poisson_at_scale(spec):
    space = build_space(backend_from_spec(spec))
    f = perp_random(space, make_rng(601))
    lin = el.solve_poisson(space, f)
    non = el.solve_quasilinear(space, el.identity_map(), f)
    assert bk.norm_l2(lin.solution - non.solution) <= 1e-10 * max(bk.norm_l2(lin.solution), 1.0)


@pytest.mark.parametrize("shape", ["short", "pairs"])
def test_quasilinear_rejects_misshaped_init(torus2_space, shape):
    M = 2 * (torus2_space.dim - torus2_space.kernel_dim)
    init = np.zeros(M - 1) if shape == "short" else np.zeros((M // 2, 2))
    f = perp_random(torus2_space, make_rng(604))
    with pytest.raises(ValueError, match="initial guess has shape"):
        el.solve_quasilinear(torus2_space, el.identity_map(), f, init=init, force=True)


def test_quasilinear_accepts_a_strided_init(torus2_space):
    # the coefficients are read as complex pairs, which needs a contiguous copy
    M = 2 * (torus2_space.dim - torus2_space.kernel_dim)
    f = perp_random(torus2_space, make_rng(605))
    base = el.solve_quasilinear(torus2_space, el.identity_map(), f, force=True)
    init = make_rng(606).standard_normal(2 * M)[::2]
    other = el.solve_quasilinear(torus2_space, el.identity_map(), f, init=init, force=True)
    assert bk.norm_l2(base.solution - other.solution) <= 1e-10


def test_quasilinear_newton_trace(torus2_space):
    f = perp_random(torus2_space, make_rng(603))
    rep = el.solve_quasilinear(torus2_space, el.curved_map(1.0), f)
    trace = rep.newton_trace
    assert len(trace) == rep.iterations > 0
    for s in trace:
        assert 0.0 < s.alpha <= 1.0 and s.residual > 0.0


def test_quasilinear_evaluates_each_accepted_residual_once(torus2_space):
    # the starting residual; per Newton step: one single-point call per CG
    # product J p, and one trial per halving of the step; then F once more
    # for the reported residuals.  From a random start CG takes more than
    # one product per step on the curved map
    f = perp_random(torus2_space, make_rng(602))
    M = 2 * (torus2_space.dim - torus2_space.kernel_dim)
    k_dim = tangent_components(torus2_space) * torus2_space.dim
    for make_map, init in [(el.identity_map, None),
                           (el.curved_map, make_rng(607).standard_normal(M))]:
        F, calls = counting(make_map())
        rep = el.solve_quasilinear(torus2_space, F, f, init=init, force=True)
        want = [(k_dim,)]
        for s in rep.newton_trace:
            assert s.products >= 1
            want += [(k_dim,)] * (s.products + 1 + round(np.log2(1.0 / s.alpha)))
        assert calls == want + [(k_dim,)]
    assert max(s.products for s in rep.newton_trace) > 1


@pytest.mark.parametrize("make_map", [el.curved_map, el.identity_map], ids=["curved", "identity"])
@pytest.mark.parametrize("spec", RESIDUAL_SPECS, ids=[f"{k}{n}" for k, n in RESIDUAL_SPECS])
@pytest.mark.parametrize("start", ["zero", "random"])
def test_krylov_newton_matches_dense_newton(spec, make_map, start):
    space = build_space(backend_from_spec(spec))
    M = 2 * (space.dim - space.kernel_dim)
    f = perp_random(space, make_rng(608))
    rhs = el._to_galerkin(space, bk.to_l2(f))
    d0 = np.zeros(M) if start == "zero" else make_rng(609).standard_normal(M)
    V = el.galerkin_residual(space, make_map(), rhs)
    scale = np.linalg.norm(rhs)
    trace = []
    root = el._newton(V, d0, scale, trace)
    want, iterations = loop_dense_newton(V, d0, scale)
    assert np.linalg.norm(root - want) <= 1e-12 * np.linalg.norm(want)
    assert len(trace) == iterations


@pytest.mark.parametrize("spec", RESIDUAL_SPECS, ids=[f"{k}{n}" for k, n in RESIDUAL_SPECS])
def test_negated_map_fails_closed_without_a_dense_step(spec):
    # J = -I on the Galerkin basis: CG meets p.Jp < 0 on its first product
    # and raises; no dense Jacobian batch (M, k*D) is ever made
    space = build_space(backend_from_spec(spec))
    F, calls = counting(el.negated_map())
    with pytest.raises(el.ConvergenceFailure, match=r"conjugate gradients met curvature -\S+ <= 0"):
        el.solve_quasilinear(space, F, perp_random(space, make_rng(610)), force=True)
    k_dim = tangent_components(space) * space.dim
    assert set(calls) == {(k_dim,)}   # single vectors only: no batch (M, k*D)


def test_krylov_step_stops_at_the_forcing_term_or_gives_up():
    # a linear V(d) = A d - b: a symmetric A with a spread spectrum needs many
    # products, and CG stops once ||A s - r|| <= FORCING ||r||; a
    # nonsymmetric A with p.Ap > 0 leaves CG unconverged after M = 2
    # products, so its iterate goes to the line search, which never reaches
    # the root within MAX_NEWTON iterations
    rng = make_rng(611)
    Q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    A = Q @ np.diag(np.linspace(1.0, 100.0, 40)) @ Q.T
    b = rng.standard_normal(40)
    r = -b
    s, products = el._krylov_step(lambda d: d @ A.T - b, np.zeros(40), r)
    assert 2 < products < 40
    assert np.linalg.norm(A @ s - r) <= el.FORCING * np.linalg.norm(r)

    A = np.array([[1.0, 5.0], [-5.0, 1.0]])
    b = np.array([1.0, 2.0])
    V = lambda d: d @ A.T - b
    s, products = el._krylov_step(V, np.zeros(2), -b)
    assert products == 2 and np.linalg.norm(A @ s + b) > el.FORCING * np.linalg.norm(b)
    trace = []
    with pytest.raises(el.ConvergenceFailure, match=f"in {el.MAX_NEWTON} iterations"):
        el._newton(V, np.zeros(2), 1.0, trace)
    assert len(trace) == el.MAX_NEWTON
    assert all(s.products == 2 for s in trace)


def test_cg_solves_hermitian_and_symmetric_positive_systems():
    # complex vectors under Re<.,.> (Hermitian positive H) and real ones
    # (symmetric positive A), against a dense solve; ``each`` sees every
    # update, and the last iterate is the one returned
    rng = make_rng(612)
    n = 16
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    systems = [(G @ G.conj().T / n + np.eye(n), z),
               (Q @ np.diag(np.linspace(1.0, 50.0, n)) @ Q.T, rng.standard_normal(n))]
    for A, b in systems:
        seen = []
        x, rr = el._cg(lambda p: A @ p, b, 1e-13, 4 * n,
                       lambda x, r: seen.append((x.copy(), r.copy())))
        want = np.linalg.solve(A, b)
        assert x.dtype == b.dtype
        assert np.linalg.norm(x - want) <= 1e-11 * np.linalg.norm(want)
        assert len(seen) == len(rr) - 1 and np.array_equal(seen[-1][0], x)
        assert rr[0] == np.vdot(b, b).real and np.sqrt(rr[-1]) <= 1e-13 * np.linalg.norm(b)
        for (xk, rk), rrk in zip(seen, rr[1:]):
            assert np.vdot(rk, rk).real == rrk
            assert np.linalg.norm(b - A @ xk - rk) <= 1e-12 * np.linalg.norm(b)


def test_cg_stops_at_nonpositive_curvature_and_at_its_cap():
    rng = make_rng(613)
    n = 16
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    b = rng.standard_normal(n)
    # indefinite: CG on the whole space must meet p.Ap <= 0 before it
    # converges, and raises naming the curvature it met
    A = Q @ np.diag(np.linspace(-1.0, 10.0, n)) @ Q.T
    products = []
    with pytest.raises(el.ConvergenceFailure, match=r"conjugate gradients met curvature \S+ <= 0"):
        el._cg(lambda p: products.append(1) or A @ p, b, 1e-13, 4 * n)
    assert len(products) <= n
    with pytest.raises(el.ConvergenceFailure, match=r"met curvature -1\.000e\+00 <= 0$"):
        el._cg(lambda p: np.diag([1.0, -1.0]) @ p, np.array([0.0, 1.0]), 1e-13, 4)
    # a NaN product raises the same way, on the first product
    products.clear()
    with pytest.raises(el.ConvergenceFailure, match="met curvature nan <= 0"):
        el._cg(lambda p: products.append(1) or np.full_like(p, np.nan), b, 1e-13, 4 * n)
    assert len(products) == 1
    # maxiter products at most: a spread spectrum leaves CG short after 3
    A = Q @ np.diag(np.linspace(1.0, 1e3, n)) @ Q.T
    products.clear()
    x, rr = el._cg(lambda p: products.append(1) or A @ p, b, 1e-13, 3)
    assert len(products) == 3 and len(rr) == 4
    assert np.sqrt(rr[-1]) > 1e-13 * np.linalg.norm(b)


def test_krylov_step_solves_to_one_part_in_a_million():
    # pins FORCING = 1e-6: a linear V(d) = A d - b whose SPD A has 100
    # eigenvalues spread evenly over 1..1e3 takes CG dozens of products, so
    # the step's true residual ||A s - V(d)|| and its product count both read
    # the forcing term; the finite-difference products cost at most a factor
    # 2 in the residual, and the count is that of CG with exact products
    # stopped at 1e-6 (a forcing term of 1e-2 stops after 7 products)
    rng = make_rng(25)
    Q = np.linalg.qr(rng.standard_normal((100, 100)))[0]
    A = Q @ np.diag(np.linspace(1.0, 1e3, 100)) @ Q.T
    b, d = rng.standard_normal(100), rng.standard_normal(100)
    r = A @ d - b
    s, products = el._krylov_step(lambda x: x @ A.T - b, d, r)
    assert products < d.size
    assert np.linalg.norm(A @ s - r) <= 2e-6 * np.linalg.norm(r)

    rho, p, exact = r, r, 0        # the residuals of CG with exact products
    while np.linalg.norm(rho) > 1e-6 * np.linalg.norm(r):
        Ap = A @ p
        rho_new = rho - (rho @ rho) / (p @ Ap) * Ap
        p = rho_new + (rho_new @ rho_new) / (rho @ rho) * p
        rho, exact = rho_new, exact + 1
    assert abs(products - exact) <= 1


def test_newton_raises_when_the_line_search_stagnates():
    # V(d) = 1 + d + 10|d| from 0: the finite-difference Jacobian is 11, so
    # CG converges to the step s = 1/11 on its one product, but every trial
    # d - alpha s raises |V| to 1 + 9 alpha / 11; the search halves alpha
    # from 1 to 2^-33, the last length >= 1e-10, and raises
    calls = []

    def V(d):
        calls.append(d.copy())
        return 1.0 + d + 10.0 * np.abs(d)

    trace = []
    with pytest.raises(el.ConvergenceFailure,
                       match=r"Newton line search stagnated at residual 1\.000e\+00"):
        el._newton(V, np.zeros(1), 1.0, trace)
    assert trace == []
    assert len(calls) == 1 + 1 + 34   # V(d), one product, 34 trials


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


@pytest.mark.parametrize("beta", [1.0, 100.0])
@pytest.mark.parametrize("spec", [("torus", 2), ("cyclic", 16), ("matrix", 3)],
                         ids=["torus2", "cyclic16", "matrix3"])
def test_quasilinear_uniqueness_across_restarts(spec, beta):
    from ncpde.dirichlet import dirichlet_form

    space = build_space(backend_from_spec(spec))
    f = perp_random(space, make_rng(606))
    F = el.curved_map(beta)
    base = el.solve_quasilinear(space, F, f)
    rng = make_rng(96)
    for _ in range(5):
        init = rng.standard_normal(base.galerkin_dim)
        other = el.solve_quasilinear(space, F, f, init=init)
        diff = base.solution - other.solution
        assert bk.norm_l2(diff) <= 1e-8
        assert np.sqrt(dirichlet_form(space, diff).real) <= 1e-8


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


def test_quasilinear_rejects_non_monotone_map(qubit_space):
    rng = make_rng(98)
    f = perp_random(qubit_space, rng)
    with pytest.raises(el.ConvergenceFailure):
        el.solve_quasilinear(qubit_space, el.negated_map(), f)


def test_curved_map_rejects_negative_beta():
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        el.curved_map(-1.0)


def test_quasilinear_force_skips_probes(qubit_space):
    # with force=True the negated map skips the probe gate and fails in the
    # solve itself: the CG of its first Newton step meets negative curvature
    rng = make_rng(99)
    f = perp_random(qubit_space, rng)
    with pytest.raises(el.ConvergenceFailure, match=r"conjugate gradients met curvature -\S+ <= 0"):
        el.solve_quasilinear(qubit_space, el.negated_map(), f, force=True)
