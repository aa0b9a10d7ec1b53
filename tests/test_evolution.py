import functools
import tracemalloc

import numpy as np
import pytest

from ncpde import backends as bk
from ncpde import calculus as ca
from ncpde import dirichlet as dr
from ncpde import evolution as ev
from conftest import (SIGMA_X, THETA_IRR, backend_from_spec, dense_form, loop_solve_evolution,
                      make_rng)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def test_heat_step_tracks_exact_decay():
    # exact solution of the mode ODE: u(t) = e^{-t} U; first-order stepping
    sp = dr.build_space(bk.NCTorus(1, THETA_IRR))
    U = bk.monomial(sp.backend, 1, 0)
    prob = ev.EvolutionProblem(sp, "heat", U, horizon=1.0, dt=1e-3)
    res = ev.solve_evolution(prob)
    exact = bk.to_l2(bk.scale(np.exp(-1.0), U))
    err = np.linalg.norm(res.states[-1] - exact)
    assert err <= 2e-3
    assert res.solve_residual_max <= 1e-12


def test_heat_kernel_data_is_stationary(torus2_space):
    one = bk.unit(torus2_space.backend)
    prob = ev.EvolutionProblem(torus2_space, "heat", one, horizon=0.5, dt=0.1)
    res = ev.solve_evolution(prob)
    assert np.abs(res.states - res.states[0]).max() == 0.0


def test_transport_free_continuity_is_constant(torus2_space):
    U = bk.monomial(torus2_space.backend, 1, 0)
    prob = ev.EvolutionProblem(torus2_space, "continuity", U, horizon=0.5, dt=0.1,
                               epsilon=0.0)
    res = ev.solve_evolution(prob)
    assert np.abs(res.states - res.states[0]).max() == 0.0
    assert any("epsilon=0" in f for f in res.flags)


def test_heat_qubit_matches_scalar_ode(qubit, qubit_space):
    # oracle: the whole trajectory is e^{-4t} sigma_x (rate from the
    # double-commutator eigenvalue, checked independently in test_dirichlet)
    u0 = bk.element(qubit, SIGMA_X)
    dt = 1e-3
    prob = ev.EvolutionProblem(qubit_space, "heat", u0, horizon=1.0, dt=dt)
    res = ev.solve_evolution(prob)
    worst = 0.0
    for k, t in enumerate(res.times):
        exact = bk.to_l2(bk.scale(np.exp(-4.0 * t), u0))
        worst = max(worst, np.linalg.norm(res.states[k] - exact))
    assert worst <= 6.0 * dt   # first order in dt


def test_convergence_orders(qubit, qubit_space):
    u0 = bk.element(qubit, SIGMA_X)
    errs = {"implicit-euler": [], "crank-nicolson": []}
    for scheme in errs:
        for dt in (1e-2, 5e-3, 2.5e-3):
            prob = ev.EvolutionProblem(qubit_space, "heat", u0, horizon=1.0,
                                       dt=dt, scheme=scheme)
            errs[scheme].append(ev.solve_evolution(prob).terminal_error_vs_oracle)
    for e1, e2 in zip(errs["implicit-euler"], errs["implicit-euler"][1:]):
        assert 0.4 <= e2 / e1 <= 0.6
    for e1, e2 in zip(errs["crank-nicolson"], errs["crank-nicolson"][1:]):
        assert 0.2 <= e2 / e1 <= 0.3


def test_implicit_euler_is_unconditionally_stable(torus2_space):
    rng = make_rng(101)
    u0 = bk.random_element(torus2_space.backend, rng)
    prob = ev.EvolutionProblem(torus2_space, "heat", u0, horizon=5.0, dt=0.5)
    res = ev.solve_evolution(prob)
    norms = np.linalg.norm(res.states, axis=1)
    assert np.all(np.diff(norms) <= 1e-13)


# ---------------------------------------------------------------------------
# Conservation and certificates
# ---------------------------------------------------------------------------


def _constant_flow_problem(space, eps=0.1, dt=1e-2, horizon=1.0, scheme="implicit-euler"):
    U = bk.monomial(space.backend, 1, 0)
    V = bk.monomial(space.backend, 0, 1)
    u0 = bk.unit(space.backend) + bk.scale(0.3, U) + bk.scale(0.2, V)
    h = ca.gradient(space, U)
    return ev.EvolutionProblem(space, "continuity", u0, horizon=horizon, dt=dt,
                               scheme=scheme, epsilon=eps, flow=[h], flow_times=[0.0])


def test_viscous_continuity_conserves_trace(torus2_space):
    res = ev.solve_evolution(_constant_flow_problem(torus2_space), rng=make_rng(102))
    assert np.abs(res.conservation_defect).max() <= 1e-10
    # the run actually moves: it is not a frozen state
    assert np.abs(res.states[-1] - res.states[0]).max() > 1e-3


def test_conservation_with_source_tracks_injected_mass(torus2_space):
    sp = torus2_space
    U = bk.monomial(sp.backend, 1, 0)
    src = bk.unit(sp.backend) + U     # injects trace mass at unit rate
    prob = ev.EvolutionProblem(sp, "heat", U, horizon=0.5, dt=1e-2,
                               source=[src], source_times=[0.0])
    res = ev.solve_evolution(prob)
    assert np.abs(res.conservation_defect).max() <= 1e-10
    # and the trace really grew by about horizon * 1
    unit = bk.to_l2(bk.unit(sp.backend))
    assert ((res.states[-1] - res.states[0]) @ unit.conj()).real == pytest.approx(0.5, rel=1e-6)


def test_coercivity_margin_nonnegative_for_viscous_runs(torus2_space):
    res = ev.solve_evolution(_constant_flow_problem(torus2_space, eps=0.05, dt=0.05),
                             rng=make_rng(103), probes=8)
    assert res.coercivity_margin is not None
    assert res.coercivity_margin.min() >= -1e-9
    assert res.boundedness_ratio is not None
    assert res.boundedness_ratio.max() < np.inf


@pytest.mark.parametrize("spec", [("torus", 2), ("cyclic", 16), ("matrix", 3)])
def test_heat_certificates_are_the_continuity_form_at_eps_one(spec):
    # heat is the continuity form with eps = 1 and no flow: (1/2, 1/2), and
    # every margin is E(v) / 2 > 0 for probes off the kernel
    heat = _problem(spec, "heat", None, "implicit-euler", False)
    viscous = ev.EvolutionProblem(heat.space, "continuity", heat.u0, horizon=heat.horizon,
                                  dt=heat.dt, epsilon=1.0)
    assert ev.default_certificates(heat) == ev.default_certificates(viscous) == (0.5, 0.5)
    res = ev.solve_evolution(heat, rng=make_rng(105), probes=8)
    assert res.coercivity_margin.min() > 0


def test_epsilon_zero_flags_unverified_hypotheses(torus2_space):
    prob = _constant_flow_problem(torus2_space, eps=0.0, dt=0.05, horizon=0.2)
    res = ev.solve_evolution(prob, rng=make_rng(104))
    assert any("unverified" in f for f in res.flags)
    assert res.coercivity_margin is None


def test_flow_interpolation_is_linear():
    sp = dr.build_space(bk.NCTorus(1, THETA_IRR))
    U = bk.monomial(sp.backend, 1, 0)
    h0 = ca.gradient(sp, U)
    h1 = 3.0 * h0
    prob = ev.EvolutionProblem(sp, "continuity", U, horizon=1.0, dt=0.5, epsilon=0.1,
                               flow=[h0, h1], flow_times=[0.0, 1.0])
    mid = ev.flow_at(prob, 0.5)
    expected = 2.0 * h0
    assert max(np.linalg.norm(a - b) for a, b in zip(mid.data, expected.data)) <= 1e-14


# ---------------------------------------------------------------------------
# Step operators assembled once, against the per-step reference loop
# ---------------------------------------------------------------------------

SPECS = [("torus", 2), ("torus", 3), ("torus", 4), ("cyclic", 32), ("cyclic", 64),
         ("matrix", 3), ("matrix", 4)]


@functools.lru_cache(maxsize=None)
def _space(spec):
    return dr.build_space(backend_from_spec(spec))


def _problem(spec, form, flow, scheme, source, steps=4, dt=0.05):
    """An evolution on the space named by spec with seeded random data: the
    flow is absent, one gradient (constant) or three gradients sampled from
    dt to horizon - dt (held constant before the first sample and after the
    last), each of unit Hilbert norm."""
    sp = _space(spec)
    rng = make_rng(900)
    desc = sp.backend
    horizon = steps * dt
    kw = {}
    if form == "continuity":
        kw["epsilon"] = 0.1
        count = {"constant": 1, "sampled": 3}[flow]
        grads = [ca.gradient(sp, bk.random_element(desc, rng)) for _ in range(count)]
        kw["flow"] = [(1.0 / ca.hilbert_norm(h)) * h for h in grads]
        kw["flow_times"] = list(np.linspace(dt, horizon - dt, count)) if count > 1 else [0.0]
    if source:
        kw["source"] = [bk.random_element(desc, rng) for _ in range(2)]
        kw["source_times"] = [0.0, horizon]
    return ev.EvolutionProblem(sp, form, bk.random_element(desc, rng), horizon=horizon,
                               dt=dt, scheme=scheme, **kw)


def _inverse_steps(problem, states):
    """The states after the first of a continuity run, each made from the
    state before it by one product with the inverse of its step operator,
    lhs_inv @ rhs, with lhs, the inverse and rhs formed as ``solve_evolution``
    forms them."""
    dt, cn = problem.dt, problem.scheme == "crank-nicolson"
    weight = 0.5 * dt if cn else dt
    times = dt * np.arange(problem.n_steps() + 1)
    eye = np.eye(states.shape[1])
    b = (np.zeros_like(states) if problem.source is None
         else [ev.source_at(problem, t) for t in times])
    out = []
    for k in range(problem.n_steps()):
        lhs_inv = np.linalg.inv(eye + weight * ev.form_matrix(problem, times[k + 1]))
        if cn:
            explicit = eye - weight * ev.form_matrix(problem, times[k])
            rhs = explicit @ states[k] + weight * (b[k] + b[k + 1])
        else:
            rhs = states[k] + weight * b[k + 1]
        out.append(lhs_inv @ rhs)
    return np.array(out)


def _assert_close(a, b, scale=1.0, tol=1e-12):
    # relative to the reference's largest entry, or to ``scale`` where that
    # is larger: defects and residuals are themselves rounding-level numbers
    scale = max(float(np.abs(b).max()), scale)
    assert float(np.abs(a - b).max()) <= tol * scale


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s[0]}{s[1]}")
@pytest.mark.parametrize("source", [False, True], ids=["nosource", "source"])
@pytest.mark.parametrize("scheme", ev.SCHEMES)
@pytest.mark.parametrize("form,flow", [("heat", None), ("continuity", "constant"),
                                       ("continuity", "sampled")],
                         ids=["heat", "constant", "sampled"])
def test_evolution_matches_per_step_loop(spec, form, flow, scheme, source):
    prob = _problem(spec, form, flow, scheme, source)
    res = ev.solve_evolution(prob, rng=make_rng(77), probes=5)
    ref = loop_solve_evolution(prob, rng=make_rng(77), probes=5)
    if form == "continuity":
        assert res.states[1:].tobytes() == _inverse_steps(prob, res.states).tobytes()
    _assert_close(res.states, ref["states"])
    _assert_close(res.coercivity_margin, ref["margins"])
    _assert_close(res.boundedness_ratio, ref["bounds"])
    # a defect is a difference of traces of states, so it has their scale
    _assert_close(res.conservation_defect, ref["defects"], np.abs(ref["states"]).max())
    _assert_close(res.solve_residuals, ref["residuals"])
    assert res.solve_residuals.shape == (prob.n_steps(),)
    assert res.solve_residual_max == res.solve_residuals.max() <= 1e-12


def _count_calls(monkeypatch, name="form_matrix"):
    """The times passed to ``ev.<name>(problem, t)`` from now on, in call order."""
    calls = []
    fn = getattr(ev, name)

    def counted(problem, t):
        calls.append(t)
        return fn(problem, t)

    monkeypatch.setattr(ev, name, counted)
    return calls


@pytest.mark.parametrize("scheme", ev.SCHEMES)
@pytest.mark.parametrize("form", ["heat", "continuity"])
def test_constant_flow_assembles_one_form_matrix_per_run(monkeypatch, form, scheme):
    # a heat run steps in the eigenbasis and assembles none
    calls = _count_calls(monkeypatch)
    flow = "constant" if form == "continuity" else None
    for steps in (1, 7):
        for probes in (None, 1, 6):
            prob = _problem(("torus", 2), form, flow, scheme, True, steps=steps)
            rng = None if probes is None else make_rng(78)
            ev.solve_evolution(prob, rng=rng, probes=probes or 8)
            assert len(calls) == (form == "continuity")
            calls.clear()


@pytest.mark.parametrize("scheme", ev.SCHEMES)
def test_sampled_flow_assembles_one_form_matrix_per_node(monkeypatch, scheme):
    # the form is needed at t_1..t_n, and at t_0 for Crank-Nicolson; it is
    # assembled on the grid, once per distinct interpolation node
    calls = _count_calls(monkeypatch)
    prob = _problem(("torus", 2), "continuity", "sampled", scheme, True, steps=10, dt=0.02)
    ev.solve_evolution(prob, rng=make_rng(80), probes=3)
    grid = list(prob.dt * np.arange(prob.n_steps() + 1))
    if scheme == "implicit-euler":
        grid = grid[1:]
    nodes = {ev._interp_weights(prob.flow_times, t) for t in grid}
    assert len(calls) == len(nodes)
    assert set(calls) <= set(grid)
    assert {ev._interp_weights(prob.flow_times, t) for t in calls} == nodes


def test_sampled_flow_keeps_one_step_operator_at_a_time():
    # every step has its own operator here; the run holds the latest form
    # matrix and step operator, not one per step (about 15 dense (D, D)
    # arrays at 40 steps, where keeping every step operator took 52)
    prob = _problem(("torus", 4), "continuity", "sampled", "crank-nicolson", False,
                    steps=40, dt=0.01)
    tracemalloc.start()
    try:
        res = ev.solve_evolution(prob, rng=make_rng(3), probes=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 16 * prob.space.dim ** 2, peak
    assert res.solve_residual_max <= 1e-12


@pytest.mark.parametrize("scheme", ev.SCHEMES)
def test_source_is_evaluated_once_per_grid_time(monkeypatch, scheme):
    calls = _count_calls(monkeypatch, "source_at")
    prob = _problem(("torus", 2), "heat", None, scheme, True, steps=10)
    ev.solve_evolution(prob, rng=make_rng(81))
    assert calls == list(prob.dt * np.arange(prob.n_steps() + 1))


@pytest.mark.parametrize("scheme", ev.SCHEMES)
@pytest.mark.parametrize("form,flow", [("heat", None), ("continuity", "constant")])
def test_no_source_is_never_evaluated(monkeypatch, form, flow, scheme):
    # without a source its samples are zeros, not n + 1 calls returning zeros
    calls = _count_calls(monkeypatch, "source_at")
    prob = _problem(("torus", 2), form, flow, scheme, False, steps=10)
    res = ev.solve_evolution(prob, rng=make_rng(81))
    assert calls == []
    assert np.abs(res.conservation_defect).max() <= 1e-10


def test_singular_step_matrix_names_the_time(monkeypatch):
    prob = _problem(("torus", 2), "continuity", "constant", "implicit-euler", False, dt=0.25)
    D = prob.space.dim
    # I + dt * (-I / dt) is exactly zero at dt = 0.25
    monkeypatch.setattr(ev, "form_matrix", lambda problem, t: -np.eye(D) / problem.dt)
    with pytest.raises(bk.AlgebraError, match=r"singular step matrix at t=0\.25 "):
        ev.solve_evolution(prob)


@pytest.mark.parametrize("source", [False, True], ids=["nosource", "source"])
@pytest.mark.parametrize("scheme", ev.SCHEMES)
@pytest.mark.parametrize("spec", [("torus", 8), ("cyclic", 256)], ids=["torus8", "cyclic256"])
def test_diagonal_heat_never_builds_the_dense_space(spec, scheme, source):
    # a diagonal generator steps mode by mode: the whole run's traced peak
    # stays below one dense complex (D, D) array (at cyclic 64 the run's own
    # small arrays already reach that size, so the cyclic case runs order 256)
    prob = _problem(spec, "heat", None, scheme, source, steps=5)
    tracemalloc.start()
    try:
        res = ev.solve_evolution(prob, rng=make_rng(82), probes=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * prob.space.dim ** 2, peak
    assert res.solve_residual_max <= 1e-12


# ---------------------------------------------------------------------------
# Paper identities at larger sizes: torus level 4 and 8 (D = 81, 289),
# cyclic order 64, matrix dim 6 (D = 36)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ev.SCHEMES)
@pytest.mark.parametrize("spec", [("torus", 4), ("torus", 8), ("cyclic", 64), ("matrix", 6)],
                         ids=["torus4", "torus8", "cyclic64", "matrix6"])
def test_heat_stepping_against_exact_semigroup_at_scale(spec, scheme):
    # on the generator's eigenbasis each step multiplies a mode by the
    # scheme's rational function r(dt lam), and the terminal error against
    # the exact semigroup is |(r(dt lam)^n - e^{-T lam}) c| mode by mode
    prob = _problem(spec, "heat", None, scheme, False, steps=20, dt=0.05)
    sp = prob.space
    res = ev.solve_evolution(prob)
    z = prob.dt * sp.evals
    r = 1.0 / (1.0 + z) if scheme == "implicit-euler" else (1.0 - z / 2) / (1.0 + z / 2)
    gen, evecs = dense_form(sp)
    c0 = evecs.conj().T @ bk.to_l2(prob.u0)
    for k in range(prob.n_steps() + 1):
        exact_k = evecs @ (r ** k * c0)
        _assert_close(res.states[k], exact_k)
    # that closed form is the stepping's own formula: the first steps also
    # match dense solves (I + w L) x_{k+1} = (I - w L) x_k (explicit part I
    # for implicit Euler) with the generator as a matrix
    w = prob.dt / 2 if scheme == "crank-nicolson" else prob.dt
    eye = np.eye(sp.dim)
    explicit = eye - w * gen if scheme == "crank-nicolson" else eye
    x = res.states[0]
    for k in range(1, 4):
        x = np.linalg.solve(eye + w * gen, explicit @ x)
        _assert_close(res.states[k], x)
    err = np.linalg.norm((r ** prob.n_steps() - np.exp(-prob.horizon * sp.evals)) * c0)
    assert res.terminal_error_vs_oracle == pytest.approx(err, rel=1e-9, abs=1e-13)
    assert res.solve_residual_max <= 1e-12


@pytest.mark.parametrize("flow", ["constant", "sampled"])
@pytest.mark.parametrize("scheme", ev.SCHEMES)
@pytest.mark.parametrize("spec", [("torus", 4), ("cyclic", 64)], ids=["torus4", "cyclic64"])
def test_viscous_continuity_conserves_trace_at_scale(spec, scheme, flow):
    prob = _problem(spec, "continuity", flow, scheme, False, steps=10)
    res = ev.solve_evolution(prob, rng=make_rng(79))
    assert np.abs(res.conservation_defect).max() <= 1e-10
    assert np.abs(res.states[-1] - res.states[0]).max() > 1e-3
    assert res.coercivity_margin.min() >= -1e-9
    assert res.solve_residual_max <= 1e-12


# ---------------------------------------------------------------------------
# Discrete energy identity and weak derivative
# ---------------------------------------------------------------------------


def test_discrete_energy_identity(qubit, qubit_space):
    # ||u(T)||^2 + 2 int_0^T E[u] dt = ||u0||^2, up to first order in dt
    u0 = bk.element(qubit, SIGMA_X)
    dt, T = 1e-3, 1.0
    prob = ev.EvolutionProblem(qubit_space, "heat", u0, horizon=T, dt=dt)
    res = ev.solve_evolution(prob)
    gen = dense_form(qubit_space)[0]
    energies = np.einsum("ij,jk,ik->i", res.states.conj(), gen, res.states).real
    integral = dt * (0.5 * energies[0] + energies[1:-1].sum() + 0.5 * energies[-1])
    lhs = np.linalg.norm(res.states[-1]) ** 2 + 2.0 * integral
    rhs = np.linalg.norm(res.states[0]) ** 2
    # exact identity residual for the scalar mode is O(dt); scale by ||u0||^2
    assert abs(lhs - rhs) <= 20.0 * dt * rhs


def test_weak_derivative_identity_on_trajectory(qubit, qubit_space):
    # int <du/dt, v> phi dt = - int <u, v> phi' dt for smooth phi vanishing
    # at the endpoints, evaluated with trapezoidal quadrature
    u0 = bk.element(qubit, SIGMA_X)
    dt, T = 1e-3, 1.0
    prob = ev.EvolutionProblem(qubit_space, "heat", u0, horizon=T, dt=dt)
    res = ev.solve_evolution(prob)
    rng = make_rng(105)
    v = bk.to_l2(bk.random_element(qubit, rng))
    a = (res.states @ v.conj()).real        # scalar signal Re<u(t), v>_H
    t = res.times
    phi = np.sin(np.pi * t / T) ** 2
    dphi = 2.0 * np.sin(np.pi * t / T) * np.cos(np.pi * t / T) * np.pi / T
    da = np.diff(a) / dt                    # difference quotient, piecewise constant
    phi_mid = 0.5 * (phi[:-1] + phi[1:])
    lhs = float(np.sum(da * phi_mid) * dt)
    rhs = -float(np.trapezoid(a * dphi, t))
    assert abs(lhs - rhs) <= 5e-5 * max(abs(rhs), 1.0)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_problem_validation(qubit, qubit_space):
    u0 = bk.element(qubit, SIGMA_X)
    with pytest.raises(ValueError, match="unknown form 'wave'"):
        ev.EvolutionProblem(qubit_space, "wave", u0, horizon=1.0, dt=0.1)
    with pytest.raises(ValueError, match="dt and horizon must be positive"):
        ev.EvolutionProblem(qubit_space, "heat", u0, horizon=1.0, dt=-0.1)
    with pytest.raises(ValueError, match="unknown scheme 'rk4'"):
        ev.EvolutionProblem(qubit_space, "heat", u0, horizon=1.0, dt=0.1, scheme="rk4")
    with pytest.raises(ValueError, match="viscosity must be nonnegative"):
        ev.EvolutionProblem(qubit_space, "continuity", u0, horizon=1.0, dt=0.1, epsilon=-1.0)
    with pytest.raises(bk.BackendMismatch):
        z2 = dr.build_space(bk.CyclicGroup(2, (0.0, 1.0)))
        ev.EvolutionProblem(z2, "heat", u0, horizon=1.0, dt=0.1)
    # samples come with their times: none are spread for them
    h = ca.gradient(qubit_space, u0)
    with pytest.raises(ValueError, match="flow has 0 times for 2 samples"):
        ev.EvolutionProblem(qubit_space, "continuity", u0, horizon=1.0, dt=0.1,
                            epsilon=0.1, flow=[h, h])
    with pytest.raises(ValueError, match="source has 0 times for 1 samples"):
        ev.EvolutionProblem(qubit_space, "heat", u0, horizon=1.0, dt=0.1, source=[u0])


def test_horizon_must_be_step_multiple(qubit, qubit_space):
    with pytest.raises(ValueError, match="horizon must be an integer number of steps"):
        ev.EvolutionProblem(qubit_space, "heat", bk.element(qubit, SIGMA_X),
                            horizon=1.0, dt=0.3)
