"""Acceptance criteria, one test per criterion, each at its stated
tolerance and runtime budget.  Every test prints a single PASS/FAIL line
(visible with `pytest -s tests/test_acceptance.py`)."""

import json
import math
import time

import numpy as np

from ncpde import backends as bk
from ncpde import calculus as ca
from ncpde import cli
from ncpde import dirichlet as dr
from ncpde import elliptic as el
from ncpde import evolution as ev
from conftest import SIGMA_X, SIGMA_Z, THETA_IRR, dense_form, make_rng

TORUS_JSON = {"kind": "nc_torus", "theta": THETA_IRR, "rational": None}


def _criterion(number: int, description: str, budget_s: float):
    """Record elapsed time, print the verdict line, re-raise on failure."""

    class _Ctx:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.start
            ok = exc_type is None and elapsed < budget_s
            verdict = "PASS" if ok else "FAIL"
            print(f"ACCEPTANCE {number}: {verdict} ({elapsed:.2f}s) {description}")
            if exc_type is None and elapsed >= budget_s:
                raise AssertionError(
                    f"criterion {number} exceeded its {budget_s:.0f}s budget ({elapsed:.2f}s)")
            return False

    return _Ctx()


def three_backends():
    return {
        "matrix": dr.build_space(bk.MatrixAlgebra(2, (SIGMA_Z,))),
        "torus": dr.build_space(bk.NCTorus(3, THETA_IRR)),
        "cyclic": dr.build_space(bk.CyclicGroup(4, (0.0, 1.0, 2.0, 1.0))),
    }


def test_criterion_1_torus_poincare_constant(tmp_path, capsys):
    with _criterion(1, "torus spectral gap: gap = C_P = 1, kernel_dim = 1", 1.0):
        for N in (1, 2, 4):
            config = {"command": "gap", "backend": {**TORUS_JSON, "level": N}, "seed": 7}
            out_dir = tmp_path / f"gap{N}"
            code = cli.run(config, out_dir=str(out_dir), quiet=True)
            assert code == 0
            report = json.loads((out_dir / "report.json").read_text())
            assert abs(report["gap"] - 1.0) <= 1e-12
            assert abs(report["C_P"] - 1.0) <= 1e-12
            assert report["kernel_dim"] == 1


def test_criterion_2_generator_factorization():
    with _criterion(2, "generator equals divergence of gradient on all backends", 1.0):
        for name, sp in three_backends().items():
            gm = ca.gradient_matrix(sp)
            gen = dense_form(sp)[0]
            rel = np.linalg.norm(gm.conj().T @ gm - gen) / np.linalg.norm(gen)
            assert rel <= 1e-10, (name, rel)


def test_criterion_3_tensor_norm_formula():
    with _criterion(3, "energy-form tensor norm matches componentwise norm", 5.0):
        rng = make_rng(301)
        for name, sp in three_backends().items():
            radius = 1 if name == "torus" else None
            for _ in range(100):
                a = bk.random_element(sp.backend, rng, radius=radius)
                b = bk.random_element(sp.backend, rng, radius=radius)
                via_form = ca.simple_tensor_norm_sq(sp, a, b)
                via_parts = ca.hilbert_norm(ca.right_act(ca.gradient(sp, a), b)) ** 2
                assert abs(via_form - via_parts) <= 1e-9 * (1.0 + via_parts), name


def test_criterion_4_carre_du_champ_consistency(pair3_space):
    with _criterion(4, "trace of Gamma equals the energy; Gamma battery completely positive", 5.0):
        rng = make_rng(401)
        for name, sp in three_backends().items():
            for _ in range(25):
                a = bk.random_element(sp.backend, rng)
                g = dr.carre_du_champ(sp, a)
                e = dr.dirichlet_form(sp, a).real
                assert abs(bk.trace(g).real - e) <= 1e-10 * (1.0 + abs(e)), name
        qubit_space = three_backends()["matrix"]
        for sp in (qubit_space, pair3_space):
            for _ in range(50):
                As = [bk.random_element(sp.backend, rng) for _ in range(3)]
                Bs = [bk.random_element(sp.backend, rng) for _ in range(3)]
                acc = bk.zero(sp.backend)
                for j in range(3):
                    for k in range(3):
                        gjk = dr.carre_du_champ(sp, As[j], As[k])
                        acc = acc + bk.mul(bk.mul(bk.adjoint(Bs[j]), gjk), Bs[k])
                wit = float(np.linalg.eigvalsh(bk.represent(acc)).min())
                assert wit >= -1e-9 * max(bk.norm_l2(acc), 1.0)


def test_criterion_5_markovianity(qubit_space, z4_space):
    with _criterion(5, "qubit and Z_4 semigroups are Markov at t in {0.1, 1, 10}", 1.0):
        for sp in (qubit_space, z4_space):
            report = dr.markov_check(sp, [0.1, 1.0, 10.0], make_rng(501), tol=1e-10)
            assert report.passed, [c.name for c in report.checks if not c.passed]
            assert not report.flags


def test_criterion_6_metric_pairing():
    with _criterion(6, "metric density traces to the tangent norm and stays positive", 5.0):
        rng = make_rng(601)
        for name, sp in three_backends().items():
            radius = 1 if name == "torus" else None
            for _ in range(100):
                h = ca.random_tangent(sp, rng, radius=radius)
                rho = ca.riemannian_metric(sp, h, h)
                nh2 = ca.hilbert_norm(h) ** 2
                assert abs(bk.trace(rho).real - nh2) <= 1e-10 * (1.0 + nh2), name
                witness = float(bk.witness_data(sp.backend, rho.data))
                assert not math.isnan(witness)
                assert witness >= -1e-10 * max(bk.norm_l2(rho), 1.0), name


def test_criterion_7_poisson_oracle_equivalence():
    with _criterion(7, "spectral and variational Poisson solvers agree", 10.0):
        rng = make_rng(701)
        for name, sp in three_backends().items():
            for _ in range(20):
                f = bk.random_element(sp.backend, rng)
                f = bk.from_l2(sp.backend, dr.project_off_kernel(sp, bk.to_l2(f)))
                spectral = el.solve_poisson(sp, f)
                variational = el.minimize_dirichlet_energy(sp, f)
                assert bk.norm_l2(spectral.solution - variational.solution) <= 1e-8, name
                assert spectral.residual_strong <= 1e-8, name
                assert variational.residual_strong <= 1e-8, name


def test_criterion_8_quasilinear_scalar_benchmark():
    with _criterion(8, "quasilinear solve matches the bisection root; restarts agree", 10.0):
        # independent oracle: bisection for c + c / sqrt(1 + c^2) = 1
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + mid / np.sqrt(1.0 + mid * mid) < 1.0:
                lo = mid
            else:
                hi = mid
        c_star = 0.5 * (lo + hi)
        t = bk.NCTorus(2, THETA_IRR)
        sp = dr.build_space(t)
        U = bk.monomial(t, 1, 0)
        base = el.solve_quasilinear(sp, el.curved_map(1.0), U)
        coeff = base.solution.data[t.level + 1, t.level]
        assert abs(coeff - c_star) <= 1e-8
        rng = make_rng(801)
        for _ in range(5):
            init = rng.standard_normal(base.galerkin_dim)
            other = el.solve_quasilinear(sp, el.curved_map(1.0), U, init=init)
            assert bk.norm_l2(base.solution - other.solution) <= 1e-8


def test_criterion_9_heat_convergence_orders(qubit, qubit_space):
    with _criterion(9, "implicit Euler halves, Crank-Nicolson quarters the heat error", 30.0):
        t = bk.NCTorus(1, THETA_IRR)
        cases = [(qubit_space, bk.element(qubit, SIGMA_X)),
                 (dr.build_space(t), bk.monomial(t, 1, 0) + bk.scale(0.5, bk.monomial(t, 1, 1)))]
        for space, u0 in cases:
            errors = {}
            for scheme in ("implicit-euler", "crank-nicolson"):
                errors[scheme] = []
                for dt in (1e-2, 5e-3, 2.5e-3):
                    prob = ev.EvolutionProblem(space, "heat", u0, horizon=1.0,
                                               dt=dt, scheme=scheme)
                    errors[scheme].append(ev.solve_evolution(prob).terminal_error_vs_oracle)
            for e1, e2 in zip(errors["implicit-euler"], errors["implicit-euler"][1:]):
                assert 0.5 * 0.8 <= e2 / e1 <= 0.5 * 1.2
            for e1, e2 in zip(errors["crank-nicolson"], errors["crank-nicolson"][1:]):
                assert 0.25 * 0.8 <= e2 / e1 <= 0.25 * 1.2


def test_criterion_10_continuity_conservation():
    with _criterion(10, "viscous continuity run conserves the trace pairing", 10.0):
        t = bk.NCTorus(2, THETA_IRR)
        sp = dr.build_space(t)
        U = bk.monomial(t, 1, 0)
        u0 = bk.unit(t) + bk.scale(0.3, U) + bk.scale(0.2, bk.monomial(t, 0, 1))
        prob = ev.EvolutionProblem(sp, "continuity", u0, horizon=1.0, dt=1e-2,
                                   epsilon=0.1, flow=[ca.gradient(sp, U)],
                                   flow_times=[0.0])
        res = ev.solve_evolution(prob)
        assert np.abs(res.conservation_defect).max() <= 1e-10
        # sanity: the state genuinely evolves
        assert np.abs(res.states[-1] - res.states[0]).max() > 1e-3
