"""Weak solutions of div(grad u) = f and of the monotone quasilinear
problem div(F(grad u)) = f.

The linear problem is solved twice, through deliberately independent
routes: diagonal inversion in the generator's eigenbasis, and conjugate
gradients on the Dirichlet energy functional

    I(u) = ||grad u||^2 / 2 - Re<f, u>

on complex L^2 coordinates under Re<.,.>.  The quasilinear problem is
projected onto an energy-orthonormal eigenbasis w of the kernel
complement (Galerkin): v_j / sqrt(lam_j) and i v_j / sqrt(lam_j) for each
eigenpair (lam_j, v_j) off the kernel, interleaved.  The finite root problem
V_k(d) = Re<div F(grad u), w_k> - Re<f, w_k> = 0, u = sum_k d_k w_k, is
solved for real coefficients d, since F need not be complex-linear, by
damped Newton on all coefficients at once.  Each Newton step is a
Jacobian-free conjugate-gradient solve on finite-difference products
J p = (V(d + e p) - V(d)) / e, one V evaluation per product, stopped at a
fixed forcing term (Jacobian-free Newton-Krylov) by the same CG loop as
the linear problem; an iteration whose CG meets nonpositive curvature, or
whose Armijo search stagnates, raises.  V is one ``derive``, F and
``codifferential`` of a coefficient stack; no matrix of the basis or of the
Jacobian is built.  For a monotone, coercive F the root is unique, so the
start decides only how many iterations Newton takes.

Solvability gate: in finite dimensions a weak solution exists only for
right-hand sides orthogonal to the generator kernel.  Kernel mass beyond
tolerance is a hard error unless the caller opts into projection, which
records the discarded mass and solves for b, f projected (else b = f).
Residuals, relative to ||f|| as given: strong ||S u - b||, S u = L u with L
as stored for Poisson and div F(grad u) for the quasilinear solve; weak
max_j |<v_j, div F(grad u) - b>| over the full eigenbasis v, kernel
included, with div F(grad u) by ``derive`` and ``codifferential``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import backends as bk
from .backends import AlgebraElement
# gradient stays bound here: perfbench/tests/test_tracing.py reads it in this namespace
from .calculus import gradient, tangent_components  # noqa: F401
from .dirichlet import (DirichletSpace, _eigen_coords, _from_eigen, _l2_generator,
                        kernel_component, project_off_kernel)
from .reports import Report, check_ge, check_le


class NoSolution(bk.AlgebraError):
    """The right-hand side has kernel mass beyond tolerance."""


class ConvergenceFailure(bk.AlgebraError):
    pass


@dataclass(frozen=True)
class NewtonStep:
    """One damped-Newton iteration: infinity-norm residual before the step,
    accepted step length, and how many Jacobian-vector products its CG made."""

    residual: float
    alpha: float
    products: int = 0


@dataclass
class SolveReport:
    solution: AlgebraElement
    residual_weak: float
    residual_strong: float
    iterations: int
    galerkin_dim: int
    kernel_component: float
    flags: list[str] = field(default_factory=list)
    energy_history: list[float] | None = None
    cg_history: list[float] | None = None    # ||r||^2 of the variational CG, per update
    newton_trace: list[NewtonStep] | None = None


KERNEL_RTOL = 1e-10
CG_RTOL = 1e-13               # conjugate gradients stop at CG_RTOL * ||f||
NEWTON_RTOL = 1e-12           # Newton stops at NEWTON_RTOL * ||rhs|| (max norm)
MAX_NEWTON = 60               # Newton iterations per solve
JV_STEP = 1e-7                # Jacobian-vector product step, relative to (1 + ||d||) / ||p||
FORCING = 1e-6                # CG on the Newton step stops at FORCING * ||V(d)||
PROBE_SAMPLES = 64            # structure-probe sample pairs per solve
PROBE_SEED = 20_240_101       # the probes' own seed: equal maps and spaces probe alike
PROBE_TOL = 1e-9              # slack of every structure-probe check


def _gate_kernel(space: DirichletSpace, f: AlgebraElement, project: bool,
                 flags: list[str]) -> tuple[np.ndarray, float]:
    """L^2 coordinates b of the right-hand side solved for (f, or f projected
    off the kernel when ``project``) and the kernel mass of f."""
    b = bk.to_l2(f)
    mass = kernel_component(space, b)
    tol = KERNEL_RTOL * max(np.linalg.norm(b), 1e-300)
    if not (mass <= tol):      # NaN mass fails the gate
        if not project:
            raise NoSolution(f"kernel component {mass:.3e} exceeds tolerance {tol:.3e}")
        b = project_off_kernel(space, b)
        flags.append(f"projected_kernel_mass={mass:.6e}")
    return b, mass


def _solve_report(space: DirichletSpace, f: AlgebraElement, b: np.ndarray, u: np.ndarray,
                  image: np.ndarray, div_F: np.ndarray, mass: float, flags: list[str],
                  **fields) -> SolveReport:
    """Report on u solving for b, all on L^2 coordinates: strong residual ||image - b||
    for image = L u as stored (Poisson) or div F(grad u) (quasilinear); weak residual
    max_j |<v_j, div_F - b>| = max_j |<F(grad u), grad v_j> - <b, v_j>| over the full
    eigenbasis, kernel included, for div_F = div F(grad u) by ``derive`` and
    ``codifferential``; both relative to ||f|| as given."""
    fscale = max(bk.norm_l2(f), 1e-300)
    return SolveReport(solution=bk.from_l2(space.backend, u), kernel_component=mass, flags=flags,
                       residual_weak=float(np.abs(_eigen_coords(space, div_F - b)).max()) / fscale,
                       residual_strong=float(np.linalg.norm(image - b) / fscale), **fields)


def solve_poisson(space: DirichletSpace, f: AlgebraElement, *,
                  project_kernel: bool = False) -> SolveReport:
    """Spectral solution of div(grad u) = f on the kernel complement."""
    flags: list[str] = []
    b, mass = _gate_kernel(space, f, project_kernel, flags)
    perp, lam = slice(space.kernel_dim, None), space.evals[space.kernel_dim:]
    u = _from_eigen(space, _eigen_coords(space, b, perp) / lam, perp)
    return _solve_report(space, f, b, u, _l2_generator(space, u),
                         _div_F_grad(space, identity_map(), u), mass, flags,
                         iterations=0, galerkin_dim=int(lam.size))


def minimize_dirichlet_energy(space: DirichletSpace, f: AlgebraElement, *,
                              project_kernel: bool = False) -> SolveReport:
    """Conjugate-gradient minimization of I(u) = E[u]/2 - Re<f, u> on complex
    L^2 coordinates under the real inner product Re<.,.>: the iterates of CG
    on the realified 2D-dimensional system, with the generator applied as
    stored (d^* L d is real for Hermitian L); independent of the eigensystem."""
    flags: list[str] = []
    b, mass = _gate_kernel(space, f, project_kernel, flags)
    n = 2 * b.size   # real dimension
    history = [0.0]   # I(x) of each iterate, -Re<x, b + r> / 2 since A x = b - r
    x, rr = _cg(lambda p: _l2_generator(space, p), b, CG_RTOL, 4 * n,
                lambda x, r: history.append(float(-0.5 * np.vdot(x, b + r).real)))
    if math.sqrt(rr[-1]) > CG_RTOL * math.sqrt(rr[0]):
        raise ConvergenceFailure(f"conjugate gradients stalled at residual {math.sqrt(rr[-1]):.3e}")
    if any(h2 > h1 + 1e-12 * (1 + abs(h1)) for h1, h2 in zip(history, history[1:])):
        flags.append("energy_not_monotone")
    return _solve_report(space, f, b, x, _l2_generator(space, x),
                         _div_F_grad(space, identity_map(), x), mass, flags, galerkin_dim=n,
                         iterations=len(rr) - 1, energy_history=history, cg_history=rr)


def _cg(apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray, rtol: float, maxiter: int,
        each: Callable | None = None) -> tuple[np.ndarray, list[float]]:
    """Conjugate gradients on A x = b from x = 0 under Re<.,.> (real or
    complex vectors), with A p = ``apply(p)`` returned as a fresh array.
    Stops once ||r|| <= rtol ||b|| or after ``maxiter`` products, and raises
    ``ConvergenceFailure`` at curvature Re<p, A p> <= 0 (or NaN);
    ``each(x, r)`` sees every update.  Returns the last iterate and ||r||^2
    before the first and after every update."""
    x, r, p = np.zeros(b.shape, b.dtype), b.copy(), b.copy()
    rr = [np.vdot(b, b).real]
    stop = rtol * math.sqrt(rr[0])
    while math.sqrt(rr[-1]) > stop and len(rr) <= maxiter:
        if len(rr) > 1:
            p *= rr[-1] / rr[-2]
            p += r
        Ap = apply(p)
        curvature = np.vdot(p, Ap).real
        if not curvature > 0.0:
            raise ConvergenceFailure(f"conjugate gradients met curvature {curvature:.3e} <= 0")
        a = rr[-1] / curvature
        x += a * p
        Ap *= a
        r -= Ap
        rr.append(np.vdot(r, r).real)
        if each is not None:
            each(x, r)
    return x, rr


# ---------------------------------------------------------------------------
# Nonlinear maps on the tangent module
# ---------------------------------------------------------------------------


@dataclass
class NonlinearMap:
    """A map F on tangent vectors with its declared structure constants:
    growth ||F(h)|| <= c0 (1 + ||h||), coercivity Re<F(h), h> >= c1 ||h|| - c2,
    and strong monotonicity modulus theta (None if only plain monotone).

    ``func`` acts on the stacked complex L^2 coordinates of tangent vectors:
    the last axis has length k*D (the k frame components in order), and any
    leading axes are a batch of vectors mapped independently.

    The quasilinear solve assumes that F has a symmetric derivative under
    Re<.,.>, as the gradient of a functional does (identity and curved are
    gradients of convex functionals, negated is -identity): its Newton steps
    run conjugate gradients on the Galerkin Jacobian, and the solve raises
    where CG meets nonpositive curvature, as it does for a decreasing F."""

    func: Callable[[np.ndarray], np.ndarray]
    name: str
    c0: float
    c1: float
    c2: float
    theta: float | None = None

    def __call__(self, h: np.ndarray) -> np.ndarray:
        return self.func(h)


def identity_map() -> NonlinearMap:
    return NonlinearMap(lambda h: h, "identity", c0=1.0, c1=1.0, c2=0.25, theta=1.0)


def curved_map(beta: float = 1.0) -> NonlinearMap:
    """F(h) = h + beta * h / sqrt(1 + ||h||^2): the gradient of the strongly
    convex functional ||v||^2/2 + beta sqrt(1 + ||v||^2), hence 1-strongly
    monotone for beta >= 0."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")

    def f(h: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(h, axis=-1, keepdims=True)
        return (1.0 + beta / np.sqrt(1.0 + norm ** 2)) * h

    return NonlinearMap(f, f"curved(beta={beta:g})", c0=1.0 + beta, c1=1.0, c2=0.25, theta=1.0)


def negated_map() -> NonlinearMap:
    """F(h) = -h; fails every probe, kept as a negative control."""
    return NonlinearMap(lambda h: -h, "negated", c0=1.0, c1=1.0, c2=0.0, theta=None)


def probe_map(space: DirichletSpace, F: NonlinearMap, rng: np.random.Generator,
              samples: int = PROBE_SAMPLES) -> Report:
    """Statistical verification of monotonicity, growth and coercivity.

    h and v of all samples are one ``random_data`` stack (samples, 2, k) +
    shape, drawn before one ``uniform`` call for the scales of h.  Coercivity
    is probed in the declared linear form Re<F(h), h> >= c1 ||h|| - c2 and,
    additionally, in the quadratic form with the same constants; both
    margins are reported.
    """
    report = Report(kind="probe-map", extra={"map": F.name, "samples": samples})
    hv = bk.random_data(space.backend, rng, (samples, 2, tangent_components(space)))
    scales = rng.uniform(0.1, 3.0, (samples, 1))
    h, v = hv[:, 0].reshape(samples, -1) * scales, hv[:, 1].reshape(samples, -1)
    Fh = F(h)
    dF, dh = Fh - F(v), h - v
    dh2 = np.linalg.norm(dh, axis=1) ** 2
    seen = dh2 > 0            # an empty frame (k = 0) leaves every dh empty
    mono = (np.einsum("ij,ij->i", dF.conj(), dh).real[seen] / dh2[seen]).min(initial=np.inf)
    nh = np.linalg.norm(h, axis=1)
    growth = (np.linalg.norm(Fh, axis=1) / (1.0 + nh)).max(initial=0.0)
    pairing = np.einsum("ij,ij->i", Fh.conj(), h).real
    coer_lin = (pairing - F.c1 * nh + F.c2).min(initial=np.inf)
    coer_quad = (pairing - F.c1 * nh ** 2 + F.c2).min(initial=np.inf)
    report.checks.append(check_ge("monotonicity_margin", float(mono), -PROBE_TOL))
    report.checks.append(check_le("growth_ratio", float(growth), F.c0 + PROBE_TOL))
    report.checks.append(check_ge("coercivity_margin_linear", float(coer_lin), -PROBE_TOL))
    report.extra["coercivity_margin_quadratic"] = float(coer_quad)
    if F.theta is not None:
        report.checks.append(check_ge("strong_monotonicity_margin",
                                      float(mono) - F.theta, -PROBE_TOL))
    return report


# ---------------------------------------------------------------------------
# Quasilinear Galerkin solve
# ---------------------------------------------------------------------------


def _from_galerkin(space: DirichletSpace, d: np.ndarray) -> np.ndarray:
    """L^2 coordinates (..., D) of sum_k d_k w_k for real coefficients d
    (..., M): the pair (d_2j, d_2j+1) weighs v_j / sqrt(lam_j) and
    i v_j / sqrt(lam_j), over the eigenpairs (lam_j, v_j) off the kernel."""
    perp = slice(space.kernel_dim, None)
    return _from_eigen(space, d.view(np.complex128) / np.sqrt(space.evals[perp]), perp)


def _to_galerkin(space: DirichletSpace, y: np.ndarray) -> np.ndarray:
    """Re<y, w_k> for L^2 coordinates y (..., D), in the order of
    ``_from_galerkin``: the real and imaginary parts of <v_j, y> / sqrt(lam_j)."""
    perp = slice(space.kernel_dim, None)
    # a batch can come back Fortran-ordered (the diagonal spaces' fancy
    # index); the view needs a contiguous last axis
    return np.ascontiguousarray(
        _eigen_coords(space, y, perp) / np.sqrt(space.evals[perp])).view(np.float64)


def _div_F_grad(space: DirichletSpace, F: NonlinearMap, u: np.ndarray) -> np.ndarray:
    """div F(grad u) on L^2 coordinates (..., D): one ``derive``, F and one
    ``codifferential`` of the stack."""
    desc, lead, k = space.backend, u.shape[:-1], tangent_components(space)
    grad = desc.derive(u.reshape(lead + desc.shape())).reshape(lead + (k * space.dim,))
    return bk.l2_coords(desc, desc.codifferential(F(grad).reshape(lead + (k,) + desc.shape())))


def galerkin_residual(space: DirichletSpace, F: NonlinearMap,
                      rhs: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """V_k(d) = Re<F(grad u), grad w_k> - rhs_k with u = sum_j d_j w_j, as
    Re<div F(grad u), w_k> - rhs_k.  ``d`` may be a batch (..., M) of
    coefficient vectors, mapped independently."""

    def V(d: np.ndarray) -> np.ndarray:
        return _to_galerkin(space, _div_F_grad(space, F, _from_galerkin(space, d))) - rhs

    return V


def solve_quasilinear(space: DirichletSpace, F: NonlinearMap, f: AlgebraElement, *,
                      init: np.ndarray | None = None, force: bool = False,
                      project_kernel: bool = False) -> SolveReport:
    """Damped-Newton solve of the Galerkin system
    V_k(d) = Re<div F(grad u), w_k> - Re<f, w_k> = 0, u = sum_j d_j w_j,
    over the full energy-orthonormal eigenbasis (``galerkin_residual``).

    ``init`` holds initial real coefficients on the full basis, (Re, Im)
    pairs interleaved per eigenvector off the kernel, ascending; ``force``
    skips the structure probes of F."""
    flags: list[str] = []
    if not force:
        probe = probe_map(space, F, np.random.default_rng(PROBE_SEED))
        if not probe.passed:
            failed = [c.name for c in probe.checks if not c.passed]
            raise ConvergenceFailure(f"map {F.name} failed structure probes: {failed}")
    b, mass = _gate_kernel(space, f, project_kernel, flags)
    M = 2 * (space.dim - space.kernel_dim)
    rhs = _to_galerkin(space, b)   # Re<b, w_k>
    d = np.zeros(M) if init is None else np.array(init, dtype=float)
    if d.shape != (M,):
        raise ValueError(f"initial guess has shape {d.shape}, expected ({M},)")
    trace: list[NewtonStep] = []
    d = _newton(galerkin_residual(space, F, rhs), d, max(np.linalg.norm(rhs), 1e-300), trace)
    u = _from_galerkin(space, d)
    div_F = _div_F_grad(space, F, u)
    return _solve_report(space, f, b, u, div_F, div_F, mass, flags, iterations=len(trace),
                         galerkin_dim=M, newton_trace=trace)


def _newton(V, d: np.ndarray, scale_: float, trace: list[NewtonStep]) -> np.ndarray:
    """Damped Newton from ``d`` with Armijo backtracking on ||V||^2, which
    raises ``ConvergenceFailure`` once the step length drops below 1e-10.
    Each step solves J s = V(d) by conjugate gradients on finite-difference
    products J p = (V(d + e p) - V(d)) / e, with e = JV_STEP (1 + ||d||) / ||p||,
    to FORCING * ||V(d)||; CG needs a symmetric positive definite J (see
    ``NonlinearMap``).  An iteration whose CG has not converged after
    M = d.size products takes the CG iterate to the line search.  Appends
    one ``NewtonStep`` per iteration to ``trace``."""
    stop = NEWTON_RTOL * scale_
    r = V(d)
    for it in range(MAX_NEWTON + 1):
        res = float(np.linalg.norm(r, np.inf))
        if res <= stop:
            return d
        if it == MAX_NEWTON:
            raise ConvergenceFailure(f"Newton did not converge in {MAX_NEWTON} "
                                     f"iterations (residual {res:.3e})")
        step, products = _krylov_step(V, d, r)
        base = float(r @ r)
        alpha = 1.0
        while alpha >= 1e-10:
            trial = d - alpha * step
            rt = V(trial)
            if float(rt @ rt) <= (1.0 - 1e-4 * alpha) * base:
                break
            alpha *= 0.5
        else:
            raise ConvergenceFailure(f"Newton line search stagnated at residual {res:.3e}")
        d, r = trial, rt      # the accepted residual is the next iteration's
        trace.append(NewtonStep(res, alpha, products))


def _krylov_step(V, d: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, int]:
    """CG on J s = r = V(d) with finite-difference products of J, and the
    number of products made; the step is the last iterate when d.size
    products leave it short of the forcing term."""
    e_p = JV_STEP * (1.0 + math.sqrt(d @ d))   # e ||p||

    def J(p: np.ndarray) -> np.ndarray:
        e = e_p / math.sqrt(float(p @ p))
        return (V(d + e * p) - r) / e

    s, rr = _cg(J, r, FORCING, d.size)
    return s, len(rr) - 1
