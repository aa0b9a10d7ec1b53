"""Implicit time stepping for weak parabolic problems in the triple
V = D(E)  <  H = L^2(tau)  <  V*.

Over real coordinates the L^2 Gram matrix is the identity (the coefficient
bases are orthonormal) and the V inner product is <u, v> + E(u, v); the
embedding is the identity on coordinates and its adjoint is Gram-matrix
transport.  A problem is the heat form F(u, v) = E(u, v) or the viscous
continuity form

    F(u, v; t) = eps * E(u, v) + Re< h(t) . u, grad v >,

with a sampled flow t -> h(t) of tangent vectors (linear interpolation
between samples) and an optional sampled source t -> b(t) given by L^2
representatives.  Stepping is implicit Euler or Crank-Nicolson.  The form
depends on t only through the flow's interpolation node, so each distinct
node's form matrix is assembled once and each distinct step operator is
inverted once (once per run for the heat form or a constant flow); each
step is then one product with that inverse, and its relative residual is
still recorded per step.

The transport form annihilates constant test vectors because the gradient
of the unit vanishes, so for b = 0 the trace Re<u_k, 1> is conserved to
solver roundoff; the per-step defect is reported.  The pure transport form
(eps = 0) need not satisfy the coercivity hypothesis of the underlying
well-posedness theorem; such runs carry a prominent flag.  For eps > 0 the
form dominates through Young's inequality with the dimension-dependent
bound ||v||_op <= sqrt(D) ||v||_2, giving certificates

    c0 = eps / 2,   c1 = eps / 2 + D * max_t ||h(t)||^2 / (2 eps),

whose empirical margins are checked on a probe battery every step (evaluated
once per distinct form matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backends as bk
from . import coords as co
from .backends import AlgebraElement
# gradient and right_act stay bound here: perfbench/tests/test_tracing.py
# checks that tracing patches and restores them in this namespace
from .calculus import TangentVector, gradient, hilbert_norm, right_act, zero_tangent  # noqa: F401
from .dirichlet import DirichletSpace, semigroup_apply

SCHEMES = ("implicit-euler", "crank-nicolson")


@dataclass(frozen=True)
class TripleMaps:
    """Real-coordinate data of the Gelfand triple."""

    dim_real: int
    e_gram: np.ndarray          # V Gram: identity + realified generator


def assemble_triple(space: DirichletSpace) -> TripleMaps:
    D = space.dim
    return TripleMaps(2 * D, np.eye(2 * D) + co.realify_operator(space.generator))


@dataclass
class EvolutionProblem:
    space: DirichletSpace
    form: str                                   # "heat" | "continuity"
    u0: AlgebraElement
    horizon: float
    dt: float
    scheme: str = "implicit-euler"
    epsilon: float = 0.0
    flow_times: list[float] | None = None
    flow: list[TangentVector] | None = None
    source_times: list[float] | None = None
    source: list[AlgebraElement] | None = None
    certificates: tuple[float, float] | None = None   # (c0, c1) override

    def __post_init__(self):
        if self.form not in ("heat", "continuity"):
            raise ValueError(f"unknown form {self.form!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be positive")
        if self.epsilon < 0:
            raise ValueError("viscosity must be nonnegative")
        if not bk.same_backend(self.u0.backend, self.space.backend):
            raise bk.BackendMismatch("initial value backend mismatch")
        if self.form == "continuity" and self.flow is None:
            self.flow = [zero_tangent(self.space)]
            self.flow_times = [0.0]
        if self.flow is not None and self.flow_times is None:
            self.flow_times = [0.0] if len(self.flow) == 1 else list(
                np.linspace(0.0, self.horizon, len(self.flow))
            )
        if self.source is not None and self.source_times is None:
            self.source_times = [0.0] if len(self.source) == 1 else list(
                np.linspace(0.0, self.horizon, len(self.source))
            )

    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def _interp_weights(times, t: float) -> tuple[int, int, float]:
    ts = np.asarray(times, dtype=float)
    if ts.size == 1 or t <= ts[0]:
        return 0, 0, 0.0
    if t >= ts[-1]:
        return len(ts) - 1, len(ts) - 1, 0.0
    j = int(np.searchsorted(ts, t, side="right")) - 1
    w = float((t - ts[j]) / (ts[j + 1] - ts[j]))
    return j, j + 1, w


def flow_at(problem: EvolutionProblem, t: float) -> TangentVector:
    i, j, w = _interp_weights(problem.flow_times, t)
    if i == j or w == 0.0:
        return problem.flow[i]
    return (1.0 - w) * problem.flow[i] + w * problem.flow[j]


def source_real(problem: EvolutionProblem, t: float) -> np.ndarray:
    D2 = 2 * problem.space.dim
    if problem.source is None:
        return np.zeros(D2)
    i, j, w = _interp_weights(problem.source_times, t)
    c = (1.0 - w) * bk.to_l2(problem.source[i]) + w * bk.to_l2(problem.source[j])
    return co.realify_vector(c)


def _transport_matrix(space: DirichletSpace, h: TangentVector) -> np.ndarray:
    """Real matrix of (u, v) -> Re< h . u, grad v > on real coordinates.
    With G_c the frame matrices of the gradient and Lmul(h_c) the matrix of
    u -> h_c u, S[a, b] = < h . e_b, grad e_a > = sum_c (G_c^T conj(Lmul(h_c)))[a, b]
    (antilinear in b)."""
    desc = space.backend
    S = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for G, p in zip(desc.frame_matrices(), h.parts):
        S += G.T @ np.conj(desc.lmul(p.data))
    return np.block([[S.real, S.imag], [-S.imag, S.real]])


def form_matrix(problem: EvolutionProblem, t: float) -> np.ndarray:
    gen_r = co.realify_operator(problem.space.generator)
    if problem.form == "heat":
        return gen_r
    A = problem.epsilon * gen_r
    h = flow_at(problem, t)
    if any(bk.norm_l2(p) > 0 for p in h.parts):
        A = A + _transport_matrix(problem.space, h)
    return A


def _memo(cache: dict, key, build):
    """cache[key], built on first use.  Times only advance during a run, so
    the oldest entry is dropped once two are held: a step needs its own node
    and the next one, and a sampled flow never returns to an earlier one."""
    if key not in cache:
        if len(cache) == 2:
            del cache[next(iter(cache))]
        cache[key] = build()
    return cache[key]


class StepOperators:
    """Step matrices of one run, memoised by the flow's interpolation node.

    ``form_matrix`` depends on t only through the node
    ``_interp_weights(flow_times, t)``, a constant for the heat form, so each
    distinct node is assembled once and each distinct (now, next) pair of
    nodes gives one step matrix, inverted once.  For a constant flow that is
    one form matrix and one inverse per run."""

    def __init__(self, problem: EvolutionProblem):
        self.problem = problem
        self._forms: dict = {}
        self._steps: dict = {}

    def node(self, t: float):
        if self.problem.form == "heat":
            return None
        return _interp_weights(self.problem.flow_times, t)

    def form(self, t: float) -> np.ndarray:
        return _memo(self._forms, self.node(t), lambda: form_matrix(self.problem, t))

    def step_matrices(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(lhs, its inverse, explicit part) of the step from t; the explicit
        part is None for implicit Euler, whose right-hand side is x itself."""
        cn = self.problem.scheme == "crank-nicolson"
        key = (self.node(t) if cn else None, self.node(t + self.problem.dt))
        return _memo(self._steps, key, lambda: self._build_step(t, cn))

    def _build_step(self, t: float, cn: bool):
        dt = self.problem.dt
        eye = np.eye(2 * self.problem.space.dim)
        if cn:
            explicit = eye - 0.5 * dt * self.form(t)
            lhs = eye + 0.5 * dt * self.form(t + dt)
        else:
            explicit = None
            lhs = eye + dt * self.form(t + dt)
        try:
            lhs_inv = np.linalg.inv(lhs)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(lhs))
            raise bk.AlgebraError(
                f"singular step matrix at t={t + dt:g} (condition {cond:.3e}); "
                "pure transport with eps=0 can lose coercivity"
            ) from exc
        return lhs, lhs_inv, explicit


def step(problem: EvolutionProblem, x: np.ndarray, t: float,
         operators: StepOperators | None = None) -> tuple[np.ndarray, float]:
    """Advance one step from time t; returns (next coordinates, relative
    residual of the linear solve).  ``operators`` carries the step matrices
    from one step to the next; without it they are built for this step."""
    ops = operators if operators is not None else StepOperators(problem)
    dt = problem.dt
    lhs, lhs_inv, explicit = ops.step_matrices(t)
    if explicit is None:
        rhs = x + dt * source_real(problem, t + dt)
    else:
        rhs = explicit @ x + 0.5 * dt * (source_real(problem, t) + source_real(problem, t + dt))
    x_next = lhs_inv @ rhs
    resid = float(np.linalg.norm(lhs @ x_next - rhs) / max(np.linalg.norm(rhs), 1e-300))
    return x_next, resid


def default_certificates(problem: EvolutionProblem) -> tuple[float, float] | None:
    if problem.certificates is not None:
        return problem.certificates
    if problem.form == "heat":
        return (1.0, 1.0)
    if problem.epsilon <= 0.0:
        return None
    D = problem.space.dim
    hmax = 0.0
    for h in problem.flow or []:
        hmax = max(hmax, hilbert_norm(h))
    eps = problem.epsilon
    return (eps / 2.0, eps / 2.0 + D * hmax * hmax / (2.0 * eps))


@dataclass
class EvolutionResult:
    times: np.ndarray
    states: np.ndarray                 # (n_steps + 1, 2D) real coordinates
    conservation_defect: np.ndarray    # per recorded time
    coercivity_margin: np.ndarray | None
    boundedness_ratio: np.ndarray | None
    solve_residuals: np.ndarray        # (n_steps,) relative residual of each step
    terminal_error_vs_oracle: float | None
    flags: list[str] = field(default_factory=list)

    @property
    def solve_residual_max(self) -> float:
        return float(self.solve_residuals.max())


def _probe_stats(A: np.ndarray, probe_vs: np.ndarray, v_sq: np.ndarray, h_sq: np.ndarray,
                 certs: tuple[float, float] | None) -> tuple[float | None, float]:
    """Least coercivity margin  v.A v - c0 |v|_V^2 + c1 |v|_H^2  over the
    probes (None without certificates) and the largest boundedness ratio
    |v.A w| / (|v|_V |w|_V) over probe pairs v, w (including v = w)."""
    M = probe_vs @ A @ probe_vs.T
    margin = None
    if certs is not None:
        c0, c1 = certs
        margin = float(np.min(np.diag(M) - c0 * v_sq + c1 * h_sq))
    upper = np.triu_indices(len(probe_vs))
    denom = np.sqrt(np.outer(v_sq, v_sq))[upper]
    return margin, float(np.max(np.abs(M[upper]) / np.maximum(denom, 1e-300)))


def solve_evolution(problem: EvolutionProblem, rng: np.random.Generator | None = None,
                    probes: int = 8) -> EvolutionResult:
    space = problem.space
    n = problem.n_steps()
    if abs(n * problem.dt - problem.horizon) > 1e-9 * problem.horizon:
        raise ValueError("horizon must be an integer number of steps")
    D2 = 2 * space.dim
    triple = assemble_triple(space)
    unit_r = co.realify_vector(bk.to_l2(bk.unit(space.backend)))
    certs = default_certificates(problem)
    flags: list[str] = []
    if certs is None:
        flags.append("epsilon=0: coercivity hypotheses unverified")
    probe_vs = None
    if rng is not None:
        probe_vs = rng.standard_normal((probes, D2))
        probe_vs /= np.linalg.norm(probe_vs, axis=1, keepdims=True)
        v_sq = np.einsum("ij,jk,ik->i", probe_vs, triple.e_gram, probe_vs)
        h_sq = np.einsum("ij,ij->i", probe_vs, probe_vs)

    ops = StepOperators(problem)
    probe_memo: dict = {}
    xs = np.empty((n + 1, D2))
    xs[0] = co.realify_vector(bk.to_l2(problem.u0))
    times = problem.dt * np.arange(n + 1)
    defects = np.zeros(n + 1)
    margins = np.empty(n) if (probe_vs is not None and certs is not None) else None
    bounds = np.empty(n) if probe_vs is not None else None
    residuals = np.empty(n)
    source_acc = 0.0
    for k in range(n):
        t = float(times[k])
        if probe_vs is not None:
            t_next = t + problem.dt
            margin, bounds[k] = _memo(probe_memo, ops.node(t_next), lambda: _probe_stats(
                ops.form(t_next), probe_vs, v_sq, h_sq, certs))
            if margins is not None:
                margins[k] = margin
        xs[k + 1], residuals[k] = step(problem, xs[k], t, ops)
        if problem.scheme == "implicit-euler":
            source_acc += problem.dt * float(source_real(problem, t + problem.dt) @ unit_r)
        else:
            source_acc += 0.5 * problem.dt * float(
                (source_real(problem, t) + source_real(problem, t + problem.dt)) @ unit_r
            )
        defects[k + 1] = float(xs[k + 1] @ unit_r - xs[0] @ unit_r) - source_acc

    terminal_error = None
    if problem.form == "heat" and problem.source is None:
        exact = semigroup_apply(space, problem.horizon, problem.u0)
        terminal_error = float(
            np.linalg.norm(xs[-1] - co.realify_vector(bk.to_l2(exact)))
        )
    return EvolutionResult(
        times=times,
        states=xs,
        conservation_defect=defects,
        coercivity_margin=margins,
        boundedness_ratio=bounds,
        solve_residuals=residuals,
        terminal_error_vs_oracle=terminal_error,
        flags=flags,
    )
