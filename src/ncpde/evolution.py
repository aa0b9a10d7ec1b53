"""Implicit time stepping for weak parabolic problems in the triple
V = D(E)  <  H = L^2(tau)  <  V*.

States are complex L^2 coordinates under the real inner product Re<.,.>:
the L^2 Gram matrix is the identity (the coefficient bases are orthonormal)
and the V inner product is Re<u, v> + E(u, v).  A problem is the heat form
F(u, v) = E(u, v) = Re< L u, v > or the viscous continuity form

    F(u, v; t) = eps * E(u, v) + Re< h(t) . u, grad v >
               = Re< eps L u + div(h(t) . u), v >,

with a sampled flow t -> h(t) of tangent vectors (linear interpolation
between samples) and an optional sampled source t -> b(t) given by L^2
representatives.  Stepping is implicit Euler or Crank-Nicolson on the one
grid t_k = k dt, k = 0..n; a source, if given, is evaluated once per grid
time.

The heat form steps in the eigenbasis the space holds for L: a step
multiplies the eigen-coordinate of mode j by g_j = 1 / (1 + w lam_j)
(implicit Euler, w = dt) or (1 - w lam_j) / (1 + w lam_j) (Crank-Nicolson,
w = dt / 2), so without a source the trajectory is z_k = g^k z_0, one
cumulative product; a source adds its step's eigen-coordinates divided by
1 + w lam_j, elementwise per step.  No dense generator, inverse or step
operator is formed.  The solve residuals check the states against L as
stored, not the recurrence against itself.

The continuity form is Re< A u, v > with A = eps L + T complex-linear in u
(``form_matrix``), dense by nature.  It depends on t only through the
flow's interpolation node, computed once per grid time, and a step
operator only through the nodes of its end points.  The steps run one
step operator at a time, over each run of steps with equal end-point
nodes (one run for a constant flow): its inverse is formed once, each step
is ``step``, one product with it, and the relative solve residuals of the
run are stacked after it.  Since nodes only advance, each node's form
matrix is assembled once.

The transport form annihilates constant test vectors because the gradient
of the unit vanishes, so for b = 0 the trace Re<u_k, 1> is conserved to
solver roundoff; the per-step defect is reported.  The pure transport form
(eps = 0) need not satisfy the coercivity hypothesis of the underlying
well-posedness theorem; such runs carry a prominent flag.  For eps > 0 the
form dominates through Young's inequality with the dimension-dependent
bound ||v||_op <= sqrt(D) ||v||_2, giving certificates

    c0 = eps / 2,   c1 = eps / 2 + D * max_t ||h(t)||^2 / (2 eps)

(the heat form is the case eps = 1, h = 0), whose empirical margins are
checked on a probe battery every step (evaluated once per step operator).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import backends as bk
from .backends import AlgebraElement
from .calculus import TangentVector, hilbert_norm, zero_tangent
# gradient and right_act stay bound here: perfbench/tests/test_tracing.py
# checks that tracing patches and restores them in this namespace
from .calculus import gradient, right_act  # noqa: F401
from .dirichlet import (DirichletSpace, _eigen_coords, _from_eigen, _l2_generator, form_data,
                        semigroup_apply)

SCHEMES = ("implicit-euler", "crank-nicolson")


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

    def __post_init__(self):
        if self.form not in ("heat", "continuity"):
            raise ValueError(f"unknown form {self.form!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be positive")
        if not np.isfinite(self.horizon / self.dt):
            raise ValueError(f"horizon / dt = {self.horizon!r} / {self.dt!r} is not finite")
        if self.horizon / self.dt >= np.iinfo(np.intp).max:
            raise ValueError(f"horizon / dt = {self.horizon!r} / {self.dt!r} is too many steps")
        if self.epsilon < 0:
            raise ValueError("viscosity must be nonnegative")
        if self.form == "heat" and (self.epsilon != 0 or self.flow is not None):
            field = "epsilon" if self.epsilon != 0 else "flow"
            raise ValueError(f"{field} is not a field of the heat form")
        if not bk.same_backend(self.u0.backend, self.space.backend):
            raise bk.BackendMismatch("initial value backend mismatch")
        if self.form == "continuity" and self.flow is None:
            self.flow, self.flow_times = [zero_tangent(self.space)], [0.0]
        for name in ("flow", "source"):   # samples come with their times
            samples, times = getattr(self, name), getattr(self, f"{name}_times")
            if samples is None:
                continue
            count = 0 if times is None else len(times)
            if count == 0 or count != len(samples):
                raise ValueError(f"{name} has {count} times for {len(samples)} samples")
            if not np.all(np.diff(times) > 0):
                raise ValueError(f"{name} times must be strictly increasing")
        if abs(self.n_steps() * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise ValueError("horizon must be an integer number of steps")

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


def source_at(problem: EvolutionProblem, t: float) -> np.ndarray:
    i, j, w = _interp_weights(problem.source_times, t)
    return (1.0 - w) * bk.to_l2(problem.source[i]) + w * bk.to_l2(problem.source[j])


def _transport_matrix(space: DirichletSpace, h: TangentVector) -> np.ndarray:
    """Matrix T of u -> div(h . u) on L^2 coordinates, so that
    Re< h . u, grad v > = Re< T u, v >: column j of the matrices Lmul(h_c)
    of u -> h_c u is h . e_j, and one ``codifferential`` of that stack
    gives the columns of T."""
    desc, D = space.backend, space.dim
    h_e = np.moveaxis(desc.lmul(h.data), -1, 0).reshape((D, len(h.data)) + desc.shape())
    return desc.codifferential(h_e).reshape(D, D).T


def form_matrix(problem: EvolutionProblem, t: float) -> np.ndarray:
    """A with F(u, v; t) = Re< A u, v > for the continuity form, eps L + T;
    dense, with L as stored applied to the identity.  The heat form has no
    form matrix: it steps in the generator's eigenbasis."""
    A = problem.epsilon * _l2_generator(problem.space, np.eye(problem.space.dim)).T
    h = flow_at(problem, t)
    if h.data.any():
        A = A + _transport_matrix(problem.space, h)
    return A


def step(lhs_inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lhs x = rhs by one product with the inverse of lhs."""
    return lhs_inv @ rhs


def default_certificates(problem: EvolutionProblem) -> tuple[float, float] | None:
    """(c0, c1) of the continuity form; heat is its case eps = 1 with no flow."""
    heat = problem.form == "heat"
    eps = 1.0 if heat else problem.epsilon
    if eps <= 0.0:
        return None
    hmax = 0.0 if heat else max(hilbert_norm(h) for h in problem.flow)
    return (eps / 2.0, eps / 2.0 + problem.space.dim * hmax * hmax / (2.0 * eps))


@dataclass
class EvolutionResult:
    times: np.ndarray
    states: np.ndarray                 # (n_steps + 1, D) complex L^2 coordinates
    conservation_defect: np.ndarray    # per recorded time
    coercivity_margin: np.ndarray | None
    boundedness_ratio: np.ndarray | None
    solve_residuals: np.ndarray        # (n_steps,) relative residual of each step
    terminal_error_vs_oracle: float | None
    flags: list[str] = field(default_factory=list)

    @property
    def solve_residual_max(self) -> float:
        return float(self.solve_residuals.max())


def _probe_stats(VA: np.ndarray, probe_vs: np.ndarray, v_sq: np.ndarray, h_sq: np.ndarray,
                 certs: tuple[float, float] | None) -> tuple[float | None, float]:
    """Least coercivity margin  Re<A v, v> - c0 |v|_V^2 + c1 |v|_H^2  over the
    probes (None without certificates) and the largest boundedness ratio
    |Re<A w, v>| / (|v|_V |w|_V) over probe pairs v, w (including v = w),
    from the probes applied through A from the left, VA = (v^* A) per probe."""
    M = (VA @ probe_vs.T).real
    margin = None
    if certs is not None:
        c0, c1 = certs
        margin = float(np.min(np.diag(M) - c0 * v_sq + c1 * h_sq))
    upper = np.triu_indices(len(probe_vs))
    denom = np.sqrt(np.outer(v_sq, v_sq))[upper]
    return margin, float(np.max(np.abs(M[upper]) / np.maximum(denom, 1e-300)))


def _heat_steps(space: DirichletSpace, x0: np.ndarray, weight: float, cn: bool,
                step_sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States and relative solve residuals of the heat steps, mode by mode in
    the generator's eigenbasis."""
    n, D = step_sources.shape
    lam = space.evals
    den = 1.0 + weight * lam
    g = (1.0 - weight * lam if cn else 1.0) / den
    Z = np.empty((n + 1, D), dtype=complex)
    Z[0] = _eigen_coords(space, x0)
    Z[1:] = np.cumprod(np.broadcast_to(g, (n, D)), axis=0) * Z[0]
    if step_sources.any():
        acc = np.zeros(D, dtype=complex)
        for k, f in enumerate(_eigen_coords(space, weight * step_sources) / den, 1):
            acc = g * acc + f
            Z[k] += acc
    xs = _from_eigen(space, Z)
    # each step's residual against L as stored: (I + w L) x_{k+1} = rhs_k
    wLx = weight * _l2_generator(space, xs)
    rhs = (xs[:-1] - wLx[:-1] if cn else xs[:-1]) + weight * step_sources
    residuals = (np.linalg.norm(xs[1:] + wLx[1:] - rhs, axis=1)
                 / np.maximum(np.linalg.norm(rhs, axis=1), 1e-300))
    return xs, residuals


def _continuity_steps(problem: EvolutionProblem, x0: np.ndarray, times: np.ndarray,
                      weight: float, cn: bool, step_sources: np.ndarray, probe_vs):
    """States and relative solve residuals of the continuity steps, and per
    step operator its number of steps and the probes applied through its
    form matrix (None without probes)."""
    n, D = step_sources.shape
    # the form depends on t only through the flow's interpolation node, and
    # a step operator on the nodes of its end points (only the later one for
    # implicit Euler, whose explicit part is the identity)
    nodes = [_interp_weights(problem.flow_times, t) for t in times]
    forms: dict = {}    # the latest node's form matrix: nodes only advance

    def form(k):        # each node is assembled once, at its first grid time
        if nodes[k] not in forms:
            forms.clear()
            forms[nodes[k]] = form_matrix(problem, times[k])
        return forms[nodes[k]]

    eye = np.eye(D)
    xs = np.empty((n + 1, D), dtype=complex)
    xs[0] = x0
    rhs = np.empty((n, D), dtype=complex)
    residuals = np.empty(n)
    ops = []
    for _, run in itertools.groupby(range(n), lambda k: (nodes[k] if cn else None, nodes[k + 1])):
        ks = list(run)
        a, b = ks[0], ks[-1] + 1
        explicit = eye - weight * form(a) if cn else None
        A = form(b)
        lhs = eye + weight * A
        try:
            lhs_inv = np.linalg.inv(lhs)
        except np.linalg.LinAlgError as exc:
            raise bk.AlgebraError(
                f"singular step matrix at t={times[a + 1]:g} (condition "
                f"{np.linalg.cond(lhs):.3e}); pure transport with eps=0 can lose coercivity"
            ) from exc
        for k in ks:
            rhs[k] = (xs[k] if explicit is None else explicit @ xs[k]) + weight * step_sources[k]
            xs[k + 1] = step(lhs_inv, rhs[k])
        # the relative residual of every solve of this step operator, stacked
        residuals[a:b] = (np.linalg.norm(xs[a + 1:b + 1] @ lhs.T - rhs[a:b], axis=1)
                          / np.maximum(np.linalg.norm(rhs[a:b], axis=1), 1e-300))
        ops.append((b - a, None if probe_vs is None else probe_vs.conj() @ A))
    return xs, residuals, ops


def solve_evolution(problem: EvolutionProblem, rng: np.random.Generator | None = None,
                    probes: int = 8) -> EvolutionResult:
    space = problem.space
    n = problem.n_steps()
    D = space.dim
    unit = bk.to_l2(bk.unit(space.backend))
    certs = default_certificates(problem)
    flags: list[str] = []
    if certs is None:
        flags.append("epsilon=0: coercivity hypotheses unverified")
    probe_vs = None
    if rng is not None and probes > 0:
        # unit real normals [Re v; Im v], read as complex probes v
        real = rng.standard_normal((probes, 2 * D))
        real /= np.linalg.norm(real, axis=1, keepdims=True)
        probe_vs = real[:, :D] + 1j * real[:, D:]
        h_sq = np.einsum("ij,ij->i", real, real)
        stack = probe_vs.reshape((probes,) + space.backend.shape())
        v_sq = h_sq + form_data(space, stack, stack).real     # |v|_H^2 + E(v, v)

    dt, cn = problem.dt, problem.scheme == "crank-nicolson"
    weight = 0.5 * dt if cn else dt         # on each end point of a step
    times = dt * np.arange(n + 1)
    sources = (np.zeros((n + 1, D), dtype=complex) if problem.source is None
               else np.array([source_at(problem, t) for t in times]))
    # b(t_{k+1}), or b(t_k) + b(t_{k+1}) for Crank-Nicolson, times weight
    step_sources = sources[:-1] + sources[1:] if cn else sources[1:]
    x0 = bk.to_l2(problem.u0)
    if problem.form == "heat":
        xs, residuals = _heat_steps(space, x0, weight, cn, step_sources)
        # L is Hermitian, so v^* L is the conjugate of L v
        ops = [(n, None if probe_vs is None else _l2_generator(space, probe_vs).conj())]
    else:
        xs, residuals, ops = _continuity_steps(
            problem, x0, times, weight, cn, step_sources, probe_vs)
    counts = [m for m, _ in ops]
    stats = [_probe_stats(VA, probe_vs, v_sq, h_sq, certs) for _, VA in ops if VA is not None]

    traces = (xs @ unit.conj()).real
    injected = weight * (step_sources @ unit.conj()).real
    defects = np.append(0.0, traces[1:] - traces[0] - np.cumsum(injected))
    bounds = None if probe_vs is None else np.repeat([s[1] for s in stats], counts)
    margins = None if bounds is None or certs is None else np.repeat([s[0] for s in stats], counts)

    terminal_error = None
    if problem.form == "heat" and problem.source is None:
        exact = semigroup_apply(space, problem.horizon, problem.u0)
        terminal_error = float(np.linalg.norm(xs[-1] - bk.to_l2(exact)))
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
