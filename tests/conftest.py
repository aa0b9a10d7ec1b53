import math

import numpy as np
import pytest

from ncpde import backends as bk
from ncpde import calculus as ca
from ncpde import coords as co
from ncpde import elliptic as el
from ncpde import evolution as ev
from ncpde.dirichlet import (GAP_RTOL, DirichletSpace, _from_eigen, _l2_generator, build_space,
                             carre_du_champ, semigroup_apply)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)

THETA_IRR = 0.41421356237309515   # float(sqrt(2) - 1), tagged irrational


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@pytest.fixture
def qubit():
    return bk.MatrixAlgebra(2, (SIGMA_Z,))


@pytest.fixture
def qubit_space(qubit):
    return build_space(qubit)


@pytest.fixture
def pair3():
    """3x3 backend with two fixed self-adjoint generators and trivial
    commutant (kernel = scalars)."""
    rng = make_rng(424242)
    gens = []
    for _ in range(2):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gens.append((m + m.conj().T) / 2.0)
    return bk.MatrixAlgebra(3, tuple(gens))


@pytest.fixture
def pair3_space(pair3):
    return build_space(pair3)


@pytest.fixture
def torus2():
    return bk.NCTorus(2, THETA_IRR)


@pytest.fixture
def torus2_space(torus2):
    return build_space(torus2)


@pytest.fixture
def torus3():
    return bk.NCTorus(3, THETA_IRR)


@pytest.fixture
def torus3_space(torus3):
    return build_space(torus3)


@pytest.fixture
def torus13():
    """theta = 1/3 at level 1: the window is in bijection with M_3."""
    return bk.nc_torus_rational(1, 1, 3)


@pytest.fixture
def torus13_space(torus13):
    return build_space(torus13)


@pytest.fixture
def z4():
    return bk.CyclicGroup(4, (0.0, 1.0, 2.0, 1.0))


@pytest.fixture
def z4_space(z4):
    return build_space(z4)


@pytest.fixture
def z5():
    return bk.CyclicGroup(5, (0.0, 1.0, 2.0, 2.0, 1.0))


@pytest.fixture
def z5_space(z5):
    return build_space(z5)


def realify_vector(c):
    return np.concatenate([c.real, c.imag], axis=-1)


def complexify_vector(x):
    return x[..., : x.shape[-1] // 2] + 1j * x[..., x.shape[-1] // 2 :]


def _hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


def backend_from_spec(spec):
    """Backend named by (kind, size): irrational or rational torus level,
    cyclic order (word-length lengths, or all lengths 0 for "flat": a zero
    generator and an empty frame, k = 0) or matrix dim (two generators)."""
    kind, size = spec
    if kind == "torus":
        return bk.NCTorus(size, THETA_IRR)
    if kind == "rational":
        return bk.nc_torus_rational(size, 1, 2 * size + 1)
    if kind == "cyclic":
        # word length on Z_q is conditionally of negative type
        return bk.CyclicGroup(size, tuple(float(min(g, size - g)) for g in range(size)))
    if kind == "flat":
        return bk.CyclicGroup(size, (0.0,) * size)
    rng = make_rng(500 + size)
    return bk.MatrixAlgebra(size, (_hermitian(rng, size), _hermitian(rng, size)))


def loop_random_data(desc, rng, radius=None, self_adjoint=False):
    """One coefficient array drawn as two ``standard_normal`` calls, real
    parts then imaginary parts: the reference for ``bk.random_data``, whose
    stacks must follow the same stream."""
    shape = desc.shape()
    a = bk.element(desc, desc.restrict_support(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), radius))
    return (bk.scale(0.5, bk.add(a, bk.adjoint(a))) if self_adjoint else a).data


def corrupted_space(desc, gen):
    """DirichletSpace around ``gen`` without the generator gates of
    ``space_from_matrix``, for negative tests of the checks downstream."""
    gen = np.asarray(gen, dtype=complex)
    evals, evecs = np.linalg.eigh(gen)
    lam_max = max(float(np.abs(evals).max()), 1e-300)
    kernel_dim = int(np.sum(np.abs(evals) < GAP_RTOL * lam_max))
    return DirichletSpace(desc, gen, evals, evecs, kernel_dim)


def count_rep_eigvalsh(monkeypatch, desc, shift=0.0):
    """List the stacks passed to ``desc``'s ``rep_eigvalsh`` from now on,
    whose spectra are moved by ``shift`` (a negative shift corrupts every
    positivity witness)."""
    calls, rep_eigvalsh = [], type(desc).rep_eigvalsh

    def counted(self, A):
        calls.append(np.shape(A))
        return rep_eigvalsh(self, A) + shift

    monkeypatch.setattr(type(desc), "rep_eigvalsh", counted)
    return calls


def dense_form(space):
    """(generator, eigenbasis) of a space as dense (D, D) matrices, whichever
    form it holds them in: L and the eigenbasis applied to the identity."""
    eye = np.eye(space.dim)
    return _l2_generator(space, eye).T, _from_eigen(space, eye).T


def assert_elem_close(a, b, tol=1e-12, scale=None):
    num = bk.norm_l2(a - b)
    ref = scale if scale is not None else max(bk.norm_l2(a), bk.norm_l2(b), 1.0)
    assert num <= tol * ref, f"elements differ by {num:.3e} (allowed {tol * ref:.3e})"


# ---------------------------------------------------------------------------
# Reference implementations: operator matrices built by applying the
# operator to every L^2 basis vector.  The package builds the same matrices
# in closed form from the backend's left-multiplication matrix and tangent
# frame; these loops are the oracle they are tested against.
# ---------------------------------------------------------------------------


def _basis(desc):
    D = desc.l2_dim()
    for col in range(D):
        e = np.zeros(D, dtype=complex)
        e[col] = 1.0
        yield col, bk.from_l2(desc, e)


def loop_lmul(a):
    """Matrix of x -> a x on L^2 coordinates (for an irrational-theta torus
    this is its window-compression ``represent``)."""
    D = a.backend.l2_dim()
    out = np.zeros((D, D), dtype=complex)
    for col, e in _basis(a.backend):
        out[:, col] = bk.to_l2(bk.mul(a, e))
    return out


def loop_torus_mul(desc, A, B):
    """Torus product of two coefficient grids by the full twisted sum
    (U^p V^r)(U^n V^m) = e^{2 pi i theta r n} U^{p+n} V^{r+m}, one shifted
    block per nonzero coefficient of A, on the (4N+1)^2 grid of all
    exponents; returns the window and the L^2 norm of the modes outside it."""
    N = desc.level
    W = 2 * N + 1
    ns = np.arange(-N, N + 1)
    full = np.zeros((4 * N + 1, 4 * N + 1), dtype=complex)
    for ip in range(W):
        for ir in range(W):
            if A[ip, ir] != 0.0:
                phase = np.exp(2j * np.pi * desc.theta * (ir - N) * ns)[:, None]
                full[ip : ip + W, ir : ir + W] += A[ip, ir] * (phase * B)
    inside = np.zeros(full.shape, dtype=bool)
    inside[N : 3 * N + 1, N : 3 * N + 1] = True
    return full[inside].reshape(W, W), float(np.linalg.norm(full[~inside]))


def loop_gradient_matrix(space):
    D = space.dim
    k = ca.tangent_components(space)
    out = np.zeros((k * D, D), dtype=complex)
    for col, e in _basis(space.backend):
        for j, p in enumerate(ca.gradient(space, e).data):
            out[j * D : (j + 1) * D, col] = p.reshape(-1)
    return out


def loop_transport_matrix(space, h):
    """Real matrix of (u, v) -> Re< h . u, grad v > on real coordinates."""
    D = space.dim
    k = len(h.data)
    HB = np.empty((D, k, D), dtype=complex)   # h . e_b per component
    GB = np.empty((D, k, D), dtype=complex)   # grad e_a per component
    for col, e in _basis(space.backend):
        hu = ca.right_act(h, e)
        gu = ca.gradient(space, e)
        for c in range(k):
            HB[col, c] = hu.data[c].reshape(-1)
            GB[col, c] = gu.data[c].reshape(-1)
    # S[a, b] = < h . e_b, grad e_a >  (antilinear in b)
    S = np.einsum("bcd,acd->ab", HB.conj(), GB)
    return np.block([[S.real, S.imag], [-S.imag, S.real]])


# ---------------------------------------------------------------------------
# Reference implementation: the full (d^2, d^2) Choi matrix of P_t, one
# matrix unit at a time.  The package reads only its least eigenvalue, in
# closed form on cyclic spaces; this build is the oracle it is tested against.
# ---------------------------------------------------------------------------


def full_choi(space, t):
    """Choi matrix of P_t extended to M_d, block (i, j) the image of the
    matrix unit e_ij; None when no exact extension exists.  On a cyclic space
    whose P_t multiplies coefficients by m, the extension is the Schur
    multiplier by the circulant [m(g - h)]; on an exact backend with d^2 =
    dim L^2, each unit is transported through the representation."""
    desc = space.backend
    d = desc.rep_dim()
    if isinstance(desc, bk.CyclicGroup):
        P = np.array([semigroup_apply(space, t, bk.delta(desc, g)).data for g in range(d)])
        m = np.diagonal(P)
        if np.abs(P - np.diag(m)).max() > 1e-12:
            return None
        g = np.arange(d)

        def extension(X):
            return m[(g[:, None] - g[None, :]) % d] * X
    elif desc.rep_is_exact() and d * d == desc.l2_dim():
        def extension(X):
            return bk.represent(semigroup_apply(space, t, bk.element_from_matrix(desc, X)))
    else:
        return None
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            choi[i * d : (i + 1) * d, j * d : (j + 1) * d] = extension(e)
    return choi


# ---------------------------------------------------------------------------
# Reference implementation: the largest passing Bakry-Emery curvature bound
# by doubling and bisection on K against a -tol margin slack.  The package
# computes the bound exactly as one generalised eigenvalue per (t, a) pair;
# this search is the oracle it is tested against.
# ---------------------------------------------------------------------------


def be_margin(space, K, t, a):
    """min eigenvalue of represent(e^{-2Kt} P_t Gamma(a) - Gamma(P_t a))."""
    gamma_a = carre_du_champ(space, a)
    factor = np.exp(min(-2.0 * K * t, 600.0))
    lhs = bk.scale(factor, semigroup_apply(space, t, gamma_a))
    rhs = carre_du_champ(space, semigroup_apply(space, t, a))
    diff = bk.add(lhs, bk.scale(-1.0, rhs))
    return float(np.linalg.eigvalsh(bk.represent(diff)).min())


def bisect_largest_passing_K(space, K, t_samples, battery, tol=1e-9):
    """Largest K (to bisection accuracy) at which every scaled margin is
    >= -tol, searched from K within [-2^20, 2^20]; None when even -2^20
    fails.  A battery that never binds returns the 2^20 cap."""
    pairs = [(float(t), a) for t in t_samples for a in battery]
    scales = [max(bk.norm_l2(carre_du_champ(space, a)), 1.0)
              for _, a in pairs]

    def min_margin(k):
        return min(be_margin(space, k, t, a) / s for (t, a), s in zip(pairs, scales))

    lo, hi = float(K), float(K)
    if min_margin(lo) < -tol:
        while min_margin(lo) < -tol and lo > -2.0 ** 20:
            lo = 2.0 * lo if lo < 0 else -max(1.0, 2.0 * abs(lo))
        hi = float(K)
    else:
        hi = max(1.0, 2.0 * abs(K))
        while min_margin(hi) >= -tol and hi < 2.0 ** 20:
            hi *= 2.0
    if min_margin(lo) < -tol:
        return None
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if min_margin(mid) >= -tol:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Reference implementation: the Galerkin residual of the quasilinear solve,
# V_k(d) = Re<F(sum_j d_j grad w_j), grad w_k> - rhs_k, as a sum of gradient
# tangent vectors and one Hilbert inner product per basis vector; F maps the
# stacked L^2 coordinates of the sum, and its image is wrapped back as a
# tangent vector.  The package evaluates it as Re<div F(grad u), w_k> by one
# derive and one codifferential of a coefficient stack; this loop is the
# oracle it is tested against.
# ---------------------------------------------------------------------------


def loop_galerkin_residual(space, F, Wb, rhs):
    grads = [ca.gradient(space, bk.from_l2(space.backend, Wb[:, j])) for j in range(Wb.shape[1])]

    def V(d):
        acc = ca.zero_tangent(space)
        for dj, g in zip(d, grads):
            if dj != 0.0:
                acc = acc + float(dj) * g
        Fc = F(np.concatenate([p.reshape(-1) for p in acc.data])).reshape(acc.data.shape)
        Fh = ca.TangentVector(space, Fc)
        return np.array([ca.hilbert_inner(Fh, g).real for g in grads]) - rhs

    return V


# ---------------------------------------------------------------------------
# Reference implementation: damped Newton on V(d) = 0 with a dense
# finite-difference Jacobian, built one column V(d + h_j e_j) at a time and
# LU-solved, with the stop rule, iteration cap, column step and Armijo search
# of ``elliptic._newton``.  The package takes each Newton step by conjugate
# gradients on finite-difference Jacobian-vector products; this loop is the
# oracle it is tested against.
# ---------------------------------------------------------------------------

DENSE_FD_STEP = 1e-6   # the oracle's column step, relative to 1 + |d_j|


def loop_dense_newton(V, d, scale):
    """The root of V from ``d`` and the number of Newton iterations taken."""
    stop = el.NEWTON_RTOL * scale
    r = V(d)
    for it in range(el.MAX_NEWTON):
        if np.abs(r).max() <= stop:
            return d, it
        J = np.empty((d.size, d.size))
        for j in range(d.size):
            h = DENSE_FD_STEP * (1.0 + abs(d[j]))
            dj = d.copy()
            dj[j] += h
            J[:, j] = (V(dj) - r) / h
        step = np.linalg.solve(J, r)
        alpha = 1.0
        while True:
            trial = d - alpha * step
            rt = V(trial)
            if rt @ rt <= (1.0 - 1e-4 * alpha) * (r @ r):
                break
            alpha *= 0.5
            assert alpha >= 1e-10, "the oracle's Armijo search stagnated"
        d, r = trial, rt
    raise AssertionError("the oracle did not converge")


# ---------------------------------------------------------------------------
# Reference implementation: conjugate gradients on the realified system
# [[Re L, -Im L], [Im L, Re L]] x = [Re f; Im f], the 2D-dimensional real
# form of the generator, with the stop rule, cap and energy history of
# ``minimize_dirichlet_energy``.  The package runs the same iteration on
# complex L^2 coordinates under Re<.,.>; this loop is the oracle it is
# tested against.
# ---------------------------------------------------------------------------


def loop_realified_cg(space, f):
    """(solution coordinates, iterations, energy history) of realified CG."""
    A = co.realify_operator(dense_form(space)[0])
    b = realify_vector(bk.to_l2(f))
    n = b.size
    x = np.zeros(n)
    r = b.copy()
    d = r.copy()
    rr = float(r @ r)
    history = [0.0]
    stop = el.CG_RTOL * max(math.sqrt(float(b @ b)), 1e-300)
    iters = 0
    while math.sqrt(rr) > stop and iters < 4 * n:
        Ad = A @ d
        alpha = rr / float(d @ Ad)
        x = x + alpha * d
        r = r - alpha * Ad
        rr_new = float(r @ r)
        d = r + (rr_new / rr) * d
        rr = rr_new
        iters += 1
        history.append(float(-0.5 * x @ (b + r)))   # I(x) with A x = b - r
    return complexify_vector(x), iters, history


# ---------------------------------------------------------------------------
# Reference implementation: the evolution loop on the grid t_k = k dt, on
# real coordinates [Re c; Im c] with the realified form matrix and source,
# that assembles the step operator afresh at every step (a form matrix for
# the probes at t_{k+1}, and at t_k and t_{k+1} for the step), evaluates the
# source afresh wherever it is used, solves each step with its own dense
# solve and evaluates the probe quadratic forms one pair at a time.  The
# heat form's matrix is the space's dense generator from ``dense_form``, so
# the oracle does not call the eigenbasis stepping it checks.  The package
# steps the heat form mode by mode in the generator's eigenbasis, and runs
# the continuity form as one loop over the same grid on complex coordinates
# that assembles a form matrix only where the flow's interpolation node
# changes and inverts a step operator only where the nodes of its end points
# change; it evaluates the source once per grid time.  This loop is the
# oracle both are tested against.
# ---------------------------------------------------------------------------


def _real_form(problem, t):
    if problem.form == "heat":
        return co.realify_operator(dense_form(problem.space)[0])
    return co.realify_operator(ev.form_matrix(problem, t))


def _real_source(problem, t):
    if problem.source is None:
        return np.zeros(2 * problem.space.dim)
    return realify_vector(ev.source_at(problem, t))


def loop_step(problem, x, t, t_next):
    dt = problem.dt
    if problem.scheme == "implicit-euler":
        A_next = _real_form(problem, t_next)
        lhs = np.eye(x.size) + dt * A_next
        rhs = x + dt * _real_source(problem, t_next)
    else:
        A_now = _real_form(problem, t)
        A_next = _real_form(problem, t_next)
        lhs = np.eye(x.size) + 0.5 * dt * A_next
        rhs = (np.eye(x.size) - 0.5 * dt * A_now) @ x + 0.5 * dt * (
            _real_source(problem, t) + _real_source(problem, t_next)
        )
    x_next = np.linalg.solve(lhs, rhs)
    return x_next, float(np.linalg.norm(lhs @ x_next - rhs) / max(np.linalg.norm(rhs), 1e-300))


def loop_solve_evolution(problem, rng=None, probes=8):
    """dict of states (complexified), margins, bounds, defects and residuals."""
    space = problem.space
    n = problem.n_steps()
    D2 = 2 * space.dim
    e_gram = np.eye(D2) + co.realify_operator(dense_form(space)[0])
    unit_r = realify_vector(bk.to_l2(bk.unit(space.backend)))
    certs = ev.default_certificates(problem)
    probe_vs = None
    if rng is not None:
        probe_vs = rng.standard_normal((probes, D2))
        probe_vs /= np.linalg.norm(probe_vs, axis=1, keepdims=True)
    xs = np.empty((n + 1, D2))
    xs[0] = realify_vector(bk.to_l2(problem.u0))
    times = problem.dt * np.arange(n + 1)
    defects = np.zeros(n + 1)
    margins = np.empty(n) if (probe_vs is not None and certs is not None) else None
    bounds = np.empty(n) if probe_vs is not None else None
    residuals = np.empty(n)
    source_acc = 0.0
    for k in range(n):
        t, t_next = float(times[k]), float(times[k + 1])
        if probe_vs is not None:
            A = _real_form(problem, t_next)
            if margins is not None:
                c0, c1 = certs
                margins[k] = min(float(v @ (A @ v)) - c0 * float(v @ (e_gram @ v))
                                 + c1 * float(v @ v) for v in probe_vs)
            ratios = []
            for i in range(probes):
                for j in range(i, probes):
                    v, w = probe_vs[i], probe_vs[j]
                    denom = math.sqrt(float(v @ (e_gram @ v)) * float(w @ (e_gram @ w)))
                    ratios.append(abs(float(v @ (A @ w))) / max(denom, 1e-300))
            bounds[k] = max(ratios)
        xs[k + 1], residuals[k] = loop_step(problem, xs[k], t, t_next)
        if problem.scheme == "implicit-euler":
            source_acc += problem.dt * float(_real_source(problem, t_next) @ unit_r)
        else:
            source_acc += 0.5 * problem.dt * float(
                (_real_source(problem, t) + _real_source(problem, t_next)) @ unit_r
            )
        defects[k + 1] = float(xs[k + 1] @ unit_r - xs[0] @ unit_r) - source_acc
    return {"states": complexify_vector(xs), "margins": margins, "bounds": bounds,
            "defects": defects, "residuals": residuals}
