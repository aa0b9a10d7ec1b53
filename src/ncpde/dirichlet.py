"""Markov generators, semigroups, Dirichlet forms and their verification.

Each backend carries a canonical conservative, tracially symmetric
generator acting on L^2(tau) coordinates (its ``generator_matrix``):

* torus        -- diagonal, U^n V^m -> (n^2 + m^2) U^n V^m;
* matrix       -- sum of double commutators a -> sum_j [v_j, [v_j, a]]
                  over the descriptor's self-adjoint generators;
* cyclic group -- multiplication of the coefficient function by the
                  length, (L f)(g) = l(g) f(g).

The associated quadratic form is E(a, b) = <a, L b>, the semigroup is
exp(-t L) through the cached eigensystem, and the carre du champ density
is recovered from the diffusion identity
2 Gamma(a, b) = L(a^*) b + a^* L(b) - L(a^* b).

``markov_check`` verifies unitality, contraction, trace symmetry and
complete positivity (via the Choi matrix of the semigroup transported to
the representation by the backend's ``rep_semigroup_action``);
``bakry_emery_check`` tests the gradient-estimate ordering
Gamma(P_t a) <= e^{-2 K t} P_t Gamma(a) and computes the largest passing
curvature bound exactly, as one generalised eigenvalue per (t, a) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backends as bk
from .backends import AlgebraElement, Density, Descriptor
from .reports import Report, check_ge, check_le

GAP_RTOL = 1e-8       # eigenvalues below GAP_RTOL * lambda_max count as kernel
POINCARE_TOL = 1e-10  # slack on C_P in the Poincare battery
BE_TOL = 1e-9         # slack of the Bakry-Emery ordering, relative to ||Gamma(a)||


class GeneratorError(bk.AlgebraError):
    """The generator matrix violates a structural invariant."""


@dataclass(frozen=True, eq=False, repr=False)
class DirichletSpace:
    """A backend together with the generator of its Markov semigroup on
    L^2 coordinates and that generator's cached eigensystem."""

    backend: Descriptor
    generator: np.ndarray        # (D, D) Hermitian PSD
    evals: np.ndarray            # ascending, real
    evecs: np.ndarray            # orthonormal columns
    kernel_dim: int

    def __repr__(self):
        return (
            f"DirichletSpace({self.backend!r}, dim={self.evals.size}, "
            f"kernel_dim={self.kernel_dim})"
        )

    @property
    def dim(self) -> int:
        return self.evals.size


def build_space(desc: Descriptor, gap_tol: float = GAP_RTOL) -> DirichletSpace:
    return space_from_matrix(desc, desc.generator_matrix(), gap_tol)


def space_from_matrix(desc: Descriptor, gen: np.ndarray,
                      gap_tol: float = GAP_RTOL) -> DirichletSpace:
    """Space around an explicit generator matrix, which must be PSD and
    annihilate the unit; eigenvalues below ``gap_tol`` times the largest
    count as kernel."""
    gen = np.asarray(gen, dtype=np.complex128)
    diag = np.diagonal(gen)
    if np.count_nonzero(gen - np.diag(diag)) == 0:
        # exact eigensystem for diagonal generators (torus, cyclic,
        # commuting matrix generators): sorted diagonal + permutation, which
        # reconstructs the generator exactly
        order = np.argsort(diag.real, kind="stable")
        evals = diag.real[order].copy()
        evecs = np.eye(gen.shape[0], dtype=np.complex128)[:, order]
    else:
        evals, evecs = np.linalg.eigh(gen)
        recon = (evecs * evals) @ evecs.conj().T
        if np.linalg.norm(recon - gen) > 1e-10 * max(np.linalg.norm(gen), 1e-300):
            raise GeneratorError("eigensystem does not reconstruct the generator")
    lam_max = max(float(evals[-1]), 0.0)
    if float(evals[0]) < -1e-10 * max(lam_max, 1e-300):
        raise GeneratorError(f"generator is not PSD (min eigenvalue {evals[0]:.3e})")
    unit_coords = bk.to_l2(bk.unit(desc))
    if np.linalg.norm(gen @ unit_coords) > 1e-10 * max(lam_max, 1e-300):
        raise GeneratorError("generator does not annihilate the unit")
    kernel_dim = int(np.sum(evals < gap_tol * max(lam_max, 1e-300)))
    return DirichletSpace(desc, gen, evals, evecs, kernel_dim)


def _coords(space: DirichletSpace, a: AlgebraElement) -> np.ndarray:
    if not bk.same_backend(space.backend, a.backend):
        raise bk.BackendMismatch("element does not belong to this space")
    return bk.to_l2(a)


def generator_apply(space: DirichletSpace, a: AlgebraElement) -> AlgebraElement:
    return bk.from_l2(space.backend, space.generator @ _coords(space, a))


def semigroup_apply(space: DirichletSpace, t: float, a: AlgebraElement) -> AlgebraElement:
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    c = space.evecs.conj().T @ _coords(space, a)
    c = np.exp(-t * space.evals) * c
    return bk.from_l2(space.backend, space.evecs @ c)


def dirichlet_form(space: DirichletSpace, a: AlgebraElement,
                   b: AlgebraElement | None = None) -> complex:
    """E(a, b) = <a, L b>; antilinear in the first slot.  E(a) := E(a, a)."""
    cb = _coords(space, a if b is None else b)
    return complex(np.vdot(_coords(space, a), space.generator @ cb))


def energy(space: DirichletSpace, a: AlgebraElement) -> float:
    return float(dirichlet_form(space, a).real)


# ---------------------------------------------------------------------------
# Carre du champ
# ---------------------------------------------------------------------------


def _gamma(space: DirichletSpace, a: AlgebraElement,
           b: AlgebraElement | None = None) -> tuple[AlgebraElement, float]:
    """Gamma(a, b) from 2 Gamma(a, b) = L(a^*) b + a^* L(b) - L(a^* b), and
    the L^2 mass its products truncated."""
    b = a if b is None else b
    astar = bk.adjoint(a)
    t1, l1 = bk.mul_with_loss(generator_apply(space, astar), b)
    t2, l2 = bk.mul_with_loss(astar, generator_apply(space, b))
    prod, l3 = bk.mul_with_loss(astar, b)
    t3 = generator_apply(space, prod)
    return bk.scale(0.5, bk.add(bk.add(t1, t2), bk.scale(-1.0, t3))), l1 + l2 + l3


def carre_du_champ(space: DirichletSpace, a: AlgebraElement,
                   b: AlgebraElement | None = None) -> Density:
    """Density of Gamma(a, b) via the polarized diffusion identity
    2 Gamma(a, b) = L(a^*) b + a^* L(b) - L(a^* b).  The diagonal call
    Gamma(a) := Gamma(a, a) passes ``bk.require_positive``: a negative
    witness there means the generator is not a diffusion."""
    rho = bk.as_density(*_gamma(space, a, b))
    if b is None or np.array_equal(a.data, b.data):
        bk.require_positive(rho, "carre du champ Gamma(a) (generator is not a diffusion)")
    return rho


# ---------------------------------------------------------------------------
# Poincare constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoincareResult:
    gap: float
    c_p: float
    kernel_dim: int
    battery_margin: float | None   # min over battery of C_P * E[a] - ||a||^2

    def to_dict(self) -> dict:
        return {
            "gap": self.gap,
            "C_P": self.c_p,
            "kernel_dim": self.kernel_dim,
            "battery_margin": self.battery_margin,
        }


def poincare_constant(space: DirichletSpace, rng: np.random.Generator | None = None,
                      battery: int = 32) -> PoincareResult:
    """Spectral gap above the kernel, its inverse, and, given an rng and a
    nonempty battery, a random check of ||a||^2 <= (C_P + POINCARE_TOL) E[a]
    on the kernel complement."""
    if space.kernel_dim == space.dim:
        raise GeneratorError("all eigenvalues sit in the kernel: no spectral gap")
    gap = float(space.evals[space.kernel_dim])
    c_p = 1.0 / gap
    margin = None
    if rng is not None and battery > 0:
        perp = space.evecs[:, space.kernel_dim:]
        worst = np.inf
        for _ in range(battery):
            c = rng.standard_normal(perp.shape[1]) + 1j * rng.standard_normal(perp.shape[1])
            a = bk.from_l2(space.backend, perp @ c)
            e = energy(space, a)
            worst = min(worst, (c_p + POINCARE_TOL) * e - bk.norm_l2(a) ** 2)
        margin = float(worst)
    return PoincareResult(gap, c_p, space.kernel_dim, margin)


# ---------------------------------------------------------------------------
# Markovianity
# ---------------------------------------------------------------------------


def _rep_semigroup_action(space: DirichletSpace, t: float):
    """Canonical extension of P_t to the representation algebra M_d, or
    None when no exact extension exists (irrational theta; rational theta
    whose window is not in bijection with M_q)."""
    desc = space.backend
    return desc.rep_semigroup_action(
        t, lambda X: semigroup_apply(space, t, bk.element(desc, X)).data)


def _choi_matrix(act, d: int) -> np.ndarray:
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    E = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            E[i, j] = 1.0
            choi[i * d : (i + 1) * d, j * d : (j + 1) * d] = act(E)
            E[i, j] = 0.0
    return choi


def markov_check(space: DirichletSpace, t_samples, rng: np.random.Generator,
                 battery: int = 16, tol: float = 1e-10) -> Report:
    """Unitality, operator-norm contraction, complete positivity (Choi)
    and trace symmetry of P_t at each sampled time.  Trace symmetry
    compares disjoint pairs of probes, so ``battery`` must be at least 2."""
    if battery < 2:
        raise ValueError(f"markov-check battery must be >= 2 (got {battery})")
    desc = space.backend
    report = Report(kind="markov-check")
    one = bk.unit(desc)
    exact_rep = desc.rep_is_exact()
    probes = [bk.random_element(desc, rng) for _ in range(battery)]
    for t in t_samples:
        t = float(t)
        unitality = bk.norm_l2(semigroup_apply(space, t, one) - one)
        report.checks.append(check_le(f"unitality[t={t:g}]", unitality, tol))

        if exact_rep:
            ratio = 0.0
            for a in probes:
                na = bk.operator_norm(a)
                if na > 0:
                    ratio = max(ratio, bk.operator_norm(semigroup_apply(space, t, a)) / na)
            report.checks.append(check_le(f"contraction[t={t:g}]", ratio - 1.0, tol))
        else:
            report.flags.append(f"contraction[t={t:g}] skipped: approximate representation")

        act, d = _rep_semigroup_action(space, t)
        if act is None:
            report.flags.append(f"choi_cp[t={t:g}] skipped: no exact representation of P_t")
        else:
            wit = float(np.linalg.eigvalsh(_choi_matrix(act, d)).min())
            report.checks.append(check_ge(f"choi_cp[t={t:g}]", wit, -tol))

        sym = 0.0
        for i in range(0, len(probes) - 1, 2):
            a, b = probes[i], probes[i + 1]
            lhs = bk.trace(bk.mul(a, semigroup_apply(space, t, b)))
            rhs = bk.trace(bk.mul(semigroup_apply(space, t, a), b))
            sym = max(sym, abs(lhs - rhs) / max(bk.norm_l2(a) * bk.norm_l2(b), 1e-300))
        report.checks.append(check_le(f"trace_symmetry[t={t:g}]", sym, tol))
    return report


# ---------------------------------------------------------------------------
# Bakry-Emery gradient estimate
# ---------------------------------------------------------------------------


def _largest_passing_K(X: np.ndarray, Y: np.ndarray, t: float, cut: float) -> float:
    """Largest K with e^{-2Kt} X >= Y (t > 0): -ln(c) / 2t for c = lambda_max of
    X^{-1/2} Y X^{-1/2} on the range of X; +inf when c <= 0, and -inf when Y
    has mass on the kernel of X (its eigenvalues <= ``cut``)."""
    x, V = np.linalg.eigh(X)
    kernel = V[:, x <= cut]
    if kernel.size and np.linalg.eigvalsh(kernel.conj().T @ Y @ kernel)[-1] > cut:
        return -np.inf
    W = V[:, x > cut] / np.sqrt(x[x > cut])
    c = np.linalg.eigvalsh(W.conj().T @ Y @ W)[-1] if W.size else 0.0
    return -np.log(c) / (2.0 * t) if c > 0 else np.inf


def bakry_emery_check(space: DirichletSpace, K: float, t_samples, battery) -> Report:
    """Check Gamma(P_t a) <= e^{-2Kt} P_t Gamma(a) on a battery of elements
    and report the largest curvature bound passing on it: the least
    ``_largest_passing_K`` over the (t, a) pairs; a pair at t = 0 does not
    depend on K.  It is null, flagged ``largest_passing_K=unbounded`` when no
    pair bounds K and ``largest_passing_K=none`` when no K passes."""
    report = Report(kind="bakry-emery-check", extra={"K": float(K)})
    if not space.backend.rep_is_exact():
        report.flags.append("skipped: approximate representation cannot order densities")
        return report
    bounds = []
    for t in map(float, t_samples):
        factor = np.exp(min(-2.0 * K * t, 600.0))   # clamp: huge factors pass anyway
        for a in battery:
            gamma_a = _gamma(space, a)[0]
            s = max(bk.norm_l2(gamma_a), 1.0)
            X = bk.represent(semigroup_apply(space, t, gamma_a))
            Y = bk.represent(_gamma(space, semigroup_apply(space, t, a))[0])
            margin = float(np.linalg.eigvalsh(factor * X - Y).min()) / s
            check = check_ge(f"ordering[K={K:g},t={t:g}]", margin, -BE_TOL)
            report.checks.append(check)
            bounds.append(_largest_passing_K(X, Y, t, BE_TOL * s) if t > 0
                          else (np.inf if check.passed else -np.inf))
    bound = min(bounds, default=np.inf)
    report.extra["largest_passing_K"] = float(bound) if np.isfinite(bound) else None
    if not np.isfinite(bound):
        report.flags.append("largest_passing_K=" + ("unbounded" if bound > 0 else "none"))
    return report
