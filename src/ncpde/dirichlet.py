"""Markov generators, semigroups, Dirichlet forms and their verification.

Each backend carries a canonical conservative, tracially symmetric
generator acting on L^2(tau) coordinates (its ``generator_matrix``):

* torus        -- diagonal, U^n V^m -> (n^2 + m^2) U^n V^m;
* matrix       -- sum of double commutators a -> sum_j [v_j, [v_j, a]]
                  over the descriptor's self-adjoint generators;
* cyclic group -- multiplication of the coefficient function by the
                  length, (L f)(g) = l(g) f(g).

``space_from_matrix`` alone chooses how a space holds L: a diagonal L as
its (D,) diagonal with the sorting permutation as eigenbasis, any other as a
(D, D) matrix with the eigenvectors of ``eigh``; ``_l2_generator``,
``_eigen_coords`` and ``_from_eigen`` hide the form from every consumer.
The associated quadratic form is E(a, b) = <a, L b>, the semigroup is
exp(-t L) in eigen-coordinates, and the carre du champ density
is recovered from the diffusion identity
2 Gamma(a, b) = L(a^*) b + a^* L(b) - L(a^* b); each acts on coefficient
stacks (..., *shape), and the functions on elements wrap it.

Each verification battery is drawn and checked as one stack: ``markov_check``
verifies unitality, contraction, trace symmetry and complete positivity
(the least Choi eigenvalue of P_t, from the backend's ``choi_min``);
``bakry_emery_check`` tests the gradient-estimate ordering
Gamma(P_t a) <= e^{-2 K t} P_t Gamma(a) and computes the largest passing
curvature bound exactly, as one generalised eigenvalue per (t, a) pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

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
    generator: np.ndarray        # (D, D) Hermitian PSD, or its (D,) diagonal
    evals: np.ndarray            # ascending, real
    evecs: np.ndarray            # (D, D) orthonormal columns, or the sorting permutation
    kernel_dim: int

    def __post_init__(self):   # read-only: the space hands out views of these
        for name in ("generator", "evals", "evecs"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __repr__(self):
        return (
            f"DirichletSpace({self.backend!r}, dim={self.evals.size}, "
            f"kernel_dim={self.kernel_dim})"
        )

    @property
    def dim(self) -> int:
        return self.evals.size

    @functools.cached_property
    def dense(self) -> DirichletSpace:
        """This space with a dense (D, D) generator and eigenbasis, built once."""
        return self if self.generator.ndim == 2 else replace(
            self, generator=np.diag(self.generator),
            evecs=np.eye(self.dim, dtype=np.complex128)[:, self.evecs])


def build_space(desc: Descriptor, gap_tol: float = GAP_RTOL) -> DirichletSpace:
    return space_from_matrix(desc, desc.generator_matrix(), gap_tol)


def space_from_matrix(desc: Descriptor, gen: np.ndarray,
                      gap_tol: float = GAP_RTOL) -> DirichletSpace:
    """Space around an explicit generator, a (D, D) matrix or a diagonal
    (D,), which must be PSD and annihilate the unit; eigenvalues below
    ``gap_tol`` times the largest count as kernel."""
    gen = np.asarray(gen, dtype=np.complex128)
    diag = gen if gen.ndim == 1 else np.diagonal(gen)
    if np.count_nonzero(gen) == np.count_nonzero(diag):   # the one choice of form
        gen = diag.copy()
        evecs = np.argsort(gen.real, kind="stable")
        evals = gen.real[evecs]
    else:
        evals, evecs = np.linalg.eigh(gen)
        recon = (evecs * evals) @ evecs.conj().T
        if np.linalg.norm(recon - gen) > 1e-10 * max(np.linalg.norm(gen), 1e-300):
            raise GeneratorError("eigensystem does not reconstruct the generator")
    scale = max(float(evals[-1]), 1e-300)   # the largest eigenvalue, floored
    if float(evals[0]) < -1e-10 * scale:
        raise GeneratorError(f"generator is not PSD (min eigenvalue {evals[0]:.3e})")
    space = DirichletSpace(desc, gen, evals, evecs, int(np.sum(evals < gap_tol * scale)))
    if np.linalg.norm(_l2_generator(space, bk.to_l2(bk.unit(desc)))) > 1e-10 * scale:
        raise GeneratorError("generator does not annihilate the unit")
    return space


def element_data(space: DirichletSpace, a: AlgebraElement) -> np.ndarray:
    """The coefficients of ``a``, which must belong to ``space``'s backend."""
    if not bk.same_backend(space.backend, a.backend):
        raise bk.BackendMismatch("element does not belong to this space")
    return a.data


def _l2_generator(space: DirichletSpace, C: np.ndarray) -> np.ndarray:
    """L on L^2 coordinates (..., D) as stored, independent of the eigensystem."""
    gen = space.generator
    return C * gen if gen.ndim == 1 else C @ gen.T


def _eigen_coords(space: DirichletSpace, C: np.ndarray, cols: slice = slice(None)) -> np.ndarray:
    """The pairings <v_j, c> of L^2 coordinates (..., D) with the eigenvectors ``cols``."""
    V = space.evecs
    return C[..., V[cols]] if V.ndim == 1 else (C.conj() @ V[:, cols]).conj()


def _from_eigen(space: DirichletSpace, Z: np.ndarray, cols: slice = slice(None)) -> np.ndarray:
    """L^2 coordinates (..., D) of sum_j Z_j v_j over the eigenvectors ``cols``."""
    V = space.evecs
    if V.ndim == 2:
        return Z @ V[:, cols].T
    C = np.zeros(Z.shape[:-1] + V.shape, dtype=np.result_type(Z, np.complex128))
    C[..., V[cols]] = Z
    return C


def _generator(space: DirichletSpace, X: np.ndarray) -> np.ndarray:
    """L on a coefficient stack."""
    return _l2_generator(space, bk.l2_coords(space.backend, X)).reshape(X.shape)


def _semigroup(space: DirichletSpace, t: float, X: np.ndarray) -> np.ndarray:
    """P_t = exp(-t L) on a coefficient stack, in eigen-coordinates."""
    c = _eigen_coords(space, bk.l2_coords(space.backend, X)) * np.exp(-t * space.evals)
    return _from_eigen(space, c).reshape(X.shape)


def form_data(space: DirichletSpace, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """E(x, y) = <x, L y> for each pair of entries of two coefficient stacks."""
    desc = space.backend
    return np.sum(bk.l2_coords(desc, X).conj() * bk.l2_coords(desc, _generator(space, Y)), -1)


def generator_apply(space: DirichletSpace, a: AlgebraElement) -> AlgebraElement:
    return bk.element(space.backend, _generator(space, element_data(space, a)))


def semigroup_apply(space: DirichletSpace, t: float, a: AlgebraElement) -> AlgebraElement:
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    return bk.element(space.backend, _semigroup(space, t, element_data(space, a)))


def dirichlet_form(space: DirichletSpace, a: AlgebraElement,
                   b: AlgebraElement | None = None) -> complex:
    """E(a, b) = <a, L b>; antilinear in the first slot.  E(a) := E(a, a)."""
    A = element_data(space, a)
    return complex(form_data(space, A, A if b is None else element_data(space, b)))


# ---------------------------------------------------------------------------
# Carre du champ
# ---------------------------------------------------------------------------


def _gamma(space: DirichletSpace, A: np.ndarray, B: np.ndarray | None = None):
    """Gamma(a, b) from 2 Gamma(a, b) = L(a^*) b + a^* L(b) - L(a^* b), and
    the L^2 mass its products truncated, on coefficient stacks."""
    desc = space.backend
    B = A if B is None else B
    As = desc.adjoint_data(A)
    t1, l1 = desc.mul_data(_generator(space, As), B)
    t2, l2 = desc.mul_data(As, _generator(space, B))
    prod, l3 = desc.mul_data(As, B)
    return 0.5 * (t1 + t2 - _generator(space, prod)), l1 + l2 + l3


def carre_du_champ(space: DirichletSpace, a: AlgebraElement,
                   b: AlgebraElement | None = None) -> Density:
    """Density of Gamma(a, b) via the polarized diffusion identity
    2 Gamma(a, b) = L(a^*) b + a^* L(b) - L(a^* b).  The diagonal call
    Gamma(a) := Gamma(a, a) passes ``bk.require_positive``: a negative
    witness there means the generator is not a diffusion."""
    B = None if b is None else element_data(space, b)
    gamma, leak = _gamma(space, element_data(space, a), B)
    rho = bk.as_density(bk.element(space.backend, gamma), float(leak))
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
    on the kernel complement (one draw of the battery's coordinates)."""
    if space.kernel_dim == space.dim:
        raise GeneratorError("all eigenvalues sit in the kernel: no spectral gap")
    gap = float(space.evals[space.kernel_dim])
    c_p = 1.0 / gap
    margin = None
    if rng is not None and battery > 0:
        z = rng.standard_normal((battery, 2, space.dim - space.kernel_dim))
        C = _from_eigen(space, z[:, 0] + 1j * z[:, 1], slice(space.kernel_dim, None))
        e = np.sum(C.conj() * _l2_generator(space, C), -1).real
        margin = float(np.min((c_p + POINCARE_TOL) * e - np.linalg.norm(C, axis=-1) ** 2))
    return PoincareResult(gap, c_p, space.kernel_dim, margin)


# ---------------------------------------------------------------------------
# Markovianity
# ---------------------------------------------------------------------------


def markov_check(space: DirichletSpace, t_samples, rng: np.random.Generator,
                 battery: int = 16, tol: float = 1e-10) -> Report:
    """Unitality, operator-norm contraction, complete positivity (Choi)
    and trace symmetry of P_t at each sampled time.  Trace symmetry
    compares the probe pairs (0, 1), (2, 3), ..., so ``battery`` must be at
    least 2."""
    if battery < 2:
        raise ValueError(f"markov-check battery must be >= 2 (got {battery})")
    desc = space.backend
    report = Report(kind="markov-check")
    one, probes = desc.unit_data(), bk.random_data(desc, rng, (battery,))
    even, odd = probes[: battery - 1 : 2], probes[1::2]
    pair_scale = np.maximum(bk.norm_data(desc, even) * bk.norm_data(desc, odd), 1e-300)
    # operator norms of the probes, for the contraction check at every t
    na = np.linalg.norm(desc.represent(probes), 2, axis=(-2, -1)) if desc.rep_is_exact() else None
    for t in map(float, t_samples):
        unitality = np.linalg.norm(_semigroup(space, t, one) - one)
        report.checks.append(check_le(f"unitality[t={t:g}]", unitality, tol))

        moved = _semigroup(space, t, probes)

        if na is not None:
            nt = np.linalg.norm(desc.represent(moved), 2, axis=(-2, -1))
            ratio = np.max(nt[na > 0] / na[na > 0], initial=0.0)   # zero probes are skipped
            report.checks.append(check_le(f"contraction[t={t:g}]", ratio - 1.0, tol))
        else:
            report.flags.append(f"contraction[t={t:g}] skipped: approximate representation")

        choi_min = desc.choi_min(lambda X: _semigroup(space, t, X))
        if choi_min is None:
            report.flags.append(f"choi_cp[t={t:g}] skipped: no exact representation of P_t")
        else:
            report.checks.append(check_ge(f"choi_cp[t={t:g}]", choi_min, -tol))

        lhs = bk.trace_data(desc, desc.mul_data(even, moved[1::2])[0])
        rhs = bk.trace_data(desc, desc.mul_data(moved[: battery - 1 : 2], odd)[0])
        sym = np.max(np.abs(lhs - rhs) / pair_scale)
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
    """Check Gamma(P_t a) <= e^{-2Kt} P_t Gamma(a) on a battery (n, *shape)
    and report the largest curvature bound passing on it: the least
    ``_largest_passing_K`` over the (t, a) pairs; a pair at t = 0 does not
    depend on K.  It is null, flagged ``largest_passing_K=unbounded`` when no
    pair bounds K and ``largest_passing_K=none`` when no K passes."""
    desc = space.backend
    report = Report(kind="bakry-emery-check", extra={"K": float(K)})
    if not desc.rep_is_exact():
        report.flags.append("skipped: approximate representation cannot order densities")
        return report
    gamma = _gamma(space, battery)[0]
    scales = np.maximum(bk.norm_data(desc, gamma), 1.0)
    bounds = []
    for t in map(float, t_samples):
        factor = np.exp(min(-2.0 * K * t, 600.0))   # clamp: huge factors pass anyway
        X = desc.represent(_semigroup(space, t, gamma))
        Y = desc.represent(_gamma(space, _semigroup(space, t, battery))[0])
        margins = np.linalg.eigvalsh(factor * X - Y)[..., 0] / scales
        for x, y, s, margin in zip(X, Y, scales, margins):
            check = check_ge(f"ordering[K={K:g},t={t:g}]", margin, -BE_TOL)
            report.checks.append(check)
            bounds.append(_largest_passing_K(x, y, t, BE_TOL * s) if t > 0
                          else (np.inf if check.passed else -np.inf))
    bound = min(bounds, default=np.inf)
    report.extra["largest_passing_K"] = float(bound) if np.isfinite(bound) else None
    if not np.isfinite(bound):
        report.flags.append("largest_passing_K=" + ("unbounded" if bound > 0 else "none"))
    return report
