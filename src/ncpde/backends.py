"""Concrete finite-dimensional noncommutative measure spaces.

A backend is a pair (algebra, trace): dense complex matrices with the
(unnormalized) matrix trace, a truncated twisted-Fourier model of the
rotation algebra generated by two unitaries with V U = e^{2 pi i theta} U V,
or the convolution algebra of a finite cyclic group with tau(f) = f(0).
Elements are immutable coefficient containers and every operation is a
pure function, so values are safe to share across threads.

Each backend is one ``Descriptor`` subclass implementing the protocol
listed there; the module-level functions below check their arguments and
call it, so the rest of the package never asks which backend it holds.

Coefficient layouts (these double as the L^2(tau) coordinate order used by
the rest of the package):

* ``MatrixAlgebra``  -- (n, n) complex array; entry [i, j] multiplies the
  matrix unit e_ij, row-major flattening i*n + j.
* ``NCTorus``        -- (2N+1, 2N+1) complex grid; entry [n+N, m+N]
  multiplies U^n V^m, rows n = -N..N, columns m = -N..N, row-major.
* ``CyclicGroup``    -- length-q complex vector f(0..q-1); f acts by
  convolution, the unit is the delta at 0.

A torus product is one matmul over the bounding box of the support of A,
not one pass per mode: B is twisted and shifted once per box column, the
columns are summed by ``A_box @ Y``, and one row-shifted slab per box row
is added onto the grid of all exponents.  Products are truncated back onto
the window |n|,|m| <= N; ``mul_with_loss`` reports the L^2 mass of the
discarded modes (exactly 0.0 when every mode outside the window is a sum
of exact zeros), so callers that need exact algebra can insist on
leak-free supports.  Traces and L^2 inner products of products are always
exact: the (0,0) mode is never truncated.

Positivity statements are delegated to ``represent``.  For matrices this is
the identity, for cyclic groups the circulant (regular) representation, for
a torus with reduced rational theta = p/q the clock-and-shift homomorphism
into M_q, and for irrational theta the window compression of the left
regular action, which is flagged approximate: it witnesses positivity but
is not multiplicative near the window boundary.  Witnesses read its spectrum
through ``rep_eigvalsh``; cyclic products, spectra and operator norms come
from the DFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np


class AlgebraError(Exception):
    """Base class for backend failures."""


class BackendMismatch(AlgebraError):
    """Elements of different backends were combined."""


class WindowOverflow(AlgebraError):
    """A clock-shift computation left the torus coefficient window."""


class NotSelfAdjoint(AlgebraError):
    pass


class NotPositive(AlgebraError):
    pass


class NotRepresentable(AlgebraError):
    """The requested operation needs an exact faithful representation."""


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

_SA_RTOL = 1e-10          # scale-invariant self-adjointness tolerance
_REP_RTOL = 1e-10         # mass a matrix may carry outside the coefficient window or diagonal
_CNT_RTOL = 1e-8          # negative-type eigencheck tolerance
_FRAME_WEIGHT_TOL = 1e-12
# bound m on |Re|, |Im| of matrix generator entries: L's entries (at most 8 k n m^2)
# and its squared norms stay finite for every k, n that fit in memory
_GEN_ENTRY_MAX = 1e50


# JSON schema of a coefficient list in the wire form of ``to_pairs``
PAIRS_SCHEMA = {"type": "array", "items": {
    "type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}}


def to_pairs(arr: np.ndarray) -> list[list[float]]:
    """Row-major ``[[re, im], ...]`` wire form of a complex array."""
    flat = np.ascontiguousarray(arr, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2).tolist()


def from_pairs(pairs, shape) -> np.ndarray:
    return np.array(pairs, dtype=np.float64).reshape(-1, 2).view(np.complex128).reshape(shape)


class Descriptor:
    """Base class of the backends.  A backend implements, on coefficient
    arrays whose row-major flattening is the L^2(tau) coordinate vector:
    ``shape``, ``to_json``/``from_json`` with the tag ``kind`` and schema
    ``json_schema``; ``unit_data``, ``mul_data`` (product and truncated L^2
    mass), ``adjoint_data`` and ``lmul`` (the matrix of x -> A x);
    ``rep_dim``, ``represent``, ``rep_eigvalsh``, ``rep_norm`` (operator
    norms of ``represent``), ``element_from_matrix``, ``choi_min`` (least
    Choi eigenvalue of P_t); ``generator_matrix``
    ((D, D), or the (D,) diagonal of a diagonal generator); and the tangent
    frame: ``psis`` (``frame_size()`` derivations as coefficient multipliers)
    or ``frame_size``, ``derive`` and ``codifferential``; ``involution`` (J).
    The defaults below serve exact representations, untwisted left
    actions, supports without a radius and multiplier frames.

    Every method acts on the trailing ``shape()`` axes and broadcasts over
    leading ones (``mul_data`` also gives the truncated L^2 masses, 0.0
    unless truncated).  Tangent stacks (see ``calculus``) carry their k =
    ``frame_size()`` components on ``frame_axis()`` = -1 - len(shape()):
    ``derive`` and ``left_multipliers`` map (..., *shape) to (..., k, *shape)
    and ``codifferential`` sums that axis away.
    """

    kind: ClassVar[str]
    json_schema: ClassVar[dict]

    def l2_dim(self) -> int:
        return math.prod(self.shape())

    def frame_axis(self) -> int:
        return -1 - len(self.shape())

    def rep_is_exact(self) -> bool:
        """False when ``represent`` only witnesses positivity (it is not
        multiplicative)."""
        return True

    def rep_eigvalsh(self, A: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues of ``represent`` of each self-adjoint entry."""
        return np.linalg.eigvalsh(self.represent(A))

    def rep_norm(self, A: np.ndarray) -> np.ndarray:
        """Operator norm (largest singular value) of ``represent`` of each entry."""
        return np.linalg.norm(self.represent(A), 2, axis=(-2, -1))

    def choi_min(self, semigroup: Callable[[np.ndarray], np.ndarray]) -> float | None:
        """Least eigenvalue of the Choi matrix of P_t (``semigroup`` maps
        coefficient stacks) extended to the representation algebra M_d; None
        when no exact extension exists.  An exact representation with d^2 =
        dim L^2 is a bijection onto M_d, so P_t is transported along it:
        block (i, j) is the image of the matrix unit e_ij."""
        d = self.rep_dim()
        if not self.rep_is_exact() or d * d != self.l2_dim():
            return None
        units = np.eye(d * d, dtype=np.complex128).reshape(d, d, d, d)
        choi = self.represent(semigroup(self.element_from_matrix(units)))
        return float(np.linalg.eigvalsh(choi.swapaxes(1, 2).reshape(d * d, d * d))[0])

    def restrict_support(self, data: np.ndarray, radius: int | None) -> np.ndarray:
        """``data`` restricted to supports of the given radius."""
        return data

    def default_radius(self) -> int | None:
        """Battery radius keeping triple products a b b^* leak-free."""
        return None

    def left_multipliers(self, A: np.ndarray) -> np.ndarray:
        """Per frame component, the coefficients by which A acts on the left;
        untwisted actions use A itself, broadcast over the frame axis."""
        return np.expand_dims(A, self.frame_axis())

    def frame_size(self) -> int:
        return len(self.psis())

    def derive(self, A: np.ndarray) -> np.ndarray:
        """Frame components of the gradient of A."""
        return self.psis() * np.expand_dims(A, self.frame_axis())

    def codifferential(self, H: np.ndarray) -> np.ndarray:
        """Hilbert adjoint of ``derive``."""
        return (np.conj(self.psis()) * H).sum(self.frame_axis())


@dataclass(frozen=True, eq=False, repr=False)
class MatrixAlgebra(Descriptor):
    """M_n with the unnormalized trace; the self-adjoint ``generators``
    drive the double-commutator Dirichlet structure downstream and give
    one tangent component each, d_j(a) = [v_j, a], with J(h)_j = -(h_j)^*.
    The generators are stored as one read-only (k, n, n) stack."""

    dim: int
    generators: np.ndarray
    kind = "matrix"
    json_schema = {
        "type": "object",
        "properties": {
            "kind": {"const": kind},
            "dim": {"type": "integer", "minimum": 1},
            "generators": {"type": "array", "items": PAIRS_SCHEMA, "minItems": 1},
        },
        "required": ["kind", "dim", "generators"],
        "additionalProperties": False,
    }

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("matrix dimension must be >= 1")
        gens = [np.asarray(v, dtype=np.complex128) for v in self.generators]
        if not gens:
            raise ValueError("at least one generator is required")
        for v in gens:
            if v.shape != (self.dim, self.dim):
                raise ValueError(f"generator shape {v.shape} != ({self.dim}, {self.dim})")
            if not np.abs(v.ravel().view(np.float64)).max() <= _GEN_ENTRY_MAX:   # NaN fails too
                raise ValueError(f"matrix generators must be finite, with entries' real and "
                                 f"imaginary parts at most {_GEN_ENTRY_MAX:g} in magnitude")
            scale = max(np.linalg.norm(v), 1.0)
            if np.linalg.norm(v - v.conj().T) > _SA_RTOL * scale:
                raise NotSelfAdjoint("matrix generators must be self-adjoint")
        gens = np.array(gens)
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)

    def __repr__(self):
        return f"MatrixAlgebra(dim={self.dim}, k={len(self.generators)})"

    def shape(self) -> tuple[int, ...]:
        return (self.dim, self.dim)

    def to_json(self) -> dict:
        return {"kind": self.kind, "dim": self.dim,
                "generators": [to_pairs(v) for v in self.generators]}

    @classmethod
    def from_json(cls, obj: dict) -> MatrixAlgebra:
        n = int(obj["dim"])
        return cls(n, tuple(from_pairs(g, (n, n)) for g in obj["generators"]))

    def unit_data(self) -> np.ndarray:
        return np.eye(self.dim, dtype=np.complex128)

    def mul_data(self, A, B) -> tuple[np.ndarray, np.ndarray]:
        P = A @ B
        return P, np.zeros(P.shape[:-2])

    def adjoint_data(self, A) -> np.ndarray:
        return A.conj().swapaxes(-1, -2)

    def lmul(self, A) -> np.ndarray:
        # row-major vec(AX) = kron(A, 1) vec(X): entry A[i, k] at (i n + j, k n + j)
        n = self.dim
        out = A[..., :, None, :, None] * np.eye(n)[:, None, :]
        return out.reshape(A.shape[:-2] + (n * n, n * n))

    def rep_dim(self) -> int:
        return self.dim

    def represent(self, A) -> np.ndarray:
        return A.copy()

    def element_from_matrix(self, X) -> np.ndarray:
        return X

    def generator_matrix(self) -> np.ndarray:
        # sum over v of kron(v^2, 1) + kron(1, (v^2)^T) - 2 kron(v, v^T), entry
        # ((i, j), (k, l)) = S[i, k] d[j, l] + d[i, k] S[l, j] - 2 K[i, j, k, l]:
        # S = sum v^2 is read off K so that dim 1 gives exactly L = 0
        n, eye = self.dim, np.eye(self.dim)
        K = np.einsum("aik,alj->ijkl", self.generators, self.generators)
        S = np.einsum("ikmm->ik", K)
        L = (S[:, None, :, None] * eye[:, None, :] + eye[:, None, :, None] * S.T[:, None, :]
             - 2.0 * K)
        return L.reshape(n * n, n * n)

    def frame_size(self) -> int:
        return len(self.generators)

    def derive(self, A) -> np.ndarray:
        V, A = self.generators, A[..., None, :, :]
        return V @ A - A @ V

    def codifferential(self, H) -> np.ndarray:
        # [v, .] is self-adjoint on L^2 because v is
        V = self.generators
        return (V @ H - H @ V).sum(-3)

    def involution(self, H) -> np.ndarray:
        return -self.adjoint_data(H)


@dataclass(frozen=True, eq=False, repr=False)
class NCTorus(Descriptor):
    """Coefficient window |n|, |m| <= level of the rotation algebra.

    ``rational`` is an explicit (p, q) tag meaning theta == p/q; it is
    stored in lowest terms and is never inferred from the float value.
    The frame has two components, d_1(U^n V^m) = i n U^n V^m and
    d_2(U^n V^m) = i m U^n V^m (psis built once, read-only), with
    J(h)_j = (h_j)^*.
    """

    level: int
    theta: float
    rational: tuple[int, int] | None = None
    kind = "nc_torus"
    json_schema = {
        "type": "object",
        "properties": {
            "kind": {"const": kind},
            "level": {"type": "integer", "minimum": 1},
            "theta": {"type": "number"},
            "rational": {
                "oneOf": [
                    {"type": "null"},
                    {"type": "array", "items": {"type": "integer"},
                     "minItems": 2, "maxItems": 2},
                ]
            },
        },
        "required": ["kind", "level", "theta"],
        "additionalProperties": False,
    }

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("truncation level must be >= 1")
        if not (0.0 <= self.theta < 1.0):      # also rejects NaN
            raise ValueError("theta must lie in [0, 1)")
        if self.rational is not None:
            p, q = self.rational
            if q < 1 or not (0 <= p < q):
                raise ValueError("rational tag must satisfy 0 <= p < q")
            if self.theta != p / q:
                raise ValueError("rational tag disagrees with theta")
            g = math.gcd(p, q) or 1
            object.__setattr__(self, "rational", (p // g, q // g))
        ns = 1j * np.arange(-self.level, self.level + 1)
        psis = np.stack(np.broadcast_arrays(ns[:, None], ns[None, :]))
        psis.setflags(write=False)
        object.__setattr__(self, "_psis", psis)

    def __repr__(self):
        tag = "" if self.rational is None else f", rational={self.rational}"
        return f"NCTorus(level={self.level}, theta={self.theta!r}{tag})"

    def shape(self) -> tuple[int, ...]:
        w = 2 * self.level + 1
        return (w, w)

    def to_json(self) -> dict:
        return {"kind": self.kind, "level": self.level, "theta": self.theta,
                "rational": list(self.rational) if self.rational else None}

    @classmethod
    def from_json(cls, obj: dict) -> NCTorus:
        rat = obj.get("rational")
        return cls(int(obj["level"]), float(obj["theta"]),
                   tuple(map(int, rat)) if rat else None)

    def unit_data(self) -> np.ndarray:
        data = np.zeros(self.shape(), dtype=np.complex128)
        data[self.level, self.level] = 1.0
        return data

    def mul_data(self, A, B) -> tuple[np.ndarray, np.ndarray]:
        # (U^p V^r)(U^n' V^m') = e^{2 pi i theta r n'} U^{p+n'} V^{r+m'} over the
        # P x R bounding box of the union of the supports of A: Y[r] is B
        # twisted by e^{2 pi i theta r n'} and shifted r columns right, one
        # matmul A_box @ Y sums over r, and row p of the result lands p rows down
        N = self.level
        W = 2 * N + 1
        lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
        out = np.zeros(lead + (4 * N + 1, 4 * N + 1), dtype=np.complex128)
        rows, cols = np.nonzero(np.any(A != 0.0, axis=tuple(range(A.ndim - 2))))
        if rows.size:
            p0, r0 = rows.min(), cols.min()
            P, R = rows.max() + 1 - p0, cols.max() + 1 - r0
            rs, ns = np.arange(r0 - N, r0 - N + R), np.arange(-N, N + 1)
            twisted = (np.exp(2j * np.pi * self.theta * rs[:, None, None] * ns[:, None])
                       * B[..., None, :, :])                         # [..., r, n', m']
            Y = np.zeros(twisted.shape[:-1] + (W + R - 1,), dtype=np.complex128)
            for r in range(R):
                Y[..., r, :, r : r + W] = twisted[..., r, :, :]
            slabs = (A[..., p0 : p0 + P, r0 : r0 + R] @ Y.reshape(Y.shape[:-2] + (-1,))
                     ).reshape(lead + (P, W, W + R - 1))
            for p in range(P):
                out[..., p0 + p : p0 + p + W, r0 : r0 + W + R - 1] += slabs[..., p, :, :]
        window = out[..., N : 3 * N + 1, N : 3 * N + 1].copy()
        out[..., N : 3 * N + 1, N : 3 * N + 1] = 0.0
        return window, np.linalg.norm(out, axis=(-2, -1))

    def adjoint_data(self, A) -> np.ndarray:
        # (U^n V^m)^* = e^{2 pi i theta n m} U^{-n} V^{-m}
        ns = np.arange(-self.level, self.level + 1)
        phase = np.exp(2j * np.pi * self.theta * np.outer(ns, ns))
        return phase * np.conj(A[..., ::-1, ::-1])

    def lmul(self, A) -> np.ndarray:
        """Window compression of x -> A x: entry A[p, r] e^{2 pi i theta r n}
        at ((p+n, r+m), (n, m)) wherever (p+n, r+m) lies in the window."""
        N = self.level
        W = 2 * N + 1
        ns = np.arange(-N, N + 1)
        p, r, n, m = np.ix_(ns, ns, ns, ns)
        keep = (np.abs(p + n) <= N) & (np.abs(r + m) <= N)
        rows = np.broadcast_to((p + n + N) * W + (r + m + N), keep.shape)[keep]
        cols = np.broadcast_to((n + N) * W + (m + N), keep.shape)[keep]
        vals = A[..., :, :, None, None] * np.exp(2j * np.pi * self.theta * r * n)
        out = np.zeros(A.shape[:-2] + (W * W, W * W), dtype=np.complex128)
        out[..., rows, cols] = np.broadcast_to(vals, A.shape[:-2] + keep.shape)[..., keep]
        return out

    def rep_dim(self) -> int:
        return self.l2_dim() if self.rational is None else self.rational[1]

    def rep_is_exact(self) -> bool:
        return self.rational is not None

    def _clock_phases(self, exps) -> np.ndarray:
        """w^{j n} for rows j = 0..q-1 and columns n in ``exps``, w = e^{2 pi i p/q}."""
        p, q = self.rational
        return np.exp(2j * np.pi * p * np.outer(np.arange(q), exps) / q)

    def represent(self, A) -> np.ndarray:
        if self.rational is None:
            return self.lmul(A)
        # clock and shift: U^n V^m -> w^{j n} at (j, j+m mod q); the 0/1 fold
        # sums the columns m of each residue s = m mod q, entry (j, s) goes to (j, j+s mod q)
        q = self.rational[1]
        ns, js = np.arange(-self.level, self.level + 1), np.arange(q)
        fold = (ns[:, None] % q == js).astype(np.complex128)
        return (self._clock_phases(ns) @ A @ fold)[..., js[:, None], (js - js[:, None]) % q]

    def element_from_matrix(self, X) -> np.ndarray:
        """Rational theta needs an injective window (2N+1 <= q) and raises
        ``WindowOverflow`` if any X carries mass at exponents outside the
        window; the compressed irrational representation is not invertible."""
        if self.rational is None:
            raise NotRepresentable("irrational-theta representation is not invertible")
        N = self.level
        q = self.rational[1]
        if 2 * N + 1 > q:
            raise NotRepresentable(
                f"window width {2 * N + 1} exceeds clock-shift period {q}: ambiguous exponents"
            )
        # coefficient of U^n V^m: tr((U^n V^m)^* X) / q = sum_j w^{-j n} X[j, j+m mod q] / q
        rs = np.arange(-(q // 2), q - q // 2)      # one exponent per residue mod q
        js = np.arange(q)[:, None]
        coeffs = self._clock_phases(rs).conj().T @ X[..., js, (js + rs) % q] / q
        inside = np.abs(rs) <= N
        dropped = np.linalg.norm(coeffs[..., ~np.outer(inside, inside)], axis=-1)
        if np.any(dropped > _REP_RTOL * np.maximum(np.linalg.norm(X, axis=(-2, -1)), 1e-300)):
            raise WindowOverflow(
                f"matrix carries mass {np.max(dropped):.3e} outside the coefficient window")
        return coeffs[..., inside, :][..., inside]

    def generator_matrix(self) -> np.ndarray:
        ns = np.arange(-self.level, self.level + 1)
        return (ns[:, None] ** 2 + ns[None, :] ** 2).reshape(-1).astype(np.complex128)

    def psis(self) -> np.ndarray:
        return self._psis

    def involution(self, H) -> np.ndarray:
        return self.adjoint_data(H)

    def restrict_support(self, data, radius):
        if radius is None:
            return data
        inside = np.abs(np.arange(-self.level, self.level + 1)) <= radius
        return data * np.outer(inside, inside)

    def default_radius(self) -> int:
        return self.level // 3


def nc_torus_rational(level: int, p: int, q: int) -> NCTorus:
    return NCTorus(level=level, theta=p / q, rational=(p, q))


def negative_type_defect(lengths: tuple[float, ...] | np.ndarray) -> float:
    """Smallest eigenvalue of [l(g)+l(h)-l(g-h)] on mean-zero vectors, 0 for a
    symmetric l of conditionally negative type: as the kernel is -P C P with C
    the circulant of l, the eigenvalues are 0 and -lhat(k) for k != 0."""
    return min(0.0, float(-np.fft.fft(np.asarray(lengths, dtype=float)).real[1:].max()))


@dataclass(frozen=True, eq=False, repr=False)
class CyclicGroup(Descriptor):
    """Convolution algebra of Z_q with a symmetric length function of
    conditionally negative type (l(0)=0, l(k)=l(q-k), l >= 0).

    Tangent frame: the length decomposes against characters as
    l(g) = sum_k mu_k (1 - cos(2 pi k g / q)), mu_k = -lhat(k)/q >= 0 (lhat
    the DFT of l), with one component per k with mu_k > 0.  Its derivation
    multiplies coefficients by i sqrt(mu_k/2) (chi_k - 1), the left action
    twists convolution by the character chi_k(g) = e^{2 pi i k g / q}, the
    right action is plain convolution and J(h)_k = chi_k * (h_{-k})^*.
    The characters, the psis, the index of each component's J partner
    q - k and the circulant index (g - h) mod q are built once, read-only.
    The circulant of f has eigenvalues fft(f): products, the spectrum of
    ``represent`` and the Choi test run through the DFT, the rest keeps the
    circulant.
    """

    order: int
    lengths: tuple[float, ...]
    kind = "cyclic"
    json_schema = {
        "type": "object",
        "properties": {
            "kind": {"const": kind},
            "order": {"type": "integer", "minimum": 2},
            "lengths": {"type": "array", "items": {"type": "number"}},
        },
        "required": ["kind", "order", "lengths"],
        "additionalProperties": False,
    }

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("group order must be >= 2")
        l = tuple(float(x) for x in self.lengths)
        if len(l) != self.order:
            raise ValueError("need one length per group element")
        if not all(math.isfinite(x) for x in l):
            raise ValueError("lengths must be finite")
        if l[0] != 0.0:
            raise ValueError("length of the identity must be 0")
        if any(x < 0 for x in l):
            raise ValueError("lengths must be nonnegative")
        if np.any(np.abs(np.subtract(l[1:], l[:0:-1])) > 1e-12 * max(1.0, max(l))):
            raise ValueError("length function must satisfy l(k) = l(q-k)")
        defect = negative_type_defect(l)
        if defect < -_CNT_RTOL * max(1.0, max(l)):
            raise ValueError(
                f"length function is not conditionally of negative type (defect {defect:.3e})"
            )
        object.__setattr__(self, "lengths", l)
        mu = -np.fft.fft(l).real / self.order
        mu[0] = 0.0
        mu[np.abs(mu) < _FRAME_WEIGHT_TOL * max(1.0, max(l))] = 0.0
        active = tuple(np.flatnonzero(mu > 0.0).tolist())
        ks, g = np.array(active, dtype=int), np.arange(self.order)
        chars = np.exp(2j * np.pi * ks[:, None] * g / self.order)
        for name, arr in (
            ("_chars", chars),
            ("_psis", 1j * np.sqrt(mu[ks] / 2.0)[:, None] * (chars - 1.0)),
            ("_partner", np.array([active.index((self.order - k) % self.order)
                                   for k in active], dtype=int)),
            ("_circulant", (g[:, None] - g[None, :]) % self.order),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __repr__(self):
        return f"CyclicGroup(order={self.order}, lengths={self.lengths})"

    def shape(self) -> tuple[int, ...]:
        return (self.order,)

    def to_json(self) -> dict:
        return {"kind": self.kind, "order": self.order, "lengths": list(self.lengths)}

    @classmethod
    def from_json(cls, obj: dict) -> CyclicGroup:
        return cls(int(obj["order"]), tuple(obj["lengths"]))

    def unit_data(self) -> np.ndarray:
        data = np.zeros(self.order, dtype=np.complex128)
        data[0] = 1.0
        return data

    def mul_data(self, A, B) -> tuple[np.ndarray, np.ndarray]:
        P = np.fft.ifft(np.fft.fft(A) * np.fft.fft(B))
        return P, np.zeros(P.shape[:-1])

    def adjoint_data(self, A) -> np.ndarray:
        return np.conj(np.roll(A[..., ::-1], 1, axis=-1))

    def lmul(self, A) -> np.ndarray:
        return A[..., self._circulant]

    def rep_dim(self) -> int:
        return self.order

    # the regular representation is left multiplication itself
    represent = lmul

    def rep_eigvalsh(self, A) -> np.ndarray:
        return np.sort(np.fft.fft(A).real, axis=-1)

    def rep_norm(self, A) -> np.ndarray:
        # a circulant is normal: its singular values are the moduli of fft(A)
        return np.abs(np.fft.fft(A)).max(-1)

    def element_from_matrix(self, X) -> np.ndarray:
        return X[..., :, 0]

    def choi_min(self, semigroup):
        # a P_t multiplying coefficients by m is the Schur multiplier by the
        # circulant [m(g - h)] on M_q; its Choi matrix is that circulant on the
        # span of the e_g (x) e_g and zero elsewhere, and the circulant's
        # eigenvalues are fft(m) (Choi 1975; Paulsen 2002)
        P = semigroup(np.eye(self.order, dtype=np.complex128))
        m = np.diagonal(P)
        if np.linalg.norm(P - np.diag(m)) > _REP_RTOL * np.linalg.norm(m):
            return None   # P_t mixes coefficients: no Schur extension
        return min(0.0, float(np.fft.fft(m).real.min()))

    def generator_matrix(self) -> np.ndarray:
        return np.asarray(self.lengths, dtype=np.complex128)

    def psis(self) -> np.ndarray:
        return self._psis

    def left_multipliers(self, A) -> np.ndarray:
        return self._chars * A[..., None, :]

    def involution(self, H) -> np.ndarray:
        return self._chars * self.adjoint_data(H[..., self._partner, :])


# every backend class; serialization and the CLI schema are built from this
BACKENDS = (MatrixAlgebra, NCTorus, CyclicGroup)


def same_backend(a: Descriptor, b: Descriptor) -> bool:
    """Descriptors are the same backend when their exact wire forms agree."""
    return a is b or (type(a) is type(b) and a.to_json() == b.to_json())


def positivity_tol(desc: Descriptor) -> float:
    # eigensolver noise scales with the representation dimension
    return 1e-10 * desc.rep_dim()


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class AlgebraElement:
    backend: Descriptor
    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128)   # always copy, then freeze
        shape = self.backend.shape()
        if arr.shape != shape:
            raise ValueError(f"coefficient shape {arr.shape} != {shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __repr__(self):
        return f"AlgebraElement({self.backend!r}, ||.||_2={np.linalg.norm(self.data):.4g})"

    # value-style arithmetic sugar; the named functions below are the API
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(-1.0, other))


def element(desc: Descriptor, data) -> AlgebraElement:
    return AlgebraElement(desc, np.asarray(data, dtype=np.complex128))


def zero(desc: Descriptor) -> AlgebraElement:
    return AlgebraElement(desc, np.zeros(desc.shape()))


def unit(desc: Descriptor) -> AlgebraElement:
    return AlgebraElement(desc, desc.unit_data())


def monomial(desc: NCTorus, n: int, m: int, coeff: complex = 1.0) -> AlgebraElement:
    """coeff * U^n V^m; (n, m) must lie in the coefficient window."""
    N = desc.level
    if abs(n) > N or abs(m) > N:
        raise WindowOverflow(f"monomial ({n},{m}) outside window +-{N}")
    data = np.zeros(desc.shape(), dtype=np.complex128)
    data[n + N, m + N] = coeff
    return AlgebraElement(desc, data)


def delta(desc: CyclicGroup, g: int, coeff: complex = 1.0) -> AlgebraElement:
    data = np.zeros(desc.order, dtype=np.complex128)
    data[g % desc.order] = coeff
    return AlgebraElement(desc, data)


def to_l2(a: AlgebraElement) -> np.ndarray:
    """Coordinates of ``a`` in the orthonormal L^2(tau) basis (row-major)."""
    return a.data.reshape(-1)


def l2_coords(desc: Descriptor, A: np.ndarray) -> np.ndarray:
    """``to_l2`` of each entry of a coefficient stack: (..., *shape) -> (..., D)."""
    return A.reshape(A.shape[:A.ndim - len(desc.shape())] + (desc.l2_dim(),))


def norm_data(desc: Descriptor, A: np.ndarray) -> np.ndarray:
    """L^2 norm of each entry of a coefficient stack."""
    return np.linalg.norm(l2_coords(desc, A), axis=-1)


def from_l2(desc: Descriptor, vec: np.ndarray) -> AlgebraElement:
    return AlgebraElement(desc, np.asarray(vec, dtype=np.complex128).reshape(desc.shape()))


def _check_same(a: AlgebraElement, b: AlgebraElement):
    if not same_backend(a.backend, b.backend):
        raise BackendMismatch(f"cannot combine {a.backend!r} with {b.backend!r}")


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    _check_same(a, b)
    return AlgebraElement(a.backend, a.data + b.data)


def scale(t: complex, a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.backend, complex(t) * a.data)


def mul_with_loss(a: AlgebraElement, b: AlgebraElement) -> tuple[AlgebraElement, float]:
    """Product together with the L^2 mass truncated away (torus only;
    exactly 0.0 for the other backends)."""
    _check_same(a, b)
    data, loss = a.backend.mul_data(a.data, b.data)
    return AlgebraElement(a.backend, data), float(loss)


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return mul_with_loss(a, b)[0]


def adjoint(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.backend, a.backend.adjoint_data(a.data))


def trace_data(desc: Descriptor, A: np.ndarray) -> np.ndarray:
    """tau of each entry of a coefficient stack: tau(a) = <1, a>, the unit's
    coordinates pick out the trace."""
    return l2_coords(desc, A) @ desc.unit_data().reshape(-1).conj()


def trace(a: AlgebraElement) -> complex:
    return complex(trace_data(a.backend, a.data))


def inner_l2(a: AlgebraElement, b: AlgebraElement) -> complex:
    """tau(a^* b); antilinear in the first slot.  The coefficient bases are
    orthonormal so this is the plain coordinate inner product."""
    _check_same(a, b)
    return complex(np.vdot(to_l2(a), to_l2(b)))


def norm_l2(a: AlgebraElement) -> float:
    return float(np.linalg.norm(to_l2(a)))


def self_adjoint_data(desc: Descriptor, A: np.ndarray) -> np.ndarray:
    """Whether each entry of a coefficient stack is self-adjoint."""
    return (norm_data(desc, A - desc.adjoint_data(A))
            <= _SA_RTOL * np.maximum(norm_data(desc, A), 1e-300))


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------


def represent(a: AlgebraElement) -> np.ndarray:
    """Faithful-or-witnessing matrix image of ``a``; see module docstring."""
    return a.backend.represent(a.data)


def element_from_matrix(desc: Descriptor, X: np.ndarray) -> AlgebraElement:
    """Inverse of ``represent`` where one exists (see the backend's
    ``element_from_matrix``)."""
    return AlgebraElement(desc, desc.element_from_matrix(X))


def operator_norm(a: AlgebraElement) -> float:
    """Largest singular value of the representation (approximate for the
    compressed irrational-torus representation)."""
    return float(a.backend.rep_norm(a.data))


# ---------------------------------------------------------------------------
# Positivity
# ---------------------------------------------------------------------------


def witness_data(desc: Descriptor, A: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of ``represent`` of each entry of a coefficient
    stack; NaN for an entry that is not self-adjoint."""
    sa = self_adjoint_data(desc, A)
    wit = np.full(sa.shape, np.nan)
    wit[sa] = desc.rep_eigvalsh(A[sa])[..., 0]
    return wit


def require_positive_data(desc: Descriptor, A: np.ndarray, witness, leak, what: str) -> None:
    """Raise ``NotPositive`` when an entry of the stack A is leak-free and its
    witness lies below -positivity_tol * max(||A||_2, 1); NaN witnesses pass."""
    tol = positivity_tol(desc)
    scale_ = np.maximum(norm_data(desc, A), 1.0)
    bad = (leak <= tol * scale_) & (witness < -tol * scale_)
    if np.any(bad):
        raise NotPositive(f"{what}: negative witness {np.min(np.where(bad, witness, np.inf)):.3e}")


# ---------------------------------------------------------------------------
# Random batteries
# ---------------------------------------------------------------------------


def random_data(desc: Descriptor, rng: np.random.Generator, lead: tuple[int, ...] = (), *,
                radius: int | None = None, self_adjoint: bool = False) -> np.ndarray:
    """Seeded random coefficient stack lead + shape from one ``standard_normal``
    call, real parts of each entry before its imaginary parts, so it follows
    the stream of one call per entry; ``radius`` restricts the support where
    the backend bounds supports (torus: |n|,|m| <= radius), so that products
    stay leak-free, and ``self_adjoint`` maps each entry a to (a + a^*) / 2."""
    z = rng.standard_normal(tuple(lead) + (2,) + desc.shape())
    # copying the parts in place is cheaper than re + 1j * im on small draws
    data = np.empty(tuple(lead) + desc.shape(), dtype=np.complex128)
    ix = (slice(None),) * len(lead)
    data.real, data.imag = z[ix + (0,)], z[ix + (1,)]
    data = desc.restrict_support(data, radius)
    return 0.5 * (data + desc.adjoint_data(data)) if self_adjoint else data


def random_element(desc: Descriptor, rng: np.random.Generator, *,
                   radius: int | None = None, self_adjoint: bool = False) -> AlgebraElement:
    """Seeded random element drawn by ``random_data``."""
    return AlgebraElement(desc, random_data(desc, rng, radius=radius, self_adjoint=self_adjoint))
