import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpde import backends as bk
from ncpde import calculus as ca
from ncpde import dirichlet as dr
from conftest import (SIGMA_X, SIGMA_Z, THETA_IRR, assert_elem_close, backend_from_spec,
                      loop_torus_mul, make_rng)

BACKENDS = {
    "qubit": lambda: bk.MatrixAlgebra(2, (SIGMA_Z,)),
    "torus": lambda: bk.NCTorus(2, THETA_IRR),
    "z4": lambda: bk.CyclicGroup(4, (0.0, 1.0, 2.0, 1.0)),
}


@pytest.fixture(params=list(BACKENDS))
def any_backend(request):
    return BACKENDS[request.param]()


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


def test_matrix_generators_must_be_self_adjoint():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(bk.NotSelfAdjoint):
        bk.MatrixAlgebra(2, (bad,))


def test_matrix_descriptor_validation():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        bk.MatrixAlgebra(0, (SIGMA_Z,))
    with pytest.raises(ValueError, match="at least one generator"):
        bk.MatrixAlgebra(2, ())
    with pytest.raises(ValueError, match=r"generator shape \(3, 3\) != \(2, 2\)"):
        bk.MatrixAlgebra(2, (np.eye(3),))


def test_rational_tag_is_reduced_and_checked():
    t = bk.NCTorus(1, 0.5, (2, 4))
    assert t.rational == (1, 2)
    with pytest.raises(ValueError, match="disagrees with theta"):
        bk.NCTorus(1, 0.4, (1, 3))
    with pytest.raises(ValueError, match="truncation level must be >= 1"):
        bk.NCTorus(0, 0.5)
    with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\)"):
        bk.NCTorus(1, 1.0)
    with pytest.raises(ValueError, match="rational tag must satisfy 0 <= p < q"):
        bk.NCTorus(1, 0.5, (3, 2))


def test_length_function_validation():
    with pytest.raises(ValueError, match="must satisfy l"):
        bk.CyclicGroup(4, (0.0, 1.0, 2.0, 3.0))     # not symmetric
    with pytest.raises(ValueError, match="identity must be 0"):
        bk.CyclicGroup(4, (1.0, 1.0, 1.0, 1.0))     # l(0) != 0
    with pytest.raises(ValueError, match="group order must be >= 2"):
        bk.CyclicGroup(1, (0.0,))
    with pytest.raises(ValueError, match="one length per group element"):
        bk.CyclicGroup(4, (0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="lengths must be nonnegative"):
        bk.CyclicGroup(4, (0.0, -1.0, 2.0, -1.0))
    # word length on Z_5 is conditionally of negative type
    bk.CyclicGroup(5, (0.0, 1.0, 2.0, 2.0, 1.0))


@pytest.mark.parametrize("make", [
    lambda x: bk.CyclicGroup(4, (0.0, x, 2.0, x)),
    lambda x: bk.MatrixAlgebra(2, (np.diag([1.0, x]),)),
], ids=["cyclic-lengths", "matrix-generator"])
@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_descriptors_reject_non_finite_numbers(make, x):
    with pytest.raises(ValueError, match="finite"):
        make(x)


def test_negative_type_eigencheck_rejects_bad_lengths():
    # (0, 0, 1, 0) on Z_4 is symmetric and nonnegative but its DFT has a
    # positive coefficient at k=2, so the restricted kernel has a -1 eigenvalue
    assert bk.negative_type_defect((0.0, 0.0, 1.0, 0.0)) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        bk.CyclicGroup(4, (0.0, 0.0, 1.0, 0.0))


def eigvalsh_negative_type_defect(lengths):
    """Least eigenvalue of the q x q kernel [l(g)+l(h)-l(g-h)] restricted to
    mean-zero vectors: the reference for ``bk.negative_type_defect``."""
    l = np.asarray(lengths, dtype=float)
    q = l.size
    g = np.arange(q)
    K = l[:, None] + l[None, :] - l[(g[:, None] - g[None, :]) % q]
    P = np.eye(q) - np.full((q, q), 1.0 / q)
    return float(np.linalg.eigvalsh(P @ K @ P).min())


def test_negative_type_defect_matches_eigvalsh_oracle():
    rng = make_rng(77)
    accepted = rejected = 0
    for q in range(2, 65):
        g = np.arange(q)
        for draw in range(4):
            if draw % 2:   # sum of nonnegative cosine modes: of negative type
                mu = rng.uniform(0.0, 2.0, q)
                mu = mu + mu[-g % q]
                l = (mu[:, None] * (1.0 - np.cos(2 * np.pi * np.outer(g, g) / q))).sum(0)
            else:          # any symmetric nonnegative lengths
                x = rng.uniform(0.0, 3.0, q)
                l = x + x[-g % q]
            l[0] = 0.0
            scale = max(1.0, l.max())
            got, want = bk.negative_type_defect(l), eigvalsh_negative_type_defect(l)
            assert abs(got - want) <= 1e-9 * scale, (q, draw, got, want)
            if draw % 2:
                bk.CyclicGroup(q, tuple(l))
                accepted += 1
            elif want < -1e-6 * scale:   # clear of the acceptance threshold
                with pytest.raises(ValueError, match="not conditionally of negative type"):
                    bk.CyclicGroup(q, tuple(l))
                rejected += 1
    assert accepted == 2 * 63 and rejected > 63


# ---------------------------------------------------------------------------
# Torus product and adjoint
# ---------------------------------------------------------------------------


def test_commutation_relation():
    t = bk.NCTorus(2, THETA_IRR)
    U, V = bk.monomial(t, 1, 0), bk.monomial(t, 0, 1)
    assert_elem_close(bk.mul(V, U), bk.scale(np.exp(2j * np.pi * THETA_IRR), bk.mul(U, V)))


def test_unit_law(any_backend):
    rng = make_rng(1)
    one = bk.unit(any_backend)
    for _ in range(5):
        a = bk.random_element(any_backend, rng)
        assert_elem_close(bk.mul(one, a), a)
        assert_elem_close(bk.mul(a, one), a)


def test_torus_product_against_hand_expansion():
    # (U + V)(U - V) = U^2 + (w - 1) UV - V^2 with w = e^{2 pi i / 3}
    t = bk.nc_torus_rational(2, 1, 3)
    w = np.exp(2j * np.pi / 3)
    U, V = bk.monomial(t, 1, 0), bk.monomial(t, 0, 1)
    prod = bk.mul(U + V, U - V)
    expected = bk.monomial(t, 2, 0) + bk.monomial(t, 1, 1, w - 1.0) - bk.monomial(t, 0, 2)
    assert_elem_close(prod, expected, tol=1e-14)


def test_torus_product_matches_clock_shift_matrices():
    # independent oracle: U -> diag(1, w, w^2), V -> cyclic shift, built here
    t = bk.nc_torus_rational(2, 1, 3)
    w = np.exp(2j * np.pi / 3)
    C = np.diag([1.0, w, w * w])
    S = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        S[j, (j + 1) % 3] = 1.0
    assert np.allclose(bk.represent(bk.monomial(t, 1, 0)), C)
    assert np.allclose(bk.represent(bk.monomial(t, 0, 1)), S)
    U, V = bk.monomial(t, 1, 0), bk.monomial(t, 0, 1)
    lhs = bk.represent(bk.mul(U + V, U - V))
    rhs = (C + S) @ (C - S)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_represent_uv_is_ordered_clock_shift_product():
    # the monomial UV maps to C @ S; the twist phase lives in reordered
    # products only: represent(VU) = S @ C = w * C @ S
    t = bk.nc_torus_rational(2, 1, 3)
    w = np.exp(2j * np.pi / 3)
    C = np.diag([1.0, w, w * w])
    S = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        S[j, (j + 1) % 3] = 1.0
    U, V = bk.monomial(t, 1, 0), bk.monomial(t, 0, 1)
    assert np.allclose(bk.represent(bk.mul(U, V)), C @ S)
    assert np.allclose(bk.represent(bk.mul(V, U)), S @ C)
    assert np.allclose(S @ C, w * C @ S)


def test_clock_shift_oracle_on_random_window_safe_products():
    t = bk.nc_torus_rational(2, 1, 3)
    rng = make_rng(2)
    for _ in range(20):
        a = bk.random_element(t, rng, radius=1)
        b = bk.random_element(t, rng, radius=1)
        lhs = bk.represent(bk.mul(a, b))
        rhs = bk.represent(a) @ bk.represent(b)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)


def test_adjoint_sigma_x_self_adjoint(qubit):
    assert_elem_close(bk.adjoint(bk.element(qubit, SIGMA_X)), bk.element(qubit, SIGMA_X))


def test_adjoint_monomial_reordering():
    # (U^n V^m)^* = e^{2 pi i theta n m} U^{-n} V^{-m}, from V^r U^s = e^{2 pi i theta rs} U^s V^r
    t = bk.NCTorus(3, THETA_IRR)
    for n, m in [(1, 2), (-2, 3), (2, 2), (0, 1)]:
        got = bk.adjoint(bk.monomial(t, n, m))
        expected = bk.monomial(t, -n, -m, np.exp(2j * np.pi * THETA_IRR * n * m))
        assert_elem_close(got, expected, tol=1e-14)


def test_adjoint_involutive(any_backend):
    rng = make_rng(3)
    for _ in range(10):
        a = bk.random_element(any_backend, rng)
        assert_elem_close(bk.adjoint(bk.adjoint(a)), a, tol=1e-14)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       tre=st.floats(-5, 5, allow_nan=False), tim=st.floats(-5, 5, allow_nan=False))
def test_involution_axioms(seed, tre, tim):
    t = complex(tre, tim)
    for make in BACKENDS.values():
        desc = make()
        rng = make_rng(seed)
        a = bk.random_element(desc, rng)
        b = bk.random_element(desc, rng)
        lhs = bk.adjoint(bk.scale(t, a) + b)
        rhs = bk.scale(np.conj(t), bk.adjoint(a)) + bk.adjoint(b)
        assert_elem_close(lhs, rhs, tol=1e-12)
        # the standard anti-multiplicative law (ab)^* = b^* a^*
        assert_elem_close(bk.adjoint(bk.mul(a, b)),
                          bk.mul(bk.adjoint(b), bk.adjoint(a)), tol=1e-12)


# ---------------------------------------------------------------------------
# Trace and inner product
# ---------------------------------------------------------------------------


def test_trace_reads_the_constant_coefficient():
    t = bk.NCTorus(2, THETA_IRR)
    a = bk.scale(3.0, bk.unit(t)) + bk.scale(2.0, bk.monomial(t, 1, 0))
    assert bk.trace(a) == pytest.approx(3.0)


def test_trace_of_unit(qubit, z4):
    assert bk.trace(bk.unit(bk.NCTorus(1, THETA_IRR))) == pytest.approx(1.0)
    assert bk.trace(bk.unit(z4)) == pytest.approx(1.0)
    assert bk.trace(bk.unit(qubit)) == pytest.approx(2.0)   # unnormalized matrix trace


def test_trace_property(any_backend):
    rng = make_rng(4)
    for _ in range(20):
        a = bk.random_element(any_backend, rng)
        b = bk.random_element(any_backend, rng)
        scale = max(bk.norm_l2(a) * bk.norm_l2(b), 1.0)
        assert abs(bk.trace(bk.mul(a, b)) - bk.trace(bk.mul(b, a))) <= 1e-12 * scale


def test_inner_product_examples():
    t = bk.NCTorus(2, THETA_IRR)
    U, V = bk.monomial(t, 1, 0), bk.monomial(t, 0, 1)
    assert bk.inner_l2(U, U) == pytest.approx(1.0)
    assert bk.inner_l2(U, V) == pytest.approx(0.0)


def test_inner_product_is_trace_of_star_product(any_backend):
    rng = make_rng(5)
    for _ in range(10):
        a = bk.random_element(any_backend, rng)
        b = bk.random_element(any_backend, rng)
        via_trace = bk.trace(bk.mul(bk.adjoint(a), b))
        assert abs(bk.inner_l2(a, b) - via_trace) <= 1e-12 * max(abs(via_trace), 1.0)


def test_faithfulness(any_backend):
    rng = make_rng(6)
    for _ in range(10):
        a = bk.random_element(any_backend, rng)
        val = bk.trace(bk.mul(bk.adjoint(a), a)).real
        assert val > 0.0
    assert bk.trace(bk.mul(bk.adjoint(bk.zero(any_backend)), bk.zero(any_backend))) == 0.0


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------


def test_cyclic_delta_is_the_shift_circulant(z4):
    R = bk.represent(bk.delta(z4, 1))
    expected = np.zeros((4, 4))
    for x in range(4):
        expected[x, (x - 1) % 4] = 1.0
    assert np.array_equal(R.real, expected)
    assert np.abs(R.imag).max() == 0.0


def test_representation_is_star_preserving(any_backend):
    rng = make_rng(7)
    radius = 1 if isinstance(any_backend, bk.NCTorus) else None
    for _ in range(5):
        a = bk.random_element(any_backend, rng, radius=radius)
        assert np.allclose(bk.represent(bk.adjoint(a)), bk.represent(a).conj().T)


def test_torus_support_radius_beyond_the_level_keeps_the_window():
    t = bk.NCTorus(2, THETA_IRR)
    rng = make_rng(12)
    data = rng.standard_normal(t.shape()) + 1j * rng.standard_normal(t.shape())
    assert np.array_equal(t.restrict_support(data, t.level), data)
    assert np.array_equal(t.restrict_support(data, t.level + 1), data)


def test_cyclic_convolution_diagonalizes_under_dft(z4):
    # F represent(f) F^-1 = diag(fft(f)) with F the DFT matrix: what lets
    # products and spectra skip the circulant
    rng = make_rng(8)
    F = np.fft.fft(np.eye(4))
    for _ in range(10):
        f = bk.random_element(z4, rng)
        got = F @ bk.represent(f) @ np.linalg.inv(F)
        assert np.abs(got - np.diag(np.fft.fft(f.data))).max() < 1e-12


CYCLIC_ORDERS = (2, 3, 5, 16, 64, 128)


def word_length_group(q):
    return bk.CyclicGroup(q, tuple(float(min(g, q - g)) for g in range(q)))


def circulant_mul(A, B):
    """Oracle: the convolution A * B as the circulant of A, built from the
    index (g - h) mod q, applied to B."""
    g = np.arange(A.shape[-1])
    circ = (g[:, None] - g[None, :]) % A.shape[-1]
    return (A[..., circ] @ B[..., None])[..., 0]


def _cplx(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("q", CYCLIC_ORDERS)
@pytest.mark.parametrize("lead_a, lead_b", [((), ()), ((6,), (6,)), ((6, 6), (6, 1))],
                         ids=["single", "stack", "broadcast"])
def test_cyclic_product_matches_the_circulant_oracle(q, lead_a, lead_b):
    desc = word_length_group(q)
    rng = make_rng(q)
    A, B = _cplx(rng, lead_a + (q,)), _cplx(rng, lead_b + (q,))
    P, loss = desc.mul_data(A, B)
    want = circulant_mul(A, B)
    assert P.shape == want.shape and np.all(loss == 0.0) and loss.shape == want.shape[:-1]
    bound = 1e-13 * (np.linalg.norm(A, axis=-1) * np.linalg.norm(B, axis=-1))[..., None]
    assert np.all(np.abs(P - want) <= bound)


@pytest.mark.parametrize("q", CYCLIC_ORDERS)
def test_cyclic_delta_times_delta_is_the_shifted_delta(q):
    desc = word_length_group(q)
    for g, h in [(0, 0), (1, q - 1), (q // 2, q // 3), (q - 1, q - 1)]:
        got = bk.mul_with_loss(bk.delta(desc, g), bk.delta(desc, h))
        assert got[1] == 0.0
        assert np.abs(got[0].data - bk.delta(desc, g + h).data).max() <= 1e-15


@pytest.mark.parametrize("q", CYCLIC_ORDERS)
def test_cyclic_spectrum_matches_eigvalsh_of_the_circulant(q):
    desc = word_length_group(q)
    X = _cplx(make_rng(q + 1), (6, q)) * np.logspace(-3, 3, 6)[:, None]
    A = 0.5 * (X + desc.adjoint_data(X))
    got, want = desc.rep_eigvalsh(A), np.linalg.eigvalsh(desc.represent(A))
    scale_ = np.maximum(np.linalg.norm(A, axis=-1), 1.0)[:, None]
    assert np.all(np.abs(got - want) <= 1e-12 * scale_)


@pytest.mark.parametrize("q", CYCLIC_ORDERS)
def test_cyclic_witness_is_nan_off_the_self_adjoint_entries(q):
    desc = word_length_group(q)
    X = _cplx(make_rng(q + 2), (4, q))
    A = np.stack([X[0], 0.5 * (X[1] + desc.adjoint_data(X[1])), X[2], desc.unit_data()])
    wit = bk.witness_data(desc, A)
    assert bk.self_adjoint_data(desc, A).tolist() == [False, True, False, True]
    assert np.isnan(wit[0]) and np.isnan(wit[2])
    assert wit[1] == pytest.approx(np.linalg.eigvalsh(desc.represent(A[1]))[0], abs=1e-12)
    assert wit[3] == pytest.approx(1.0, abs=1e-15)


def test_operator_norm_c_star_identities(qubit, z4):
    rng = make_rng(9)
    for desc in (qubit, z4):
        for _ in range(10):
            a = bk.random_element(desc, rng)
            assert bk.operator_norm(a) == pytest.approx(bk.operator_norm(bk.adjoint(a)), rel=1e-10)
            assert bk.operator_norm(bk.mul(bk.adjoint(a), a)) == pytest.approx(
                bk.operator_norm(a) ** 2, rel=1e-10)


# ---------------------------------------------------------------------------
# Positivity
# ---------------------------------------------------------------------------


def test_element_from_matrix_inverts_represent(qubit, z4):
    rng = make_rng(12)
    for desc in (qubit, z4, bk.nc_torus_rational(1, 1, 3)):
        a = bk.random_element(desc, rng)
        assert_elem_close(bk.element_from_matrix(desc, bk.represent(a)), a, tol=1e-12)
    irrational = bk.NCTorus(2, THETA_IRR)   # the window compression has no inverse
    with pytest.raises(bk.NotRepresentable):
        bk.element_from_matrix(irrational, bk.represent(bk.random_element(irrational, rng)))


def _positive_decompose(a):
    """a = plus - minus with plus, minus >= 0, by clipping the spectrum of
    represent(a) and mapping each part back through element_from_matrix."""
    evals, vecs = np.linalg.eigh(bk.represent(a))
    parts = [(vecs * np.clip(s * evals, 0, None)) @ vecs.conj().T for s in (1.0, -1.0)]
    return tuple(bk.element_from_matrix(a.backend, P) for P in parts)


def test_positive_decompose_cyclic_via_fourier(z4):
    rng = make_rng(12)
    a = bk.random_element(z4, rng, self_adjoint=True)
    plus, minus = _positive_decompose(a)
    assert_elem_close(plus - minus, a, tol=1e-12)
    assert float(bk.witness_data(z4, plus.data)) >= -1e-12
    assert float(bk.witness_data(z4, minus.data)) >= -1e-12
    # oracle: the positive part in Fourier is the clipped spectrum
    spectrum = np.fft.fft(a.data).real
    assert np.allclose(np.fft.fft(plus.data).real,
                       np.clip(spectrum, 0, None), atol=1e-12)


def test_positive_decompose_torus_rational_roundtrip():
    t = bk.nc_torus_rational(1, 1, 3)
    rng = make_rng(13)
    a = bk.random_element(t, rng, self_adjoint=True)
    plus, minus = _positive_decompose(a)
    assert_elem_close(plus - minus, a, tol=1e-12)
    for d in (plus, minus):
        assert float(bk.witness_data(t, d.data)) >= -1e-10


def test_positive_decompose_irrational_torus_raises():
    t = bk.NCTorus(2, THETA_IRR)
    rng = make_rng(14)
    a = bk.random_element(t, rng, self_adjoint=True)
    with pytest.raises(bk.NotRepresentable):
        _positive_decompose(a)


def test_element_from_matrix_rejects_wide_window():
    t = bk.nc_torus_rational(2, 1, 3)   # window 5 > period 3
    with pytest.raises(bk.NotRepresentable):
        bk.element_from_matrix(t, np.eye(3, dtype=complex))


def test_element_from_matrix_window_overflow():
    t = bk.nc_torus_rational(1, 2, 5)   # window 3 < period 5: exponent 2 unreachable
    X = bk.represent(bk.monomial(t, 1, 0))
    bk.element_from_matrix(t, X)        # fine
    clock2 = X @ X                      # image of U^2, outside the window
    with pytest.raises(bk.WindowOverflow):
        bk.element_from_matrix(t, clock2)
    # a stack overflows when any of its entries does
    assert t.element_from_matrix(np.stack([X, X])).shape == (2,) + t.shape()
    with pytest.raises(bk.WindowOverflow):
        t.element_from_matrix(np.stack([X, clock2]))


def _require_positive(desc, X, what, leak=0.0):
    """The positivity gate on the coefficients X of one density."""
    X = np.asarray(X, dtype=np.complex128)
    bk.require_positive_data(desc, X, bk.witness_data(desc, X), leak, what)


def test_require_positive_raises_below_minus_tol_times_scale(qubit):
    tol = bk.positivity_tol(qubit)          # scale max(||a||, 1) is 1 here
    _require_positive(qubit, np.diag([-0.5 * tol, 0.0]), "a")
    with pytest.raises(bk.NotPositive):
        _require_positive(qubit, np.diag([-2.0 * tol, 0.0]), "a")
    # scale 100: a witness below -tol but above -100 tol passes
    _require_positive(qubit, np.diag([-50.0 * tol, 100.0]), "b")


def test_require_positive_exempts_leaky_and_witnessless_densities(qubit):
    _require_positive(qubit, SIGMA_Z, "leaky", leak=10.0 * bk.positivity_tol(qubit))   # witness -1
    offdiag = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=np.complex128)
    assert math.isnan(float(bk.witness_data(qubit, offdiag)))   # not self-adjoint
    _require_positive(qubit, offdiag, "offdiag")


def test_cyclic_frame_is_computed_once_and_read_only(z5):
    # the frame's multipliers, cyclic and torus, are built once, read-only
    torus = bk.NCTorus(2, THETA_IRR)
    for desc in (z5, torus):
        psis = desc.psis()
        assert desc.psis() is psis
        with pytest.raises(ValueError):
            psis[0, 0] = 1.0
    ns = np.arange(-2, 3)
    assert np.array_equal(torus.psis()[0], 1j * np.broadcast_to(ns[:, None], (5, 5)))
    assert np.array_equal(torus.psis()[1], 1j * np.broadcast_to(ns, (5, 5)))


# ---------------------------------------------------------------------------
# Truncation semantics
# ---------------------------------------------------------------------------


def test_truncation_reports_dropped_mass():
    t = bk.NCTorus(1, 0.5, (1, 2))
    U = bk.monomial(t, 1, 0)
    prod, loss = bk.mul_with_loss(U, U)      # U^2 leaves the window entirely
    assert bk.norm_l2(prod) == 0.0
    assert loss == pytest.approx(1.0)


def test_window_safe_products_are_leak_free():
    t = bk.NCTorus(2, THETA_IRR)
    rng = make_rng(16)
    for _ in range(10):
        a = bk.random_element(t, rng, radius=1)
        b = bk.random_element(t, rng, radius=1)
        _, loss = bk.mul_with_loss(a, b)
        assert loss == 0.0


@pytest.mark.parametrize("radius", [None, 1], ids=["dense", "radius1"])
@pytest.mark.parametrize("kind", ["torus", "rational"])
@pytest.mark.parametrize("level", range(1, 9))
def test_torus_product_matches_twisted_sum(level, kind, radius):
    t = backend_from_spec((kind, level))
    rng = make_rng(18)
    A = bk.random_data(t, rng, radius=radius)
    B = bk.random_data(t, rng, radius=radius)
    window, loss = t.mul_data(A, B)
    want, want_loss = loop_torus_mul(t, A, B)
    assert np.linalg.norm(window - want) <= 1e-14 * np.linalg.norm(want)
    assert abs(loss - want_loss) <= 1e-12 * want_loss


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10, 1e-12])
def test_small_truncated_mass_is_reported(eps):
    # a U^2 coefficient eps pushes a sliver of a radius-1 product out of the
    # level-2 window; its mass must not cancel away against the kept mass
    t = bk.NCTorus(2, THETA_IRR)
    rng = make_rng(19)
    a = bk.random_data(t, rng, radius=1)
    a[4, 2] += eps
    b = bk.random_element(t, rng, radius=1)
    _, loss = bk.mul_with_loss(bk.element(t, a), b)
    want = loop_torus_mul(t, a, b.data)[1]
    assert want > 0.0
    assert abs(loss - want) <= 1e-12 * want


def test_trace_and_inner_product_ignore_truncation():
    # the constant mode is never dropped, so traces of products stay exact;
    # oracle: compute the (0,0) output coefficient by the full twisted sum
    t = bk.NCTorus(2, THETA_IRR)
    rng = make_rng(17)
    a = bk.random_element(t, rng)
    b = bk.random_element(t, rng)
    N = t.level
    acc = 0.0 + 0.0j
    for p in range(-N, N + 1):
        for r in range(-N, N + 1):
            if abs(-p) <= N and abs(-r) <= N:
                acc += a.data[p + N, r + N] * b.data[-p + N, -r + N] * np.exp(
                    2j * np.pi * t.theta * r * (-p))
    assert bk.trace(bk.mul(a, b)) == pytest.approx(acc, abs=1e-12)


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def test_backend_mismatch_is_a_hard_error(qubit, z4):
    with pytest.raises(bk.BackendMismatch):
        bk.mul(bk.unit(qubit), bk.unit(z4))
    with pytest.raises(bk.BackendMismatch):
        bk.inner_l2(bk.unit(qubit), bk.unit(z4))
    t_a = bk.NCTorus(2, THETA_IRR)
    t_b = bk.NCTorus(2, 0.25, (1, 4))
    with pytest.raises(bk.BackendMismatch):
        bk.add(bk.unit(t_a), bk.unit(t_b))
    qubit_space, z4_space = dr.build_space(qubit), dr.build_space(z4)
    with pytest.raises(bk.BackendMismatch, match="does not belong to this space"):
        dr.dirichlet_form(qubit_space, bk.unit(z4))
    with pytest.raises(bk.BackendMismatch, match="tangent vectors over different spaces"):
        ca.hilbert_inner(ca.zero_tangent(qubit_space), ca.zero_tangent(z4_space))


def test_element_shape_and_monomial_window_are_checked(qubit):
    with pytest.raises(ValueError, match=r"coefficient shape \(3,\) != \(2, 2\)"):
        bk.AlgebraElement(qubit, np.zeros(3))
    with pytest.raises(bk.WindowOverflow, match=r"monomial \(3,0\) outside window \+-2"):
        bk.monomial(bk.NCTorus(2, THETA_IRR), 3, 0)


def test_elements_are_immutable(qubit):
    a = bk.unit(qubit)
    with pytest.raises(ValueError):
        a.data[0, 0] = 5.0
