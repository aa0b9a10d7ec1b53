import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from ncpde import backends as bk
from ncpde import cli
from ncpde import dirichlet as dr
from conftest import (SIGMA_X, SIGMA_Z, THETA_IRR, assert_elem_close, backend_from_spec,
                      bisect_largest_passing_K, corrupted_space, count_rep_eigvalsh,
                      dense_form, full_choi, make_rng)


def commutator(a, b):
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def test_generator_torus_multiplier(torus2, torus2_space):
    a = bk.monomial(torus2, 2, 1)
    assert_elem_close(dr.generator_apply(torus2_space, a), bk.scale(5.0, a), tol=1e-14)


def test_generator_annihilates_unit(torus2_space, qubit_space, z4_space):
    for sp in (torus2_space, qubit_space, z4_space):
        assert bk.norm_l2(dr.generator_apply(sp, bk.unit(sp.backend))) <= 1e-14


def test_generator_qubit_double_commutator(qubit, qubit_space):
    # oracle: explicit 2x2 commutators computed here
    expected = commutator(SIGMA_Z, commutator(SIGMA_Z, SIGMA_X))
    assert np.allclose(expected, 4.0 * SIGMA_X)
    got = dr.generator_apply(qubit_space, bk.element(qubit, SIGMA_X))
    assert np.allclose(got.data, expected)


def test_generator_matrix_backend_random_oracle(pair3, pair3_space):
    rng = make_rng(31)
    for _ in range(10):
        a = bk.random_element(pair3, rng)
        expected = sum(commutator(v, commutator(v, a.data)) for v in pair3.generators)
        got = dr.generator_apply(pair3_space, a)
        assert np.abs(got.data - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1.0)


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("n", range(1, 7))
def test_matrix_generator_matches_the_kron_sum(n, k):
    # oracle: row-major vec(v X) = kron(v, 1) vec(X) and vec(X v) =
    # kron(1, v^T) vec(X), so [v, [v, X]] has the matrix below; at dim 1
    # both are exactly zero
    rng = make_rng(40 + 10 * n + k)
    gens = []
    for _ in range(k):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gens.append((m + m.conj().T) / 2.0)
    eye = np.eye(n, dtype=complex)
    expected = sum(np.kron(v @ v, eye) + np.kron(eye, (v @ v).T) - 2.0 * np.kron(v, v.T)
                   for v in gens)
    got = bk.MatrixAlgebra(n, tuple(gens)).generator_matrix()
    assert got.shape == expected.shape and got.dtype == np.complex128
    assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


def test_generator_cyclic_is_length_multiplier(z4, z4_space):
    rng = make_rng(32)
    f = bk.random_element(z4, rng)
    got = dr.generator_apply(z4_space, f)
    assert np.allclose(got.data, np.asarray(z4.lengths) * f.data)


def test_generator_symmetry_and_positivity(torus2_space, qubit_space, pair3_space, z4_space):
    rng = make_rng(33)
    for sp in (torus2_space, qubit_space, pair3_space, z4_space):
        for _ in range(10):
            a = bk.random_element(sp.backend, rng)
            b = bk.random_element(sp.backend, rng)
            lhs = bk.inner_l2(a, dr.generator_apply(sp, b))
            rhs = bk.inner_l2(dr.generator_apply(sp, a), b)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
            assert bk.inner_l2(a, dr.generator_apply(sp, a)).real >= -1e-10


def test_eigensystem_reconstructs_generator(pair3_space):
    sp = pair3_space
    gen, evecs = dense_form(sp)
    recon = (evecs * sp.evals) @ evecs.conj().T
    rel = np.linalg.norm(recon - gen) / np.linalg.norm(gen)
    assert rel <= 1e-10


def test_space_arrays_are_read_only(qubit, pair3_space, torus2_space, z4_space):
    # the space hands out views of its stored form: writing through them
    # must not corrupt the space's generator or eigensystem
    for sp in (pair3_space, torus2_space, z4_space,
               corrupted_space(qubit, np.diag([0.0, 1.0, 1.0, 0.0]))):
        for arr in (sp.generator, sp.evals, sp.evecs):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def test_space_from_matrix_validation(qubit, qubit_space):
    gen = dense_form(qubit_space)[0]
    dr.space_from_matrix(qubit, gen)   # fine
    evals, evecs = np.linalg.eigh(gen)
    evals[-1] = -evals[-1]
    bad = (evecs * evals) @ evecs.conj().T
    with pytest.raises(dr.GeneratorError, match="generator is not PSD"):
        dr.space_from_matrix(qubit, bad)
    with pytest.raises(dr.GeneratorError, match="generator does not annihilate the unit"):
        dr.space_from_matrix(qubit, np.eye(4))
    # a NaN fails every comparison, so it would pass the PSD and unit checks
    with pytest.raises(dr.GeneratorError, match="generator is not finite"):
        dr.space_from_matrix(bk.CyclicGroup(4, (0.0, 1.0, 2.0, 1.0)),
                             np.array([0.0, np.nan, 2.0, 1.0]))
    # finite generators whose double commutators would overflow are refused
    # by the descriptor; at its bound the space is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="matrix generators must be finite"):
            bk.MatrixAlgebra(2, (1e200 * SIGMA_Z,))
        edge = dr.build_space(bk.MatrixAlgebra(2, (1e50 * SIGMA_Z,)))
    assert np.isfinite(edge.evals).all() and edge.kernel_dim == 2


@pytest.mark.parametrize("form", ["diagonal", "dense-diagonal", "dense"])
def test_non_self_adjoint_generator_is_refused_in_both_forms(qubit, qubit_space, form):
    # eigh reads one triangle and the diagonal form only the real parts, so
    # without the check each of these would build a space from another generator
    z4 = bk.CyclicGroup(4, (0.0, 1.0, 2.0, 1.0))
    complex_diag = np.array([0.0, 1.0 + 1.0j, 2.0, 1.0 + 1.0j])
    skewed = dense_form(qubit_space)[0].copy()
    skewed[0, 1] += 0.5
    desc, gen = {"diagonal": (z4, complex_diag), "dense-diagonal": (z4, np.diag(complex_diag)),
                 "dense": (qubit, skewed)}[form]
    with pytest.raises(dr.GeneratorError, match="generator is not self-adjoint"):
        dr.space_from_matrix(desc, gen)


# ---------------------------------------------------------------------------
# Semigroup
# ---------------------------------------------------------------------------


def test_semigroup_torus_modes(torus2, torus2_space):
    UV = bk.monomial(torus2, 1, 1)
    got = dr.semigroup_apply(torus2_space, 0.7, UV)
    assert_elem_close(got, bk.scale(np.exp(-1.4), UV), tol=1e-14)


def test_semigroup_identity_at_zero(torus2_space):
    rng = make_rng(34)
    a = bk.random_element(torus2_space.backend, rng)
    assert_elem_close(dr.semigroup_apply(torus2_space, 0.0, a), a, tol=1e-14)


def test_semigroup_qubit_rate(qubit, qubit_space):
    a = bk.element(qubit, SIGMA_X)
    got = dr.semigroup_apply(qubit_space, 0.3, a)
    assert_elem_close(got, bk.scale(np.exp(-1.2), a), tol=1e-13)


def test_semigroup_law(torus2_space, qubit_space, z4_space):
    rng = make_rng(35)
    for sp in (torus2_space, qubit_space, z4_space):
        a = bk.random_element(sp.backend, rng)
        lhs = dr.semigroup_apply(sp, 0.9, a)
        rhs = dr.semigroup_apply(sp, 0.4, dr.semigroup_apply(sp, 0.5, a))
        assert_elem_close(lhs, rhs, tol=1e-10)


def test_semigroup_rejects_negative_time(qubit_space):
    with pytest.raises(ValueError):
        dr.semigroup_apply(qubit_space, -0.1, bk.unit(qubit_space.backend))


def test_strong_continuity_monotone(z4_space):
    rng = make_rng(36)
    a = bk.random_element(z4_space.backend, rng)
    devs = [bk.norm_l2(dr.semigroup_apply(z4_space, t, a) - a)
            for t in (1.0, 0.3, 0.1, 0.03, 0.01, 1e-4)]
    assert all(d2 <= d1 + 1e-14 for d1, d2 in zip(devs, devs[1:]))
    assert devs[-1] < 1e-3


def test_semigroup_preserves_order_interval(qubit, qubit_space, z4, z4_space):
    # 0 <= a <= 1 implies 0 <= P_t(a) <= 1 on representable backends
    rng = make_rng(37)
    for desc, sp in ((qubit, qubit_space), (z4, z4_space)):
        raw = bk.random_element(desc, rng, self_adjoint=True)
        lo = np.linalg.eigvalsh(bk.represent(raw)).min()
        hi = np.linalg.eigvalsh(bk.represent(raw)).max()
        a = bk.scale(1.0 / (hi - lo), raw - bk.scale(lo, bk.unit(desc)))
        for t in (0.1, 1.0, 5.0):
            evals = np.linalg.eigvalsh(bk.represent(dr.semigroup_apply(sp, t, a)))
            assert evals.min() >= -1e-10
            assert evals.max() <= 1.0 + 1e-10


# ---------------------------------------------------------------------------
# Markovianity
# ---------------------------------------------------------------------------


def test_markov_check_passes(qubit_space, z4_space, torus13_space):
    at_scale = [dr.build_space(backend_from_spec(spec))
                for spec in (("matrix", 6), ("cyclic", 32), ("cyclic", 64))]
    for sp in (qubit_space, z4_space, torus13_space, *at_scale):
        report = dr.markov_check(sp, [0.1, 1.0, 10.0], make_rng(38), tol=1e-10)
        assert report.passed, [c.name for c in report.checks if not c.passed]
        assert not report.flags


def test_markov_check_needs_a_battery_of_pairs(qubit_space):
    # trace symmetry compares disjoint probe pairs: one probe forms none
    with pytest.raises(ValueError, match="battery"):
        dr.markov_check(qubit_space, [1.0], make_rng(38), battery=1)
    assert dr.markov_check(qubit_space, [1.0], make_rng(38), battery=2).passed


def choi_min(space, t):
    return space.backend.choi_min(lambda X: dr._semigroup(space, t, X))


def test_choi_at_time_zero_is_maximally_entangled_projector(qubit_space):
    choi = full_choi(qubit_space, 0.0)
    d = qubit_space.backend.rep_dim()
    # identity channel: Choi = d * |Omega><Omega|
    omega = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    assert np.allclose(choi, d * np.outer(omega, omega.conj()))
    least = np.linalg.eigvalsh(choi).min()
    assert least >= -1e-12
    assert abs(choi_min(qubit_space, 0.0) - least) <= 1e-13


def _cyclic_lengths(kind, q):
    g = np.arange(q)
    if kind == "word":
        return np.minimum(g, q - g).astype(float)
    if kind == "cosines":
        return sum((1.0 - np.cos(2 * np.pi * k * g / q)) / k**2 for k in (1, 2, 3))
    # mu_1 = 5e-10 sits near 0, so fft(e^{-t l}) has an eigenvalue near 0 at large t
    return 1e-9 * (1.0 - np.cos(2 * np.pi * g / q)) + 0.25 * (1.0 - np.cos(4 * np.pi * g / q))


CHOI_SPACES = (
    [(kind, q) for q in (2, 3, 4, 5, 8, 16) for kind in ("word", "cosines", "small_mu")]
    + [("matrix", 2), ("matrix", 3), ("rational", 1), ("rational", 2)]
)


@pytest.mark.parametrize("kind,size", CHOI_SPACES)
def test_choi_min_agrees_with_the_full_choi_matrix(kind, size):
    # cyclic spaces take the DFT override, matrix and rational torus (q = 3, 5)
    # the default method; both against the unit-by-unit Choi build
    if kind in ("matrix", "rational"):
        desc = backend_from_spec((kind, size))
    else:
        desc = bk.CyclicGroup(size, tuple(_cyclic_lengths(kind, size)))
    space = dr.build_space(desc)
    for t in (0.0, 0.1, 1.0, 10.0):
        least = np.linalg.eigvalsh(full_choi(space, t))[0]
        got = choi_min(space, t)
        assert (got >= -1e-10) == (least >= -1e-10), (t, got, least)
        assert abs(got - least) <= 1e-13, (t, got, least)


def test_choi_reads_the_semigroup_of_the_space_not_the_lengths():
    # the generator diag(0, 0, 1, 1, 0) is no length of negative type on Z_5, so
    # its P_t is not CP, whatever lengths the descriptor carries
    desc = bk.CyclicGroup(5, (0.0, 1.0, 1.5, 1.5, 1.0))
    space = dr.space_from_matrix(desc, np.diag([0.0, 0.0, 1.0, 1.0, 0.0]))
    report = dr.markov_check(space, [0.5, 1.0], make_rng(42))
    choi = {c.name: c for c in report.checks if c.name.startswith("choi_cp")}
    assert set(choi) == {"choi_cp[t=0.5]", "choi_cp[t=1]"}
    assert not any(c.passed for c in choi.values())
    for t in (0.5, 1.0):
        assert abs(choi[f"choi_cp[t={t:g}]"].value - np.linalg.eigvalsh(full_choi(space, t))[0]) <= 1e-13


def test_choi_skips_a_cyclic_semigroup_that_mixes_coefficients(z4):
    # a PSD generator annihilating delta_0 with off-diagonal entries: P_t is
    # no Schur multiplier, so it has no exact extension to M_q
    gen = np.zeros((4, 4), dtype=complex)
    gen[1:, 1:] = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]
    space = dr.space_from_matrix(z4, gen)
    report = dr.markov_check(space, [0.5], make_rng(43))
    assert "choi_cp[t=0.5] skipped: no exact representation of P_t" in report.flags
    assert not any(c.name.startswith("choi_cp") for c in report.checks)
    assert full_choi(space, 0.5) is None


def test_markov_check_at_cyclic_64_stays_small():
    # the full (q^2, q^2) complex Choi matrix alone would take 256 MiB here
    space = dr.build_space(backend_from_spec(("cyclic", 64)))
    tracemalloc.start()
    try:
        report = dr.markov_check(space, [0.1, 1.0], make_rng(44), battery=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and not report.flags
    assert peak < 32 * 2**20, peak


def test_markov_check_fails_for_corrupted_generator(qubit):
    gen = dense_form(dr.build_space(qubit))[0]
    evals, evecs = np.linalg.eigh(gen)
    evals[-1] = -evals[-1]
    bad = corrupted_space(qubit, (evecs * evals) @ evecs.conj().T)
    report = dr.markov_check(bad, [1.0], make_rng(39))
    failed = {c.name for c in report.checks if not c.passed}
    assert any(name.startswith("contraction") for name in failed)


def test_markov_check_flags_irrational_torus(torus2_space):
    report = dr.markov_check(torus2_space, [0.5], make_rng(40))
    assert any("choi_cp" in f for f in report.flags)


def test_markov_report_serializes(z4_space):
    report = dr.markov_check(z4_space, [0.1], make_rng(41))
    d = report.to_dict()
    assert d["kind"] == "markov-check"
    assert all({"name", "value", "tolerance", "passed"} <= set(c) for c in d["checks"])


# ---------------------------------------------------------------------------
# Dirichlet form
# ---------------------------------------------------------------------------


def test_form_examples(torus2, torus2_space):
    U = bk.monomial(torus2, 1, 0)
    assert dr.dirichlet_form(torus2_space, U).real == pytest.approx(1.0)
    assert dr.dirichlet_form(torus2_space, bk.unit(torus2)) == pytest.approx(0.0)
    f = bk.monomial(torus2, 2, 1) + bk.scale(2.0, bk.monomial(torus2, 0, 1))
    assert dr.dirichlet_form(torus2_space, f).real == pytest.approx(9.0)


def test_form_is_hermitian(z5_space):
    rng = make_rng(42)
    a = bk.random_element(z5_space.backend, rng)
    b = bk.random_element(z5_space.backend, rng)
    assert dr.dirichlet_form(z5_space, a, b) == pytest.approx(
        np.conj(dr.dirichlet_form(z5_space, b, a)))


# ---------------------------------------------------------------------------
# Carre du champ
# ---------------------------------------------------------------------------


def test_carre_du_champ_of_unit_vanishes(torus2_space):
    g = dr.carre_du_champ(torus2_space, bk.unit(torus2_space.backend))
    assert bk.norm_l2(g) <= 1e-14


def test_carre_du_champ_qubit_sigma_x(qubit, qubit_space):
    # oracle: (d a)^* (d a) with d a = [sigma_z, sigma_x] = 2 i sigma_y
    da = commutator(SIGMA_Z, SIGMA_X)
    expected = da.conj().T @ da
    g = dr.carre_du_champ(qubit_space, bk.element(qubit, SIGMA_X))
    assert np.allclose(g.data, expected)
    assert bk.trace(g).real == pytest.approx(
        dr.dirichlet_form(qubit_space, bk.element(qubit, SIGMA_X)).real)


def test_carre_du_champ_torus_u(torus2, torus2_space):
    g = dr.carre_du_champ(torus2_space, bk.monomial(torus2, 1, 0))
    assert_elem_close(g, bk.unit(torus2), tol=1e-14)
    assert bk.trace(g).real == pytest.approx(1.0)


def test_trace_of_gamma_equals_energy(torus2_space, qubit_space, pair3_space, z4_space):
    rng = make_rng(43)
    for sp in (torus2_space, qubit_space, pair3_space, z4_space):
        for _ in range(20):
            a = bk.random_element(sp.backend, rng)   # full window: traces stay exact
            g = dr.carre_du_champ(sp, a)
            e = dr.dirichlet_form(sp, a).real
            assert abs(bk.trace(g).real - e) <= 1e-10 * (1.0 + abs(e))


def test_gamma_sigma_symmetry(qubit_space, z4_space):
    rng = make_rng(44)
    for sp in (qubit_space, z4_space):
        a = bk.random_element(sp.backend, rng)
        b = bk.random_element(sp.backend, rng)
        lhs = bk.adjoint(dr.carre_du_champ(sp, a, b))
        rhs = dr.carre_du_champ(sp, b, a)
        assert_elem_close(lhs, rhs, tol=1e-12)


def test_gamma_reality_on_self_adjoint_elements(qubit_space):
    rng = make_rng(45)
    a = bk.random_element(qubit_space.backend, rng, self_adjoint=True)
    b = bk.random_element(qubit_space.backend, rng, self_adjoint=True)
    lhs = dr.carre_du_champ(qubit_space, a, b)
    rhs = dr.carre_du_champ(qubit_space, bk.adjoint(a), bk.adjoint(b))
    assert_elem_close(lhs, rhs, tol=1e-12)


def test_gamma_complete_positivity_battery(qubit_space, pair3_space):
    rng = make_rng(46)
    for sp in (qubit_space, pair3_space):
        for _ in range(10):
            As = [bk.random_element(sp.backend, rng) for _ in range(3)]
            Bs = [bk.random_element(sp.backend, rng) for _ in range(3)]
            acc = bk.zero(sp.backend)
            for j in range(3):
                for k in range(3):
                    gjk = dr.carre_du_champ(sp, As[j], As[k])
                    acc = acc + bk.mul(bk.mul(bk.adjoint(Bs[j]), gjk), Bs[k])
            wit = np.linalg.eigvalsh(bk.represent(acc)).min()
            assert wit >= -1e-9 * max(bk.norm_l2(acc), 1.0)


def test_gamma_positivity_enforced(qubit):
    # corrupt generator (not a diffusion generator): Gamma picks up negativity
    gen = -dense_form(dr.build_space(qubit))[0]
    bad = corrupted_space(qubit, gen)
    with pytest.raises(bk.NotPositive):
        dr.carre_du_champ(bad, bk.element(qubit, SIGMA_X))


def test_only_the_diagonal_gamma_computes_a_witness(monkeypatch, qubit, torus2_space, z4_space):
    rng = make_rng(47)
    bad = corrupted_space(qubit, -dense_form(dr.build_space(qubit))[0])
    for sp in (torus2_space, z4_space, dr.build_space(qubit)):
        calls = count_rep_eigvalsh(monkeypatch, sp.backend)
        a, b = (bk.random_element(sp.backend, rng) for _ in range(2))
        dr.carre_du_champ(sp, a, b)
        assert calls == []                  # Gamma(a, b): no witness
        dr.carre_du_champ(sp, a)
        dr.carre_du_champ(sp, a, a)
        assert len(calls) == 2              # one per diagonal call
    with pytest.raises(bk.NotPositive):     # the gate still reads the one witness
        dr.carre_du_champ(bad, bk.element(qubit, SIGMA_X))
    assert len(calls) == 3                  # calls is the qubit's list


# ---------------------------------------------------------------------------
# Poincare constant
# ---------------------------------------------------------------------------


def test_poincare_torus_all_levels():
    for N in (1, 2, 4):
        sp = dr.build_space(bk.NCTorus(N, THETA_IRR))
        res = dr.poincare_constant(sp, make_rng(47))
        assert res.gap == 1.0
        assert res.c_p == 1.0
        assert res.kernel_dim == 1
        assert res.battery_margin >= -1e-10


def test_poincare_qubit(qubit_space):
    res = dr.poincare_constant(qubit_space, make_rng(48))
    assert res.gap == pytest.approx(4.0, abs=1e-12)
    assert res.c_p == pytest.approx(0.25, abs=1e-12)
    assert res.kernel_dim == 2


def test_poincare_z2():
    sp = dr.build_space(bk.CyclicGroup(2, (0.0, 1.0)))
    res = dr.poincare_constant(sp)
    assert res.gap == 1.0
    assert res.c_p == 1.0


def test_poincare_degenerate_space_raises(qubit):
    zero_space = dr.space_from_matrix(qubit, np.zeros((4, 4), dtype=complex))
    with pytest.raises(dr.GeneratorError):
        dr.poincare_constant(zero_space)


# ---------------------------------------------------------------------------
# Gradient estimate (Bakry-Emery)
# ---------------------------------------------------------------------------


def _stack(battery):
    """A battery of elements as the coefficient stack ``bakry_emery_check`` takes."""
    return np.array([a.data for a in battery])


def test_be_time_zero_passes_any_K(qubit, qubit_space):
    battery = [bk.element(qubit, SIGMA_X)]
    report = dr.bakry_emery_check(qubit_space, 25.0, [0.0], _stack(battery))
    ordering = [c for c in report.checks if c.name.startswith("ordering")]
    assert all(c.passed for c in ordering)


def test_be_torus_rational_nonnegative_curvature(torus13, torus13_space):
    battery = [
        bk.monomial(torus13, 1, 0),
        bk.monomial(torus13, 0, 1),
        bk.random_element(torus13, make_rng(49), self_adjoint=True),
    ]
    report = dr.bakry_emery_check(torus13_space, 0.0, [0.1, 1.0], _stack(battery))
    assert report.passed
    assert report.extra["largest_passing_K"] >= 0.0


def test_be_qubit_fails_above_supremum(qubit, qubit_space):
    battery = [bk.element(qubit, SIGMA_X), bk.random_element(qubit, make_rng(50))]
    t_samples = [0.1, 1.0, 5.0]
    base = dr.bakry_emery_check(qubit_space, 0.0, t_samples, _stack(battery))
    assert base.passed
    k_sup = base.extra["largest_passing_K"]
    above = dr.bakry_emery_check(qubit_space, k_sup + 0.5, t_samples, _stack(battery))
    assert not above.passed


def test_be_skipped_for_irrational_torus(torus2, torus2_space):
    report = dr.bakry_emery_check(torus2_space, 0.0, [0.1],
                                  _stack([bk.monomial(torus2, 1, 0)]))
    assert report.flags and "skipped" in report.flags[0]


def _be_battery(name):
    """A space and three self-adjoint battery elements with leak-free products."""
    rng = make_rng(51)
    if name in BE_SCALE_SPECS:
        desc = backend_from_spec(BE_SCALE_SPECS[name])
    elif name == "rational5":
        desc = bk.nc_torus_rational(2, 2, 5)
    elif name == "rational7":
        desc = bk.nc_torus_rational(3, 3, 7)
    elif name == "cyclic16":
        desc = bk.CyclicGroup(16, tuple(float(min(g, 16 - g)) for g in range(16)))
    else:
        gens = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        desc = bk.MatrixAlgebra(3, tuple((g + g.conj().T) / 2.0 for g in gens))
    # tori draw within half the window, so that pair products stay leak-free
    radius = max(desc.level // 2, 1) if isinstance(desc, bk.NCTorus) else None
    battery = [bk.random_element(desc, rng, radius=radius, self_adjoint=True) for _ in range(3)]
    return dr.build_space(desc), battery


BE_SCALE_SPECS = {"rational17": ("rational", 8), "cyclic64": ("cyclic", 64),
                  "matrix6": ("matrix", 6)}
BE_CASES = [(name, t) for name in ("rational5", "rational7", "cyclic16", "matrix3")
            for t in (0.1, 1.0)]


# the largest sizes skip the bisection oracle below: it takes about 0.5 s per
# case at torus 8, and at matrix 6, t = 1 it lands 1.3e-6 above the reported
# bound, which leaves out the BE_TOL slack that the check itself allows
@pytest.mark.parametrize("name,t", BE_CASES + [(name, t) for name in BE_SCALE_SPECS
                                               for t in (0.1, 1.0)])
def test_be_bound_is_the_largest_passing_K(name, t):
    space, battery = _be_battery(name)
    bound = dr.bakry_emery_check(space, 0.0, [t], _stack(battery)).extra["largest_passing_K"]
    assert bound is not None
    assert dr.bakry_emery_check(space, bound - 1e-3, [t], _stack(battery)).passed
    assert not dr.bakry_emery_check(space, bound + 1e-3, [t], _stack(battery)).passed


@pytest.mark.parametrize("name,t", BE_CASES)
def test_be_bound_agrees_with_bisection(name, t):
    space, battery = _be_battery(name)
    report = dr.bakry_emery_check(space, 0.0, [t], _stack(battery))
    reference = bisect_largest_passing_K(space, 0.0, [t], battery)
    assert abs(report.extra["largest_passing_K"] - reference) <= 1e-6


@pytest.mark.parametrize("t,radius", [(1.0, 0), (0.0, 1)])
def test_be_battery_that_never_binds_is_unbounded(tmp_path, t, radius):
    # constants (radius 0) have Gamma = 0, and t = 0 leaves K free: no pair bounds K
    config = {
        "command": "be-check",
        "backend": {"kind": "nc_torus", "level": 1, "theta": 1 / 3, "rational": [1, 3]},
        "problem": {"K": 0.0, "t_samples": [t], "battery": 2, "radius": radius},
        "seed": 1,
    }
    assert cli.run(config, out_dir=str(tmp_path), quiet=True) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["largest_passing_K"] is None
    assert report["flags"] == ["largest_passing_K=unbounded"]


def test_be_failure_at_time_zero_admits_no_K(qubit, qubit_space):
    # doubled eigenvectors make P_0 = 4 id, so Gamma(P_0 a) = 16 Gamma(a) > P_0 Gamma(a)
    dense = corrupted_space(qubit, dense_form(qubit_space)[0])
    space = dataclasses.replace(dense, evecs=2.0 * dense.evecs)
    report = dr.bakry_emery_check(space, 0.0, [0.0], _stack([bk.element(qubit, SIGMA_X)]))
    assert not report.passed
    assert report.extra["largest_passing_K"] is None
    assert report.flags == ["largest_passing_K=none"]


def test_largest_passing_K_on_and_off_the_kernel():
    # e^{-2Kt} X >= Y fails for every K when Y has mass on the kernel of X;
    # off it, the bound is -ln(c) / 2t for c = lambda_max(X^{-1/2} Y X^{-1/2})
    X = np.diag([1.0, 0.0])
    assert dr._largest_passing_K(X, np.diag([0.0, 1.0]), 1.0, dr.BE_TOL) == -np.inf
    half = dr._largest_passing_K(X, np.diag([0.5, 0.0]), 1.0, dr.BE_TOL)
    assert half == pytest.approx(np.log(2.0) / 2.0, rel=1e-15)
