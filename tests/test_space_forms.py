"""A diagonal generator is held as its diagonal with the sorting permutation
as eigenbasis; any other as a dense matrix with the eigenvectors of ``eigh``.
Both forms of the same generator must give the same operators, spectra and
solutions, and the diagonal form must never build a dense (D, D) array on
the Poisson path.  No module but ``dirichlet`` reads the stored form."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import THETA_IRR, backend_from_spec, corrupted_space, make_rng
from ncpde import backends as bk
from ncpde import dirichlet as dr
from ncpde import elliptic as el

TOL = 1e-12
SPECS = ([("torus", n) for n in range(1, 9)] + [("rational", n) for n in range(1, 9)]
         + [("cyclic", q) for q in (2, 5, 16, 64)] + [("flat", 4), ("commuting", 3)])


def _backend(spec):
    if spec[0] == "commuting":   # diagonal generators commute: a diagonal L
        return bk.MatrixAlgebra(spec[1], (np.diag([0.0, 1.0, 3.0]), np.diag([2.0, -1.0, 0.5])))
    return backend_from_spec(spec)


def _close(a, b, scale=1.0):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= TOL * max(scale, np.max(np.abs(b), initial=0.0))


@pytest.mark.parametrize("spec", SPECS, ids=[f"{k}{n}" for k, n in SPECS])
def test_diagonal_and_dense_forms_agree(spec):
    desc = _backend(spec)
    diagonal = dr.build_space(desc)
    gen = desc.generator_matrix()
    dense = corrupted_space(desc, np.diag(gen) if gen.ndim == 1 else gen)   # through eigh
    assert diagonal.generator.shape == (desc.l2_dim(),)
    assert dense.generator.ndim == 2
    rng = make_rng(910)
    X, Y = bk.random_data(desc, rng, (2, 3))
    _close(dr._generator(diagonal, X), dr._generator(dense, X))
    _close(dr.form_data(diagonal, X, Y), dr.form_data(dense, X, Y))
    for t in (0.0, 0.05, 0.7, 4.0):
        _close(dr._semigroup(diagonal, t, X), dr._semigroup(dense, t, X))
    assert diagonal.kernel_dim == dense.kernel_dim
    if diagonal.kernel_dim < diagonal.dim:
        _close(dr.poincare_constant(diagonal).gap, dr.poincare_constant(dense).gap)
    c = bk.l2_coords(desc, X[0])
    _close(dr.kernel_component(diagonal, c), dr.kernel_component(dense, c))
    _close(dr.project_off_kernel(diagonal, c), dr.project_off_kernel(dense, c))
    f = bk.element(desc, Y[0])
    for solve in (el.solve_poisson, el.minimize_dirichlet_energy):
        a = solve(diagonal, f, project_kernel=True)
        b = solve(dense, f, project_kernel=True)
        _close(bk.to_l2(a.solution), bk.to_l2(b.solution))
        _close([a.residual_weak, a.residual_strong], [b.residual_weak, b.residual_strong])


def test_torus8_space_and_cg_allocate_less_than_one_dense_matrix():
    desc = bk.NCTorus(8, THETA_IRR)
    D = desc.l2_dim()
    f = bk.random_element(desc, make_rng(911))
    tracemalloc.start()
    try:
        space = dr.build_space(bk.NCTorus(8, THETA_IRR))
        report = el.minimize_dirichlet_energy(space, f, project_kernel=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.residual_strong <= 1e-10
    assert peak < D * D * 16, f"peak {peak} bytes >= one dense complex ({D}, {D}) array"


def test_only_dirichlet_reads_the_stored_form():
    # the one-form rule: a module that read the generator or eigenbasis as
    # stored would have to know which form the space holds, and coords keeps
    # only an oracle that depends on no other module of the package
    offenders = []
    for path in sorted(Path(dr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name != "dirichlet.py" and isinstance(node, ast.Attribute)
                    and node.attr in ("generator", "evecs", "dense")):
                offenders.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            if path.name == "coords.py" and (
                    isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or node.module.split(".")[0] == "ncpde")
                    or isinstance(node, ast.Import)
                    and any(a.name.split(".")[0] == "ncpde" for a in node.names)):
                offenders.append(f"coords.py:{node.lineno} imports from ncpde")
    assert not offenders, offenders
