import numpy as np
import pytest

from ncpde import backends as bk
from ncpde import calculus as ca
from ncpde.dirichlet import build_space

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


def loop_gradient_matrix(space):
    D = space.dim
    k = ca.tangent_components(space)
    out = np.zeros((k * D, D), dtype=complex)
    for col, e in _basis(space.backend):
        for j, p in enumerate(ca.gradient(space, e).parts):
            out[j * D : (j + 1) * D, col] = bk.to_l2(p)
    return out


def loop_transport_matrix(space, h):
    """Real matrix of (u, v) -> Re< h . u, grad v > on real coordinates."""
    D = space.dim
    k = len(h.parts)
    HB = np.empty((D, k, D), dtype=complex)   # h . e_b per component
    GB = np.empty((D, k, D), dtype=complex)   # grad e_a per component
    for col, e in _basis(space.backend):
        hu = ca.right_act(h, e)
        gu = ca.gradient(space, e)
        for c in range(k):
            HB[col, c] = bk.to_l2(hu.parts[c])
            GB[col, c] = bk.to_l2(gu.parts[c])
    # S[a, b] = < h . e_b, grad e_a >  (antilinear in b)
    S = np.einsum("bcd,acd->ab", HB.conj(), GB)
    return np.block([[S.real, S.imag], [-S.imag, S.real]])
