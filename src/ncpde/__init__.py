"""Dirichlet forms, noncommutative differential calculus and PDE solvers
on concrete finite-dimensional noncommutative measure spaces."""

from .backends import (
    AlgebraElement,
    AlgebraError,
    BackendMismatch,
    CyclicGroup,
    Descriptor,
    MatrixAlgebra,
    NCTorus,
    NotPositive,
    NotRepresentable,
    NotSelfAdjoint,
    WindowOverflow,
    add,
    adjoint,
    delta,
    element,
    inner_l2,
    monomial,
    mul,
    mul_with_loss,
    nc_torus_rational,
    norm_l2,
    operator_norm,
    represent,
    scale,
    trace,
    unit,
    zero,
)
from .dirichlet import (
    DirichletSpace,
    bakry_emery_check,
    build_space,
    carre_du_champ,
    dirichlet_form,
    generator_apply,
    markov_check,
    poincare_constant,
    semigroup_apply,
)
from .calculus import (
    TangentVector,
    divergence,
    gradient,
    gradient_matrix,
    hilbert_inner,
    hilbert_norm,
    involution_j,
    module_act,
    random_tangent,
    riemannian_metric,
    simple_tensor_norm_sq,
    tangent_components,
)
from .elliptic import (
    ConvergenceFailure,
    NoSolution,
    NonlinearMap,
    SolveReport,
    curved_map,
    identity_map,
    minimize_dirichlet_energy,
    negated_map,
    probe_map,
    solve_poisson,
    solve_quasilinear,
)
from .evolution import (
    EvolutionProblem,
    EvolutionResult,
    solve_evolution,
    step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
