"""Every public module-level function of ``ncpde`` either has a caller in the
package or is on a short list: the paper's objects, which the tests use to
state its identities, and the constructors the tests and the benchmark build
from.  A function that drops off every caller and off that list is dead
code, and this test names it."""

import ast
from pathlib import Path

import ncpde

SRC = Path(ncpde.__file__).parent

# the paper's objects (the product, which the benchmark sweep times, the
# involution *, the Dirichlet form E, the carre du champ Gamma, the generator
# L, J, the module action, the metric rho, the energy tensor norm), the trace
# pairing and operator norm the oracles check, and the constructors of
# elements, backends and operators
CALLED_FROM_OUTSIDE = {
    "adjoint", "carre_du_champ", "delta", "dirichlet_form", "element_from_json",
    "generator_apply", "inner_l2", "involution_j", "module_act", "monomial", "mul",
    "nc_torus_rational", "operator_norm", "random_element", "random_tangent",
    "realify_operator", "riemannian_metric", "simple_tensor_norm_sq", "zero",
}


def _uncalled_public_functions() -> set[str]:
    """Public module-level functions of ``src/ncpde`` that no name, attribute
    or import in the package refers to; ``__init__`` re-exports every name,
    so it is not read."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return {node.name for tree in trees for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in referenced}


def test_every_uncalled_public_function_is_listed():
    uncalled = _uncalled_public_functions()
    assert uncalled == CALLED_FROM_OUTSIDE, (
        f"uncalled and not listed: {sorted(uncalled - CALLED_FROM_OUTSIDE)}; "
        f"listed but called in the package: {sorted(CALLED_FROM_OUTSIDE - uncalled)}")
