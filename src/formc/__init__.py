"""formc: a miniature variational-form compiler.

Compiles a small textual form language into element-tensor kernels under
two representations (runtime quadrature with a priori optimisations, and
precomputed tensor contraction), interprets and flop-counts the kernels,
and benchmarks the two representations against each other.
"""

from .dsl import parse_source, to_source, tokenize, typecheck
from .elements import FiniteElement, lattice_points, reference_cell, tabulate
from .harness import (
    CompiledForm,
    ComparisonReport,
    assemble,
    build_dofmap,
    compare,
    compile_source,
    cross_check,
    quadrature_kernel,
    random_cells,
    tensor_kernel,
    trend_suite,
    unit_square_mesh,
)
from .kernel import (
    KernelIR,
    affine_map,
    count_flops,
    emit_source,
    interpret,
    interpret_batch,
    kernel_to_json,
)
from .lowering import estimate_degree, expand, format_monomial_sum, lower, simplify
from .quadrature import gauss_jacobi_1d, rule_for_form, simplex_rule
from .quadrep import build_quadrature_kernel, eliminate_zero_columns
from .tensorrep import (
    UnsupportedDivision,
    build_tensor_kernel,
    geometry_tensor_spec,
    reference_tensor,
)

__version__ = "0.1.0"
