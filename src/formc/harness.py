"""Compile pipeline, meshes, dofmaps, CSR assembly, cross-checks and trends.

Element kernels are interpreted (vectorised over cell batches) rather than
compiled natively, so absolute runtimes are not comparable to compiled code;
flop counts are exact and representation-relative comparisons remain
meaningful.  Benchmarking and assembly run single-threaded.  The CSR
pattern comes from one sort of the (row, column) keys of the scalar spaces,
which the mesh holds with its dofmaps, expanded by component blocks;
insertion stays serial, adding each cell's entries in cell order.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import dsl, forms, lowering, quadrep, tensorrep
from .dsl import Rejected, check_budget
from .elements import FiniteElement, ReferenceCell, lattice_sites, reference_cell
from .kernel import (
    BatchGeometry,
    KernelIR,
    affine_map_batch,
    count_flops,
    emit_source,  # noqa: F401  kept in this namespace: tracing tools wrap harness.emit_source
    interpret_batch,
    source_bytes,
)
from .lowering import MonomialSum
from .quadrature import rule_for_form
from .tensorrep import DEFAULT_TERM_BUDGET

DEFAULT_BENCH_N = 10_000
ASSEMBLY_ENTRY_BUDGET = 20_000_000  # cells x local test dofs x local trial dofs
INTERPRET_FLOP_BUDGET = 2 * 10**10  # cells x flops per cell of the kernels one loop interprets
BATCH_CELLS = 256  # cells per interpreted batch: assemble, _bench and the cross-check
MAX_CHECK_CELLS = 100_000  # cells one cross_check may interpret
COEF_LOW, COEF_HIGH = 0.5, 1.5  # bounded away from zero for division forms


class UnsupportedCell(Rejected, ValueError):
    """Assembly meshes are two-dimensional only."""


class NotBilinear(Rejected, ValueError):
    """Global assembly needs a bilinear form."""


# ---------------------------------------------------------------------------
# Compilation pipeline


@dataclass(eq=False)
class CompiledForm:
    name: str
    source: str
    monomials: MonomialSum
    degree: int  # estimated quadrature degree

    @property
    def typed(self) -> dsl.TypedForm:
        return self.monomials.form

    @property
    def cell(self) -> ReferenceCell:
        return self.typed.cell


def compile_source(source: str, name: str = "form") -> CompiledForm:
    """Parse, typecheck and lower a form source text: the one front-end entry."""
    ms = lowering.lower(dsl.typecheck(dsl.parse_source(source)))
    return CompiledForm(name, source, ms, lowering.estimate_degree(ms))


def quadrature_kernel(
    cf: CompiledForm,
    points_override: int | None = None,
    *,
    degree_shift: int = 0,
    zero_elimination: bool = True,
    hoisting: bool = True,
) -> KernelIR:
    rule = rule_for_form(cf.cell, cf.degree + degree_shift, points_override)
    try:
        return quadrep.build_quadrature_kernel(
            cf.monomials,
            rule,
            zero_elimination=zero_elimination,
            hoisting=hoisting,
            name=cf.name,
        )
    except RecursionError as exc:  # hashing a long left-deep chain of kernel.BinOp
        raise RecursionError(
            f"quadrature kernel build exceeded Python's recursion limit of "
            f"{sys.getrecursionlimit()} ({exc})"
        ) from None


def tensor_kernel(cf: CompiledForm, *, term_budget: int = DEFAULT_TERM_BUDGET) -> KernelIR:
    return tensorrep.build_tensor_kernel(cf.monomials, term_budget=term_budget, name=cf.name)


# ---------------------------------------------------------------------------
# Random cells and coefficients


def random_cells(cell: ReferenceCell, count: int, seed: int) -> np.ndarray:
    """Seeded affine perturbations of the reference simplex.

    Jacobian determinants land in [0.1, 10] with positive orientation, so
    every generated cell passes the affine map.  ``seed`` may also be a
    numpy ``Generator``, which the cells are drawn from.  A cell draws d
    rows of d Jacobian entries until their determinant is in range, then a
    row of d offsets.  Draws are tested in blocks, and leave the generator
    as one-by-one draws would.
    """
    if count < 1:
        raise ValueError("need at least one cell")
    rng = np.random.default_rng(seed)
    d = cell.dim
    out = np.empty((count, d + 1, d))
    u, n = np.empty((0, d)), 0  # u: the drawn rows not used yet
    while n < count:
        # the least the cells left use, so no double is drawn that one-by-one draws would not
        u = np.concatenate([u, rng.random(((count - n) * (d + 1) - len(u), d))])
        x = -1.6 + 3.2 * u  # rng.uniform(-1.6, 1.6), double for double
        J = np.stack([x[i : len(x) - d + 1 + i] for i in range(d)], axis=1)  # J[k] = x[k:k+d]
        ok = [0.1 <= det <= 10.0 for det in np.linalg.det(J).tolist()]
        taken, k = [], 0  # the first rows of the accepted Jacobians, and the rows used
        while k + d < len(u):
            if ok[k]:
                taken.append(k)
            k += d + 1 if ok[k] else d
        at = np.array(taken, dtype=np.intp)
        v0 = -1.0 + 2.0 * u[at + d]  # rng.uniform(-1.0, 1.0)
        out[n : n + len(at)] = v0[:, None] + cell.vertices @ J[at].transpose(0, 2, 1)
        n, u = n + len(at), u[k:]
    return out


def random_coefficients(cf: CompiledForm, count: int, seed: int) -> list[np.ndarray]:
    """One (count, n_dofs) array per coefficient; ``seed`` may be a ``Generator``."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(COEF_LOW, COEF_HIGH, size=(count, n)) for n in cf.typed.coef_sizes]


def _cell_batches(cf: CompiledForm, n_cells: int, seed: int):
    """(geometry, coefficients) of ``n_cells`` random cells, ``BATCH_CELLS`` at a time.

    The cells come from one generator seeded ``seed``, the coefficients from
    one seeded ``seed + 1``, so a single batch holds the inputs of
    ``random_cells(cell, n_cells, seed)`` and
    ``random_coefficients(cf, n_cells, seed + 1)``.
    """
    cells, coefs = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    for start in range(0, n_cells, BATCH_CELLS):
        count = min(BATCH_CELLS, n_cells - start)
        geo = affine_map_batch(random_cells(cf.cell, count, cells))
        yield geo, random_coefficients(cf, count, coefs)


def _check_interpretation(n_cells: int, kernels, what: str) -> None:
    """BudgetExceeded past ``INTERPRET_FLOP_BUDGET`` flops: ``n_cells`` of each kernel not None."""
    flops = n_cells * sum(count_flops(k) for k in kernels if k is not None)
    check_budget(flops, INTERPRET_FLOP_BUDGET, what + " needs {} flops (budget {})")


def relative_max_difference(A: np.ndarray, B: np.ndarray) -> float:
    scale = max(np.abs(B).max(), 1e-300)
    return float(np.abs(A - B).max() / scale)


CHECK_TOLERANCES = {  # largest relative difference per mode; division quadrature is nominal
    "quadrature-vs-tensor": 1e-10,
    "quadrature-vs-full-tables": 1e-10,
    "quadrature-two-degrees": 1e-8,
}


@dataclass(frozen=True)
class CrossCheck:
    max_relative_difference: float
    mode: str  # a key of CHECK_TOLERANCES

    @property
    def tolerance(self) -> float:
        return CHECK_TOLERANCES[self.mode]

    @property
    def ok(self) -> bool:  # False for a NaN difference
        return self.max_relative_difference <= self.tolerance

    def __str__(self) -> str:
        d, tag = self.max_relative_difference, "ok" if self.ok else "FAILED"
        return f"{self.mode} max relative difference {d:.3e} (tolerance {self.tolerance:g}) {tag}"


def _tensor_or_refusal(cf: CompiledForm, term_budget: int = DEFAULT_TERM_BUDGET):
    """(tensor kernel, None), or (None, "<Refusal>: <message>") when tensor_kernel refuses."""
    try:
        return tensor_kernel(cf, term_budget=term_budget), None
    except Rejected as exc:
        return None, f"{type(exc).__name__}: {exc}"


def cross_check(
    cf: CompiledForm, n_cells: int = 100, seed: int = 0, points_override: int | None = None
) -> CrossCheck:
    """Compare representations on seeded random cells and coefficients.

    The comparison is ``compare``'s: see ``_check_kernels``.  An explicit
    ``points_override`` permits deliberately inexact quadrature.  More than
    ``MAX_CHECK_CELLS`` cells raises BudgetExceeded before any kernel is built.
    A division form has no tensor kernel and compares two shifted degrees, so
    its kernel at the estimated degree is not built.
    """
    check_budget(n_cells, MAX_CHECK_CELLS, "{} cells exceed the cross-check maximum of {}")
    kq = None if cf.monomials.has_division else quadrature_kernel(cf, points_override)
    return _check_kernels(cf, n_cells, seed, kq, _tensor_or_refusal(cf)[0], points_override)


def _check_kernels(cf, n_cells, seed, kq, kt, points_override=None) -> CrossCheck:
    """The comparison of cross_check and compare, of ``kq`` against ``kt``.

    Without a tensor kernel (``kt`` None), a division form compares two
    quadrature degrees in place of ``kq``, which may be None, both shifted
    far enough for Gauss convergence to the tolerance (the rule at the
    estimate is nominal for rational integrands): 10 and 16 when no
    denominator factor is above degree 1, and 12 more per degree above.
    A polynomial form compares against its quadrature kernel without zero
    elimination at two degrees above the estimate, one point per direction
    more, so the check also covers the degree estimate and the rule.
    Hoisting stays on: un-hoisted, each coefficient factor adds a loop around
    the accumulation, so twelve P4 factors need 15**12 trips per point.

    More than ``INTERPRET_FLOP_BUDGET`` flops of both kernels over the cells
    raises BudgetExceeded before any cell is generated.  Then both run a
    batch of ``_cell_batches`` at a time and keep only the maxima of |A - B|
    and |B|: the result is ``relative_max_difference`` of the whole tensors.
    """
    mode = "quadrature-vs-tensor"
    if kt is None and cf.monomials.has_division:
        mode = "quadrature-two-degrees"
        denoms = [f for m in cf.monomials.monomials for f in m.denominators]
        shift = 12 * max([lowering.factor_degree(cf.typed, f) - 1 for f in denoms] + [0]) + 10
        kq = quadrature_kernel(cf, points_override, degree_shift=shift)
        kt = quadrature_kernel(cf, degree_shift=shift + 6)
    if kt is None:
        mode = "quadrature-vs-full-tables"
        kt = quadrature_kernel(cf, degree_shift=2, zero_elimination=False)
    _check_interpretation(n_cells, (kq, kt), "cross-check")
    diff = scale = np.float64(0.0)
    for geo, w in _cell_batches(cf, n_cells, seed):
        Aq = interpret_batch(kq, geo, w)
        At = interpret_batch(kt, geo, w)
        # np.maximum keeps a NaN
        diff = np.maximum(diff, np.abs(Aq - At).max())
        scale = np.maximum(scale, np.abs(At).max())
    return CrossCheck(float(diff / max(scale, 1e-300)), mode)


# ---------------------------------------------------------------------------
# Structured meshes, dofmaps and CSR assembly (2D)


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True, eq=False)
class Mesh:
    """A simplex mesh whose vertex and cell arrays are read-only copies.

    ``_held`` keeps what depends only on the mesh and a space, built on first
    use and read-only: each element's dofmap, keyed by the element, and each
    pair of scalar spaces' CSR pattern, keyed by their (row, column) elements.
    """

    cell: ReferenceCell
    coords: np.ndarray  # (n_vertices, dim)
    cells: np.ndarray  # (n_cells, dim + 1) vertex ids
    _held: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("coords", "cells"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name)))[0])

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def cell_vertices(self) -> np.ndarray:
        return self.coords[self.cells]


def unit_square_mesh(n: int) -> Mesh:
    """(n+1)^2 vertices, 2 n^2 triangles; each square split along one diagonal."""
    if n < 1:
        raise ValueError("n must be positive")
    xs = np.linspace(0.0, 1.0, n + 1)
    coords = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return Mesh(reference_cell("triangle"), coords, cells.astype(np.int64))


@dataclass(frozen=True, eq=False)
class DofMap:
    element: FiniteElement
    cell_dofs: np.ndarray  # (n_cells, n_local)
    n_global: int


def build_dofmap(mesh: Mesh, element: FiniteElement) -> DofMap:
    """Global numbering for a (possibly vector) Lagrange space on triangles.

    Continuous spaces share vertex and edge dofs; edge dofs are oriented by
    ascending global vertex index; discontinuous spaces own every dof per
    cell.  Each (cell, lattice site) gets one integer key for the entity that
    owns it, and keys are numbered by first appearance in cell order.  Vector
    spaces are component-major blocks of the scalar map.
    """
    if mesh.cell.dim != 2:
        raise UnsupportedCell("assembly supports triangle meshes only")
    degree = element.degree
    sites = lattice_sites(mesh.cell, degree)
    n_cells, n_local, n_v = mesh.n_cells, len(sites), mesh.coords.shape[0]
    discontinuous = element.family == "Discontinuous Lagrange"
    # key blocks: vertex id | (low vertex, high vertex, slot) per edge | (cell, site)
    keys = np.empty((n_cells, n_local), dtype=np.int64)
    for k, site in enumerate(sites):
        if discontinuous or site.kind == "interior":
            keys[:, k] = n_v * (1 + n_v * degree) + np.arange(n_cells) * n_local + k
        elif site.kind == "vertex":
            keys[:, k] = mesh.cells[:, site.entity[0]]
        else:
            a, b = mesh.cells[:, site.entity[0]], mesh.cells[:, site.entity[1]]
            slot = np.where(a > b, degree - 2 - site.slot, site.slot)
            keys[:, k] = n_v + (np.minimum(a, b) * n_v + np.maximum(a, b)) * degree + slot
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return _component_blocks(element, rank[inverse].reshape(n_cells, n_local), len(first))


def _component_blocks(element: FiniteElement, scalar: np.ndarray, n_scalar: int) -> DofMap:
    """The dofmap of ``element`` from the cell dofs of its scalar space."""
    if not element.is_vector:
        return DofMap(element, scalar, n_scalar)
    d = element.value_dim
    blocks = [scalar + comp * n_scalar for comp in range(d)]
    return DofMap(element, np.concatenate(blocks, axis=1), d * n_scalar)


def _mesh_dofmap(mesh: Mesh, element: FiniteElement) -> DofMap:
    """The dofmap of ``element`` held by ``mesh``: numbered on first use only.

    A vector map is built from the held map of its scalar space.
    """
    if element not in mesh._held:
        if element.is_vector:
            scalar = _mesh_dofmap(mesh, replace(element, value_dim=1))
            dofmap = _component_blocks(element, scalar.cell_dofs, scalar.n_global)
        else:
            dofmap = build_dofmap(mesh, element)
        _read_only(dofmap.cell_dofs)
        mesh._held[element] = dofmap
    return mesh._held[element]


@dataclass(eq=False)
class SparseMatrix:
    """Compressed sparse row matrix with a fixed structure."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray  # sorted per row
    data: np.ndarray

    def row_sums(self) -> np.ndarray:
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        return np.bincount(rows, weights=self.data, minlength=self.n_rows)

    def total(self) -> float:
        return float(self.data.sum())


def _scalar_pattern(rows_map: DofMap, cols_map: DofMap) -> tuple:
    """(column of each entry, indptr, (n_cells, n_rows_local, n_cols_local) slots)
    of the CSR pattern of two scalar spaces, from one sort of the keys row*n_cols + col."""
    n_cols = cols_map.n_global
    coo = rows_map.cell_dofs[:, :, None] * n_cols + cols_map.cell_dofs[:, None, :]
    keys, slots = np.unique(coo.ravel(), return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(rows_map.n_global + 1) * n_cols)
    return keys % n_cols, indptr, slots.reshape(coo.shape)


def _build_structure(
    mesh: Mesh, row_element: FiniteElement, col_element: FiniteElement
) -> tuple[SparseMatrix, np.ndarray]:
    """CSR pattern and each local entry's slot, from the pattern of the scalar spaces.

    ``mesh`` holds the pattern of the scalar spaces after the first call.
    A pair of scalar spaces gets copies of it; a vector space's pattern is
    built from it by ``_block_structure``.  The returned matrix and slots
    share no array with what the mesh holds.
    """
    dr, dc = row_element.value_dim, col_element.value_dim
    scalars = (replace(row_element, value_dim=1), replace(col_element, value_dim=1))
    rows_map, cols_map = (_mesh_dofmap(mesh, e) for e in scalars)
    if scalars not in mesh._held:
        mesh._held[scalars] = _read_only(*_scalar_pattern(rows_map, cols_map))
    if dr == dc == 1:
        columns, indptr, scalar_slots = mesh._held[scalars]
        matrix = SparseMatrix(
            rows_map.n_global,
            cols_map.n_global,
            indptr.copy(),
            columns.copy(),
            np.zeros(len(columns)),
        )
        return matrix, scalar_slots.reshape(mesh.n_cells, -1).copy()
    return _block_structure(mesh._held[scalars], rows_map, cols_map, dr, dc)


def _block_structure(
    held: tuple, rows_map: DofMap, cols_map: DofMap, dr: int, dc: int
) -> tuple[SparseMatrix, np.ndarray]:
    """The pattern of the d_r x d_c component blocks of a scalar pattern.

    A dofmap of d components is a component-major block of its scalar map,
    so row (ca, r) holds, for each cb, the columns of scalar row r of
    ``held`` = (columns, indptr, slots) shifted by cb * n_scalar_cols.
    """
    columns, indptr, scalar_slots = held
    n_rows, n_cols, rows = rows_map.n_global, cols_map.n_global, rows_map.cell_dofs
    nnz, length = len(columns), np.diff(indptr)
    # the rows of component ca start at starts[ca]; in them, scalar entry s of row r,
    # shifted into column block cb, sits at s + offset[cb, r]
    starts = np.arange(dr) * dc * nnz
    comps = np.arange(dc)[:, None]
    offset = (dc - 1) * indptr[:-1] + comps * length
    block_indices = np.empty(dc * nnz, dtype=columns.dtype)
    at = np.arange(nnz) + np.repeat(offset, length, axis=1)
    block_indices[at] = columns + comps * n_cols
    matrix = SparseMatrix(
        dr * n_rows,
        dc * n_cols,
        np.append(starts[:, None] + dc * indptr[:-1], dr * dc * nnz),
        np.tile(block_indices, dr),
        np.zeros(dr * dc * nnz),
    )
    # local entry (ca, a, cb, b) of a cell, in the order of its flattened element tensor
    cell_offset = offset.T[rows][:, None, :, :, None] + starts[:, None, None, None]
    slots = scalar_slots[:, None, :, None, :] + cell_offset
    return matrix, slots.reshape(rows.shape[0], -1)


def check_assembly(cf: CompiledForm, cell: ReferenceCell, n_cells: int) -> None:
    """Raise, before anything is allocated, if ``cf`` cannot be assembled.

    NotBilinear for a linear form, UnsupportedCell for a form on another
    cell, BudgetExceeded beyond ``ASSEMBLY_ENTRY_BUDGET`` local entries.
    """
    typed = cf.typed
    if typed.arity != 2:
        raise NotBilinear("global assembly expects a bilinear form")
    if cf.cell != cell:
        raise UnsupportedCell(f"a {cf.cell.name} form cannot be assembled on {cell.name} cells")
    n1, n2 = typed.tensor_shape
    entries = n_cells * n1 * n2
    check_budget(entries, ASSEMBLY_ENTRY_BUDGET, "{} local entries exceed the budget of {}")


def assemble(
    cf: CompiledForm,
    kernel: KernelIR,
    mesh: Mesh,
    seed: int = 0,
    cell_order: np.ndarray | None = None,
):
    """Assemble the global sparse matrix; returns (matrix, timings).

    Two phases: structure initialisation from dof adjacency (timed as
    "structure", of which the dofmaps are "dofmap"), then batched kernel
    evaluation (timed as "compute") and serial insertion, in cell order,
    into the fixed structure (timed as "insertion").  More than
    ``INTERPRET_FLOP_BUDGET`` flops over the mesh raises BudgetExceeded, and a
    ``cell_order`` that is not a permutation of the cells ValueError, before
    anything is built.  The mesh holds each element's dofmap and each pair
    of scalar spaces' CSR pattern from the first assembly that needs them,
    so a later assembly on the same mesh, of another form on those spaces,
    only looks them up and expands the pattern by component blocks.
    """
    check_assembly(cf, mesh.cell, mesh.n_cells)
    _check_interpretation(mesh.n_cells, (kernel,), "assembly")
    order = np.arange(mesh.n_cells)
    if cell_order is not None:
        cell_order = np.asarray(cell_order)
        if cell_order.dtype.kind not in "iu" or not np.array_equal(np.sort(cell_order), order):
            raise ValueError(f"cell_order is not a permutation of the {mesh.n_cells} cells")
        order = cell_order
    typed = cf.typed
    t0 = time.perf_counter()
    elements = [typed.test_element, typed.trial_element] + [e for _, e in typed.coefficients]
    maps = {elem: _mesh_dofmap(mesh, elem) for elem in elements}
    coef_maps = [maps[elem] for _, elem in typed.coefficients]
    t_dofmap = time.perf_counter() - t0
    rng = np.random.default_rng(seed)
    coefficient_values = [rng.uniform(COEF_LOW, COEF_HIGH, size=m.n_global) for m in coef_maps]
    matrix, slots = _build_structure(mesh, typed.test_element, typed.trial_element)
    t_structure = time.perf_counter() - t0

    verts = mesh.cell_vertices()[order]
    t_compute = t_insert = 0.0
    for start in range(0, len(order), BATCH_CELLS):
        batch = order[start : start + BATCH_CELLS]
        t0 = time.perf_counter()
        geo = affine_map_batch(verts[start : start + BATCH_CELLS])
        w = [vals[m.cell_dofs[batch]] for m, vals in zip(coef_maps, coefficient_values)]
        A = interpret_batch(kernel, geo, w)
        t_compute += time.perf_counter() - t0
        t0 = time.perf_counter()
        # unbuffered and in index order: each entry sums its cells in order
        np.add.at(matrix.data, slots[batch].ravel(), A.ravel())
        t_insert += time.perf_counter() - t0
    return matrix, {
        "structure": t_structure, "dofmap": t_dofmap, "compute": t_compute, "insertion": t_insert
    }


# ---------------------------------------------------------------------------
# Comparison reports


@dataclass
class ComparisonReport:
    """Per-form comparison of the two representations.

    Tensor fields are None when that backend rejects the form (division or
    an exceeded unroll budget); the renderer marks them as failures the way
    the benchmark tables do.
    """

    form_name: str
    flops_q: int
    flops_t: int | None
    gen_time_q: float
    gen_time_t: float | None
    bytes_q: int
    bytes_t: int | None
    max_difference: float
    check_mode: str
    n_points: int
    runtime_q: float | None = None
    runtime_t: float | None = None
    tensor_error: str | None = None
    notes: tuple = ()

    @property
    def ok(self) -> bool:
        return CrossCheck(self.max_difference, self.check_mode).ok

    @property
    def ratio(self) -> float | None:
        if self.flops_t:
            return self.flops_q / self.flops_t
        return None

    def csv_row(self) -> str:
        """The columns of CSV_HEADER, NA where a column has no value."""
        values = ((getattr(self, attr), spec) for _, attr, spec in CSV_COLUMNS)
        return ",".join("NA" if v is None else spec.format(v) for v, spec in values)


_SECONDS = "{:.6g}"
CSV_COLUMNS = (  # (column, ComparisonReport attribute, format)
    ("form", "form_name", "{}"),
    ("flops_q", "flops_q", "{}"),
    ("flops_t", "flops_t", "{}"),
    ("ratio", "ratio", "{:.4g}"),
    ("runtime_q", "runtime_q", _SECONDS),
    ("runtime_t", "runtime_t", _SECONDS),
    ("maxdiff", "max_difference", "{:.3g}"),
    ("gen_time_q", "gen_time_q", _SECONDS),
    ("gen_time_t", "gen_time_t", _SECONDS),
    ("bytes_q", "bytes_q", "{}"),
    ("bytes_t", "bytes_t", "{}"),
)
CSV_HEADER = ",".join(column for column, _, _ in CSV_COLUMNS)


def _bench(kernel: KernelIR, cf: CompiledForm, n: int, seed: int) -> float:
    """Seconds to interpret ``n`` cells, one batch of random cells reused."""
    geo, w = next(_cell_batches(cf, min(n, BATCH_CELLS), seed))
    t0 = time.perf_counter()
    for start in range(0, n, BATCH_CELLS):
        k = min(BATCH_CELLS, n - start)
        interpret_batch(kernel, BatchGeometry(geo.jinv[:k], geo.det[:k]), [wc[:k] for wc in w])
    return time.perf_counter() - t0


def compare(
    source: str,
    name: str = "form",
    *,
    n_cells: int = 100,
    seed: int = 0,
    bench_n: int = 0,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> ComparisonReport:
    """Compile under both representations, cross-check, count and time.

    Timing ``bench_n`` cells of both kernels for more than
    ``INTERPRET_FLOP_BUDGET`` flops raises BudgetExceeded before the cross-check.
    """
    cf = compile_source(source, name)
    t0 = time.perf_counter()
    kq = quadrature_kernel(cf)
    gen_q = time.perf_counter() - t0
    bytes_q = source_bytes(kq)
    flops_q = count_flops(kq)

    t0 = time.perf_counter()
    kt, tensor_error = _tensor_or_refusal(cf, term_budget)
    gen_t = bytes_t = flops_t = None
    if kt is not None:
        gen_t, bytes_t, flops_t = time.perf_counter() - t0, source_bytes(kt), count_flops(kt)
    _check_interpretation(bench_n, (kq, kt), "bench timing")

    check = _check_kernels(cf, n_cells, seed, kq, kt)

    runtime_q = runtime_t = None
    if bench_n:
        runtime_q = _bench(kq, cf, bench_n, seed)
        if kt is not None:
            runtime_t = _bench(kt, cf, bench_n, seed)

    notes = [] if check.ok else [f"cross-check {check}"]
    if cf.monomials.has_division:
        notes.append("quadrature of division forms is nominal, not exact")
    notes.append("interpreted kernels: flop counts exact, absolute times not comparable")
    return ComparisonReport(
        form_name=name,
        flops_q=flops_q,
        flops_t=flops_t,
        gen_time_q=gen_q,
        gen_time_t=gen_t,
        bytes_q=bytes_q,
        bytes_t=bytes_t,
        max_difference=check.max_relative_difference,
        check_mode=check.mode,
        n_points=kq.meta["n_points"],
        runtime_q=runtime_q,
        runtime_t=runtime_t,
        tensor_error=tensor_error,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Trend sweeps


@dataclass(frozen=True)
class TrendCell:
    family: str  # "mass" | "elasticity" | "vector-poisson-div"
    dim: int
    p: int
    q: int
    n_f: int

    def label(self) -> str:
        return f"{self.family}-{self.dim}d-p{self.p}-q{self.q}-nf{self.n_f}"

    def source(self) -> str:
        if self.family == "mass":
            return forms.mass(self.dim, self.q, self.n_f, self.p)
        if self.family == "elasticity":
            return forms.elasticity(self.dim, self.q, self.n_f, self.p)
        return forms.vector_poisson_div(self.q, self.n_f, max(self.p, 1), self.dim)


def quick_trend_cells() -> list[TrendCell]:
    """The decisive subset: constant-coefficient rows, heavy premultipliers,
    and the elasticity crossover pair."""
    cells = []
    for q in range(1, 5):
        for nf in range(1, 5):
            cells.append(TrendCell("mass", 2, 0, q, nf))
    for p in (2, 3):
        for q in range(1, 5):
            cells.append(TrendCell("mass", 2, p, q, 4))
    cells.append(TrendCell("elasticity", 2, 1, 1, 1))
    cells.append(TrendCell("elasticity", 2, 1, 4, 1))
    return cells


def full_trend_cells(include_3d: bool = False) -> list[TrendCell]:
    cells = []
    for family in ("mass", "elasticity"):
        for p in range(4):
            for q in range(1, 5):
                for nf in range(1, 5):
                    cells.append(TrendCell(family, 2, p, q, nf))
    for p in range(1, 4):
        for q in range(1, 5):
            for nf in (1, 2):
                cells.append(TrendCell("vector-poisson-div", 2, p, q, nf))
    if include_3d:
        for family in ("mass", "elasticity"):
            for p in range(4):
                for q in range(1, 4):
                    for nf in (1, 2):
                        cells.append(TrendCell(family, 3, p, q, nf))
    return cells


def trend_suite(
    quick: bool = True, include_3d: bool = False, bench_n: int = 0, n_cells: int = 20
) -> list[tuple[TrendCell, ComparisonReport | None, str | None]]:
    """Sweep the benchmark families; refusals are recorded, not fatal.

    Returns (cell, report, error) triples; ``error`` is set when even the
    quadrature path refused the cell (which does not happen for in-range
    cells) and tensor refusals are carried inside the report.  Any other
    exception is a fault and propagates.
    """
    cells = quick_trend_cells() if quick else full_trend_cells(include_3d)
    rows = []
    for cell in cells:
        try:
            report = compare(cell.source(), cell.label(), n_cells=n_cells, bench_n=bench_n)
            rows.append((cell, report, None))
        except Rejected as exc:
            rows.append((cell, None, f"{type(exc).__name__}: {exc}"))
    return rows


def render_trend_table(rows) -> str:
    """Plain-text table: one line per (family, p, q), columns per n_f."""
    by_key: dict = {}
    nfs: dict = {}
    for cell, report, error in rows:
        key = (cell.family, cell.dim, cell.p, cell.q)
        by_key.setdefault(key, {})[cell.n_f] = (report, error)
        nfs.setdefault((cell.family, cell.dim), set()).add(cell.n_f)
    lines = []
    for (family, dim), nf_set in sorted(nfs.items()):
        nf_list = sorted(nf_set)
        lines.append(f"== {family} {dim}D: tensor flops and q/t flop ratio ==")
        header = f"{'':14}" + "".join(f"{'nf=' + str(nf):>22}" for nf in nf_list)
        lines.append(header)
        for key in sorted(k for k in by_key if k[0] == family and k[1] == dim):
            _, _, p, q = key
            row = f"p = {p}, q = {q}  "
            for nf in nf_list:
                got = by_key[key].get(nf)
                if got is None:
                    row += f"{'-':>22}"
                elif got[0] is None:
                    row += f"{'failure':>22}"
                elif got[0].flops_t is None:
                    row += f"{'failure (tensor)':>22}"
                else:
                    row += f"{got[0].flops_t:>12} {got[0].ratio:>9.2f}"
            lines.append(row)
        lines.append("")
    return "\n".join(lines)
