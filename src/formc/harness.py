"""Compile pipeline, meshes, dofmaps, CSR assembly, cross-checks and trends.

Element kernels are interpreted (vectorised over cell batches) rather than
compiled natively, so absolute runtimes are not comparable to compiled code;
flop counts are exact and representation-relative comparisons remain
meaningful.  Benchmarking and assembly run single-threaded.  The CSR
pattern comes from one sort of the (row, column) keys of all cells; insertion
stays serial, adding each cell's entries in cell order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import dsl, forms, lowering, quadrep, tensorrep
from .elements import FiniteElement, ReferenceCell, lattice_sites, reference_cell
from .kernel import (
    KernelIR,
    affine_map_batch,
    count_flops,
    emit_source,  # noqa: F401  kept in this namespace: tracing tools wrap harness.emit_source
    interpret_batch,
    source_bytes,
)
from .lowering import MonomialSum
from .quadrature import rule_for_form

DEFAULT_BENCH_N = 10_000
DEFAULT_TERM_BUDGET = 8_000_000
ASSEMBLY_ENTRY_BUDGET = 20_000_000  # cells x local test dofs x local trial dofs
INTERPRET_FLOP_BUDGET = 10**9  # flops per cell of a kernel that assemble interprets
ASSEMBLY_CHUNK = 256  # cells per interpreted batch in assemble
BENCH_CHUNK = 200  # cells per interpreted batch in _bench
COEF_LOW, COEF_HIGH = 0.5, 1.5  # bounded away from zero for division forms


class UnsupportedCell(ValueError):
    """Assembly meshes are two-dimensional only."""


# ---------------------------------------------------------------------------
# Compilation pipeline


@dataclass(eq=False)
class CompiledForm:
    name: str
    source: str
    program: dsl.FormProgram
    typed: dsl.TypedForm
    monomials: MonomialSum
    degree: int  # estimated quadrature degree

    @property
    def cell(self) -> ReferenceCell:
        return self.typed.cell


def compile_source(source: str, name: str = "form") -> CompiledForm:
    program = dsl.parse_source(source)
    typed = dsl.typecheck(program)
    ms = lowering.lower(typed)
    return CompiledForm(name, source, program, typed, ms, lowering.estimate_degree(ms))


def quadrature_kernel(
    cf: CompiledForm,
    points_override: int | None = None,
    *,
    degree_shift: int = 0,
    zero_elimination: bool = True,
    hoisting: bool = True,
) -> KernelIR:
    rule = rule_for_form(cf.cell, cf.degree + degree_shift, points_override)
    return quadrep.build_quadrature_kernel(
        cf.monomials,
        rule,
        zero_elimination=zero_elimination,
        hoisting=hoisting,
        name=cf.name,
    )


def tensor_kernel(
    cf: CompiledForm, *, term_budget: int | None = DEFAULT_TERM_BUDGET, drop_zeros: bool = True
) -> KernelIR:
    return tensorrep.build_tensor_kernel(
        cf.monomials, term_budget=term_budget, drop_zeros=drop_zeros, name=cf.name
    )


# ---------------------------------------------------------------------------
# Random cells and coefficients


def random_cells(cell: ReferenceCell, count: int, seed: int) -> np.ndarray:
    """Seeded affine perturbations of the reference simplex.

    Jacobian determinants land in [0.1, 10] with positive orientation, so
    every generated cell passes the affine map.
    """
    if count < 1:
        raise ValueError("need at least one cell")
    rng = np.random.default_rng(seed)
    d = cell.dim
    ref = cell.vertices
    out = np.empty((count, d + 1, d))
    for k in range(count):
        while True:
            J = rng.uniform(-1.6, 1.6, size=(d, d))
            det = np.linalg.det(J)
            if 0.1 <= det <= 10.0:
                break
        v0 = rng.uniform(-1.0, 1.0, size=d)
        out[k] = v0 + ref @ J.T
    return out


def random_coefficients(cf: CompiledForm, count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.uniform(COEF_LOW, COEF_HIGH, size=(count, elem.space_dim))
        for _, elem in cf.typed.coefficients
    ]


def relative_max_difference(A: np.ndarray, B: np.ndarray) -> float:
    scale = max(np.abs(B).max(), 1e-300)
    return float(np.abs(A - B).max() / scale)


@dataclass(frozen=True)
class CrossCheck:
    max_relative_difference: float
    mode: str  # "quadrature-vs-tensor" | "quadrature-vs-full-tables" | "quadrature-two-degrees"


def cross_check(
    cf: CompiledForm,
    n_cells: int = 100,
    seed: int = 0,
    points_override: int | None = None,
) -> CrossCheck:
    """Compare representations on seeded random cells and coefficients.

    Division-bearing forms have no tensor kernel; they are checked for
    self-consistency between two quadrature degrees instead (the rule at the
    estimate is nominal for rational integrands, so both degrees carry a
    safety shift large enough for Gauss convergence to the check tolerance).
    An explicit ``points_override`` permits deliberately inexact quadrature.
    A tensor kernel beyond the default term budget raises MemoryError.
    """
    geo = affine_map_batch(random_cells(cf.cell, n_cells, seed))
    w = random_coefficients(cf, n_cells, seed + 1)
    try:
        kt = tensor_kernel(cf)
    except tensorrep.UnsupportedDivision:
        kt = None
    return _check_kernels(cf, geo, w, None, kt, points_override)


def _check_kernels(cf, geo, w, kq, kt, points_override=None) -> CrossCheck:
    """The comparison of cross_check and compare; a ``kq`` of None is built here.

    Without a tensor kernel, a division form compares two quadrature
    degrees, and a polynomial form (over the term budget) compares against
    its quadrature kernel without zero elimination at the same exact rule.
    Hoisting stays on: un-hoisted, each coefficient factor adds a loop around
    the accumulation, so twelve P4 factors need 15**12 trips per point.
    """
    if kt is None and any(m.denominators for m in cf.monomials.monomials):
        kq1 = quadrature_kernel(cf, points_override, degree_shift=10)
        kq2 = quadrature_kernel(cf, degree_shift=16)
        A1 = interpret_batch(kq1, geo, w)
        A2 = interpret_batch(kq2, geo, w)
        return CrossCheck(relative_max_difference(A1, A2), "quadrature-two-degrees")
    if kq is None:
        kq = quadrature_kernel(cf, points_override)
    mode = "quadrature-vs-tensor"
    if kt is None:
        kt = quadrature_kernel(cf, points_override, zero_elimination=False)
        mode = "quadrature-vs-full-tables"
    Aq = interpret_batch(kq, geo, w)
    At = interpret_batch(kt, geo, w)
    return CrossCheck(relative_max_difference(Aq, At), mode)


# ---------------------------------------------------------------------------
# Structured meshes, dofmaps and CSR assembly (2D)


@dataclass(eq=False)
class Mesh:
    cell: ReferenceCell
    coords: np.ndarray  # (n_vertices, dim)
    cells: np.ndarray  # (n_cells, dim + 1) vertex ids

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


@dataclass(eq=False)
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
    scalar = rank[inverse].reshape(n_cells, n_local)
    n_scalar_global = len(first)
    if not element.is_vector:
        return DofMap(element, scalar, n_scalar_global)
    d = element.value_dim
    blocks = [scalar + comp * n_scalar_global for comp in range(d)]
    return DofMap(element, np.concatenate(blocks, axis=1), d * n_scalar_global)


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


def _build_structure(rows_map: DofMap, cols_map: DofMap) -> tuple[SparseMatrix, np.ndarray]:
    """CSR pattern from one sort of the keys row*n_cols + col; also each local entry's slot."""
    n_cols = cols_map.n_global
    coo = rows_map.cell_dofs[:, :, None] * n_cols + cols_map.cell_dofs[:, None, :]
    keys, slots = np.unique(coo.ravel(), return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(rows_map.n_global + 1) * n_cols)
    matrix = SparseMatrix(rows_map.n_global, n_cols, indptr, keys % n_cols, np.zeros(len(keys)))
    return matrix, slots.reshape(rows_map.cell_dofs.shape[0], -1)


def check_assembly(cf: CompiledForm, cell: ReferenceCell, n_cells: int) -> None:
    """Raise, before anything is allocated, if ``cf`` cannot be assembled.

    ValueError for a linear form, UnsupportedCell for a form on another cell,
    MemoryError beyond ``ASSEMBLY_ENTRY_BUDGET`` local entries on ``n_cells``.
    """
    typed = cf.typed
    if typed.arity != 2:
        raise ValueError("global assembly expects a bilinear form")
    if cf.cell != cell:
        raise UnsupportedCell(f"a {cf.cell.name} form cannot be assembled on {cell.name} cells")
    entries = n_cells * typed.test_element.space_dim * typed.trial_element.space_dim
    if entries > ASSEMBLY_ENTRY_BUDGET:
        raise MemoryError(f"{entries} local entries exceed the budget of {ASSEMBLY_ENTRY_BUDGET}")


def assemble(
    cf: CompiledForm,
    kernel: KernelIR,
    mesh: Mesh,
    coefficient_values: list[np.ndarray] | None = None,
    seed: int = 0,
    cell_order: np.ndarray | None = None,
):
    """Assemble the global sparse matrix; returns (matrix, timings).

    Two phases: structure initialisation from dof adjacency, then batched
    kernel evaluation (timed as "compute") and serial insertion, in cell
    order, into the fixed structure (timed as "insertion").  A kernel of
    more than ``INTERPRET_FLOP_BUDGET`` flops per cell raises MemoryError
    before anything is built.
    """
    check_assembly(cf, mesh.cell, mesh.n_cells)
    flops = count_flops(kernel)
    if flops > INTERPRET_FLOP_BUDGET:
        raise MemoryError(
            f"kernel needs {flops} flops per cell (budget {INTERPRET_FLOP_BUDGET})"
        )
    typed = cf.typed
    t0 = time.perf_counter()
    rows_map = build_dofmap(mesh, typed.test_element)
    cols_map = (
        rows_map
        if typed.trial_element == typed.test_element
        else build_dofmap(mesh, typed.trial_element)
    )
    coef_maps = [build_dofmap(mesh, elem) for _, elem in typed.coefficients]
    if coefficient_values is None:
        rng = np.random.default_rng(seed)
        coefficient_values = [
            rng.uniform(COEF_LOW, COEF_HIGH, size=m.n_global) for m in coef_maps
        ]
    matrix, slots = _build_structure(rows_map, cols_map)
    t_structure = time.perf_counter() - t0

    order = np.arange(mesh.n_cells) if cell_order is None else np.asarray(cell_order)
    verts = mesh.cell_vertices()[order]
    t_compute = 0.0
    t_insert = 0.0
    for start in range(0, len(order), ASSEMBLY_CHUNK):
        batch = order[start : start + ASSEMBLY_CHUNK]
        t0 = time.perf_counter()
        geo = affine_map_batch(verts[start : start + ASSEMBLY_CHUNK])
        w = [
            vals[m.cell_dofs[batch]]
            for m, vals in zip(coef_maps, coefficient_values)
        ]
        A = interpret_batch(kernel, geo, w)
        t_compute += time.perf_counter() - t0
        t0 = time.perf_counter()
        # unbuffered and in index order: each entry sums its cells in order
        np.add.at(matrix.data, slots[batch].ravel(), A.ravel())
        t_insert += time.perf_counter() - t0
    timings = {
        "structure": t_structure,
        "compute": t_compute,
        "insertion": t_insert,
        "insertion_mode": "serial",
    }
    return matrix, timings


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
    def ratio(self) -> float | None:
        if self.flops_t:
            return self.flops_q / self.flops_t
        return None

    def csv_row(self) -> str:
        def fmt(v, spec="{}"):
            return "NA" if v is None else spec.format(v)

        return ",".join(
            [
                self.form_name,
                fmt(self.flops_q),
                fmt(self.flops_t),
                fmt(self.ratio, "{:.4g}"),
                fmt(self.runtime_q, "{:.6g}"),
                fmt(self.runtime_t, "{:.6g}"),
                fmt(self.max_difference, "{:.3g}"),
                fmt(self.gen_time_q, "{:.6g}"),
                fmt(self.gen_time_t, "{:.6g}"),
                fmt(self.bytes_q),
                fmt(self.bytes_t),
            ]
        )


CSV_HEADER = (
    "form,flops_q,flops_t,ratio,runtime_q,runtime_t,maxdiff,"
    "gen_time_q,gen_time_t,bytes_q,bytes_t"
)


def _bench(kernel: KernelIR, cf: CompiledForm, n: int, seed: int) -> float:
    cells = random_cells(cf.cell, min(n, BENCH_CHUNK), seed)
    geo = affine_map_batch(cells)
    w = random_coefficients(cf, geo.det.shape[0], seed + 1)
    done = 0
    t0 = time.perf_counter()
    while done < n:
        interpret_batch(kernel, geo, w)
        done += geo.det.shape[0]
    return time.perf_counter() - t0


def compare(
    source: str,
    name: str = "form",
    *,
    n_cells: int = 100,
    seed: int = 0,
    bench_n: int = 0,
    term_budget: int | None = DEFAULT_TERM_BUDGET,
) -> ComparisonReport:
    """Compile under both representations, cross-check, count and time."""
    cf = compile_source(source, name)
    t0 = time.perf_counter()
    kq = quadrature_kernel(cf)
    gen_q = time.perf_counter() - t0
    bytes_q = source_bytes(kq)
    flops_q = count_flops(kq)

    kt = None
    gen_t = bytes_t = flops_t = None
    tensor_error = None
    try:
        t0 = time.perf_counter()
        kt = tensor_kernel(cf, term_budget=term_budget)
        gen_t = time.perf_counter() - t0
        bytes_t = source_bytes(kt)
        flops_t = count_flops(kt)
    except tensorrep.UnsupportedDivision as exc:
        tensor_error = f"UnsupportedDivision: {exc}"
    except MemoryError as exc:
        tensor_error = f"MemoryError: {exc}"

    geo = affine_map_batch(random_cells(cf.cell, n_cells, seed))
    w = random_coefficients(cf, n_cells, seed + 1)
    check = _check_kernels(cf, geo, w, kq, kt)

    runtime_q = runtime_t = None
    if bench_n:
        runtime_q = _bench(kq, cf, bench_n, seed)
        if kt is not None:
            runtime_t = _bench(kt, cf, bench_n, seed)

    notes = []
    if cf.monomials.monomials and any(m.denominators for m in cf.monomials.monomials):
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
    quick: bool = True,
    include_3d: bool = False,
    bench_n: int = 0,
    n_cells: int = 20,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> list[tuple[TrendCell, ComparisonReport | None, str | None]]:
    """Sweep the benchmark families; failures are recorded, not fatal.

    Returns (cell, report, error) triples; ``error`` is set when even the
    quadrature path failed (which does not happen for in-range cells) and
    tensor-specific failures are carried inside the report.
    """
    cells = quick_trend_cells() if quick else full_trend_cells(include_3d)
    rows = []
    for cell in cells:
        try:
            report = compare(
                cell.source(),
                cell.label(),
                n_cells=n_cells,
                bench_n=bench_n,
                term_budget=term_budget,
            )
            rows.append((cell, report, None))
        except Exception as exc:  # record per-cell failures, keep sweeping
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
