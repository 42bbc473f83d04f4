import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from formc import forms, harness
from formc.dsl import BudgetExceeded
from formc.elements import TETRAHEDRON, TRIANGLE, FiniteElement, lattice_sites
from formc.kernel import (
    affine_map,
    affine_map_batch,
    count_flops,
    emit_source,
    interpret_batch,
    source_bytes,
)

FORMS_DIR = Path(__file__).resolve().parent.parent / "forms"
PRESSURE_EQUATION = (FORMS_DIR / "pressure_equation_2d.form").read_text()


def test_unit_square_mesh_counts():
    m1 = harness.unit_square_mesh(1)
    assert m1.coords.shape == (4, 2) and m1.n_cells == 2
    m2 = harness.unit_square_mesh(2)
    assert m2.coords.shape == (9, 2) and m2.n_cells == 8


def test_unit_square_mesh_area():
    mesh = harness.unit_square_mesh(7)
    total = 0.0
    for verts in mesh.cell_vertices():
        total += affine_map(verts).det[0] / 2.0
    assert abs(total - 1.0) < 1e-14


def test_random_cells_deterministic():
    a = harness.random_cells(TRIANGLE, 2, 0)
    b = harness.random_cells(TRIANGLE, 2, 0)
    assert np.array_equal(a, b)
    c = harness.random_cells(TRIANGLE, 2, 1)
    assert not np.allclose(a[0], c[0])
    for verts in harness.random_cells(TETRAHEDRON, 20, 4):
        geo = affine_map(verts)  # must not raise
        assert 0.1 <= geo.det[0] <= 10.0


def _random_cells_one_by_one(cell, count, rng):
    """The draw-by-draw loop that ``random_cells`` vectorises: the oracle."""
    d = cell.dim
    out = np.empty((count, d + 1, d))
    for k in range(count):
        while True:
            J = rng.uniform(-1.6, 1.6, size=(d, d))
            det = np.linalg.det(J)
            if 0.1 <= det <= 10.0:
                break
        v0 = rng.uniform(-1.0, 1.0, size=d)
        out[k] = v0 + cell.vertices @ J.T
    return out


@pytest.mark.parametrize("cell", [TRIANGLE, TETRAHEDRON], ids=["2d", "3d"])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_random_cells_match_one_by_one_draws(cell, seed):
    assert harness.random_cells(cell, 5, seed).tobytes() == (
        _random_cells_one_by_one(cell, 5, np.random.default_rng(seed)).tobytes()
    )
    # one shared generator, as _cell_batches draws its batches: same cells, same state
    shared, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for count in (1, 2, 3, 256, 1000, 1):
        cells = harness.random_cells(cell, count, shared)
        assert cells.tobytes() == _random_cells_one_by_one(cell, count, oracle).tobytes()
        assert shared.bit_generator.state == oracle.bit_generator.state


def test_dofmap_counts():
    mesh = harness.unit_square_mesh(1)
    assert harness.build_dofmap(mesh, FiniteElement("Lagrange", TRIANGLE, 1)).n_global == 4
    assert harness.build_dofmap(mesh, FiniteElement("Lagrange", TRIANGLE, 2)).n_global == 9
    dg = FiniteElement("Discontinuous Lagrange", TRIANGLE, 1)
    assert harness.build_dofmap(mesh, dg).n_global == 6
    vec = FiniteElement("Lagrange", TRIANGLE, 1, 2)
    assert harness.build_dofmap(mesh, vec).n_global == 8


def test_dofmap_shared_edges_consistent():
    mesh = harness.unit_square_mesh(2)
    dm = harness.build_dofmap(mesh, FiniteElement("Lagrange", TRIANGLE, 3))
    # n vertices + 2 per edge + 1 interior per cell
    n_edges = len({tuple(sorted((c[i], c[j]))) for c in mesh.cells for i, j in [(0, 1), (0, 2), (1, 2)]})
    assert dm.n_global == 9 + 2 * n_edges + mesh.n_cells
    assert dm.cell_dofs.max() == dm.n_global - 1


@pytest.mark.parametrize(
    "element",
    [FiniteElement("Lagrange", TRIANGLE, 3), FiniteElement("Lagrange", TRIANGLE, 2, 2)],
    ids=["p3", "vector_p2"],
)
def test_dofmap_shared_dofs_share_points(element):
    """Each global dof is one physical point (and component) in every cell."""
    mesh = harness.unit_square_mesh(3)
    dm = harness.build_dofmap(mesh, element)
    bary = np.array([s.bary for s in lattice_sites(TRIANGLE, element.degree)]) / element.degree
    points = np.einsum("sk,ckd->csd", bary, mesh.cell_vertices())
    d = element.value_dim
    points = np.tile(points, (1, d, 1))  # component-major local blocks
    component = np.repeat(np.arange(d), len(bary))
    assert (dm.cell_dofs // (dm.n_global // d) == component).all()
    flat, points = dm.cell_dofs.ravel(), points.reshape(-1, 2)
    dofs, first = np.unique(flat, return_index=True)
    assert np.array_equal(dofs, np.arange(dm.n_global))
    assert np.abs(points[first][flat] - points).max() < 1e-14
    # and distinct dofs of one component are distinct points
    tagged = np.column_stack([np.round(points[first], 12), dofs // (dm.n_global // d)])
    assert len(np.unique(tagged, axis=0)) == dm.n_global


def test_assemble_guards(compile_cached):
    mesh = harness.unit_square_mesh(2)
    cf = compile_cached(forms.mass(3, 1), "mass31")
    with pytest.raises(harness.UnsupportedCell):
        harness.assemble(cf, harness.quadrature_kernel(cf), mesh)
    linear = compile_cached(
        'element = FiniteElement("Lagrange", "triangle", 1)\nv = TestFunction(element)\na = v*dx\n'
    )
    with pytest.raises(ValueError, match="bilinear"):
        harness.assemble(linear, harness.quadrature_kernel(linear), mesh)
    cf = compile_cached(forms.mass(2, 2), "mass22")
    harness.check_assembly(cf, mesh.cell, harness.ASSEMBLY_ENTRY_BUDGET // 36)
    with pytest.raises(MemoryError):
        harness.check_assembly(cf, mesh.cell, harness.ASSEMBLY_ENTRY_BUDGET // 36 + 1)


def test_dofmap_rejects_tets():
    mesh = harness.unit_square_mesh(1)
    fake = harness.Mesh(TETRAHEDRON, np.zeros((4, 3)), np.array([[0, 1, 2, 3]]))
    with pytest.raises(harness.UnsupportedCell):
        harness.build_dofmap(fake, FiniteElement("Lagrange", TETRAHEDRON, 1))


def test_global_mass_sum(compile_cached, kernel_cached):
    cf = compile_cached(forms.mass(2, 1), "mass21")
    mesh = harness.unit_square_mesh(4)
    M, timings = harness.assemble(cf, kernel_cached(cf, "quadrature"), mesh)
    assert abs(M.total() - 1.0) < 1e-12
    assert timings["compute"] > 0 and timings["insertion"] > 0


def test_global_poisson_row_sums(compile_cached, kernel_cached):
    cf = compile_cached(forms.poisson(2, 1), "poisson21")
    mesh = harness.unit_square_mesh(4)
    M, _ = harness.assemble(cf, kernel_cached(cf, "quadrature"), mesh)
    assert np.abs(M.row_sums()).max() < 1e-12


def test_vector_mass_sum(compile_cached):
    src = (
        'element = VectorElement("Lagrange", "triangle", 1)\n'
        "v = TestFunction(element)\nu = TrialFunction(element)\n"
        "a = dot(v, u)*dx\n"
    )
    cf = compile_cached(src, "vmass")
    mesh = harness.unit_square_mesh(3)
    M, _ = harness.assemble(cf, harness.quadrature_kernel(cf), mesh)
    assert abs(M.total() - 2.0) < 1e-12  # one unit of area per component


def test_assembled_representations_agree(compile_cached, kernel_cached):
    cf = compile_cached(forms.weighted_laplacian(2, 2), "wl22")
    mesh = harness.unit_square_mesh(3)
    Mq, _ = harness.assemble(cf, kernel_cached(cf, "quadrature"), mesh, seed=5)
    Mt, _ = harness.assemble(cf, kernel_cached(cf, "tensor"), mesh, seed=5)
    scale = np.abs(Mt.data).max()
    assert np.abs(Mq.data - Mt.data).max() / scale < 1e-10


def test_assembly_order_independent(compile_cached, kernel_cached):
    cf = compile_cached(forms.mass(2, 2), "mass22")
    mesh = harness.unit_square_mesh(3)
    k = kernel_cached(cf, "quadrature")
    M1, _ = harness.assemble(cf, k, mesh)
    order = np.random.default_rng(3).permutation(mesh.n_cells)
    M2, _ = harness.assemble(cf, k, mesh, cell_order=order)
    assert np.abs(M1.data - M2.data).max() < 1e-12


def test_assemble_builds_one_dofmap_per_element(compile_cached, kernel_cached, monkeypatch):
    # test, trial and w share one P2 space
    cf = compile_cached(forms.weighted_laplacian(2, 2), "wl22")
    built = []
    build = harness.build_dofmap
    monkeypatch.setattr(harness, "build_dofmap", lambda mesh, e: built.append(e) or build(mesh, e))
    harness.assemble(cf, kernel_cached(cf, "quadrature"), harness.unit_square_mesh(2))
    assert built == [cf.typed.test_element]


def test_assemble_timings(compile_cached, kernel_cached):
    cf = compile_cached(forms.weighted_laplacian(2, 1), "wl21")
    _, timings = harness.assemble(cf, kernel_cached(cf, "quadrature"), harness.unit_square_mesh(3))
    assert set(timings) == {"structure", "dofmap", "compute", "insertion"}
    assert 0 < timings["dofmap"] <= timings["structure"]


@pytest.mark.parametrize(
    "order",
    [
        np.arange(3),  # too short: a mass matrix summing to 0.375
        np.zeros(8, dtype=np.int64),  # cell 0 eight times
        np.arange(1, 9),  # cell 8 of 8 cells: an IndexError
        np.arange(8.0),  # not integers
    ],
    ids=["short", "repeated", "out-of-range", "float"],
)
def test_assemble_rejects_a_cell_order_that_is_no_permutation(compile_cached, order):
    cf = compile_cached(forms.mass(2, 1), "mass21")
    kernel = harness.quadrature_kernel(cf)
    mesh = harness.unit_square_mesh(2)
    with pytest.raises(ValueError, match="permutation"):
        harness.assemble(cf, kernel, mesh, cell_order=order)
    M, _ = harness.assemble(cf, kernel, mesh, cell_order=np.arange(8)[::-1])
    assert abs(M.total() - 1.0) < 1e-12


def test_mesh_is_frozen_and_its_arrays_read_only():
    cells = np.array([[0, 1, 2]])
    mesh = harness.Mesh(TRIANGLE, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), cells)
    cells[0, 0] = 2  # the mesh holds its own copy
    assert mesh.cells.tolist() == [[0, 1, 2]]
    for array in (mesh.cells, mesh.coords):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.cells = cells


def _assembly_bytes(matrix):
    return [matrix.indptr.tobytes(), matrix.indices.tobytes(), matrix.data.tobytes()]


def test_held_maps_and_patterns_are_read_only(compile_cached, kernel_cached):
    cf = compile_cached(forms.elasticity(2, 2), "elasticity22")
    mesh = harness.unit_square_mesh(3)
    matrix, _ = harness.assemble(cf, kernel_cached(cf, "quadrature"), mesh)
    held = mesh._held.values()
    arrays = [h.cell_dofs for h in held if isinstance(h, harness.DofMap)]
    arrays += [a for h in held if isinstance(h, tuple) for a in h]
    assert len(arrays) == 2 + 3  # P2 and vector P2 maps; the (P2, P2) pattern
    for a in arrays:
        assert not a.flags.writeable
        for m in (matrix.indptr, matrix.indices, matrix.data):
            assert not np.shares_memory(a, m)


def test_mutating_an_assembled_matrix_leaves_the_next_assembly_unchanged(compile_cached):
    for src, name in [(forms.mass(2, 2), "mass22"), (forms.elasticity(2, 2), "elasticity22")]:
        cf = compile_cached(src, name)
        kernel = harness.quadrature_kernel(cf)
        mesh = harness.unit_square_mesh(3)
        first, _ = harness.assemble(cf, kernel, mesh)
        want = _assembly_bytes(first)
        first.indptr[:] = 0
        first.indices[:] = 0
        first.data[:] = np.nan
        again, _ = harness.assemble(cf, kernel, mesh)
        assert _assembly_bytes(again) == want, name


def test_reuse_across_assemblies_is_invisible(compile_cached, kernel_cached, monkeypatch):
    """Mass, weighted Laplacian and elasticity at P1-P3 on one mesh: each
    matrix is that of an assembly on its own fresh mesh, each scalar space
    is numbered once and each pair of scalar spaces is sorted once."""
    ladder = [
        (cf, kernel_cached(cf, "tensor"))
        for p in (1, 2, 3)
        for family in ("mass", "weighted_laplacian", "elasticity")
        for cf in [compile_cached(getattr(forms, family)(2, p), f"{family}{p}")]
    ]
    alone = [
        _assembly_bytes(harness.assemble(cf, k, harness.unit_square_mesh(6), seed=i)[0])
        for i, (cf, k) in enumerate(ladder)
    ]
    built, sorted_pairs = [], []
    build, pattern = harness.build_dofmap, harness._scalar_pattern
    monkeypatch.setattr(harness, "build_dofmap", lambda mesh, e: built.append(e) or build(mesh, e))
    monkeypatch.setattr(
        harness,
        "_scalar_pattern",
        lambda r, c: sorted_pairs.append((r.element, c.element)) or pattern(r, c),
    )
    mesh = harness.unit_square_mesh(6)
    for i, (cf, k) in enumerate(ladder):
        matrix, _ = harness.assemble(cf, k, mesh, seed=i)
        assert _assembly_bytes(matrix) == alone[i], cf.name
    assert built == [_P[1], _P[2], _P[3]]
    assert sorted_pairs == [(_P[q], _P[q]) for q in (1, 2, 3)]


def _build_structure_one_sort(rows_map, cols_map):
    """The pattern from one sort of the keys row*n_cols + col of all components: the oracle."""
    n_cols = cols_map.n_global
    coo = rows_map.cell_dofs[:, :, None] * n_cols + cols_map.cell_dofs[:, None, :]
    keys, slots = np.unique(coo.ravel(), return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(rows_map.n_global + 1) * n_cols)
    matrix = harness.SparseMatrix(
        rows_map.n_global, n_cols, indptr, keys % n_cols, np.zeros(len(keys))
    )
    return matrix, slots.reshape(rows_map.cell_dofs.shape[0], -1)


_P = {q: FiniteElement("Lagrange", TRIANGLE, q) for q in (1, 2, 3)}
_VP = {q: FiniteElement("Lagrange", TRIANGLE, q, 2) for q in (1, 2, 3)}
_DG0 = FiniteElement("Discontinuous Lagrange", TRIANGLE, 0)
_VDG1 = FiniteElement("Discontinuous Lagrange", TRIANGLE, 1, 2)
STRUCTURE_CASES = {
    **{f"p{q}": (_P[q], _P[q]) for q in _P},
    **{f"vp{q}": (_VP[q], _VP[q]) for q in _VP},
    "dg0": (_DG0, _DG0),
    "vdg1": (_VDG1, _VDG1),
    "vp2-p1": (_VP[2], _P[1]),
    "p1-vp2": (_P[1], _VP[2]),
    "p3-p1": (_P[3], _P[1]),
}


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("case", sorted(STRUCTURE_CASES))
def test_structure_matches_one_sort_of_all_keys(case, n):
    mesh = harness.unit_square_mesh(n)
    rows_map, cols_map = (harness.build_dofmap(mesh, e) for e in STRUCTURE_CASES[case])
    want, want_slots = _build_structure_one_sort(rows_map, cols_map)
    # the first call sorts and the mesh holds the scalar pattern; the second reuses it
    for _ in range(2):
        got, got_slots = harness._build_structure(mesh, *STRUCTURE_CASES[case])
        assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
        for a, b in [
            (got.indptr, want.indptr),
            (got.indices, want.indices),
            (got.data, want.data),
            (got_slots, want_slots),
        ]:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["p1", "p3", "dg0", "p3-p1"])
def test_scalar_structure_copies_what_the_block_path_builds(case):
    mesh = harness.unit_square_mesh(4)
    rows, cols = STRUCTURE_CASES[case]
    got, got_slots = harness._build_structure(mesh, rows, cols)
    held = mesh._held[(rows, cols)]
    want, want_slots = harness._block_structure(
        held, mesh._held[rows], mesh._held[cols], 1, 1
    )
    assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
    got_arrays = [got.indptr, got.indices, got.data, got_slots]
    for a, b in zip(got_arrays, [want.indptr, want.indices, want.data, want_slots]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    for a in got_arrays:
        assert a.flags.writeable
        for h in [*held, mesh._held[rows].cell_dofs, mesh._held[cols].cell_dofs]:
            assert not np.shares_memory(a, h)


def test_held_patterns_are_keyed_by_both_spaces():
    """Every STRUCTURE_CASES pair, twice, on one mesh: a pattern held for one
    pair of spaces never answers for another, rectangular pairs included."""
    mesh = harness.unit_square_mesh(3)
    maps = {e: harness.build_dofmap(mesh, e) for pair in STRUCTURE_CASES.values() for e in pair}
    for case in [*STRUCTURE_CASES, *reversed(STRUCTURE_CASES)]:
        rows, cols = STRUCTURE_CASES[case]
        got, got_slots = harness._build_structure(mesh, rows, cols)
        want, want_slots = _build_structure_one_sort(maps[rows], maps[cols])
        assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols), case
        for a, b in [(got.indptr, want.indptr), (got.indices, want.indices), (got_slots, want_slots)]:
            assert a.tobytes() == b.tobytes(), case


def test_cross_check_modes(compile_cached):
    cf = compile_cached(forms.mass(2, 2), "mass22")
    chk = harness.cross_check(cf, n_cells=10, seed=0)
    assert chk.mode == "quadrature-vs-tensor"
    assert chk.max_relative_difference < 1e-12
    cfp = compile_cached(PRESSURE_EQUATION, "pressure")
    chk = harness.cross_check(cfp, n_cells=5, seed=0)
    assert chk.mode == "quadrature-two-degrees"
    assert chk.max_relative_difference < 1e-8


def _p2_division(cell: str, denominator: str) -> str:
    return (
        f'element = FiniteElement("Lagrange", "{cell}", 2)\n'
        "v = TestFunction(element)\nu = TrialFunction(element)\n"
        f"f = Function(element)\ng = Function(element)\na = v*u/{denominator}*dx\n"
    )


@pytest.mark.parametrize("cell", ["triangle", "tetrahedron"])
@pytest.mark.parametrize("denominator", ["g", "(f*g)"])
def test_check_of_p2_denominators_passes(cell, denominator, compile_cached, monkeypatch):
    # Gauss quadrature converges more slowly on a P2 denominator than on a P1
    # one, so both shifted degrees move up 12: to 22 and 28
    cf = compile_cached(_p2_division(cell, denominator), f"{cell}_{denominator}")
    shifts = []
    build = harness.quadrature_kernel

    def counting(cf, points_override=None, **kwargs):
        shifts.append(kwargs["degree_shift"])
        return build(cf, points_override, **kwargs)

    monkeypatch.setattr(harness, "quadrature_kernel", counting)
    for seed in range(4):
        assert harness.cross_check(cf, seed=seed).ok
    assert shifts == [22, 28] * 4


def test_division_cross_check_builds_only_the_kernels_it_compares(compile_cached, monkeypatch):
    cf = compile_cached(PRESSURE_EQUATION, "pressure")
    want = harness._check_kernels(cf, 5, 1, harness.quadrature_kernel(cf), None)
    shifts = []
    build = harness.quadrature_kernel

    def counting(cf, points_override=None, **kwargs):
        shifts.append(kwargs.get("degree_shift", 0))
        return build(cf, points_override, **kwargs)

    monkeypatch.setattr(harness, "quadrature_kernel", counting)
    assert harness.cross_check(cf, n_cells=5, seed=1) == want
    assert shifts == [10, 16]


def test_cross_check_of_one_batch_sees_the_seeded_cells(compile_cached):
    cf = compile_cached(forms.weighted_laplacian(2, 2), "wl22")
    n = harness.BATCH_CELLS
    geo = affine_map_batch(harness.random_cells(cf.cell, n, 3))
    w = harness.random_coefficients(cf, n, 4)
    Aq = harness.interpret_batch(harness.quadrature_kernel(cf), geo, w)
    At = harness.interpret_batch(harness.tensor_kernel(cf), geo, w)
    chk = harness.cross_check(cf, n_cells=n, seed=3)
    assert chk.max_relative_difference == harness.relative_max_difference(Aq, At)


def test_cross_check_over_several_batches(compile_cached):
    for src, name in [(forms.weighted_laplacian(2, 2), "wl22"), (PRESSURE_EQUATION, "pressure")]:
        cf = compile_cached(src, name)
        chk = harness.cross_check(cf, n_cells=2 * harness.BATCH_CELLS + 1, seed=5)
        tol = 1e-8 if chk.mode == "quadrature-two-degrees" else 1e-10
        assert 0.0 < chk.max_relative_difference <= tol, name


def test_bench_interprets_exactly_n_cells(compile_cached, monkeypatch):
    cf = compile_cached(forms.mass(2, 1), "mass21")
    k = harness.quadrature_kernel(cf)
    batches = []
    interpret = harness.interpret_batch

    def counting(kernel, geo, w):
        batches.append(len(geo.det))
        return interpret(kernel, geo, w)

    monkeypatch.setattr(harness, "interpret_batch", counting)
    harness._bench(k, cf, 2 * harness.BATCH_CELLS + 88, 0)
    assert batches == [harness.BATCH_CELLS, harness.BATCH_CELLS, 88]


@pytest.mark.parametrize("path", sorted(FORMS_DIR.glob("*.form")), ids=lambda p: p.stem)
def test_interpretation_bound_admits_each_form_file_at_the_defaults(path, monkeypatch):
    # compare at bench's -N and check's cells, with no cell interpreted: the
    # bound is asked for its timing loop's flops and its cross-check's
    asked = {}
    check = harness._check_interpretation

    def record(n_cells, kernels, what):
        asked[what] = n_cells * sum(count_flops(k) for k in kernels if k is not None)
        check(n_cells, kernels, what)

    monkeypatch.setattr(harness, "_check_interpretation", record)
    monkeypatch.setattr(harness, "_cell_batches", lambda cf, n, seed: iter(()))
    monkeypatch.setattr(harness, "_bench", lambda kernel, cf, n, seed: 0.0)
    harness.compare(path.read_text(), path.stem, n_cells=100, bench_n=harness.DEFAULT_BENCH_N)
    assert set(asked) == {"bench timing", "cross-check"}
    assert max(asked.values()) <= harness.INTERPRET_FLOP_BUDGET


@pytest.mark.parametrize("family", ["mass", "weighted_laplacian", "elasticity"])
def test_interpretation_bound_admits_the_assembly_ladder(family, compile_cached, kernel_cached):
    # each kernel of the assemble benchmark, on the most cells the entry
    # budget allows it
    for p in (1, 2, 3):
        cf = compile_cached(getattr(forms, family)(2, p), f"{family}_p{p}")
        typed = cf.typed
        cells = harness.ASSEMBLY_ENTRY_BUDGET // (
            typed.test_element.space_dim * typed.trial_element.space_dim
        )
        for rep in ("quadrature", "tensor"):
            harness._check_interpretation(cells, (kernel_cached(cf, rep),), "assembly")


def test_compare_report_and_csv():
    report = harness.compare(forms.mass(2, 1), "mass", n_cells=10, bench_n=50)
    assert report.flops_t == 9 and report.ratio == report.flops_q / 9
    assert report.runtime_q is not None and report.runtime_q > 0
    assert report.max_difference < 1e-12
    row = report.csv_row()
    assert row.split(",")[0] == "mass"
    assert len(row.split(",")) == len(harness.CSV_HEADER.split(","))

    rej = harness.compare(PRESSURE_EQUATION, "pressure", n_cells=5)
    assert rej.flops_t is None and rej.ratio is None
    assert rej.tensor_error and "UnsupportedDivision" in rej.tensor_error
    fields = rej.csv_row().split(",")
    assert fields[2] == "NA" and fields[3] == "NA"


def test_compare_over_budget_polynomial_uses_exact_rule():
    # the tensor kernel is over budget, not impossible: quadrature is checked
    # against its kernel without zero elimination, one point per direction more
    report = harness.compare(forms.elasticity(2, 2), "el22", n_cells=5, term_budget=10)
    assert report.tensor_error.startswith("BudgetExceeded")
    assert report.check_mode == "quadrature-vs-full-tables"
    assert report.max_difference < 1e-12


def test_full_tables_check_catches_an_underestimated_degree(compile_cached):
    # two degrees short of the estimate, one point misses the P2 integrand;
    # the comparison kernel two degrees above the (lowered) estimate does not
    cf = compile_cached(forms.elasticity(2, 2), "el22")
    low = dataclasses.replace(cf, degree=cf.degree - 2)
    check = harness._check_kernels(low, 5, 0, harness.quadrature_kernel(low), None)
    assert check.mode == "quadrature-vs-full-tables"
    assert check.max_relative_difference > 0.5 and not check.ok


def test_a_nan_difference_fails_its_check():
    for mode, tolerance in harness.CHECK_TOLERANCES.items():
        assert harness.CrossCheck(tolerance, mode).ok
        assert not harness.CrossCheck(float("nan"), mode).ok


def test_runtime_rank_order_stable(compile_cached):
    # the tensor kernel for the plain cubic mass must stay the faster one
    winners = []
    for rep in range(3):
        r = harness.compare(forms.mass(2, 3), "m23", n_cells=5, bench_n=400)
        winners.append(r.runtime_q > r.runtime_t)
    assert all(winners)


def test_trend_suite_records_refusals_and_raises_faults(monkeypatch):
    def refuse(source, name, **kwargs):
        raise BudgetExceeded("over budget", 2, 1)

    monkeypatch.setattr(harness, "compare", refuse)
    rows = harness.trend_suite(quick=True)
    assert len(rows) == len(harness.quick_trend_cells())
    assert all(r is None and e == "BudgetExceeded: over budget" for _, r, e in rows)

    def fault(source, name, **kwargs):
        raise TypeError("a bug, not a refusal")

    monkeypatch.setattr(harness, "compare", fault)
    with pytest.raises(TypeError):
        harness.trend_suite(quick=True)


def test_trend_renderer_marks_failures():
    cells = [
        harness.TrendCell("mass", 2, 0, 1, 1),
        harness.TrendCell("mass", 2, 0, 1, 2),
    ]
    rows = []
    for cell in cells:
        rows.append((cell, harness.compare(cell.source(), cell.label(), n_cells=5), None))
    rows.append((harness.TrendCell("mass", 2, 0, 2, 1), None, "Boom: synthetic"))
    no_tensor = dataclasses.replace(rows[0][1], flops_t=None)
    rows.append((harness.TrendCell("mass", 2, 0, 2, 2), no_tensor, None))
    text = harness.render_trend_table(rows)
    assert "mass 2D" in text and "failure" in text and "failure (tensor)" in text
    assert "p = 0, q = 1" in text


def test_ratio_softly_monotone_in_premultipliers():
    """q/t tends to fall as premultipliers are added; allow one violation."""
    columns = [(1, 1), (1, 2), (0, 2), (2, 1)]  # (p, q)
    violations = 0
    for p, q in columns:
        ratios = []
        for nf in (1, 2, 3, 4):
            r = harness.compare(forms.mass(2, q, n_f=nf, p=p), "m", n_cells=4)
            ratios.append(r.ratio)
        violations += sum(1 for a, b in zip(ratios, ratios[1:]) if b > a + 1e-12)
    assert violations <= 1


def test_trend_cell_sources_compile():
    for cell in [
        harness.TrendCell("mass", 2, 0, 1, 2),
        harness.TrendCell("elasticity", 2, 1, 1, 1),
        harness.TrendCell("vector-poisson-div", 2, 1, 2, 1),
    ]:
        cf = harness.compile_source(cell.source(), cell.label())
        assert cf.typed.arity == 2


@pytest.mark.parametrize("cell", harness.quick_trend_cells(), ids=harness.TrendCell.label)
def test_source_bytes_of_quick_trend_kernels(cell):
    # compare counts bytes_q and bytes_t without building the text
    cf = harness.compile_source(cell.source(), cell.label())
    for k in (harness.quadrature_kernel(cf), harness.tensor_kernel(cf)):
        assert source_bytes(k) == len(emit_source(k).encode())


_P1 = (
    'element = FiniteElement("Lagrange", "triangle", 1)\n'
    "v = TestFunction(element)\nu = TrialFunction(element)\n"
)
# The forms/*.form inputs, three forms that unary minus once made exit 2,
# and a form that folds to nothing, whose kernel has no flops.  Each passes
# the cross-check on its cached kernels.
NEGATABLE = {p.stem: p.read_text() for p in FORMS_DIR.glob("*.form")} | {
    "minus_test": _P1 + "a = -v*u*dx\n",
    "minus_gradient": _P1 + "a = dot(grad(v), -grad(u))*dx\n",
    "minus_dot": _P1 + "a = -dot(grad(v), grad(u))*dx\n",
    "zero": _P1 + "a = 0*v*u*dx\n",
}


@pytest.mark.parametrize("name", sorted(NEGATABLE))
def test_negated_integrand_negates_the_element_tensor(name, compile_cached, kernel_cached):
    source = NEGATABLE[name]
    cf = compile_cached(source, name)
    neg = compile_cached(re.sub(r"^a = (.*)\*dx$", r"a = -(\1)*dx", source, flags=re.M), name)
    geo, w = next(harness._cell_batches(cf, 3, 0))
    divides = cf.monomials.has_division
    for rep in ["quadrature"] + ([] if divides else ["tensor"]):
        A = interpret_batch(kernel_cached(cf, rep), geo, w)
        assert np.array_equal(interpret_batch(kernel_cached(neg, rep), geo, w), -A)
    kq, kt = kernel_cached(cf, "quadrature"), None if divides else kernel_cached(cf, "tensor")
    assert (count_flops(kq) == 0) == (name == "zero")
    assert harness._check_kernels(cf, 3, 0, kq, kt).ok
