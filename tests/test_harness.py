import numpy as np
import pytest

from formc import forms, harness
from formc.elements import TETRAHEDRON, TRIANGLE, FiniteElement, lattice_sites
from formc.kernel import affine_map, emit_source, source_bytes


def test_unit_square_mesh_counts():
    m1 = harness.unit_square_mesh(1)
    assert m1.coords.shape == (4, 2) and m1.n_cells == 2
    m2 = harness.unit_square_mesh(2)
    assert m2.coords.shape == (9, 2) and m2.n_cells == 8


def test_unit_square_mesh_area():
    mesh = harness.unit_square_mesh(7)
    total = 0.0
    for verts in mesh.cell_vertices():
        total += affine_map(verts).det / 2.0
    assert abs(total - 1.0) < 1e-14


def test_random_cells_deterministic():
    a = harness.random_cells(TRIANGLE, 2, 0)
    b = harness.random_cells(TRIANGLE, 2, 0)
    assert np.array_equal(a, b)
    c = harness.random_cells(TRIANGLE, 2, 1)
    assert not np.allclose(a[0], c[0])
    for verts in harness.random_cells(TETRAHEDRON, 20, 4):
        geo = affine_map(verts)  # must not raise
        assert 0.1 <= geo.det <= 10.0


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
    assert timings["insertion_mode"] == "serial"


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


def test_cross_check_modes(compile_cached):
    cf = compile_cached(forms.mass(2, 2), "mass22")
    chk = harness.cross_check(cf, n_cells=10, seed=0)
    assert chk.mode == "quadrature-vs-tensor"
    assert chk.max_relative_difference < 1e-12
    cfp = compile_cached(forms.pressure_equation(), "pressure")
    chk = harness.cross_check(cfp, n_cells=5, seed=0)
    assert chk.mode == "quadrature-two-degrees"
    assert chk.max_relative_difference < 1e-8


def test_compare_report_and_csv():
    report = harness.compare(forms.mass(2, 1), "mass", n_cells=10, bench_n=50)
    assert report.flops_t == 9 and report.ratio == report.flops_q / 9
    assert report.runtime_q is not None and report.runtime_q > 0
    assert report.max_difference < 1e-12
    row = report.csv_row()
    assert row.split(",")[0] == "mass"
    assert len(row.split(",")) == len(harness.CSV_HEADER.split(","))

    rej = harness.compare(forms.pressure_equation(), "pressure", n_cells=5)
    assert rej.flops_t is None and rej.ratio is None
    assert rej.tensor_error and "UnsupportedDivision" in rej.tensor_error
    fields = rej.csv_row().split(",")
    assert fields[2] == "NA" and fields[3] == "NA"


def test_compare_over_budget_polynomial_uses_exact_rule():
    # the tensor kernel is over budget, not impossible: quadrature is checked
    # against its kernel without zero elimination at the same rule
    report = harness.compare(forms.elasticity(2, 2), "el22", n_cells=5, term_budget=10)
    assert report.tensor_error.startswith("MemoryError")
    assert report.check_mode == "quadrature-vs-full-tables"
    assert report.max_difference < 1e-12


def test_runtime_rank_order_stable(compile_cached):
    # the tensor kernel for the plain cubic mass must stay the faster one
    winners = []
    for rep in range(3):
        r = harness.compare(forms.mass(2, 3), "m23", n_cells=5, bench_n=400)
        winners.append(r.runtime_q > r.runtime_t)
    assert all(winners)


def test_trend_renderer_marks_failures():
    cells = [
        harness.TrendCell("mass", 2, 0, 1, 1),
        harness.TrendCell("mass", 2, 0, 1, 2),
    ]
    rows = []
    for cell in cells:
        rows.append((cell, harness.compare(cell.source(), cell.label(), n_cells=5), None))
    rows.append((harness.TrendCell("mass", 2, 0, 2, 1), None, "Boom: synthetic"))
    text = harness.render_trend_table(rows)
    assert "mass 2D" in text and "failure" in text
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
