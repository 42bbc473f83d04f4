import numpy as np
import pytest

from formc.elements import (
    MAX_DEGREE,
    TETRAHEDRON,
    TRIANGLE,
    FiniteElement,
    InvalidElement,
    lattice_points,
    lattice_sites,
    monomial_exponents,
    tabulate,
)


def _interior_points(rng, dim, count, margin=0.05):
    bary = rng.dirichlet(np.ones(dim + 1), size=count)
    bary = margin / (dim + 1) + (1 - margin) * bary
    return bary[:, 1:]


def test_lattice_examples():
    assert np.array_equal(lattice_points(TRIANGLE, 1), [[0, 0], [1, 0], [0, 1]])
    pts2 = lattice_points(TRIANGLE, 2)
    assert len(pts2) == 6
    mids = {(0.5, 0.0), (0.0, 0.5), (0.5, 0.5)}
    assert mids <= {tuple(p) for p in pts2}
    assert len(lattice_points(TETRAHEDRON, 3)) == 20
    assert np.allclose(lattice_points(TRIANGLE, 0), [[1 / 3, 1 / 3]])


def test_lattice_ordering_vertices_then_edges():
    sites = lattice_sites(TRIANGLE, 3)
    kinds = [s.kind for s in sites]
    assert kinds == ["vertex"] * 3 + ["edge"] * 6 + ["interior"]
    # edge (0,1) comes first, parameter increasing towards vertex 1
    assert sites[3].entity == (0, 1) and sites[3].bary == (2, 1, 0)
    assert sites[4].entity == (0, 1) and sites[4].bary == (1, 2, 0)


def test_element_invariants():
    with pytest.raises(InvalidElement):
        FiniteElement("Lagrange", TRIANGLE, 0)
    FiniteElement("Discontinuous Lagrange", TRIANGLE, 0)  # allowed
    with pytest.raises(InvalidElement):
        FiniteElement("Lagrange", TRIANGLE, 1, 3)  # wrong vector size
    with pytest.raises(InvalidElement):
        FiniteElement("Hermite", TRIANGLE, 1)
    e = FiniteElement("Lagrange", TETRAHEDRON, 2, 3)
    assert e.n_scalar == 10 and e.space_dim == 30
    FiniteElement("Lagrange", TETRAHEDRON, MAX_DEGREE)
    with pytest.raises(InvalidElement, match="maximum"):
        FiniteElement("Discontinuous Lagrange", TRIANGLE, MAX_DEGREE + 1)


def test_linear_triangle_tabulation():
    e = FiniteElement("Lagrange", TRIANGLE, 1)
    tab = tabulate(e, [[1 / 3, 1 / 3]])
    assert np.allclose(tab.values, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)
    assert np.allclose(tab.derivs[0], [[-1, -1], [1, 0], [0, 1]], atol=1e-15)


@pytest.mark.parametrize("cell", [TRIANGLE, TETRAHEDRON])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_kronecker_delta_at_nodes(cell, degree):
    e = FiniteElement("Lagrange", cell, degree)
    tab = tabulate(e, lattice_points(cell, degree), nderiv=0)
    assert np.abs(tab.values - np.eye(e.n_scalar)).max() < 1e-10


@pytest.mark.parametrize("cell", [TRIANGLE, TETRAHEDRON])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_partition_of_unity(cell, degree):
    e = FiniteElement("Discontinuous Lagrange", cell, degree)
    rng = np.random.default_rng(5)
    pts = _interior_points(rng, cell.dim, 30)
    tab = tabulate(e, pts)
    assert np.abs(tab.values.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(tab.derivs.sum(axis=1)).max() < 1e-12


@pytest.mark.parametrize("cell", [TRIANGLE, TETRAHEDRON])
@pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
def test_polynomial_reproduction(cell, degree):
    """Interpolate a random polynomial of matching degree, then re-evaluate."""
    e = FiniteElement("Lagrange", cell, degree)
    rng = np.random.default_rng(degree * 7 + cell.dim)
    exps = monomial_exponents(cell.dim, degree)
    coefs = rng.uniform(-1, 1, size=len(exps))

    def poly(pts):
        return sum(
            c * np.prod([pts[:, j] ** ee[j] for j in range(cell.dim)], axis=0)
            for c, ee in zip(coefs, exps)
        )

    nodes = lattice_points(cell, degree)
    dofs = poly(nodes)
    pts = _interior_points(rng, cell.dim, 50)
    tab = tabulate(e, pts, nderiv=0)
    assert np.abs(tab.values @ dofs - poly(pts)).max() < 1e-10


@pytest.mark.parametrize("cell", [TRIANGLE, TETRAHEDRON])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_derivatives_match_finite_differences(cell, degree):
    e = FiniteElement("Lagrange", cell, degree)
    rng = np.random.default_rng(11)
    pts = _interior_points(rng, cell.dim, 20)
    tab = tabulate(e, pts)
    h = 1e-6
    for a in range(cell.dim):
        shift = np.zeros(cell.dim)
        shift[a] = h
        up = tabulate(e, pts + shift, nderiv=0).values
        dn = tabulate(e, pts - shift, nderiv=0).values
        fd = (up - dn) / (2 * h)
        assert np.abs(fd - tab.derivs[:, :, a]).max() < 1e-5


def test_second_derivatives_on_demand():
    e = FiniteElement("Lagrange", TRIANGLE, 2)
    pts = np.array([[0.25, 0.3]])
    tab = tabulate(e, pts, nderiv=2)
    # basis function at vertex 0 is (1-x-y)(2(1-x-y)-1); its xx derivative is 4
    assert np.isclose(tab.scalar_tables[(0, 0)][0, 0], 4.0)
    assert np.isclose(tab.scalar_tables[(0, 1)][0, 0], 4.0)


def test_vector_block_structure():
    e = FiniteElement("Lagrange", TRIANGLE, 1, 2)
    assert e.component_dofs(0).tolist() == [0, 1, 2]
    assert e.component_dofs(1).tolist() == [3, 4, 5]
    tet = FiniteElement("Lagrange", TETRAHEDRON, 2, 3)
    assert tet.component_dofs(2).tolist() == list(range(20, 30))
    scalar = FiniteElement("Discontinuous Lagrange", TETRAHEDRON, 0)
    assert scalar.component_dofs(0).tolist() == [0]
    for element, component in [(e, 2), (e, -1), (scalar, 1)]:
        with pytest.raises(ValueError, match="no component"):
            element.component_dofs(component)
        with pytest.raises(ValueError, match="no component"):
            tabulate(element, np.full((1, element.cell.dim), 0.2)).table(component, ())
    tab = tabulate(e, [[0.2, 0.3]])
    t0 = tab.table(0, ())
    t1 = tab.table(1, ())
    assert t0.shape == (1, 6)
    assert np.all(t0[:, 3:] == 0.0) and np.all(t1[:, :3] == 0.0)
    assert np.array_equal(t0[:, e.component_dofs(0)], t1[:, e.component_dofs(1)])
