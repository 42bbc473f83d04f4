import numpy as np
import pytest

from formc import forms, harness
from formc.kernel import affine_map, affine_map_batch, count_flops, interpret, interpret_batch
from formc.tensorrep import (
    UnsupportedDivision,
    build_tensor_kernel,
    geometry_tensor_spec,
    reference_tensor,
)

REF_TRI = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def test_mass_reference_tensor(compile_cached):
    cf = compile_cached(forms.mass(2, 1), "mass21")
    rt = reference_tensor(cf.monomials.monomials, cf.typed)
    exact = np.full((3, 3), 1 / 24) + np.eye(3) / 24
    assert rt.values.shape == (3, 3)
    assert np.abs(rt.values - exact).max() < 1e-15
    spec = geometry_tensor_spec(cf.monomials.monomials, cf.typed)
    assert len(spec.entries) == 1
    reads, terms = spec.entries[0]
    assert reads == () and terms == ((1.0, ()),)


def test_poisson_reference_tensor(compile_cached):
    cf = compile_cached(forms.poisson(2, 1), "poisson21")
    groups = {}
    for m in cf.monomials.monomials:
        groups.setdefault(m.signature(), []).append(m)
    assert len(groups) == 1  # both physical directions share the basis structure
    rt = reference_tensor(next(iter(groups.values())), cf.typed)
    assert rt.values.shape == (3, 3, 2, 2)
    D = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    expect = 0.5 * np.einsum("ia,jb->ijab", D, D)
    assert np.abs(rt.values - expect).max() < 1e-14
    # exact zeros where a derivative factor vanishes
    assert rt.values[1, 1, 1, 1] == 0.0


def test_weighted_laplacian_reference_tensor(compile_cached):
    cf = compile_cached(forms.weighted_laplacian(2, 1), "wl21")
    rt = reference_tensor(cf.monomials.monomials, cf.typed)
    assert rt.values.shape == (3, 3, 3, 2, 2)
    # integral of one barycentric coordinate over the cell is 1/6
    assert np.isclose(abs(rt.values[0, 0, 0, 0, 0]), 1 / 6)
    spec = geometry_tensor_spec(cf.monomials.monomials, cf.typed)
    assert len(spec.entries) == 3 * 2 * 2
    reads, terms = spec.entries[0]
    assert reads == ((0, 0),)  # w[0][0]
    assert len(terms) == 2  # the two physical directions summed in G
    assert all(len(jprod) == 2 for _, jprod in terms)


def test_premultiplied_geometry_tensor(compile_cached):
    cf = compile_cached(forms.mass(2, 2, n_f=2, p=3), "mass_premult")
    spec = geometry_tensor_spec(cf.monomials.monomials, cf.typed)
    assert len(spec.entries) == 10 * 10
    reads, terms = spec.entries[0]
    assert [c for c, _ in reads] == [0, 1]
    assert terms == ((1.0, ()),)


def test_unsupported_division(compile_cached):
    cf = compile_cached(forms.pressure_equation(), "pressure")
    with pytest.raises(UnsupportedDivision):
        build_tensor_kernel(cf.monomials)
    divided = [m for m in cf.monomials.monomials if m.denominators]
    with pytest.raises(UnsupportedDivision):
        reference_tensor(divided[0], cf.typed)


def test_term_budget():
    cf = harness.compile_source(forms.mass(2, 2), "m")
    with pytest.raises(MemoryError):
        build_tensor_kernel(cf.monomials, term_budget=10)


def test_reference_rule_budget():
    # Sixteen P4 factors: the reference rule needs 35 points per direction.
    src = (
        'P1 = FiniteElement("Lagrange", "triangle", 1)\n'
        'P4 = FiniteElement("Lagrange", "triangle", 4)\n'
        "v = TestFunction(P1)\nu = TrialFunction(P1)\nf = Function(P4)\n"
        "a = " + "*".join(["f"] * 16) + "*v*u*dx\n"
    )
    cf = harness.compile_source(src, "high_degree")
    with pytest.raises(MemoryError, match="35 points per direction"):
        reference_tensor(cf.monomials.monomials, cf.typed)


def test_cancelled_form_has_zero_kernel():
    src = forms.mass(2, 1).replace("dot(v, u)*dx", "(v*u - u*v)*dx")
    cf = harness.compile_source(src, "cancelled")
    assert not cf.monomials.monomials
    k = harness.tensor_kernel(cf)
    assert k.meta["n_terms"] == 0
    geo = affine_map_batch(harness.random_cells(cf.cell, 3, 0))
    assert not interpret_batch(k, geo, harness.random_coefficients(cf, 3, 1)).any()


def test_multilinearity_exact(compile_cached, kernel_cached):
    cf = compile_cached(forms.mass(2, 2, n_f=2, p=1), "mp")
    k = kernel_cached(cf, "tensor")
    geo = affine_map_batch(harness.random_cells(cf.cell, 5, 2))
    w = harness.random_coefficients(cf, 5, 3)
    base = interpret_batch(k, geo, w)
    for s in (0.0, 2.0, -1.0):
        scaled = [w[0] * s, w[1]]
        A = interpret_batch(k, geo, scaled)
        assert np.array_equal(A, s * base)


def test_zero_dropping_sound(compile_cached):
    cf = compile_cached(forms.poisson(2, 2), "poisson22")
    k_drop = harness.tensor_kernel(cf)
    k_keep = harness.tensor_kernel(cf, drop_zeros=False)
    assert count_flops(k_keep) > count_flops(k_drop)
    geo = affine_map_batch(harness.random_cells(cf.cell, 10, 5))
    A1 = interpret_batch(k_drop, geo, [])
    A2 = interpret_batch(k_keep, geo, [])
    assert np.array_equal(A1, A2)


def test_unit_coefficients_skip_multiplies():
    from formc.kernel import KernelIR, TermSum, AssignA, IxLin, AssignScalar, DetRef

    ts = TermSum(np.array([1.0, -1.0, 2.0, 0.25]), np.array([0, 1, 2, 3], dtype=np.int32))
    k = KernelIR(
        name="t",
        representation="tensor",
        shape=(1,),
        dim=2,
        coef_sizes=(),
        const_scalars=(),
        tables={},
        statements=tuple(
            [AssignScalar(f"G{i}", DetRef()) for i in range(4)]
            + [AssignA(IxLin((), 0), ts)]
        ),
        g_slots=("G0", "G1", "G2", "G3"),
    )
    # 3 adds, and only the two non-unit coefficients multiply
    assert count_flops(k) == 3 + 2
    geo = affine_map([[0, 0], [2, 0], [0, 1]])  # det = 2
    A = interpret(k, geo, [])
    assert np.isclose(A[0], (1 - 1 + 2 + 0.25) * 2.0)


def test_mass_tensor_flop_counts(compile_cached, kernel_cached):
    # reference tensor entries: 9, 24, 88 and 213 non-zeros for q = 1..4
    expected = {1: 9, 2: 24, 3: 88, 4: 213}
    for q, flops in expected.items():
        cf = compile_cached(forms.mass(2, q), f"mass2{q}")
        k = kernel_cached(cf, "tensor")
        assert count_flops(k) == flops


def test_contraction_matches_quadrature(compile_cached, kernel_cached):
    for src, nm in [
        (forms.elasticity(2, 2), "el22x"),
        (forms.weighted_laplacian(3, 2), "wl32"),
        (forms.vector_poisson_div(2, 2, 2), "vp222"),
    ]:
        cf = compile_cached(src, nm)
        kq = kernel_cached(cf, "quadrature")
        kt = kernel_cached(cf, "tensor")
        geo = affine_map_batch(harness.random_cells(cf.cell, 25, 11))
        w = harness.random_coefficients(cf, 25, 12)
        Aq = interpret_batch(kq, geo, w)
        At = interpret_batch(kt, geo, w)
        assert harness.relative_max_difference(Aq, At) < 1e-10
