import numpy as np
import pytest

from formc import forms, harness
from formc.kernel import (
    AccumA,
    AssignScalar,
    BinOp,
    DegenerateCell,
    DivisionByZero,
    IxLin,
    IxVar,
    KernelIR,
    Loop,
    NegativeOrientation,
    ScalarRef,
    affine_map,
    affine_map_batch,
    count_flops,
    emit_source,
    interpret,
    interpret_batch,
    kernel_to_json,
)

REF_TRI = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def test_affine_map_examples():
    geo = affine_map(REF_TRI)
    assert np.array_equal(geo.jinv, [np.eye(2)]) and np.array_equal(geo.det, [1.0])
    geo = affine_map([[0, 0], [2, 0], [0, 2]])
    assert np.allclose(geo.det, [4.0])
    assert np.allclose(geo.jinv, [np.diag([0.5, 0.5])])
    with pytest.raises(DegenerateCell):
        affine_map([[0, 0], [1, 1], [2, 2]])
    with pytest.raises(NegativeOrientation):
        affine_map([[0, 0], [0, 1], [1, 0]])
    with pytest.raises(ValueError, match="expected 3 vertices"):
        affine_map([[0, 0], [1, 0]])
    with pytest.raises(ValueError, match="expected 3 vertices"):
        affine_map([0, 0])


def test_affine_map_batch_inverts_jacobians():
    verts = harness.random_cells(harness.reference_cell("tetrahedron"), 5, 9)
    geo = affine_map_batch(verts)
    J = np.swapaxes(verts[:, 1:] - verts[:, :1], 1, 2)
    assert np.abs(J @ geo.jinv - np.eye(3)).max() < 1e-12


def _toy_kernel(accumulate: bool):
    # for i in 0..4: A[i] += a*b + c*d  (or x = a*b + c*d);  a,b,c,d are scalar constants
    expr = BinOp(
        "+",
        BinOp("*", ScalarRef("a"), ScalarRef("b")),
        BinOp("*", ScalarRef("c"), ScalarRef("d")),
    )
    stmt = AccumA(IxLin(((1, IxVar("i")),)), expr) if accumulate else AssignScalar("x", expr)
    stmts = (Loop("i", 5, (stmt,)),)
    return KernelIR(
        name="toy",
        representation="quadrature",
        shape=(5,),
        dim=2,
        coef_sizes=(),
        const_scalars=(("a", 2.0), ("b", 3.0), ("c", 4.0), ("d", 5.0)),
        tables={},
        statements=stmts,
    )


def test_count_flops_examples():
    # a*b + c*d is 3 ops; times the loop extent
    assert count_flops(_toy_kernel(accumulate=False)) == 15
    # a compound += counts one more per trip
    assert count_flops(_toy_kernel(accumulate=True)) == 20
    empty = KernelIR("empty", "tensor", (2,), 2, (), (), {}, ())
    assert count_flops(empty) == 0


def test_interpret_accumulates_and_counts():
    toy = _toy_kernel(accumulate=True)
    geo = affine_map(REF_TRI)
    A, ops = interpret(toy, geo, [], count_ops=True)
    assert np.allclose(A, 26.0)
    assert ops == count_flops(toy) == 20


def test_mass_kernel_exact(kernel_cached, compile_cached):
    cf = compile_cached(forms.mass(2, 1), "mass21")
    exact = np.full((3, 3), 1 / 24) + np.eye(3) / 24
    geo = affine_map(REF_TRI)
    for rep in ("quadrature", "tensor"):
        A = interpret(kernel_cached(cf, rep), geo, [])
        assert np.abs(A.reshape(3, 3) - exact).max() < 1e-14


def test_weighted_laplacian_unit_coefficient(kernel_cached, compile_cached):
    cf = compile_cached(forms.weighted_laplacian(2, 1), "wl21")
    geo = affine_map(REF_TRI)
    expect = np.array([[1, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    for rep in ("quadrature", "tensor"):
        A = interpret(kernel_cached(cf, rep), geo, [np.ones(3)])
        assert np.abs(A.reshape(3, 3) - expect).max() < 1e-14


def test_zero_coefficients_zero_tensor(kernel_cached, compile_cached):
    cf = compile_cached(forms.mass(2, 2, n_f=1, p=2), "masspre")
    geo = affine_map([[0.1, 0.2], [1.3, 0.4], [0.2, 1.9]])
    for rep in ("quadrature", "tensor"):
        A = interpret(kernel_cached(cf, rep), geo, [np.zeros(6)])
        assert np.all(A == 0.0)


def test_interpret_deterministic(kernel_cached, compile_cached):
    cf = compile_cached(forms.elasticity(2, 2), "el22")
    k = kernel_cached(cf, "quadrature")
    geo = affine_map_batch(harness.random_cells(cf.cell, 7, 21))
    A1 = interpret_batch(k, geo, [])
    A2 = interpret_batch(k, geo, [])
    assert np.array_equal(A1, A2)


def test_static_dynamic_flops_agree(kernel_cached, compile_cached):
    sources = [
        (forms.mass(2, 2), "m"),
        (forms.weighted_laplacian(2, 1), "w"),
        (forms.mass(2, 2, n_f=2, p=3), "mass_premult_k"),
    ]
    geo = affine_map(REF_TRI)
    for src, nm in sources:
        cf = compile_cached(src, nm)
        w = [np.ones(e.space_dim) for _, e in cf.typed.coefficients]
        for rep in ("quadrature", "tensor"):
            k = kernel_cached(cf, rep)
            _, ops = interpret(k, geo, w, count_ops=True)
            assert ops == count_flops(k)


def test_division_by_zero_reported(compile_cached):
    cf = compile_cached(forms.pressure_equation(), "pressure")
    k = harness.quadrature_kernel(cf)
    geo = affine_map(REF_TRI)
    w = [np.full(e.space_dim, 1.0) for _, e in cf.typed.coefficients]
    w[2] = np.zeros(3)  # f2 sits in a denominator
    with pytest.raises(DivisionByZero, match="F2 is zero"):
        interpret(k, geo, w)


def test_emit_deterministic(kernel_cached, compile_cached):
    cf = compile_cached(forms.weighted_laplacian(2, 1), "wl21")
    k = kernel_cached(cf, "quadrature")
    assert emit_source(k) == emit_source(k)
    k2 = harness.quadrature_kernel(cf)
    assert emit_source(k) == emit_source(k2)
    assert kernel_to_json(k) == kernel_to_json(k2)


def test_coefficient_shape_validation(kernel_cached, compile_cached):
    cf = compile_cached(forms.weighted_laplacian(2, 1), "wl21")
    k = kernel_cached(cf, "quadrature")
    geo = affine_map(REF_TRI)
    with pytest.raises(ValueError):
        interpret(k, geo, [])
    with pytest.raises(ValueError):
        interpret(k, geo, [np.ones(4)])


def test_batch_coefficients_match_the_cells(kernel_cached, compile_cached):
    cf = compile_cached(forms.weighted_laplacian(2, 1), "wl21")
    k = kernel_cached(cf, "quadrature")
    geo = affine_map_batch(harness.random_cells(cf.cell, 3, 5))
    for n_cells in (1, 5):
        with pytest.raises(ValueError, match=r"expects shape \(3, 3\)"):
            interpret_batch(k, geo, [np.ones((n_cells, 3))])
    with pytest.raises(ValueError, match="one cell"):
        interpret(k, geo, [np.ones(3)])
