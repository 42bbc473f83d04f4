from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formc import forms, harness
from formc.kernel import (
    AccumA,
    AccumScalar,
    AssignScalar,
    BatchGeometry,
    BinOp,
    CoefRef,
    DegenerateCell,
    DetRef,
    DivisionByZero,
    IxLin,
    IxMap,
    IxVar,
    JinvRef,
    KernelIR,
    Lit,
    Loop,
    NegativeOrientation,
    ScalarRef,
    TableRef,
    _table_cstr,
    affine_map,
    affine_map_batch,
    chain,
    count_flops,
    emit_source,
    interpret,
    interpret_batch,
    kernel_to_json,
)
from reference_walk import walk

REF_TRI = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
FORMS_DIR = Path(__file__).resolve().parent.parent / "forms"
PRESSURE_EQUATION = (FORMS_DIR / "pressure_equation_2d.form").read_text()


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
    A = interpret(toy, geo, [])
    assert np.allclose(A, 26.0)
    ref, ops = walk(toy, geo, [])
    assert np.array_equal(ref[0], A)
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
            assert walk(k, geo, w)[1] == count_flops(k)


def test_division_by_zero_reported(compile_cached):
    cf = compile_cached(PRESSURE_EQUATION, "pressure")
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


def _table_cstr_per_value(arr: np.ndarray) -> str:
    """The table initialiser written one value at a time."""
    if arr.ndim == 1:
        if arr.dtype.kind in "iu":
            return "{" + ", ".join(str(int(v)) for v in arr) + "}"
        return "{" + ", ".join(repr(float(v)) for v in arr) + "}"
    return "{" + ", ".join(_table_cstr_per_value(row) for row in arr) + "}"


TABLES = {
    "float": np.array([0.5, -1.0, 1e-300, -1e17, 1e17, 0.1, 1.0 / 3.0, -0.0]),
    "int": np.array([0, 7, 4294967295], dtype=np.uint32),
    "negative_int": np.array([-3, 0, 12], dtype=np.int64),
    "empty": np.zeros(0),
    "empty_rows": np.zeros((2, 0)),
    "no_rows": np.zeros((0, 3)),
    "2d": np.array([[-0.25, 1e-300], [2.0, 1e17]]),
    "3d": np.arange(24, dtype=float).reshape(2, 3, 4) / 7.0 - 1.0,
}


@pytest.mark.parametrize("name", TABLES)
def test_table_initialiser_matches_the_per_value_text(name):
    arr = TABLES[name]
    assert _table_cstr(arr) == _table_cstr_per_value(arr)


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


def test_geometry_must_match_the_kernel(kernel_cached, compile_cached):
    k2 = kernel_cached(compile_cached(forms.mass(2, 1), "mass21"), "quadrature")
    k3 = kernel_cached(compile_cached(forms.mass(3, 1), "mass31"), "tensor")
    geo2 = affine_map_batch(harness.random_cells(harness.reference_cell("triangle"), 2, 3))
    geo3 = affine_map_batch(harness.random_cells(harness.reference_cell("tetrahedron"), 2, 3))
    for k, geo in ((k2, geo3), (k3, geo2), (k2, BatchGeometry(geo2.jinv, geo2.det[:1]))):
        with pytest.raises(ValueError, match=r"expected Jinv of shape \(B, \d, \d\)"):
            interpret_batch(k, geo, [])


def test_empty_batch(kernel_cached, compile_cached):
    cf = compile_cached(forms.mass(2, 2, n_f=1, p=2), "masspre")
    geo = affine_map_batch(np.zeros((0, 3, 2)))
    for rep in ("quadrature", "tensor"):
        k = kernel_cached(cf, rep)
        A = interpret_batch(k, geo, [np.zeros((0, 6))])
        assert A.shape == (0, k.n_entries)


# Differential test of the accumulation order: the interpreter against the
# reference walk, on kernels whose entries collect colliding contributions of
# magnitudes where any other summation order changes bits.

_MAGNITUDES = (1e16, 1.0, -1e16, 0.5, -3.0)
_POSITIVE = (0.5, 1.0, 2.0)


@st.composite
def _order_cases(draw):
    """A point loop (optionally with F reductions, a divisor and a Gip) around
    perfect and non-perfect nests over i, j and k, with colliding index maps.

    With ``carried`` F0 is set before the point loop, so each point's
    reduction continues the previous one's and the loop cannot run its
    scalars for all points at once.
    """

    def array(shape, values=_MAGNITUDES):
        n = int(np.prod(shape))
        drawn = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
        return np.array(drawn).reshape(shape)

    n_points = draw(st.integers(1, 3))
    tables = {"W": array((n_points,)), "T": array((n_points, 4))}
    tables["P"] = array((n_points, 3), _POSITIVE)
    for v in "ijk":  # index maps onto 0..2: targets collide
        tables[f"M{v}"] = array((4,), (0, 1, 2)).astype(np.uint32)
    scalars = draw(st.booleans())
    ip = IxVar("ip")

    def accum(loop_vars):
        factors = [TableRef("T", (ip, IxVar(v))) for v in loop_vars]
        factors.append(CoefRef(0, IxMap(f"M{loop_vars[-1]}", IxVar(loop_vars[-1]))))
        pool = [DetRef(), Lit(draw(st.sampled_from(_MAGNITUDES)))]
        factors.append(draw(st.sampled_from(pool + ([ScalarRef("Gip")] if scalars else []))))
        expr = chain("*", factors)
        if scalars and draw(st.booleans()):
            expr = BinOp("/", expr, ScalarRef("F1"))
        terms = tuple((1, IxMap(f"M{v}", IxVar(v))) for v in loop_vars)
        return AccumA(IxLin(terms, draw(st.integers(0, 2))), expr)

    carried = scalars and draw(st.booleans())  # F0 sums over this and the earlier points
    body = []
    if scalars:
        for f, (table, coef) in enumerate((("T", 0), ("P", 1))):
            if not (f == 0 and carried):
                body.append(AssignScalar(f"F{f}", Lit(0.0)))
            term = BinOp("*", TableRef(table, (ip, IxVar("r"))), CoefRef(coef, IxVar("r")))
            body.append(Loop("r", 3, (AccumScalar(f"F{f}", term),)))
        gip = chain("*", [ScalarRef("G"), TableRef("W", (ip,)), ScalarRef("F0")])
        body.append(AssignScalar("Gip", BinOp("/", gip, ScalarRef("F1"))))
    for _ in range(draw(st.integers(1, 3))):
        loop_vars = "ij"[: draw(st.integers(1, 2))]
        stmts = [accum(loop_vars) for _ in range(draw(st.integers(1, 3)))]
        if draw(st.booleans()):  # an inner loop beside the statements: not a perfect nest
            inner = Loop("k", draw(st.integers(1, 4)), (accum(loop_vars + "k"),))
            stmts.insert(draw(st.integers(0, len(stmts))), inner)
        nest = tuple(stmts)
        for v in reversed(loop_vars):
            nest = (Loop(v, draw(st.integers(1, 4)), nest),)
        body.extend(nest)
    statements = (
        AssignScalar("G", BinOp("*", JinvRef(0, 1), DetRef())),
        *([AssignScalar("F0", Lit(0.0))] if carried else []),
        Loop("ip", n_points, tuple(body)),
    )
    k = KernelIR("order", "quadrature", (9,), 2, (3, 3), (), tables, statements)
    n_cells = draw(st.integers(0, 4))  # often equal to a loop extent
    geo = BatchGeometry(array((n_cells, 2, 2)), array((n_cells,), _POSITIVE))
    return k, geo, [array((n_cells, 3)), array((n_cells, 3), _POSITIVE)]


@settings(max_examples=150)
@given(_order_cases())
def test_interpreter_keeps_each_entrys_summation_order(case):
    k, geo, w = case
    A = interpret_batch(k, geo, w)
    assert A.shape == (len(geo.det), 9)
    ref, ops = walk(k, geo, w)
    assert A.tobytes() == ref.tobytes()
    if len(geo.det):  # a batch of no cells performs no operation
        assert ops == count_flops(k)


def test_division_flops_match_the_walk(compile_cached, kernel_cached):
    # criterion 7 walks no kernel that divides: check '/' counts here
    from test_kernel_digests import _EXTRA

    sources = {"pressure_equation_2d": PRESSURE_EQUATION}
    sources.update({n: _EXTRA[n] for n in ("linear_quotient_2d", "quotient_laplacian_2d")})
    geo = affine_map([[0.2, 0.1], [1.4, 0.3], [0.4, 1.2]])
    for name, src in sources.items():
        cf = compile_cached(src, name)
        k = kernel_cached(cf, "quadrature")
        w = [np.full(e.space_dim, 1.1) for _, e in cf.typed.coefficients]
        assert walk(k, geo, w)[1] == count_flops(k), name
