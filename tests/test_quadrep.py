import hashlib
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formc import forms, harness
from formc.dsl import BudgetExceeded
from formc.kernel import (
    AccumA,
    AssignScalar,
    Loop,
    affine_map_batch,
    count_flops,
    emit_source,
    interpret_batch,
)
from formc.quadrep import _flatten, eliminate_zero_columns
from test_kernel_digests import (
    _EXTRA,
    _LAPLACIAN_GRADIENTS,
    ARGUMENT_FACTORS,
    COEFFICIENT_FACTORS,
    COMPOSED_CELLS,
    DENOMINATORS,
    _gradf2,
    composed_source,
)

FORMS_DIR = Path(__file__).resolve().parent.parent / "forms"


def test_eliminate_zero_columns_examples():
    nz = eliminate_zero_columns(np.array([[-1.0, 1.0, 0.0]]))
    assert nz.survivors == (0, 1)
    assert np.array_equal(nz.table, [[-1.0, 1.0]])
    nz = eliminate_zero_columns(np.array([[0.2, 0.3], [0.1, 0.5]]))
    assert nz.is_identity and nz.survivors == (0, 1)
    # vector component table: the off-component block dies
    from formc.elements import TRIANGLE, FiniteElement, tabulate

    e = FiniteElement("Lagrange", TRIANGLE, 1, 2)
    tab = tabulate(e, [[0.25, 0.25], [0.5, 0.25]])
    nz = eliminate_zero_columns(tab.table(1, ()))
    assert nz.survivors == (3, 4, 5)
    assert nz.table.shape == (2, 3)


def _walk(stmts, kind):
    for s in stmts:
        if isinstance(s, kind):
            yield s
        if isinstance(s, Loop):
            yield from _walk(s.body, kind)


def _innermost_accums(kernel):
    out = []

    def rec(stmts, depth):
        for s in stmts:
            if isinstance(s, Loop):
                rec(s.body, depth + 1)
            elif isinstance(s, AccumA):
                out.append(s)

    rec(kernel.statements, 0)
    return out


def test_weighted_laplacian_kernel_structure(compile_cached, kernel_cached):
    cf = compile_cached(forms.weighted_laplacian(2, 1), "wl21")
    k = kernel_cached(cf, "quadrature")
    # one integration point with weight one half
    assert k.meta["n_points"] == 1
    assert ("W0", 0.5) in k.const_scalars
    # a single shared derivative table plus the coefficient value table
    float_tables = [n for n, t in k.tables.items() if t.dtype.kind == "f"]
    assert sorted(float_tables) == ["Psi_vu", "Psi_w"]
    assert np.array_equal(k.tables["Psi_vu"], [[-1.0, 1.0]])
    # two non-zero-column maps of length two
    nzc = {n: t for n, t in k.tables.items() if n.startswith("nzc")}
    assert sorted(map(tuple, nzc.values())) == [(0, 1), (0, 2)]
    # six hoisted geometry constants ahead of the point loop
    top_assigns = [s for s in k.statements if isinstance(s, AssignScalar)]
    assert [s.name for s in top_assigns] == [f"G{i}" for i in range(6)]
    # three-operation innermost accumulation, inner loops shrunk to two
    from formc.kernel import _expr_ops

    accums = _innermost_accums(k)
    assert len(accums) == 4
    assert all(_expr_ops(s.expr) == 2 for s in accums)
    loops = [s for s in _walk(k.statements, Loop) if s.var in "ij"]
    assert {l.extent for l in loops} == {2}


def test_zero_elimination_shrinks_loops(compile_cached):
    cf = compile_cached(forms.weighted_laplacian(2, 1), "wl21")
    k_on = harness.quadrature_kernel(cf)
    k_off = harness.quadrature_kernel(cf, zero_elimination=False)
    on = {l.extent for l in _walk(k_on.statements, Loop) if l.var in "ij"}
    off = {l.extent for l in _walk(k_off.statements, Loop) if l.var in "ij"}
    assert on == {2} and off == {3}


def test_mass_kernel_plain_structure(compile_cached):
    cf = compile_cached(forms.mass(2, 1), "mass21")
    k = harness.quadrature_kernel(cf)
    # multi-point rule: weights live in a table, no geometry constants
    assert k.meta["n_points"] == 4
    assert k.const_scalars == ()
    assert not any(s.name.startswith("G") and not s.name.startswith("Gip")
                   for s in _walk(k.statements, AssignScalar))
    # no F stage, a single accumulation statement
    accums = _innermost_accums(k)
    assert len(accums) == 1
    assert not [s for s in _walk(k.statements, AssignScalar) if s.name.startswith("F")]


TEST_FORMS = [
    ("mass22", forms.mass(2, 2)),
    ("wl21", forms.weighted_laplacian(2, 1)),
    ("mass_premult", forms.mass(2, 2, n_f=2, p=3)),
    ("elast21", forms.elasticity(2, 1)),
    ("masspre0", forms.mass(2, 1, n_f=1, p=0)),
    ("vpdiv", forms.vector_poisson_div(1, 1, 1)),
]


@pytest.mark.parametrize("name,source", TEST_FORMS)
def test_optimisation_soundness_and_monotonicity(name, source, compile_cached):
    cf = compile_cached(source, name)
    variants = {
        "full": harness.quadrature_kernel(cf),
        "no-zeros": harness.quadrature_kernel(cf, zero_elimination=False),
        "no-hoist": harness.quadrature_kernel(cf, hoisting=False),
        "none": harness.quadrature_kernel(cf, zero_elimination=False, hoisting=False),
    }
    geo = affine_map_batch(harness.random_cells(cf.cell, 20, 31))
    w = harness.random_coefficients(cf, 20, 32)
    base = interpret_batch(variants["full"], geo, w)
    flops_full = count_flops(variants["full"])
    for label, k in variants.items():
        if label == "full":
            continue
        A = interpret_batch(k, geo, w)
        assert harness.relative_max_difference(A, base) < 1e-13
        assert count_flops(k) >= flops_full


# Integrands whose every group reads a table that zero elimination empties.
VANISHING_FORMS = {
    "laplacian_of_p1": ("Lagrange", 1, "div(grad(v))*u"),
    "gradients_of_dg0": ("Discontinuous Lagrange", 0, "dot(grad(v), grad(u))"),
}


@pytest.mark.parametrize("name", sorted(VANISHING_FORMS))
def test_vanishing_groups_declare_no_empty_table(name):
    family, degree, body = VANISHING_FORMS[name]
    cf = harness.compile_source(
        f'element = FiniteElement("{family}", "triangle", {degree})\n'
        f"v = TestFunction(element)\nu = TrialFunction(element)\na = {body}*dx\n"
    )
    geo = affine_map_batch(harness.random_cells(cf.cell, 5, 3))
    kernels = [harness.tensor_kernel(cf)] + [
        harness.quadrature_kernel(cf, zero_elimination=z, hoisting=h)
        for z, h in product((True, False), repeat=2)
    ]
    for k in kernels:
        assert all(0 not in table.shape for table in k.tables.values()), sorted(k.tables)
        assert not interpret_batch(k, geo, []).any()
    assert harness.quadrature_kernel(cf).tables == {}


def test_division_kernel_divides(compile_cached):
    cf = compile_cached((FORMS_DIR / "pressure_equation_2d.form").read_text(), "pressure")
    k = harness.quadrature_kernel(cf)
    text_exprs = []
    from formc.kernel import BinOp

    def rec(e):
        if isinstance(e, BinOp):
            text_exprs.append(e.op)
            rec(e.a)
            rec(e.b)

    for s in _walk(k.statements, AssignScalar):
        rec(s.expr)
    assert "/" in text_exprs


def test_table_dedup_shares_test_and_trial(compile_cached):
    # different degrees for test/trial spaces would split the table; equal
    # spaces share it, and coefficient tables of the same element join in
    cf = compile_cached(forms.weighted_laplacian(2, 2), "wl22")
    k = harness.quadrature_kernel(cf)
    names = [n for n, t in k.tables.items() if t.dtype.kind == "f" and n != f"W{k.meta['n_points']}"]
    for n in names:
        assert n.startswith("Psi_")
    # the value table is used by the coefficient; derivative tables by v and u
    assert any("w" in n for n in names)
    assert any("vu" in n for n in names)


def _flatten_oracle(ms):
    """``_flatten`` as one walk of every factor per assignment of all bound indices.

    Each walk also asserts that the product of the monomial's factor
    assignments visits the same assignments in the same order.
    """
    d = ms.form.cell.dim
    groups: dict = {}
    for m in ms.monomials:
        by_factor = product(*[f.assignments(d) for f in m.factors])
        for sigma, combo in zip(product(range(d), repeat=m.n_bound), by_factor, strict=True):
            test = trial = None
            coefs = []
            walked = []
            k = 0  # bound index k takes reference direction sigma[k]
            for f in m.factors:
                refs = sigma[k : k + len(f.derivs)]
                walked.append((tuple(sorted(refs)), tuple(zip(refs, f.derivs))))
                sig = (f.role, f.coef, f.component, walked[-1][0])
                k += len(f.derivs)
                if f.role == "test":
                    test = sig
                elif f.role == "trial":
                    trial = sig
                else:
                    coefs.append(sig)
            denoms = tuple((f.role, f.coef, f.component, f.derivs) for f in m.denominators)
            assert combo == tuple(walked)
            jprod = tuple(sorted(zip(sigma, m.directions)))
            key2 = (tuple(sorted(coefs)), denoms)
            sub = groups.setdefault((test, trial), {}).setdefault(key2, {})
            sub[jprod] = sub.get(jprod, 0.0) + m.constant
    for key1 in list(groups):
        for key2 in list(groups[key1]):
            groups[key1][key2] = {j: c for j, c in groups[key1][key2].items() if c != 0.0}
            if not groups[key1][key2]:
                del groups[key1][key2]
        if not groups[key1]:
            del groups[key1]
    return groups


def _layout(groups) -> list:
    """Keys in insertion order at every level, constants as exact bits."""
    return [
        (key1, [(key2, [(j, c.hex()) for j, c in sub.items()]) for key2, sub in by_key2.items()])
        for key1, by_key2 in groups.items()
    ]


def _gradient_power(k: int) -> str:
    """P1 triangle form with dot(grad(f), grad(f)) written out k times."""
    return (
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = TestFunction(element)\nu = TrialFunction(element)\nf = Function(element)\n"
        "a = " + "*".join(["dot(grad(f), grad(f))"] * k) + "*v*u*dx\n"
    )


FLATTEN_FORMS = {
    **{p.stem: p.read_text() for p in sorted(FORMS_DIR.glob("*.form"))},
    **_EXTRA,  # linear forms (no trial) and quotients
    "laplacian_gradients": _LAPLACIAN_GRADIENTS,  # second derivatives
    "gradf2_2d": _gradf2("triangle"),
    "gradf2_3d": _gradf2("tetrahedron"),
    "vector_poisson_div_3d_q1_p1_nf3": forms.vector_poisson_div(1, 3, 1, 3),
    "gradf_squared_4": _gradient_power(4),  # many equal coefficient signatures in one key2
    "div_minus_transposed_gradient": (  # groups that cancel exactly
        'element = VectorElement("Lagrange", "triangle", 1)\n'
        "v = TestFunction(element)\nu = TrialFunction(element)\n"
        "a = (div(v)*div(u) - dot(grad(v), transp(grad(u))))*dx\n"
    ),
}


@pytest.mark.parametrize("name", FLATTEN_FORMS)
def test_flatten_matches_per_assignment_walk(name, compile_cached):
    ms = compile_cached(FLATTEN_FORMS[name], name).monomials
    assert _layout(_flatten(ms)) == _layout(_flatten_oracle(ms))


def test_many_coefficient_factors_build_the_same_kernel():
    # 589,824 concrete terms from 16 one-derivative coefficient factors; the
    # digest is that of the kernel built by summing tuple-keyed terms
    cf = harness.compile_source(_gradient_power(8))
    k = harness.quadrature_kernel(cf)
    assert count_flops(k) == 11_493
    digest = hashlib.sha256(emit_source(k).encode()).hexdigest()
    assert digest == "e053416c5560d42b2c68eaa645b21c1244093ffe0374d1dc30a15c7c05b27be0"


def test_flatten_drops_the_groups_that_cancel(compile_cached):
    # the terms of div(v)*div(u) and dot(grad(v), transp(grad(u))) that take
    # both derivatives along one reference direction cancel: four groups
    name = "div_minus_transposed_gradient"
    cf = compile_cached(FLATTEN_FORMS[name], name)
    groups = _flatten(cf.monomials)
    cancelled = {
        (("test", -1, c, (r,)), ("trial", -1, 1 - c, (r,))) for c in (0, 1) for r in (0, 1)
    }
    assert len(groups) == 4 and cancelled.isdisjoint(groups)
    assert harness.cross_check(cf, n_cells=5).ok


_dims = st.sampled_from([2, 3])
_q = st.integers(1, 3)
_n_f = st.integers(0, 2)
_p = st.integers(0, 2)
_BUILT_FORMS = st.one_of(
    st.builds(forms.mass, _dims, _q, _n_f, _p),
    st.builds(forms.weighted_laplacian, _dims, _q),
    st.builds(forms.poisson, _dims, _q),
    st.builds(forms.elasticity, _dims, _q, _n_f, _p),
    st.builds(forms.vector_poisson_div, _q, _n_f, st.integers(1, 2), _dims),
)

@st.composite
def _composed_forms(draw):
    return composed_source(
        draw(st.sampled_from(COMPOSED_CELLS)),
        draw(st.lists(st.sampled_from(COEFFICIENT_FACTORS), max_size=2)),
        draw(st.sampled_from(ARGUMENT_FACTORS)),
        draw(st.sampled_from(DENOMINATORS)),
    )


@settings(max_examples=60)
@given(st.one_of(_BUILT_FORMS, _composed_forms()))
def test_flatten_matches_per_assignment_walk_on_generated_forms(source):
    ms = harness.compile_source(source).monomials
    assert _layout(_flatten(ms)) == _layout(_flatten_oracle(ms))


@settings(max_examples=100)
@given(st.one_of(_BUILT_FORMS, _composed_forms()))
def test_generated_forms_pass_the_cross_check_or_meet_a_bound(source):
    cf = harness.compile_source(source)
    try:
        check = harness.cross_check(cf, n_cells=3)
    except BudgetExceeded:
        return
    assert check.ok, check
