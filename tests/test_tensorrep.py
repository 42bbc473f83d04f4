import dataclasses
import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formc import forms, harness
from formc.elements import tabulate
from formc.kernel import (
    AssignScalar,
    CoefRef,
    Contract,
    DetRef,
    GeometryTensor,
    IxConst,
    JinvRef,
    KernelIR,
    Lit,
    ScalarRef,
    _stmts_json,
    affine_map,
    affine_map_batch,
    chain,
    count_flops,
    emit_source,
    interpret,
    interpret_batch,
    kernel_to_json,
    source_bytes,
)
from formc.lowering import factor_degree
from formc.quadrature import simplex_rule
from formc.tensorrep import (
    DEGREE_MARGIN,
    SNAP_TOLERANCE,
    UnsupportedDivision,
    _as_group,
    build_tensor_kernel,
    geometry_tensor_spec,
    reference_tensor,
)
from reference_walk import walk
from test_cli import _HEAVY_P3
from test_quadrep import _BUILT_FORMS, _composed_forms
from test_reference_digests import _PAIRS

REF_TRI = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
FORMS_DIR = Path(__file__).resolve().parent.parent / "forms"


def test_mass_reference_tensor(compile_cached):
    cf = compile_cached(forms.mass(2, 1), "mass21")
    rt = reference_tensor(cf.monomials.monomials, cf.typed)
    exact = np.full((3, 3), 1 / 24) + np.eye(3) / 24
    assert rt.values.shape == (3, 3)
    assert np.abs(rt.values - exact).max() < 1e-15
    spec = geometry_tensor_spec(cf.monomials.monomials, cf.typed)
    assert len(spec) == 1
    reads, terms = spec[0]
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
    assert len(spec) == 3 * 2 * 2
    reads, terms = spec[0]
    assert reads == ((0, 0),)  # w[0][0]
    assert len(terms) == 2  # the two physical directions summed in G
    assert all(len(jprod) == 2 for _, jprod in terms)


def test_premultiplied_geometry_tensor(compile_cached):
    cf = compile_cached(forms.mass(2, 2, n_f=2, p=3), "mass_premult")
    spec = geometry_tensor_spec(cf.monomials.monomials, cf.typed)
    assert len(spec) == 10 * 10
    reads, terms = spec[0]
    assert [c for c, _ in reads] == [0, 1]
    assert terms == ((1.0, ()),)


def test_unsupported_division(compile_cached):
    cf = compile_cached((FORMS_DIR / "pressure_equation_2d.form").read_text(), "pressure")
    with pytest.raises(UnsupportedDivision):
        build_tensor_kernel(cf.monomials)
    divided = [m for m in cf.monomials.monomials if m.denominators]
    with pytest.raises(UnsupportedDivision):
        reference_tensor(divided[0], cf.typed)


def test_as_group_refusals(compile_cached):
    with pytest.raises(ValueError, match="empty monomial group"):
        _as_group([])
    # the two monomials of a weighted Laplacian differ only in their physical
    # directions: one basis structure, one group
    laplacian = compile_cached(forms.weighted_laplacian(2, 1), "wl21").monomials.monomials
    assert len(laplacian) == 2 and _as_group(laplacian) == laplacian
    # v*u and dot(grad(v), grad(u)) differ in their derivative counts
    source = (
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = TestFunction(element)\nu = TrialFunction(element)\n"
        "a = v*u + dot(grad(v), grad(u))*dx\n"
    )
    mixed = compile_cached(source, "mixed").monomials.monomials
    with pytest.raises(ValueError, match="share their basis structure"):
        _as_group(mixed)


def test_term_budget():
    cf = harness.compile_source(forms.mass(2, 2), "m")
    with pytest.raises(MemoryError):
        build_tensor_kernel(cf.monomials, term_budget=10)
    # Six P3 coefficient factors: 10**2 * 10**6 terms.  Without a budget
    # argument the default is checked before anything is built.
    cf = harness.compile_source(_HEAVY_P3, "heavy_p3")
    with pytest.raises(MemoryError, match="100000000 terms"):
        build_tensor_kernel(cf.monomials)


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


def _contract_kernel(indptr, coeffs, slots):
    names = ("G0", "G1", "G2", "G3")
    contract = Contract(
        len(names),
        np.array(indptr),
        np.array(coeffs, dtype=float),
        np.array(slots, dtype=np.int32),
    )
    return KernelIR(
        name="t",
        representation="tensor",
        shape=(len(indptr) - 1,),
        dim=2,
        coef_sizes=(),
        const_scalars=(),
        tables={},
        statements=tuple(AssignScalar(n, DetRef()) for n in names) + (contract,),
    )


def test_unit_coefficients_skip_multiplies():
    geo = affine_map([[0, 0], [2, 0], [0, 1]])  # det = 2, so every G is 2
    # A[0] = G0 - G1 + 2.0*G2 + 0.25*G3: 3 adds, and only the two
    # non-unit coefficients multiply
    k = _contract_kernel([0, 4], [1.0, -1.0, 2.0, 0.25], [0, 1, 2, 3])
    assert count_flops(k) == 3 + 2
    A = interpret(k, geo, [])
    assert np.isclose(A[0], (1 - 1 + 2 + 0.25) * 2.0)
    assert "  A[0] = G0 - G1 + 2.0*G2 + 0.25*G3;\n" in emit_source(k)

    # A[1] has no terms: no flops, a literal zero, value 0.  A[2] holds an
    # exact-zero coefficient, which a built kernel never does: it is emitted,
    # counted (1 add, 1 multiply) and interpreted like any other term.
    k = _contract_kernel([0, 4, 4, 6], [1.0, -1.0, 2.0, 0.25, 0.0, -1.0], [0, 1, 2, 3, 2, 3])
    assert count_flops(k) == 5 + 0 + 2
    A = interpret(k, geo, [])
    assert walk(k, geo, [])[1] == count_flops(k)
    assert A[1] == 0.0 and A[2] == -2.0
    text = emit_source(k)
    assert "  A[1] = 0.0;\n" in text and "  A[2] = 0.0*G2 - G3;\n" in text
    assert json.loads(kernel_to_json(k))["statements"][-2:] == [
        {"assignA": {"lin": [], "offset": 1}, "expr": {"lit": 0.0}},
        {
            "assignA": {"lin": [], "offset": 2},
            "expr": {"termsum": {"coeffs": [0.0, -1.0], "slots": [2, 3]}},
        },
    ]


_RNG = np.random.default_rng(3)


@pytest.mark.parametrize(
    "indptr, coeffs, slots",
    [
        ([0], [], []),  # no entries
        ([0, 0], [], []),  # one empty entry
        # negative leading coefficients, an empty entry, |c| == 1 in lead and tail
        ([0, 2, 2, 5], [-0.5, 1.0, -1.0, 1.0, -3.25], [3, 0, 1, 2, 0]),
        # exact-zero coefficients, one of them leading
        ([0, 4, 4, 6, 8], [1.0, -1.0, 2.0, 0.25, 0.0, -1.0, 0.0, 0.0], [0, 1, 2, 3, 2, 3, 0, 1]),
        # 1- to 3-digit entry indices, repeated magnitudes of both signs
        (
            np.arange(0, 241, 2),
            _RNG.choice([1.0, -1.0, 1 / 3, -1 / 3, 2.5e-17, -7.0, 0.0], size=240),
            _RNG.integers(0, 4, size=240),
        ),
    ],
)
def test_source_bytes_matches_emitted_length(indptr, coeffs, slots):
    k = _contract_kernel(indptr, coeffs, slots)
    assert source_bytes(k) == len(emit_source(k).encode())
    # the unit-coefficient rule of count_flops against the operations walked
    assert count_flops(k) == walk(k, affine_map(REF_TRI), [])[1]


def test_source_bytes_without_contraction(compile_cached, kernel_cached):
    k = kernel_cached(compile_cached(forms.weighted_laplacian(2, 1), "wl21"), "quadrature")
    assert not any(isinstance(s, Contract) for s in k.statements)
    assert source_bytes(k) == len(emit_source(k).encode())


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


# Oracle for the geometry tensor: each GeometryTensor row expanded back into
# one AssignScalar chain det*w[c][d]*...*factor must leave every output the
# same, and the rows must be those of geometry_tensor_spec.

ORACLE_SOURCES = {c.label(): c.source() for c in harness.quick_trend_cells()}
ORACLE_SOURCES.update({p.stem: p.read_text() for p in sorted(FORMS_DIR.glob("*.form"))})
# Kernels over either size compare their emitted text without the Contract,
# which both kernels share unchanged (68 MB of text for mass-2d-p3-q4-nf4),
# and their statement records as compact JSON: kernel_to_json indents, and
# json.dumps indents with its pure-Python encoder, about 5 s per 10^4 rows.
ORACLE_FULL_TERMS = 50_000
ORACLE_FULL_ROWS = 2_000


def _expand_geometry(k: KernelIR) -> KernelIR:
    """The kernel with each geometry block written as one AssignScalar per row."""
    stmts = []
    for s in k.statements:
        if not isinstance(s, GeometryTensor):
            stmts.append(s)
            continue
        for a, dofs in enumerate(s.reads.tolist()):
            reads = [DetRef()] + [CoefRef(coef, IxConst(d)) for coef, d in zip(s.coefs, dofs)]
            for t, factor in enumerate(s.factors):
                parts = reads if factor is None else reads + [factor]
                slot = s.first + a * len(s.factors) + t
                stmts.append(AssignScalar(f"G{slot}", chain("*", parts)))
    return dataclasses.replace(k, statements=tuple(stmts))


def _jinv_sum(terms):
    """The hoisted K expression of a row's terms."""
    summands = []
    for c, jprod in terms:
        factors = [JinvRef(a, b) for a, b in jprod]
        if c != 1.0 or not factors:
            factors.append(Lit(c))
        summands.append(chain("*", factors))
    return chain("+", summands)


def _check_rows_against_spec(k: KernelIR, cf) -> None:
    groups: dict = {}
    for m in cf.monomials.monomials:
        groups.setdefault(m.signature(), []).append(m)
    blocks = [s for s in k.statements if isinstance(s, GeometryTensor)]
    assert len(blocks) == len(groups)
    k_exprs = {s.name: s.expr for s in k.statements if isinstance(s, AssignScalar)}
    first = 0
    for block, group in zip(blocks, groups.values()):
        spec = geometry_tensor_spec(group, cf.typed)
        assert block.first == first and block.n_rows == len(spec)
        first += len(spec)
        dofs, n_factors = block.reads.tolist(), len(block.factors)
        for r, (reads, terms) in enumerate(spec):
            a, t = divmod(r, n_factors)
            assert tuple(zip(block.coefs, dofs[a])) == reads, r
            factor = block.factors[t]
            if all(not jprod for _, jprod in terms):
                total = sum(c for c, _ in terms)
                assert factor == (None if total == 1.0 else Lit(total)), r
            else:
                assert k_exprs[factor.name] == _jinv_sum(terms), r


def _without_contract(k: KernelIR) -> KernelIR:
    stmts = tuple(s for s in k.statements if not isinstance(s, Contract))
    return dataclasses.replace(k, statements=stmts)


@pytest.mark.parametrize("name", list(ORACLE_SOURCES))
def test_geometry_tensor_matches_expanded_chains(name, compile_cached):
    cf = compile_cached(ORACLE_SOURCES[name], name)
    if cf.monomials.has_division:
        with pytest.raises(UnsupportedDivision):
            harness.tensor_kernel(cf)
        return
    k = harness.tensor_kernel(cf)
    old = _expand_geometry(k)
    assert any(isinstance(s, GeometryTensor) for s in k.statements)
    _check_rows_against_spec(k, cf)
    assert count_flops(k) == count_flops(old)
    assert source_bytes(k) == source_bytes(old)
    geo = affine_map_batch(harness.random_cells(cf.cell, 3, 5))
    w = harness.random_coefficients(cf, 3, 6)
    assert interpret_batch(k, geo, w).tobytes() == interpret_batch(old, geo, w).tobytes()
    if k.meta["n_terms"] <= ORACLE_FULL_TERMS and len(old.statements) <= ORACLE_FULL_ROWS:
        assert emit_source(k) == emit_source(old)
        assert kernel_to_json(k) == kernel_to_json(old)
    else:
        k, old = _without_contract(k), _without_contract(old)
        assert emit_source(k) == emit_source(old)
        records = [json.dumps(_stmts_json(x.statements), sort_keys=True) for x in (k, old)]
        assert records[0] == records[1]


def test_geometry_tensor_is_one_statement(compile_cached):
    cf = compile_cached(harness.TrendCell("mass", 2, 3, 1, 4).source(), "mass-2d-p3-q1-nf4")
    k = harness.tensor_kernel(cf)
    (block,) = [s for s in k.statements if isinstance(s, GeometryTensor)]
    assert block.n_rows == 10_000 and block.reads.shape == (10_000, 4)
    # a handful of statements around the 10^4 geometry rows, not one per row
    assert len(k.statements) <= 5


def _hand_built_blocks() -> KernelIR:
    """Two blocks: G0 = det*K0 without reads, then G1 ... G12 from slot one on.

    The second block has 4 read rows times 3 closing factors (none, a
    literal and a hoisted K), so its slots cross from one digit to two.
    """
    k0 = AssignScalar("K0", chain("+", [chain("*", [JinvRef(0, 0), JinvRef(1, 1)]), Lit(0.25)]))
    lone = GeometryTensor(0, (), np.empty((1, 0), int), (ScalarRef("K0"),))
    reads = np.array([[0, 2], [1, 0], [2, 1], [0, 0]])
    block = GeometryTensor(1, (0, 1), reads, (None, Lit(0.5), ScalarRef("K0")))
    contract = Contract(
        13,
        np.array([0, 5, 5, 13]),
        np.array([1.0, -0.75, 2.0, -1.0, 3.5, 0.125, -1.0, 1.0, 4.0, -2.5, 1.0, 0.5, -3.0]),
        np.array([0, 3, 10, 12, 7, 1, 2, 4, 5, 6, 8, 9, 11], dtype=np.int32),
    )
    return KernelIR(
        name="blocks",
        representation="tensor",
        shape=(3,),
        dim=2,
        coef_sizes=(3, 3),
        const_scalars=(),
        tables={},
        statements=(k0, lone, block, contract),
    )


def test_hand_built_geometry_blocks():
    k = _hand_built_blocks()
    old = _expand_geometry(k)
    assert [s.name for s in old.statements[1:-1]] == [f"G{r}" for r in range(13)]
    # K0: 2; G0: one closing multiply; G1..G12: 2 reads each, plus 4 rows
    # for each of the 2 factors that are set; the contraction: 11 adds, 8 multiplies
    assert count_flops(k) == 2 + 1 + (12 * 2 + 4 * 2) + (11 + 8) == count_flops(old)
    text = emit_source(k)
    assert source_bytes(k) == len(text.encode())
    assert "  const double G7 = det*w[0][2]*w[1][1];\n" in text
    assert "  const double G8 = det*w[0][2]*w[1][1]*0.5;\n" in text
    assert "  const double G12 = det*w[0][0]*w[1][0]*K0;\n" in text
    assert text == emit_source(old) and kernel_to_json(k) == kernel_to_json(old)
    cells = harness.random_cells(harness.reference_cell("triangle"), 4, 9)
    geo = affine_map_batch(cells)
    rng = np.random.default_rng(10)
    w = [rng.uniform(0.5, 1.5, (4, 3)) for _ in range(2)]
    assert interpret_batch(k, geo, w).tobytes() == interpret_batch(old, geo, w).tobytes()
    assert walk(k, affine_map(cells[0]), [wc[0] for wc in w])[1] == count_flops(k)


# Oracle for the reference tensor: every factor's table broadcast onto the
# output axes and multiplied at each point over all test/trial pairs, without
# the mirror.  reference_tensor must give the same bits.


def _reference_tensor_oracle(monomials, form) -> np.ndarray:
    group = _as_group(monomials)
    lead = group[0]
    d = form.cell.dim
    degree = sum(factor_degree(form, f) for f in lead.factors) + DEGREE_MARGIN
    rule = simplex_rule(form.cell, degree)
    n_out = len(lead.factors) + lead.n_bound
    next_coef_axis = 2 if any(f.role == "trial" for f in lead.factors) else 1
    operands = []
    n_bound = 0  # bound index k lies on axis len(lead.factors) + k
    for f in lead.factors:
        element = form.element_of(f.role, f.coef)
        k = len(f.derivs)
        tab = tabulate(element, rule.points, nderiv=k)
        arr = np.stack(
            [tab.scalar_tables[tuple(sorted(a))] for a in product(range(d), repeat=k)], axis=-1
        )
        arr = arr.reshape(arr.shape[:2] + (d,) * k)
        if f.role == "test":
            dof_axis = 0
        elif f.role == "trial":
            dof_axis = 1
        else:
            dof_axis = next_coef_axis
            next_coef_axis += 1
        first = len(lead.factors) + n_bound
        axes = np.array([dof_axis] + list(range(first, first + k)))
        n_bound += k
        shape = np.ones(1 + n_out, dtype=int)
        shape[0] = len(rule.weights)
        shape[1 + axes] = arr.shape[1:]
        operands.append(arr.reshape(shape))

    A0 = np.zeros(np.broadcast_shapes(*(op.shape[1:] for op in operands)))
    for q, w in enumerate(rule.weights):
        prod = operands[0][q]
        for op in operands[1:]:
            prod = prod * op[q]
        A0 += w * prod
    A0[np.abs(A0) < SNAP_TOLERANCE] = 0.0
    return A0


# Groups above this many entries are left to reference_digests.json: the
# oracle holds several full-size products at once.
ORACLE_MAX_ENTRIES = 200_000


def _check_against_oracle(source: str) -> int:
    """Compare every group of the form with the oracle; the number compared."""
    cf = harness.compile_source(source)
    form = cf.typed
    groups: dict = {}
    for m in cf.monomials.monomials:
        groups.setdefault(m.signature(), []).append(m)
    compared = 0
    for group in groups.values():
        lead = group[0]
        size = form.cell.dim**lead.n_bound
        for f in lead.factors:
            size *= form.element_of(f.role, f.coef).n_scalar
        if lead.denominators or size > ORACLE_MAX_ENTRIES:
            continue
        got = reference_tensor(group, form).values
        want = _reference_tensor_oracle(group, form)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()
        compared += 1
    return compared


# The digest set's test/trial pairs: tables that differ (mixed_div), a
# derivative on one side only (advection), two derivative axes on each side
# (weighted_biharmonic), vector components sharing one scalar table
# (elasticity, vector_poisson_div); and a linear form.
PAIR_EDGE_CASES = {
    **_PAIRS,
    "linear": 'element = FiniteElement("Lagrange", "triangle", 2)\n'
    "v = TestFunction(element)\nf = Function(element)\n"
    "a = f*v + dot(grad(f), grad(v))*dx\n",
}


@pytest.mark.parametrize("name", list(PAIR_EDGE_CASES))
def test_reference_tensor_matches_oracle(name):
    assert _check_against_oracle(PAIR_EDGE_CASES[name]) > 0


@settings(max_examples=40)
@given(st.one_of(_BUILT_FORMS, _composed_forms()))
def test_reference_tensor_matches_oracle_on_generated_forms(source):
    _check_against_oracle(source)
