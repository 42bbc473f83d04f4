import json

import numpy as np
import pytest

from formc import forms, harness
from formc.kernel import (
    AssignScalar,
    Contract,
    DetRef,
    KernelIR,
    affine_map,
    affine_map_batch,
    count_flops,
    emit_source,
    interpret,
    interpret_batch,
    kernel_to_json,
    source_bytes,
)
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


def _contract_kernel(indptr, coeffs, slots):
    names = ("G0", "G1", "G2", "G3")
    contract = Contract(
        names,
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

    # A[1] has no terms: no flops, a literal zero, value 0.  A[2] keeps an
    # exact-zero coefficient: emitted and counted (1 add, 1 multiply), but
    # the interpreter leaves it out of the sum.
    k = _contract_kernel([0, 4, 4, 6], [1.0, -1.0, 2.0, 0.25, 0.0, -1.0], [0, 1, 2, 3, 2, 3])
    assert count_flops(k) == 5 + 0 + 2
    A, ops = interpret(k, geo, [], count_ops=True)
    assert ops == count_flops(k)
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
        # kept exact zeros, one of them leading
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
