"""Byte-identity of generated kernels under every optimisation toggle.

Each kernel of a fixed form set is reduced to the SHA-256 of its emitted
source plus its IR JSON, its static flop count and, unless the kernel is an
un-hoisted quadrature one of ``NOHOIST_FLOP_CAP`` static flops or more, the
SHA-256 of its interpreted element tensors on seeded cells and coefficients.
The recorded values in ``golden/kernel_digests.json`` pin the IR, the
emitted text, the flops and the interpreter's output bits of both
representations, including the non-default toggles.  Each kernel's
``source_bytes`` must equal the byte length of its emitted source.  Every
interpreted kernel is also run on its first cell by the reference walk
(``reference_walk.py``): the walk's element tensor must equal the
interpreter's, bit for bit for quadrature kernels and to 1e-12 relative for
tensor ones, and the operations it counts must equal the static count.
The tensor interpreter's bits follow the BLAS gemv that numpy's ``matmul``
runs for each entry: with OpenBLAS 0.3.31 (DYNAMIC_ARCH, Haswell kernels) a
left-to-right sum of n terms differs from ``c @ M`` in nearly every random
draw for each n from 2 to 7 tried.  That is why the walk is held to 1e-12
there, and why the interpreter's contraction, grouped by term count, still
runs one gemv per entry.
Un-hoisted kernels evaluate their inline products once per innermost
trip; the cap leaves out the three that would take the interpreter longest
(``pressure_equation_2d`` in both zero settings,
``vector_poisson_div_2d_q2_p1_nf2`` without zero elimination).  The others
pin the interpreter's trip-by-trip path for loop nests that are not
perfect.
``golden/monomial_digests.json`` pins the lowered monomial sum (the
``format_monomial_sum`` dump: constants, factor order and bound-index
labels) of a wider form set, which includes every form of the composed-form
grammar that the property tests draw from.  After an intended change of the generated
kernels or of the lowering, rewrite both files with::

    PYTHONPATH=src python tests/test_kernel_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from formc import forms, harness, lowering
from formc.kernel import (
    BatchGeometry,
    Contract,
    affine_map_batch,
    count_flops,
    emit_source,
    interpret_batch,
    kernel_to_json,
    source_bytes,
)
from formc.tensorrep import UnsupportedDivision
from reference_walk import walk

ROOT = Path(__file__).resolve().parent
DIGESTS = ROOT / "golden" / "kernel_digests.json"
MONOMIAL_DIGESTS = ROOT / "golden" / "monomial_digests.json"
FORMS_DIR = ROOT.parent / "forms"

_P1 = 'P1 = FiniteElement("Lagrange", "triangle", 1)\n'

# Linear forms exercise the test-only accumulation; the quotients exercise
# point-scope denominators and the tensor rejection.
_EXTRA = {
    "linear_weighted_2d": _P1
    + "v = TestFunction(P1)\nf = Function(P1)\ng = Function(P1)\n"
    "a = f*g*v + dot(grad(f), grad(v))*dx\n",
    "linear_quotient_2d": _P1
    + "v = TestFunction(P1)\nf = Function(P1)\ng = Function(P1)\n"
    "a = f/g*v*dx\n",
    "quotient_laplacian_2d": _P1
    + "v = TestFunction(P1)\nu = TrialFunction(P1)\nf = Function(P1)\ng = Function(P1)\n"
    "a = f*g/(g*f*f)*dot(grad(v), grad(u)) + v*u/g*dx\n",
}


def form_sources() -> dict:
    """18 forms: the repository inputs except the two 3D q3 ones, plus generated."""
    out = {
        p.stem: p.read_text()
        for p in sorted(FORMS_DIR.glob("*.form"))
        if not p.stem.endswith("3d_q3")
    }
    out.update(
        {
            "mass_2d_q1": forms.mass(2, 1),
            "mass_2d_q1_dg0_nf3": forms.mass(2, 1, 3, 0),
            "mass_3d_q1_p1_nf1": forms.mass(3, 1, 1, 1),
            "poisson_2d_q1": forms.poisson(2, 1),
            "poisson_3d_q2": forms.poisson(3, 2),
            "weighted_laplacian_2d_q2": forms.weighted_laplacian(2, 2),
            "weighted_laplacian_3d_q1": forms.weighted_laplacian(3, 1),
            "elasticity_2d_q1": forms.elasticity(2, 1),
            "elasticity_2d_q2_p0_nf1": forms.elasticity(2, 2, 1, 0),
            "elasticity_3d_q1": forms.elasticity(3, 1),
            "vector_poisson_div_2d_q1_p1_nf1": forms.vector_poisson_div(1, 1, 1, 2),
            "vector_poisson_div_2d_q2_p1_nf2": forms.vector_poisson_div(2, 2, 1, 2),
        }
    )
    out.update(_EXTRA)
    return out


def _gradf2(cell: str) -> str:
    """P2 form with two bound-index pairs that tie within one coefficient."""
    return (
        f'element = FiniteElement("Lagrange", "{cell}", 2)\n'
        "v = TestFunction(element)\nu = TrialFunction(element)\nf = Function(element)\n"
        "a = dot(grad(f), grad(f))*dot(grad(f), grad(f))*dot(grad(v), grad(u))*dx\n"
    )


# One coefficient with first and second derivatives in the same monomial.
_LAPLACIAN_GRADIENTS = (
    'element = FiniteElement("Lagrange", "triangle", 2)\n'
    "v = TestFunction(element)\nu = TrialFunction(element)\nf = Function(element)\n"
    "a = div(grad(f))*dot(grad(f), grad(v))*dot(grad(f), grad(u))*dx\n"
)


# The composed-form grammar: up to two coefficient factors ahead of the
# arguments, with first and second derivatives and denominators: at most 8
# bound indices, 6561 terms in 3D.
COMPOSED_CELLS = ["triangle", "tetrahedron"]
COEFFICIENT_FACTORS = ["f", "dot(grad(f), grad(g))", "div(grad(f))", "dot(grad(g), grad(g))"]
ARGUMENT_FACTORS = [
    "v*u",
    "dot(grad(v), grad(u))",
    "dot(grad(f), grad(v))*u",
    "div(grad(v))*u",
    "v",
    "dot(grad(g), grad(v))",
]
DENOMINATORS = ["", "/g", "/(f*g)"]


def composed_source(cell: str, factors: list, arguments: str, denominator: str) -> str:
    """One P2 form of the composed-form grammar."""
    trial = "u = TrialFunction(element)\n" if "u" in arguments else ""
    return (
        f'element = FiniteElement("Lagrange", "{cell}", 2)\n'
        f"v = TestFunction(element)\n{trial}f = Function(element)\ng = Function(element)\n"
        f"a = {'*'.join(factors + [arguments])}{denominator}*dx\n"
    )


def composed_sources() -> dict:
    """All 756 forms of the grammar, keyed by cell and integrand."""
    lists = [[]] + [[a] for a in COEFFICIENT_FACTORS]
    lists += [[a, b] for a in COEFFICIENT_FACTORS for b in COEFFICIENT_FACTORS]
    return {
        f"composed_{cell}: {'*'.join(factors + [arguments])}{denominator}": composed_source(
            cell, factors, arguments, denominator
        )
        for cell in COMPOSED_CELLS
        for factors in lists
        for arguments in ARGUMENT_FACTORS
        for denominator in DENOMINATORS
    }


def monomial_sources() -> dict:
    """The repository inputs, the full trend sweep with 3D, heavy extras and
    every composed form."""
    out = {p.stem: p.read_text() for p in sorted(FORMS_DIR.glob("*.form"))}
    out.update({c.label(): c.source() for c in harness.full_trend_cells(include_3d=True)})
    out.update(
        {
            "gradf2_p2_2d": _gradf2("triangle"),
            "gradf2_p2_3d": _gradf2("tetrahedron"),
            "laplacian_gradients_p2_2d": _LAPLACIAN_GRADIENTS,
            "vector_poisson_div_3d_q1_p1_nf3": forms.vector_poisson_div(1, 3, 1, 3),
            "vector_poisson_div_3d_q2_p2_nf2": forms.vector_poisson_div(2, 2, 2, 3),
        }
    )
    out.update(composed_sources())
    return out


def compute_monomial_digests() -> dict:
    out = {}
    for name, src in monomial_sources().items():
        text = lowering.format_monomial_sum(harness.compile_source(src).monomials)
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


VARIANTS = {
    "q": dict(zero_elimination=True, hoisting=True),
    "q-nozero": dict(zero_elimination=False, hoisting=True),
    "q-nohoist": dict(zero_elimination=True, hoisting=False),
    "q-nozero-nohoist": dict(zero_elimination=False, hoisting=False),
    "t": {},
}


N_CELLS = 3
NOHOIST_FLOP_CAP = 2_000_000


def _digest(cf, variant: str, inputs):
    """[text SHA-256, static flops(, interpreter SHA-256)] and the walk's count."""
    opts = VARIANTS[variant]
    try:
        if variant.startswith("t"):
            k = harness.tensor_kernel(cf, **opts)
        else:
            k = harness.quadrature_kernel(cf, **opts)
    except UnsupportedDivision:
        return "UnsupportedDivision", None
    for s in k.statements:
        if isinstance(s, Contract):
            assert s.coeffs.all(), "tensor kernel holds an exact-zero coefficient"
    source = emit_source(k)
    assert source_bytes(k) == len(source.encode()), variant
    text = source + kernel_to_json(k)
    record = [hashlib.sha256(text.encode()).hexdigest(), count_flops(k)]
    if "nohoist" in variant and record[1] >= NOHOIST_FLOP_CAP:
        return record, None
    A = interpret_batch(k, *inputs)
    geo, w = inputs
    ref, ops = walk(k, BatchGeometry(geo.jinv[:1], geo.det[:1]), [wc[:1] for wc in w])
    if variant.startswith("t"):  # one matrix product per entry: another summation order
        assert harness.relative_max_difference(ref, A[:1]) <= 1e-12, variant
    else:
        assert ref[0].tobytes() == A[0].tobytes(), variant
    return record + [hashlib.sha256(A.tobytes()).hexdigest()], ops


def _inputs(cf):
    geo = affine_map_batch(harness.random_cells(cf.cell, N_CELLS, 7))
    return geo, harness.random_coefficients(cf, N_CELLS, 8)


def compute_digests() -> dict:
    out = {}
    for name, src in form_sources().items():
        cf = harness.compile_source(src, name)
        inputs = _inputs(cf)
        out[name] = {variant: _digest(cf, variant, inputs)[0] for variant in VARIANTS}
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_form_set_is_fixed(recorded):
    assert sorted(recorded) == sorted(form_sources())
    assert len(recorded) == 18


@pytest.mark.parametrize("name", sorted(form_sources()))
def test_kernels_byte_identical(name, recorded):
    cf = harness.compile_source(form_sources()[name], name)
    inputs = _inputs(cf)
    got = {}
    for variant in VARIANTS:
        got[variant], ops = _digest(cf, variant, inputs)
        if ops is not None:
            assert ops == got[variant][1], variant  # walked operations equal static flops
    assert got == recorded[name]


def test_monomial_sums_identical():
    recorded = json.loads(MONOMIAL_DIGESTS.read_text())
    assert compute_monomial_digests() == recorded


# Emitted C kept whole: golden file -> (form name, source, kernel builder).
GOLDEN_SOURCES = {
    "mass_2d_q1_tensor.c": ("mass_2d_q1", forms.mass(2, 1), harness.tensor_kernel),
    "weighted_laplacian_2d_q1_quadrature.c": (
        "weighted_laplacian_2d_q1",
        forms.weighted_laplacian(2, 1),
        harness.quadrature_kernel,
    ),
}


@pytest.mark.parametrize("filename", sorted(GOLDEN_SOURCES))
def test_emitted_source_equals_its_golden_file(filename):
    name, source, build = GOLDEN_SOURCES[filename]
    text = emit_source(build(harness.compile_source(source, name)))
    assert text == (ROOT / "golden" / filename).read_text()


def test_every_golden_file_is_read_by_a_test():
    modules = [path.read_text() for path in ROOT.glob("test_*.py")]
    for path in (ROOT / "golden").iterdir():
        assert any(path.name in text for text in modules), path.name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_kernel_digests.py --write")
    for path, compute in ((DIGESTS, compute_digests), (MONOMIAL_DIGESTS, compute_monomial_digests)):
        path.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
