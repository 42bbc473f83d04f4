import random
import zlib
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formc import dsl, forms, harness, lowering
from formc.dsl import parse_source, typecheck
from formc.lowering import (
    BasisFactor,
    ExpansionTooLarge,
    NonFiniteConstant,
    UnsupportedDenominator,
    estimate_degree,
    expand,
    format_monomial_sum,
    lower,
    simplify,
)

from test_dsl import _random_tree
from test_dsl_fuzz import SPLICED_SOURCES
from test_quadrep import _BUILT_FORMS, _composed_forms

FORMS_DIR = Path(__file__).resolve().parent.parent / "forms"
PRESSURE_EQUATION = (FORMS_DIR / "pressure_equation_2d.form").read_text()

# ---------------------------------------------------------------------------
# An independent pointwise oracle: exact multivariate polynomials plus
# second-order jets.  Reference fields are random polynomials in X; physical
# fields are obtained by *composing* with the affine map (no chain-rule
# rewriting), and the form AST is evaluated with jet arithmetic.


class Poly:
    """Sparse multivariate polynomial: exponent tuple -> coefficient."""

    def __init__(self, coeffs):
        self.c = {e: v for e, v in coeffs.items() if v != 0.0}

    @staticmethod
    def random(rng, dim, degree, shift=0.0, scale=1.0):
        exps = []

        def rec(prefix, left, slots):
            if slots == 0:
                exps.append(tuple(prefix))
                return
            for e in range(left + 1):
                rec(prefix + [e], left - e, slots - 1)

        rec([], degree, dim)
        coeffs = {tuple(e): rng.uniform(-scale, scale) for e in exps}
        zero = (0,) * dim
        coeffs[zero] = coeffs.get(zero, 0.0) + shift
        return Poly(coeffs)

    def __add__(self, other):
        c = dict(self.c)
        for e, v in other.c.items():
            c[e] = c.get(e, 0.0) + v
        return Poly(c)

    def __mul__(self, other):
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c[e] = c.get(e, 0.0) + v1 * v2
        return Poly(c)

    def scale(self, s):
        return Poly({e: s * v for e, v in self.c.items()})

    def diff(self, a):
        c = {}
        for e, v in self.c.items():
            if e[a]:
                e2 = list(e)
                e2[a] -= 1
                c[tuple(e2)] = e[a] * v
        return Poly(c)

    def __call__(self, x):
        total = 0.0
        for e, v in self.c.items():
            term = v
            for j, ee in enumerate(e):
                term *= x[j] ** ee
            total += term
        return total


def compose_affine(poly, M, shift):
    """poly(M @ x + shift) expanded as a polynomial in x."""
    d = len(shift)
    axes = []
    for a in range(d):
        c = {(0,) * d: shift[a]}
        for b in range(d):
            e = [0] * d
            e[b] = 1
            c[tuple(e)] = M[a][b]
        axes.append(Poly(c))
    one = Poly({(0,) * d: 1.0})
    out = Poly({})
    for e, v in poly.c.items():
        term = one.scale(v)
        for a, ee in enumerate(e):
            for _ in range(ee):
                term = term * axes[a]
        out = out + term
    return out


class Jet:
    """Second-order jet: value, gradient and Hessian at a fixed point."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v = float(v)
        self.g = np.asarray(g, dtype=float)
        self.h = np.asarray(h, dtype=float)

    @staticmethod
    def const(c, d):
        return Jet(c, np.zeros(d), np.zeros((d, d)))

    @staticmethod
    def of_poly(q, x0, d):
        g = np.array([q.diff(b)(x0) for b in range(d)])
        h = np.array([[q.diff(a).diff(b)(x0) for b in range(d)] for a in range(d)])
        return Jet(q(x0), g, h)

    def __add__(self, o):
        return Jet(self.v + o.v, self.g + o.g, self.h + o.h)

    def __sub__(self, o):
        return Jet(self.v - o.v, self.g - o.g, self.h - o.h)

    def __mul__(self, o):
        return Jet(
            self.v * o.v,
            self.g * o.v + self.v * o.g,
            self.h * o.v + np.outer(self.g, o.g) + np.outer(o.g, self.g) + self.v * o.h,
        )

    def inv(self):
        return Jet(
            1.0 / self.v,
            -self.g / self.v**2,
            -self.h / self.v**2 + 2.0 * np.outer(self.g, self.g) / self.v**3,
        )

    def __truediv__(self, o):
        return self * o.inv()


def _eval_jets(expr, leaf, d):
    """Evaluate the form AST into a component map of jets."""
    if isinstance(expr, dsl.Argument):
        return leaf(expr.role, -1)
    if isinstance(expr, dsl.Coefficient):
        return leaf("coef", expr.index)
    if isinstance(expr, dsl.ScalarLiteral):
        return {(): Jet.const(expr.value, d)}
    if isinstance(expr, dsl.Grad):
        a = _eval_jets(expr.operand, leaf, d)
        return {
            idx + (b,): Jet(j.g[b], j.h[b], np.zeros((d, d)))
            for idx, j in a.items()
            for b in range(d)
        }
    if isinstance(expr, dsl.Div):
        a = _eval_jets(expr.operand, leaf, d)
        out = {}
        for idx, j in a.items():
            t = idx[:-1]
            piece = Jet(j.g[idx[-1]], j.h[idx[-1]], np.zeros((d, d)))
            out[t] = out[t] + piece if t in out else piece
        return out
    if isinstance(expr, dsl.Transp):
        a = _eval_jets(expr.operand, leaf, d)
        return {(i2, i1): j for (i1, i2), j in a.items()}
    if isinstance(expr, (dsl.Add, dsl.Sub)):
        a = _eval_jets(expr.a, leaf, d)
        b = _eval_jets(expr.b, leaf, d)
        if isinstance(expr, dsl.Add):
            return {idx: a[idx] + b[idx] for idx in a}
        return {idx: a[idx] - b[idx] for idx in a}
    if isinstance(expr, dsl.Mult):
        a = _eval_jets(expr.a, leaf, d)
        b = _eval_jets(expr.b, leaf, d)
        if () in a and len(a) == 1:
            return {idx: a[()] * j for idx, j in b.items()}
        return {idx: j * b[()] for idx, j in a.items()}
    if isinstance(expr, dsl.Dot):
        a = _eval_jets(expr.a, leaf, d)
        b = _eval_jets(expr.b, leaf, d)
        total = None
        for idx in sorted(a):
            piece = a[idx] * b[idx]
            total = piece if total is None else total + piece
        return {(): total}
    if isinstance(expr, dsl.Quotient):
        a = _eval_jets(expr.a, leaf, d)
        b = _eval_jets(expr.b, leaf, d)[()]
        return {idx: j / b for idx, j in a.items()}
    raise TypeError(type(expr).__name__)


def _monomial_value(ms, ref_value, jinv, det):
    """Evaluate the monomial sum from reference-derivative values."""
    d = jinv.shape[0]
    total = 0.0
    for m in ms.monomials:
        acc = 0.0
        for sigma in product(range(d), repeat=m.n_bound):
            # bound index k: reference direction sigma[k], physical direction
            # m.directions[k]; each factor takes the next len(f.derivs) of them
            term = m.constant
            k = 0
            for f in m.factors:
                derivs = tuple(sorted(sigma[k : k + len(f.derivs)]))
                k += len(f.derivs)
                term *= ref_value(f.role, f.coef, f.component, derivs)
            for a, b in zip(sigma, m.directions):
                term *= jinv[a, b]
            for f in m.denominators:
                term /= ref_value(f.role, f.coef, f.component, ())
            acc += term
        total += acc * det
    return total


ORACLE_FORMS = [
    ("wl2", forms.weighted_laplacian(2, 1)),
    ("mass_premult", forms.mass(2, 1, n_f=2, p=1)),
    ("elasticity2", forms.elasticity(2, 1)),
    ("vpdiv", forms.vector_poisson_div(1, 1, 1)),
    ("pressure", PRESSURE_EQUATION),
    (
        "grad_of_quotient",
        'element = FiniteElement("Lagrange", "triangle", 2)\n'
        "v = TestFunction(element)\nu = TrialFunction(element)\n"
        "f = Function(element)\n"
        "a = dot(grad(v), grad(u/f))*dx\n",
    ),
    (
        # six bound indices, four of them on factors of one coefficient
        "gradf_squared",
        'element = FiniteElement("Lagrange", "triangle", 2)\n'
        "v = TestFunction(element)\nu = TrialFunction(element)\n"
        "f = Function(element)\n"
        "a = dot(grad(f), grad(f))*dot(grad(f), grad(f))*dot(grad(v), grad(u))*dx\n",
    ),
]


@pytest.mark.parametrize("name,source", ORACLE_FORMS)
def test_expand_preserves_pointwise_value(name, source):
    typed = typecheck(parse_source(source))
    d = typed.cell.dim
    expanded = expand(typed)
    simplified = simplify(expanded)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    trials = 100
    for _ in range(trials):
        while True:
            J = rng.uniform(-1.6, 1.6, size=(d, d))
            det = float(np.linalg.det(J))
            if 0.1 <= det <= 10.0:
                break
        jinv = np.linalg.inv(J)
        v0 = rng.uniform(-1, 1, size=d)
        X0 = rng.dirichlet(np.ones(d + 1))[1:]  # inside the reference cell
        x0 = v0 + J @ X0

        polys = {}

        def poly_for(role, coef, comp):
            key = (role, coef, comp)
            if key not in polys:
                # small coefficients keep products of many leaves well
                # conditioned; the shift keeps denominators away from zero
                polys[key] = Poly.random(rng, d, 2, shift=1.5, scale=0.1)
            return polys[key]

        def leaf(role, coef):
            elem = typed.element_of(role, coef)
            if elem.is_vector:
                return {
                    (c,): Jet.of_poly(
                        compose_affine(poly_for(role, coef, c), jinv, -jinv @ v0), x0, d
                    )
                    for c in range(d)
                }
            return {
                (): Jet.of_poly(
                    compose_affine(poly_for(role, coef, 0), jinv, -jinv @ v0), x0, d
                )
            }

        ast_value = _eval_jets(typed.integrand, leaf, d)[()].v

        ref_cache = {}

        def ref_value(role, coef, comp, alpha):
            key = (role, coef, comp, alpha)
            if key not in ref_cache:
                p = poly_for(role, coef, comp)
                for a in alpha:
                    p = p.diff(a)
                ref_cache[key] = p(X0)
            return ref_cache[key]

        expect = det * ast_value
        got_e = _monomial_value(expanded, ref_value, jinv, det)
        got_s = _monomial_value(simplified, ref_value, jinv, det)
        scale = max(abs(expect), abs(got_e), 1.0)
        assert abs(got_e - expect) / scale < 1e-12
        assert abs(got_s - expect) / scale < 1e-12


# ---------------------------------------------------------------------------
# Structural expectations


def test_weighted_laplacian_monomials():
    typed = typecheck(parse_source(forms.weighted_laplacian(2, 1)))
    ms = lower(typed)
    assert len(ms.monomials) == 2  # one per physical direction
    for m in ms.monomials:
        roles = [f.role for f in m.factors]
        assert roles == ["test", "trial", "coef"]
        assert len(m.factors[0].derivs) == 1 and len(m.factors[1].derivs) == 1
        assert len(m.directions) == 2 and m.n_bound == 2
        assert len(set(m.directions)) == 1  # both Jinv factors share the physical direction
    assert {m.directions[0] for m in ms.monomials} == {0, 1}


def test_mass_monomial():
    typed = typecheck(parse_source(forms.mass(2, 2)))
    ms = lower(typed)
    assert len(ms.monomials) == 1
    m = ms.monomials[0]
    assert [f.role for f in m.factors] == ["test", "trial"]
    assert m.directions == () and m.n_bound == 0 and m.constant == 1.0


# (cell dimension, physical directions of a factor, its assignments)
FACTOR_ASSIGNMENTS = [
    (2, (), [((), ())]),
    (3, (), [((), ())]),
    (2, (1,), [((0,), ((0, 1),)), ((1,), ((1, 1),))]),
    (3, (2,), [((0,), ((0, 2),)), ((1,), ((1, 2),)), ((2,), ((2, 2),))]),
    (
        2,
        (0, 1),
        [
            ((0, 0), ((0, 0), (0, 1))),
            ((0, 1), ((0, 0), (1, 1))),
            ((0, 1), ((1, 0), (0, 1))),
            ((1, 1), ((1, 0), (1, 1))),
        ],
    ),
    (3, (1, 1), None),  # checked against the product walk alone
    (3, (0, 2), None),
]


@pytest.mark.parametrize("d,derivs,expected", FACTOR_ASSIGNMENTS)
def test_factor_assignments_walk_reference_directions_in_product_order(d, derivs, expected):
    got = BasisFactor("coef", 0, 0, derivs).assignments(d)
    walk = list(product(range(d), repeat=len(derivs)))
    assert got == [(tuple(sorted(refs)), tuple(zip(refs, derivs))) for refs in walk]
    assert expected is None or got == expected


def test_elasticity_expansion_counts():
    typed = typecheck(parse_source(forms.elasticity(2, 1)))
    raw = expand(typed)
    assert len(raw.monomials) == 16  # 4 d^2 component monomials
    merged = simplify(raw)
    assert len(merged.monomials) == 6
    consts = sorted(m.constant for m in merged.monomials)
    assert consts == [0.5, 0.5, 0.5, 0.5, 1.0, 1.0]


# Integrands whose two halves are equal up to the order of their factors,
# so that their monomials are equal up to a relabelling of the bound indices.
_P2_F_G = (
    'element = FiniteElement("Lagrange", "triangle", 2)\n'
    "v = TestFunction(element)\nu = TrialFunction(element)\n"
    "f = Function(element)\ng = Function(element)\n"
)
CANCELLING = {
    "p1_mass": 'element = FiniteElement("Lagrange", "triangle", 1)\n'
    "v = TestFunction(element)\nu = TrialFunction(element)\n"
    "a = (dot(v, u) - dot(v, u))*dx\n",
    "two_coefficients": _P2_F_G + "a = (dot(grad(f), grad(g)) - dot(grad(g), grad(f)))*v*u*dx\n",
    "coefficient_and_test": _P2_F_G
    + "a = (dot(grad(f), grad(v))*f - f*dot(grad(v), grad(f)))*u*dx\n",
    "four_derivatives": _P2_F_G + "a = dot(grad(f), grad(f))*dot(grad(v), grad(u))"
    " - dot(grad(v), grad(u))*dot(grad(f), grad(f))*dx\n",
    "second_derivatives": _P2_F_G
    + "a = (div(grad(f))*dot(grad(f), grad(v)) - dot(grad(v), grad(f))*div(grad(f)))*u*dx\n",
}


def test_simplify_idempotent_and_drops_zeros():
    typed = typecheck(parse_source(forms.elasticity(2, 1)))
    once = simplify(expand(typed))
    twice = simplify(once)
    assert once.monomials == twice.monomials

    for name, source in CANCELLING.items():
        assert lower(typecheck(parse_source(source))).monomials == (), name


def test_degree_estimates():
    cases = [
        (forms.mass(2, 1), 2),
        (forms.weighted_laplacian(3, 3), 7),
        (forms.mass(2, 2, n_f=2, p=3), 10),
        (PRESSURE_EQUATION, 5),
    ]
    for source, expected in cases:
        ms = lower(typecheck(parse_source(source)))
        assert estimate_degree(ms) == expected


def test_estimate_is_sufficient_for_exactness():
    """The rule at the estimate integrates division-free forms exactly."""
    from formc.kernel import affine_map_batch, interpret_batch

    for source in [forms.mass(2, 3), forms.weighted_laplacian(2, 2), forms.elasticity(2, 2)]:
        cf = harness.compile_source(source)
        k0 = harness.quadrature_kernel(cf)
        k2 = harness.quadrature_kernel(cf, degree_shift=2)
        geo = affine_map_batch(harness.random_cells(cf.cell, 10, 3))
        w = harness.random_coefficients(cf, 10, 4)
        A0 = interpret_batch(k0, geo, w)
        A2 = interpret_batch(k2, geo, w)
        assert harness.relative_max_difference(A0, A2) < 1e-12


def test_denominator_restrictions():
    base = (
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        'vec = VectorElement("Lagrange", "triangle", 1)\n'
        "v = TestFunction(element)\nu = TrialFunction(element)\n"
        "f = Function(element)\ng = Function(element)\nz = Function(vec)\n"
    )
    with pytest.raises(UnsupportedDenominator):
        lower(typecheck(parse_source(base + "a = v*u/(f + g)*dx\n")))
    with pytest.raises(UnsupportedDenominator):
        lower(typecheck(parse_source(base + "a = v*u/div(z)*dx\n")))
    # nested quotients invert cleanly
    ms = lower(typecheck(parse_source(base + "a = v*u/(f/g)*dx\n")))
    m = ms.monomials[0]
    assert [f.role for f in m.factors] == ["test", "trial", "coef"]
    assert len(m.denominators) == 1
    # differentiating a quotient applies the quotient rule (denominators
    # squared, derivative factors in the numerator)
    ms = lower(typecheck(parse_source(base + "a = dot(grad(v), grad(u/f))*dx\n")))
    assert any(len(m.denominators) == 2 for m in ms.monomials)


_P1 = dsl.FiniteElement("Lagrange", dsl.reference_cell("triangle"), 1)
_VP1 = dsl.FiniteElement("Lagrange", dsl.reference_cell("triangle"), 1, 2)


def _random_program(rng: random.Random) -> dsl.FormProgram:
    """v*u times a random well-ranked scalar of test_dsl, over a random plain scalar."""
    ctx = {"f": dsl.Coefficient(0, "f", _P1), "g": dsl.Coefficient(1, "g", _VP1)}
    integrand = dsl.Mult(
        dsl.Mult(dsl.Argument("test", _P1), dsl.Argument("trial", _P1)),
        _random_tree(rng, rng.randint(0, 4), (), ctx),
    )
    if rng.random() < 0.5:
        integrand = dsl.Quotient(integrand, _random_tree(rng, 1, (), ctx, plain=True))
    decls = (("v", "test", _P1), ("u", "trial", _P1), ("f", "coef", _P1), ("g", "coef", _VP1))
    return dsl.FormProgram((("element", _P1), ("vec", _VP1)), decls, "a", integrand)


_PROGRAMS = st.one_of(
    st.randoms(use_true_random=False).map(_random_program),
    _BUILT_FORMS,
    _composed_forms(),
    SPLICED_SOURCES,
)


@settings(max_examples=200)
@given(_PROGRAMS)
def test_typecheck_alone_judges_what_lowering_expands(program):
    # every form the type checker accepts lowers to monomials with one test
    # factor, one trial factor when bilinear, at most two derivatives per
    # factor and none in a denominator, or meets a refusal only lowering sees
    try:
        typed = typecheck(parse_source(program) if isinstance(program, str) else program)
    except dsl.FormError:
        return
    try:
        ms = lower(typed)
    except (UnsupportedDenominator, ExpansionTooLarge, NonFiniteConstant):
        return
    for m in ms.monomials:
        roles = [f.role for f in m.factors]
        assert roles.count("test") == 1
        assert roles.count("trial") == (typed.arity == 2)
        assert all(len(f.derivs) <= 2 for f in m.factors)
        assert not any(f.derivs for f in m.denominators)


def test_dump_format_stable():
    typed = typecheck(parse_source(forms.weighted_laplacian(2, 1)))
    dump = format_monomial_sum(lower(typed))
    assert dump == (
        "1.0 * v[0]dX(b0) * u[0]dX(b1) * w0[0] * Jinv(b0,0) * Jinv(b1,0) * det"
        "  sum over b0,b1\n"
        "1.0 * v[0]dX(b0) * u[0]dX(b1) * w0[0] * Jinv(b0,1) * Jinv(b1,1) * det"
        "  sum over b0,b1\n"
    )
