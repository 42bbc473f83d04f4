import random
from pathlib import Path

import pytest

from formc import dsl, forms
from formc.dsl import (
    Add,
    Argument,
    ArityMismatch,
    Coefficient,
    DivisionByNonScalar,
    Dot,
    DuplicateName,
    FormSyntaxError,
    Grad,
    IllegalCharacter,
    Mult,
    NonScalarIntegrand,
    RankMismatch,
    ScalarLiteral,
    TwoTestFunctions,
    UnknownName,
    UnsupportedSecondDerivative,
    parse_source,
    to_source,
    tokenize,
    typecheck,
)


FORMS_DIR = Path(__file__).resolve().parent.parent / "forms"
FORM_FILES = {p.stem: p.read_text() for p in FORMS_DIR.glob("*.form")}

def test_tokenize_form_statement():
    toks = tokenize("a = w*dot(grad(v), grad(u))*dx")
    body = [t for t in toks if t.kind != "end"]
    # name, '=', name and the full call chain; the measure is a keyword token
    assert len(body) == 18
    assert body[-1].kind == "keyword" and body[-1].text == "dx"
    assert [t.kind for t in body[:6]] == ["name", "punct", "name", "punct", "name", "punct"]


def test_tokenize_empty():
    toks = tokenize("")
    assert [t for t in toks if t.kind != "end"] == []


def test_tokenize_illegal_character():
    with pytest.raises(IllegalCharacter) as err:
        tokenize("u @ v")
    assert err.value.line == 1 and err.value.col == 3


def test_tokenize_comments_and_spans():
    toks = tokenize("a = 1 # trailing comment\n# full line\nb = 2")
    texts = [t.text for t in toks if t.kind not in ("newline", "end")]
    assert texts == ["a", "=", "1", "b", "=", "2"]
    b = [t for t in toks if t.text == "b"][0]
    assert (b.line, b.col) == (3, 1)


def test_tokenize_newline_and_end_after_comment_have_their_columns():
    newlines = [t for t in tokenize("a = 1 # c\nb = 2") if t.kind == "newline"]
    assert [(t.line, t.col) for t in newlines] == [(1, 10)]
    end = tokenize("a = 1 # c")[-1]
    assert (end.kind, end.line, end.col) == ("end", 1, 10)


def test_tokenize_numbers_are_decimal_digits():
    assert [t.text for t in tokenize("٣ 1.5e-3 .5 1.")[:-1]] == ["٣", "1.5e-3", ".5", "1."]
    assert parse_source(forms.mass(2, 1).replace("*dx", "*٣*dx")).integrand.b.value == 3.0
    for source in ("a = 2²", "a = ²", "a = ½"):
        with pytest.raises(IllegalCharacter) as err:
            tokenize(source)
        assert (err.value.line, err.value.col) == (1, len(source))


def test_tokenize_names_strings_and_continuations():
    toks = tokenize('_é1 = "a b"\\\n + x²')
    assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
        ("name", "_é1", 1, 1),
        ("punct", "=", 1, 5),
        ("string", "a b", 1, 7),
        ("punct", "+", 2, 2),
        ("name", "x²", 2, 4),
        ("end", "", 2, 6),
    ]
    with pytest.raises(FormSyntaxError, match="1:3: unterminated string literal"):
        tokenize('a "b\n"')


def test_parse_mass_input():
    prog = parse_source(forms.mass(2, 2))
    assert len(prog.element_decls) == 1
    kinds = [k for _, k, _ in prog.function_decls]
    assert kinds == ["test", "trial"]
    assert isinstance(prog.integrand, Dot)
    assert isinstance(prog.integrand.a, Argument) and prog.integrand.a.role == "test"


def test_parse_premultiplied_input():
    prog = parse_source(forms.mass(2, 2, n_f=2, p=3))
    assert len(prog.element_decls) == 2
    coefs = [n for n, k, _ in prog.function_decls if k == "coef"]
    assert coefs == ["f0", "f1"]
    node = prog.integrand
    assert isinstance(node, Mult) and isinstance(node.a, Mult)
    assert isinstance(node.b, Dot)
    assert isinstance(node.a.a, Coefficient) and node.a.a.index == 0


def test_parse_requires_measure():
    with pytest.raises(FormSyntaxError):
        parse_source("element = FiniteElement(\"Lagrange\", \"triangle\", 1)\n"
                      "v = TestFunction(element)\nu = TrialFunction(element)\n"
                      "a = dot(v, u)\n")


def test_parse_duplicate_and_unknown_names():
    base = 'element = FiniteElement("Lagrange", "triangle", 1)\n'
    with pytest.raises(DuplicateName):
        parse_source(base + 'element = FiniteElement("Lagrange", "triangle", 2)\n'
                     "v = TestFunction(element)\na = v*dx\n")
    with pytest.raises(UnknownName):
        parse_source(base + "v = TestFunction(element)\na = v*missing*dx\n")


def test_unary_minus_is_times_minus_one():
    prog = parse_source(
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = TestFunction(element)\na = -v*-2*dx\n"
    )
    v = Argument("test", prog.element_decls[0][1])
    assert prog.integrand == Mult(Mult(ScalarLiteral(-1.0), v), ScalarLiteral(-2.0))
    assert parse_source(to_source(prog)).integrand == prog.integrand


@pytest.mark.parametrize("name,source", sorted(FORM_FILES.items()))
def test_roundtrip_fixed_point(name, source):
    first = parse_source(source)
    second = parse_source(to_source(first))
    assert first.integrand == second.integrand
    assert first.element_decls == second.element_decls
    assert first.function_decls == second.function_decls
    # printing the reparsed program is stable too
    assert to_source(first) == to_source(second)


def test_typecheck_weighted_laplacian():
    typed = typecheck(parse_source(forms.weighted_laplacian(3, 3)))
    assert typed.arity == 2
    assert len(typed.coefficients) == 1
    assert typed.test_element.degree == 3


def test_typecheck_pressure_equation_coefficients():
    typed = typecheck(parse_source(FORM_FILES["pressure_equation_2d"]))
    assert typed.arity == 2
    names = [n for n, _ in typed.coefficients]
    assert len(names) == 18
    assert names[:7] == [f"f{k}" for k in range(7)]
    assert names[7:15] == [f"g{k}" for k in range(8)]
    assert names[15:] == ["u0", "u1", "u2"]
    # dense ids in declaration order
    leaves = set()
    dsl._collect_leaves(typed.integrand, leaves)
    used = sorted(l.index for l in leaves if isinstance(l, Coefficient))
    assert used == list(range(18))


def _scalar_base():
    return (
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        'vec = VectorElement("Lagrange", "triangle", 1)\n'
        "v = TestFunction(element)\n"
        "u = TrialFunction(element)\n"
        "f = Function(element)\n"
        "g = Function(vec)\n"
    )


@pytest.mark.parametrize(
    "body,err",
    [
        ("dot(grad(v), u)", RankMismatch),  # vector . scalar
        ("mult(g, g)*v*u", RankMismatch),  # '*' needs a scalar operand
        ("v*u*div(f)", RankMismatch),  # div of a scalar
        ("v*u*transp(g)", RankMismatch),  # transp of a vector
        ("v*u/g", DivisionByNonScalar),
        ("v*u/u", ArityMismatch),
        ("v*v*u", TwoTestFunctions),
        ("v*u + f", ArityMismatch),
        ("dot(grad(div(g)), grad(v))*u", UnsupportedSecondDerivative),
        ("mult(v, g)", NonScalarIntegrand),
    ],
)
def test_typecheck_rejections(body, err):
    source = _scalar_base() + f"a = {body}*dx\n"
    with pytest.raises(err):
        typecheck(parse_source(source))


def test_typecheck_laplacian_pattern_allowed():
    source = _scalar_base() + "a = div(grad(u))*v*dx\n"
    typed = typecheck(parse_source(source))
    assert typed.arity == 2


def test_typecheck_integrand_needs_test_function():
    source = (
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "u = TrialFunction(element)\nf = Function(element)\n"
        "a = f*u*dx\n"
    )
    with pytest.raises(ArityMismatch):
        typecheck(parse_source(source))


# ---------------------------------------------------------------------------
# Random well-ranked / ill-ranked trees


def _random_tree(rng, depth, want_shape, ctx, plain=False):
    """Build an expression of the requested shape from typed pieces.

    ``plain`` forbids derivatives in the subtree (so div stays first-order).
    """
    d = 2
    if depth == 0 or rng.random() < 0.3:
        if want_shape == ():
            return rng.choice([ctx["f"], ScalarLiteral(rng.uniform(0.5, 2.0))])
        if want_shape == (d,):
            return ctx["g"] if plain else rng.choice([ctx["g"], Grad(ctx["f"])])
        return Grad(ctx["g"])
    pick = rng.random()
    if want_shape == ():
        if pick < 0.3 or (plain and pick < 0.6):
            return Add(
                _random_tree(rng, depth - 1, (), ctx, plain),
                _random_tree(rng, depth - 1, (), ctx, plain),
            )
        if pick < 0.6:
            return Mult(
                _random_tree(rng, depth - 1, (), ctx, plain),
                _random_tree(rng, depth - 1, (), ctx, plain),
            )
        if plain:
            return ctx["f"]
        if pick < 0.8:
            return Dot(_random_tree(rng, depth - 1, (d,), ctx), _random_tree(rng, depth - 1, (d,), ctx))
        return dsl.Div(_random_tree(rng, depth - 1, (d,), ctx, plain=True))
    if want_shape == (d,):
        if pick < 0.5:
            return Add(
                _random_tree(rng, depth - 1, (d,), ctx, plain),
                _random_tree(rng, depth - 1, (d,), ctx, plain),
            )
        return Mult(
            _random_tree(rng, depth - 1, (), ctx, plain),
            _random_tree(rng, depth - 1, (d,), ctx, plain),
        )
    return dsl.Transp(_random_tree(rng, depth - 1, (d, d), ctx))


def test_random_trees_rank_discipline():
    elem = dsl.FiniteElement("Lagrange", dsl.reference_cell("triangle"), 1)
    vec = dsl.FiniteElement("Lagrange", dsl.reference_cell("triangle"), 1, 2)
    ctx = {
        "f": Coefficient(0, "f", elem),
        "g": Coefficient(1, "g", vec),
    }
    v = Argument("test", elem)
    u = Argument("trial", elem)
    rng = random.Random(1234)
    accepted = rejected = 0
    for _ in range(60):
        scalar = _random_tree(rng, 3, (), ctx)
        good = Mult(Mult(v, u), scalar)
        sig = dsl._check(good, 2)
        assert sig.shape == ()
        accepted += 1
    for _ in range(60):
        vecexpr = _random_tree(rng, 2, (2,), ctx)
        bad = Mult(Mult(v, u), Dot(vecexpr, _random_tree(rng, 2, (), ctx)))
        with pytest.raises(dsl.FormError):
            dsl._check(bad, 2)
        rejected += 1
    assert accepted == 60 and rejected == 60
