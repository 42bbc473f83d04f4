import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from formc import dsl, forms
from formc.dsl import (
    Add,
    Argument,
    ArityMismatch,
    CellMismatch,
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


_P1_HEADER = (
    'element = FiniteElement("Lagrange", "triangle", 1)\n'
    "v = TestFunction(element)\nu = TrialFunction(element)\n"
)


@pytest.mark.parametrize(
    "source,err,message",
    [
        (_P1_HEADER + "a = v*u*dx\nb = v*u*dx\n", FormSyntaxError, "multiple integral statements"),
        (_P1_HEADER.replace(", 1)", ", 1.5)"), FormSyntaxError, "non-negative integer"),
        (_P1_HEADER + "a = v*Function*dx\n", FormSyntaxError, "only allowed in declarations"),
        (_P1_HEADER + "a = element*v*dx\n", UnknownName, "used as a value"),
        (_P1_HEADER + "a = *v*u*dx\n", FormSyntaxError, "unexpected '\\*'"),
    ],
    ids=[
        "second-integral", "fractional-degree", "builtin-as-value", "element-as-value",
        "leading-operator",
    ],
)
def test_parse_rejections(source, err, message):
    with pytest.raises(err, match=message):
        parse_source(source)


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


_P2_DG0 = (
    'p2 = FiniteElement("Lagrange", "triangle", 2)\n'
    'dg0 = FiniteElement("Discontinuous Lagrange", "triangle", 0)\n'
    'vec = VectorElement("Lagrange", "triangle", 1)\n'
    "v = TestFunction(p2)\nu = TrialFunction(dg0)\nf = Function(dg0)\ng = Function(vec)\n"
)


# (source, element-tensor shape, dofs per coefficient)
@pytest.mark.parametrize(
    "source,shape,coef_sizes",
    [
        (_P2_DG0 + "a = f*v*dx\n", (6,), (1, 6)),  # linear
        (forms.weighted_laplacian(3, 3), (20, 20), (20,)),  # bilinear
        (forms.vector_poisson_div(2, 1, 1, 2), (12, 12), (6,)),  # vector
        (_P2_DG0 + "a = f*v*u*div(g)*dx\n", (6, 1), (1, 6)),  # mixed P2 x DG0
    ],
)
def test_typed_form_frames_its_element_tensor(source, shape, coef_sizes):
    typed = typecheck(parse_source(source))
    assert typed.tensor_shape == shape
    assert typed.coef_sizes == coef_sizes


# declarations that some rejected integrands need besides _scalar_base(); a
# second argument on the same element would be the same argument
_EXTRA_DECLARATIONS = {
    "v*u + w*u": 'p2 = FiniteElement("Lagrange", "triangle", 2)\nw = TestFunction(p2)\n',
    "v*u + v*z": 'p2 = FiniteElement("Lagrange", "triangle", 2)\nz = TrialFunction(p2)\n',
    "v*u*h": 'tet = FiniteElement("Lagrange", "tetrahedron", 1)\nh = Function(tet)\n',
}


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
        ("v*u*dot(div(grad(g)), g)", UnsupportedSecondDerivative),  # div(grad(vector))
        ("mult(v, g)", NonScalarIntegrand),
        ("v + grad(v)", RankMismatch),
        ("v*u*u", ArityMismatch),
        ("v*u + w*u", TwoTestFunctions),
        ("v*u + v*z", ArityMismatch),
        ("v*u*h", CellMismatch),
    ],
)
def test_typecheck_rejections(body, err):
    source = _scalar_base() + _EXTRA_DECLARATIONS.get(body, "") + f"a = {body}*dx\n"
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
# The vocabulary tables

# One typed integrand per table entry, over the declarations of _scalar_base().
CALL_INTEGRANDS = {
    "grad": "dot(grad(f), grad(v))*u",
    "div": "div(g)*v*u",
    "transp": "dot(grad(g), transp(grad(g)))*v*u",
    "dot": "dot(g, g)*v*u",
    "mult": "mult(f, v)*u",
}
INFIX_INTEGRANDS = {"+": "v*u + f*v*u", "-": "v*u - f*v*u", "*": "f*v*u", "/": "v*u/f"}


def _nodes(expr):
    yield expr
    for child in dsl._children(expr):
        yield from _nodes(child)


def test_every_table_entry_has_an_integrand():
    assert sorted(CALL_INTEGRANDS) == sorted(dsl.OPERATORS)
    assert sorted(INFIX_INTEGRANDS) == sorted(dsl.INFIX)
    tables = (dsl.OPERATORS, dsl.ELEMENT_CONSTRUCTORS, dsl.FUNCTION_CONSTRUCTORS)
    assert sorted(dsl.BUILTINS) == sorted(name for table in tables for name in table)


@pytest.mark.parametrize(
    "symbol,integrand",
    [(name, CALL_INTEGRANDS[name]) for name in sorted(CALL_INTEGRANDS)]
    + [(symbol, INFIX_INTEGRANDS[symbol]) for symbol in sorted(INFIX_INTEGRANDS)],
)
def test_table_entry_parses_and_round_trips(symbol, integrand):
    program = parse_source(_scalar_base() + f"a = {integrand}*dx\n")
    typecheck(program)
    node = (dsl.OPERATORS.get(symbol) or dsl.INFIX[symbol])[0]
    assert any(type(n) is node for n in _nodes(program.integrand))
    assert parse_source(to_source(program)).integrand == program.integrand


@pytest.mark.parametrize("name", sorted(dsl.BUILTINS))
def test_reserved_name_is_refused_as_a_declared_name_and_as_a_value(name):
    source = _scalar_base() + f"{name} = v*u\n"
    with pytest.raises(DuplicateName, match=f"7:1: name '{name}' already defined"):
        parse_source(source)
    # an operator name must be called; any other reserved name only declares
    if name in dsl.OPERATORS:
        message = f"7:{len(name) + 7}: expected '\\(', found '\\*'"
    else:
        message = f"7:7: '{name}' is only allowed in declarations"
    with pytest.raises(FormSyntaxError, match=message):
        parse_source(_scalar_base() + f"a = v*{name}*u*dx\n")


@dataclass(frozen=True)
class _MatMul(dsl.FormExpr):
    a: dsl.FormExpr
    b: dsl.FormExpr


def test_an_operator_call_needs_only_its_table_row(monkeypatch):
    monkeypatch.setitem(dsl.OPERATORS, "matmul", (_MatMul, 2))
    program = parse_source(_scalar_base() + "a = dot(matmul(grad(g), g), grad(v))*u*dx\n")
    g = Coefficient(1, "g", program.element_decls[1][1])
    assert program.integrand.a.a == _MatMul(Grad(g), g)
    assert "dot(matmul(grad(g), g), grad(v))*u" in to_source(program)
    assert parse_source(to_source(program)).integrand == program.integrand
    with pytest.raises(DuplicateName):
        parse_source(_scalar_base() + "matmul = v*u\n")


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
