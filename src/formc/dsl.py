"""Textual form language: lexer, parser, printer and type checker.

The grammar is a frozen statement-per-line language: element and function
declarations, optional named sub-expressions, and exactly one integral
statement ``a = <expr>*dx``.  Operators are ``grad``, ``div``, ``dot``,
``transp``, ``mult`` and the arithmetic ``+ - * /`` with conventional
precedence.  Unary minus ``-x`` parses as ``-1*x``, and minus a number as
a negative literal.  Sub-expressions are inlined at the point of reference,
so the parsed program carries a single integrand tree.

``tokenize`` lexes with one regular expression: names, decimal numbers,
double-quoted strings, ``#`` comments and ``\\`` line continuations; any
other character is an ``IllegalCharacter``.  ``Rejected``, defined here, is
the base of every refusal in formc, ``FormError`` among them; every size
bound raises ``BudgetExceeded`` through ``check_budget``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .elements import (
    DISCONTINUOUS_LAGRANGE,
    LAGRANGE,
    FiniteElement,
    InvalidElement,
    reference_cell,
)


# ---------------------------------------------------------------------------
# Errors


class Rejected(Exception):
    """Base of every refusal: an input formc declines, never a fault of formc."""


class BudgetExceeded(Rejected, MemoryError):
    """A size bound refused its input before anything of that size was allocated."""

    def __init__(self, message: str, value: int, limit: int):
        super().__init__(message)
        self.value = value
        self.limit = limit


def check_budget(value: int, limit: int, message: str) -> None:
    """Raise BudgetExceeded if value > limit; ``message`` formats (value, limit)."""
    if value > limit:
        raise BudgetExceeded(message.format(value, limit), value, limit)


class FormError(Rejected):
    """Base class for all form-language errors."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class IllegalCharacter(FormError):
    pass


class FormSyntaxError(FormError):
    pass


class DuplicateName(FormError):
    pass


class UnknownName(FormError):
    pass


class RankMismatch(FormError):
    pass


class TwoTestFunctions(FormError):
    pass


class NonScalarIntegrand(FormError):
    pass


class DivisionByNonScalar(FormError):
    pass


class ArityMismatch(FormError):
    """Integrand is not multilinear in the test/trial functions."""


class UnsupportedSecondDerivative(FormError):
    """Second derivatives are only supported as div(grad(scalar))."""


class CellMismatch(FormError):
    pass


# Deepest expression tree, and deepest nesting of parentheses, operator
# calls and unary minus, that the parser accepts.  It keeps every recursive
# pass over the tree (parser, type checker, lowering, printer) far from
# Python's recursion limit.
MAX_EXPR_DEPTH = 100

# Most nodes of the integrand once named sub-expressions are inlined.  The
# type checker walks a shared node once per use, so a chain of squarings
# would otherwise double its work with every line.
MAX_EXPR_NODES = 100_000


# ---------------------------------------------------------------------------
# Tokens

KEYWORDS = frozenset({"dx"})
BUILTINS = frozenset(
    {
        "FiniteElement",
        "VectorElement",
        "TestFunction",
        "TrialFunction",
        "Function",
        "grad",
        "div",
        "dot",
        "mult",
        "transp",
    }
)


@dataclass(frozen=True)
class Token:
    kind: str  # "name" | "number" | "string" | "punct" | "keyword" | "newline" | "end"
    text: str
    line: int
    col: int


# One alternative per token kind, the common ones first, and a last one for
# any other character.  ``\d`` matches the decimal digits that ``float``
# accepts.  ``[^\W\d]`` also lets in word characters that are not letters,
# such as ``²``; ``tokenize`` rejects those as a name's first character.
_TOKEN = re.compile(
    r"""
    (?P<skip>[ \t\r]+|\#[^\n]*)
  | (?P<name>[^\W\d]\w*)
  | (?P<punct>[()=,+\-*/])
  | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<newline>\n)
  | (?P<string>"[^"\n]*")
  | (?P<continuation>\\\n)
  | (?P<unterminated>")
  | (?P<illegal>.)
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> list[Token]:
    """Lex a form source into tokens; ``#`` comments are dropped.

    Newlines are statement separators and are suppressed inside parentheses
    and after a ``\\`` continuation.
    """
    tokens: list[Token] = []
    line, col, depth = 1, 1, 0
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "illegal" or (kind == "name" and not (text[0].isalpha() or text[0] == "_")):
            raise IllegalCharacter(f"illegal character {text[0]!r}", line, col)
        if kind == "unterminated":
            raise FormSyntaxError("unterminated string literal", line, col)
        if kind == "newline" and depth == 0 and tokens and tokens[-1].kind != "newline":
            tokens.append(Token(kind, text, line, col))
        if kind == "newline" or kind == "continuation":
            line, col = line + 1, 1
            continue
        if kind == "name" and text in KEYWORDS:
            kind = "keyword"
        elif text == "(":
            depth += 1
        elif text == ")":
            depth = max(0, depth - 1)
        if kind != "skip":
            tokens.append(Token(kind, text[1:-1] if kind == "string" else text, line, col))
        col += len(text)
    if tokens and tokens[-1].kind == "newline":
        tokens.pop()
    tokens.append(Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# AST


class FormExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Argument(FormExpr):
    role: str  # "test" | "trial"
    element: FiniteElement


@dataclass(frozen=True)
class Coefficient(FormExpr):
    index: int
    name: str
    element: FiniteElement


@dataclass(frozen=True)
class ScalarLiteral(FormExpr):
    value: float


@dataclass(frozen=True)
class Grad(FormExpr):
    operand: FormExpr


@dataclass(frozen=True)
class Div(FormExpr):
    operand: FormExpr


@dataclass(frozen=True)
class Transp(FormExpr):
    operand: FormExpr


@dataclass(frozen=True)
class Dot(FormExpr):
    a: FormExpr
    b: FormExpr


@dataclass(frozen=True)
class Mult(FormExpr):
    a: FormExpr
    b: FormExpr


@dataclass(frozen=True)
class Add(FormExpr):
    a: FormExpr
    b: FormExpr


@dataclass(frozen=True)
class Sub(FormExpr):
    a: FormExpr
    b: FormExpr


@dataclass(frozen=True)
class Quotient(FormExpr):
    a: FormExpr
    b: FormExpr


@dataclass(frozen=True)
class FormProgram:
    """Parsed form file: declarations plus one inlined integrand."""

    element_decls: tuple  # ((name, FiniteElement), ...)
    function_decls: tuple  # ((name, kind, FiniteElement), ...); kind test/trial/coef
    form_name: str
    integrand: FormExpr


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.elements: dict[str, FiniteElement] = {}
        self.functions: dict[str, FormExpr] = {}
        self.named: dict[str, FormExpr] = {}
        self.element_decls: list = []
        self.function_decls: list = []
        self.form: tuple[str, FormExpr] | None = None
        self.n_coefficients = 0
        self.nesting = 0

    # -- token helpers

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise FormSyntaxError(
                f"expected {want!r}, found {tok.text or tok.kind!r}", tok.line, tok.col
            )
        return self.advance()

    # -- grammar

    def parse(self) -> FormProgram:
        while self.peek().kind != "end":
            if self.peek().kind == "newline":
                self.advance()
                continue
            self.statement()
        if self.form is None:
            tok = self.peek()
            raise FormSyntaxError("missing integral statement '<expr>*dx'", tok.line, tok.col)
        name, integrand = self.form
        height, nodes = _extent(integrand)
        if height > MAX_EXPR_DEPTH:
            raise FormSyntaxError(f"integrand is nested deeper than {MAX_EXPR_DEPTH} levels")
        if nodes > MAX_EXPR_NODES:
            raise FormSyntaxError(
                f"integrand has {nodes} nodes once inlined, more than {MAX_EXPR_NODES}"
            )
        return FormProgram(
            tuple(self.element_decls), tuple(self.function_decls), name, integrand
        )

    def statement(self) -> None:
        name_tok = self.expect("name")
        name = name_tok.text
        self.expect("punct", "=")
        head = self.peek()
        if head.kind == "name" and head.text in ("FiniteElement", "VectorElement"):
            self.declare(name_tok, self.element_ctor())
        elif head.kind == "name" and head.text in ("TestFunction", "TrialFunction", "Function"):
            self.function_ctor(name_tok)
        else:
            expr = self.expr()
            if self.peek().kind == "punct" and self.peek().text == "*":
                self.advance()
                self.expect("keyword", "dx")
                if self.form is not None:
                    raise FormSyntaxError(
                        "multiple integral statements", name_tok.line, name_tok.col
                    )
                self.check_fresh(name_tok)
                self.form = (name, expr)
            else:
                self.check_fresh(name_tok)
                self.named[name] = expr
        if self.peek().kind == "newline":
            self.advance()
        elif self.peek().kind != "end":
            tok = self.peek()
            raise FormSyntaxError(f"unexpected {tok.text!r} after statement", tok.line, tok.col)

    def check_fresh(self, tok: Token) -> None:
        name = tok.text
        if (
            name in self.elements
            or name in self.functions
            or name in self.named
            or name in BUILTINS
            or name in KEYWORDS
            or (self.form is not None and name == self.form[0])
        ):
            raise DuplicateName(f"name {name!r} already defined", tok.line, tok.col)

    def declare(self, tok: Token, element: FiniteElement) -> None:
        self.check_fresh(tok)
        self.elements[tok.text] = element
        self.element_decls.append((tok.text, element))

    def element_ctor(self) -> FiniteElement:
        head = self.advance()
        vector = head.text == "VectorElement"
        self.expect("punct", "(")
        family_tok = self.expect("string")
        self.expect("punct", ",")
        cell_tok = self.expect("string")
        self.expect("punct", ",")
        deg_tok = self.expect("number")
        self.expect("punct", ")")
        if family_tok.text == "Lagrange":
            family = LAGRANGE
        elif family_tok.text == "Discontinuous Lagrange":
            family = DISCONTINUOUS_LAGRANGE
        else:
            raise FormSyntaxError(
                f"unknown element family {family_tok.text!r}", family_tok.line, family_tok.col
            )
        try:
            cell = reference_cell(cell_tok.text)
        except InvalidElement as exc:
            raise FormSyntaxError(str(exc), cell_tok.line, cell_tok.col) from None
        degree = float(deg_tok.text)
        if not degree.is_integer() or degree < 0:
            raise FormSyntaxError("degree must be a non-negative integer", deg_tok.line, deg_tok.col)
        try:
            return FiniteElement(family, cell, int(degree), cell.dim if vector else 1)
        except InvalidElement as exc:
            raise FormSyntaxError(str(exc), head.line, head.col) from None

    def function_ctor(self, name_tok: Token) -> None:
        head = self.advance()
        self.expect("punct", "(")
        elem_tok = self.expect("name")
        self.expect("punct", ")")
        element = self.elements.get(elem_tok.text)
        if element is None:
            raise UnknownName(f"unknown element {elem_tok.text!r}", elem_tok.line, elem_tok.col)
        self.check_fresh(name_tok)
        if head.text == "TestFunction":
            node: FormExpr = Argument("test", element)
            kind = "test"
        elif head.text == "TrialFunction":
            node = Argument("trial", element)
            kind = "trial"
        else:
            node = Coefficient(self.n_coefficients, name_tok.text, element)
            self.n_coefficients += 1
            kind = "coef"
        self.functions[name_tok.text] = node
        self.function_decls.append((name_tok.text, kind, element))

    def expr(self) -> FormExpr:
        node = self.term()
        while self.peek().kind == "punct" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> FormExpr:
        node = self.factor()
        while self.peek().kind == "punct" and self.peek().text in "*/":
            if self.peek().text == "*" and self.peek(1).kind == "keyword":
                break  # the measure terminator '*dx' belongs to the statement
            op = self.advance().text
            rhs = self.factor()
            node = Mult(node, rhs) if op == "*" else Quotient(node, rhs)
        return node

    def factor(self) -> FormExpr:
        tok = self.peek()
        self.nesting += 1
        if self.nesting > MAX_EXPR_DEPTH:
            raise FormSyntaxError(
                f"expression is nested deeper than {MAX_EXPR_DEPTH} levels", tok.line, tok.col
            )
        try:
            return self.primary(tok)
        finally:
            self.nesting -= 1

    def primary(self, tok: Token) -> FormExpr:
        if tok.kind == "punct" and tok.text == "-":
            self.advance()
            operand = self.factor()
            if isinstance(operand, ScalarLiteral):
                return ScalarLiteral(-operand.value)
            return Mult(ScalarLiteral(-1.0), operand)
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect("punct", ")")
            return node
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise FormSyntaxError(f"literal {tok.text} is not finite", tok.line, tok.col)
            return ScalarLiteral(value)
        if tok.kind == "name":
            if tok.text in ("grad", "div", "transp"):
                self.advance()
                self.expect("punct", "(")
                operand = self.expr()
                self.expect("punct", ")")
                ctor = {"grad": Grad, "div": Div, "transp": Transp}[tok.text]
                return ctor(operand)
            if tok.text in ("dot", "mult"):
                self.advance()
                self.expect("punct", "(")
                a = self.expr()
                self.expect("punct", ",")
                b = self.expr()
                self.expect("punct", ")")
                return Dot(a, b) if tok.text == "dot" else Mult(a, b)
            if tok.text in BUILTINS:
                raise FormSyntaxError(
                    f"{tok.text!r} is only allowed in declarations", tok.line, tok.col
                )
            self.advance()
            if tok.text in self.functions:
                return self.functions[tok.text]
            if tok.text in self.named:
                return self.named[tok.text]
            if tok.text in self.elements:
                raise UnknownName(
                    f"element {tok.text!r} used as a value", tok.line, tok.col
                )
            raise UnknownName(f"unknown name {tok.text!r}", tok.line, tok.col)
        raise FormSyntaxError(f"unexpected {tok.text or tok.kind!r}", tok.line, tok.col)


def parse(tokens: list[Token]) -> FormProgram:
    return _Parser(tokens).parse()


def parse_source(source: str) -> FormProgram:
    return parse(tokenize(source))


# ---------------------------------------------------------------------------
# Printer


def _print_expr(expr: FormExpr, names: dict, prec: int = 0) -> str:
    if isinstance(expr, Argument):
        return names[expr.role]
    if isinstance(expr, Coefficient):
        return expr.name
    if isinstance(expr, ScalarLiteral):
        return repr(expr.value)
    if isinstance(expr, Grad):
        return f"grad({_print_expr(expr.operand, names)})"
    if isinstance(expr, Div):
        return f"div({_print_expr(expr.operand, names)})"
    if isinstance(expr, Transp):
        return f"transp({_print_expr(expr.operand, names)})"
    if isinstance(expr, Dot):
        return f"dot({_print_expr(expr.a, names)}, {_print_expr(expr.b, names)})"
    if isinstance(expr, (Add, Sub)):
        op = " + " if isinstance(expr, Add) else " - "
        s = _print_expr(expr.a, names, 1) + op + _print_expr(expr.b, names, 2)
        return f"({s})" if prec >= 2 else s
    if isinstance(expr, (Mult, Quotient)):
        op = "*" if isinstance(expr, Mult) else "/"
        s = _print_expr(expr.a, names, 3) + op + _print_expr(expr.b, names, 4)
        return f"({s})" if prec >= 4 else s
    raise TypeError(f"cannot print {expr!r}")


def to_source(program: FormProgram) -> str:
    """Regenerate a source text whose parse equals this program's AST."""
    lines = []
    elem_names = {}
    for name, elem in program.element_decls:
        elem_names[elem] = name
        ctor = "VectorElement" if elem.is_vector else "FiniteElement"
        fam = "Lagrange" if elem.family == LAGRANGE else "Discontinuous Lagrange"
        lines.append(f'{name} = {ctor}("{fam}", "{elem.cell.name}", {elem.degree})')
    arg_names = {}
    for name, kind, elem in program.function_decls:
        ctor = {"test": "TestFunction", "trial": "TrialFunction", "coef": "Function"}[kind]
        lines.append(f"{name} = {ctor}({elem_names[elem]})")
        if kind in ("test", "trial"):
            arg_names[kind] = name
    body = _print_expr(program.integrand, arg_names)
    lines.append(f"{program.form_name} = {body}*dx")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Type checking


@dataclass(frozen=True)
class TypedForm:
    """Rank-checked form: one test function, optional trial, ordered coefficients."""

    cell: object  # ReferenceCell
    test_element: FiniteElement
    trial_element: FiniteElement | None
    coefficients: tuple  # ((name, FiniteElement), ...) in declaration order
    integrand: FormExpr

    @property
    def arity(self) -> int:
        return 2 if self.trial_element is not None else 1

    def element_of(self, role: str, coef: int = -1) -> FiniteElement:
        if role == "test":
            return self.test_element
        if role == "trial":
            return self.trial_element
        return self.coefficients[coef][1]


@dataclass(frozen=True)
class _Sig:
    shape: tuple
    order: int  # max derivative order applied to any leaf
    n_test: int
    n_trial: int


def _check(expr: FormExpr, d: int) -> _Sig:
    if isinstance(expr, Argument):
        shape = (d,) if expr.element.is_vector else ()
        return _Sig(shape, 0, int(expr.role == "test"), int(expr.role == "trial"))
    if isinstance(expr, Coefficient):
        shape = (d,) if expr.element.is_vector else ()
        return _Sig(shape, 0, 0, 0)
    if isinstance(expr, ScalarLiteral):
        return _Sig((), 0, 0, 0)
    if isinstance(expr, Grad):
        a = _check(expr.operand, d)
        if a.order > 0:
            raise UnsupportedSecondDerivative("grad of a differentiated expression")
        if len(a.shape) >= 2:
            raise RankMismatch("grad of a rank-2 expression is not supported")
        return _Sig(a.shape + (d,), 1, a.n_test, a.n_trial)
    if isinstance(expr, Div):
        a = _check(expr.operand, d)
        if len(a.shape) < 1:
            raise RankMismatch("div requires a vector or tensor operand")
        if a.order == 0:
            order = 1
        elif isinstance(expr.operand, Grad) and len(a.shape) == 1:
            order = 2  # the Laplacian pattern div(grad(scalar))
        else:
            raise UnsupportedSecondDerivative(
                "second derivatives are only supported as div(grad(scalar))"
            )
        return _Sig(a.shape[:-1], order, a.n_test, a.n_trial)
    if isinstance(expr, Transp):
        a = _check(expr.operand, d)
        if len(a.shape) != 2:
            raise RankMismatch("transp requires a rank-2 operand")
        return _Sig((a.shape[1], a.shape[0]), a.order, a.n_test, a.n_trial)
    if isinstance(expr, (Add, Sub)):
        a = _check(expr.a, d)
        b = _check(expr.b, d)
        if a.shape != b.shape:
            raise RankMismatch(f"cannot add shapes {a.shape} and {b.shape}")
        if (a.n_test, a.n_trial) != (b.n_test, b.n_trial):
            raise ArityMismatch("inconsistent argument use across a sum")
        return _Sig(a.shape, max(a.order, b.order), a.n_test, a.n_trial)
    if isinstance(expr, Mult):
        a = _check(expr.a, d)
        b = _check(expr.b, d)
        if a.shape != () and b.shape != ():
            raise RankMismatch("'*'/mult requires at least one scalar operand; use dot")
        return _combine_product(a, b)
    if isinstance(expr, Dot):
        a = _check(expr.a, d)
        b = _check(expr.b, d)
        if a.shape != b.shape:
            raise RankMismatch(f"dot requires matching shapes, got {a.shape} and {b.shape}")
        sig = _combine_product(a, b)
        return _Sig((), sig.order, sig.n_test, sig.n_trial)
    if isinstance(expr, Quotient):
        a = _check(expr.a, d)
        b = _check(expr.b, d)
        if b.shape != ():
            raise DivisionByNonScalar("denominator must be scalar")
        if b.n_test or b.n_trial:
            raise ArityMismatch("cannot divide by a test or trial function")
        return _Sig(a.shape, max(a.order, b.order), a.n_test, a.n_trial)
    raise TypeError(f"unknown expression node {expr!r}")


def _combine_product(a: _Sig, b: _Sig) -> _Sig:
    n_test = a.n_test + b.n_test
    n_trial = a.n_trial + b.n_trial
    if n_test > 1:
        raise TwoTestFunctions("form is nonlinear in the test function")
    if n_trial > 1:
        raise ArityMismatch("form is nonlinear in the trial function")
    shape = a.shape if a.shape != () else b.shape
    return _Sig(shape, max(a.order, b.order), n_test, n_trial)


def _children(expr: FormExpr) -> tuple:
    if isinstance(expr, (Grad, Div, Transp)):
        return (expr.operand,)
    if isinstance(expr, (Dot, Mult, Add, Sub, Quotient)):
        return (expr.a, expr.b)
    return ()


def _extent(root: FormExpr) -> tuple[int, int]:
    """Levels and inlined node count of the expression tree, without recursion.

    Named sub-expressions are shared nodes, so both are memoised by node
    identity (hashing a node would itself recurse through the tree); a
    shared node counts once per use.
    """
    extent: dict = {}
    stack = [root]
    while stack:
        node = stack[-1]
        pending = [c for c in _children(node) if id(c) not in extent]
        if pending:
            stack.extend(pending)
        else:
            stack.pop()
            below = [extent[id(c)] for c in _children(node)]
            extent[id(node)] = (
                1 + max((h for h, _ in below), default=0),
                1 + sum(n for _, n in below),
            )
    return extent[id(root)]


def _collect_leaves(expr: FormExpr, out: set) -> None:
    if isinstance(expr, (Argument, Coefficient)):
        out.add(expr)
    for child in _children(expr):
        _collect_leaves(child, out)


def typecheck(program: FormProgram) -> TypedForm:
    """Validate ranks, derivative orders and multilinearity; fix coefficient order."""
    cells = {elem.cell for _, elem in program.element_decls}
    cells |= {elem.cell for _, _, elem in program.function_decls}
    if len(cells) > 1:
        raise CellMismatch("all elements in a form must share one cell")
    leaves: set = set()
    _collect_leaves(program.integrand, leaves)
    tests = [l for l in leaves if isinstance(l, Argument) and l.role == "test"]
    trials = [l for l in leaves if isinstance(l, Argument) and l.role == "trial"]
    if len(tests) > 1:
        raise TwoTestFunctions("integrand references two distinct test functions")
    if len(trials) > 1:
        raise ArityMismatch("integrand references two distinct trial functions")
    if not tests:
        raise ArityMismatch("integrand has no test function")
    cell = tests[0].element.cell
    sig = _check(program.integrand, cell.dim)
    if sig.shape != ():
        raise NonScalarIntegrand(f"integrand has shape {sig.shape}, expected a scalar")
    if sig.n_test != 1:
        raise ArityMismatch("every additive term must contain the test function")
    coefficients = tuple(
        (name, elem) for name, kind, elem in program.function_decls if kind == "coef"
    )
    return TypedForm(
        cell=cell,
        test_element=tests[0].element,
        trial_element=trials[0].element if trials else None,
        coefficients=coefficients,
        integrand=program.integrand,
    )
