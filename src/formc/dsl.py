"""Textual form language: lexer, parser, printer and type checker.

The grammar is a frozen statement-per-line language: element and function
declarations, optional named sub-expressions, and exactly one integral
statement ``a = <expr>*dx``.  Each construct is named once: operator calls
in ``OPERATORS``, the arithmetic ``+ - * /`` and its precedence in
``INFIX``, and the declarations in ``ELEMENT_CONSTRUCTORS`` and
``FUNCTION_CONSTRUCTORS``; ``BUILTINS`` reserves them all.  Unary minus
``-x`` parses as ``-1*x``, and minus a number as a negative literal.  One
scope binds every declared name; sub-expressions are inlined at the point
of reference, so the parsed program carries a single integrand tree.

``tokenize`` lexes with one regular expression: names, decimal numbers,
double-quoted strings, ``#`` comments and ``\\`` line continuations; any
other character is an ``IllegalCharacter``.  ``Rejected``, defined here, is
the base of every refusal in formc, ``FormError`` among them; every size
bound raises ``BudgetExceeded`` through ``check_budget``.
"""

from __future__ import annotations

import math
import re
from collections import ChainMap
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
# Vocabulary: every construct's name, once

# Operator calls, name -> (node, operand count).  The parser, the printer and
# the reserved names read this table alone.
OPERATORS = {
    "grad": (Grad, 1),
    "div": (Div, 1),
    "transp": (Transp, 1),
    "dot": (Dot, 2),
    "mult": (Mult, 2),
}
# Infix operators, symbol -> (node, level); a higher level binds tighter.
INFIX = {"+": (Add, 0), "-": (Sub, 0), "*": (Mult, 1), "/": (Quotient, 1)}
_TIGHTEST = max(level for _, level in INFIX.values())
# Declarations: element constructor -> vector?, function constructor -> kind.
ELEMENT_CONSTRUCTORS = {"FiniteElement": False, "VectorElement": True}
FUNCTION_CONSTRUCTORS = {"TestFunction": "test", "TrialFunction": "trial", "Function": "coef"}
# Names no declaration may take; a view, so it follows the tables.
BUILTINS = ChainMap(OPERATORS, ELEMENT_CONSTRUCTORS, FUNCTION_CONSTRUCTORS)


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        # declared name -> (kind, value), in declaration order: kind is
        # "element", a FUNCTION_CONSTRUCTORS kind, or "expr" for a named
        # sub-expression
        self.scope: dict[str, tuple[str, object]] = {}
        self.form: tuple[str, FormExpr] | None = None
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
        functions = FUNCTION_CONSTRUCTORS.values()
        elements = tuple((n, v) for n, (kind, v) in self.scope.items() if kind == "element")
        decls = tuple((n, k, v.element) for n, (k, v) in self.scope.items() if k in functions)
        return FormProgram(elements, decls, name, integrand)

    def statement(self) -> None:
        name_tok = self.expect("name")
        self.expect("punct", "=")
        head = self.peek()
        if head.kind == "name" and head.text in ELEMENT_CONSTRUCTORS:
            self.bind(name_tok, "element", self.element_ctor())
        elif head.kind == "name" and head.text in FUNCTION_CONSTRUCTORS:
            self.bind(name_tok, *self.function_ctor(name_tok.text))
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
                self.form = (name_tok.text, expr)
            else:
                self.bind(name_tok, "expr", expr)
        if self.peek().kind == "newline":
            self.advance()
        elif self.peek().kind != "end":
            tok = self.peek()
            raise FormSyntaxError(f"unexpected {tok.text!r} after statement", tok.line, tok.col)

    def check_fresh(self, tok: Token) -> None:
        name = tok.text
        if name in self.scope or name in BUILTINS or (self.form and name == self.form[0]):
            raise DuplicateName(f"name {name!r} already defined", tok.line, tok.col)

    def bind(self, tok: Token, kind: str, value) -> None:
        self.check_fresh(tok)
        self.scope[tok.text] = (kind, value)

    def element_ctor(self) -> FiniteElement:
        head = self.advance()
        self.expect("punct", "(")
        family_tok = self.expect("string")
        self.expect("punct", ",")
        cell_tok = self.expect("string")
        self.expect("punct", ",")
        deg_tok = self.expect("number")
        self.expect("punct", ")")
        if family_tok.text not in (LAGRANGE, DISCONTINUOUS_LAGRANGE):
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
        value_dim = cell.dim if ELEMENT_CONSTRUCTORS[head.text] else 1
        try:
            return FiniteElement(family_tok.text, cell, int(degree), value_dim)
        except InvalidElement as exc:
            raise FormSyntaxError(str(exc), head.line, head.col) from None

    def function_ctor(self, name: str) -> tuple[str, FormExpr]:
        kind = FUNCTION_CONSTRUCTORS[self.advance().text]
        self.expect("punct", "(")
        elem_tok = self.expect("name")
        self.expect("punct", ")")
        elem_kind, element = self.scope.get(elem_tok.text, (None, None))
        if elem_kind != "element":
            raise UnknownName(f"unknown element {elem_tok.text!r}", elem_tok.line, elem_tok.col)
        if kind == "coef":
            index = sum(k == "coef" for k, _ in self.scope.values())
            return kind, Coefficient(index, name, element)
        return kind, Argument(kind, element)

    def expr(self, level: int = 0) -> FormExpr:
        """Operands joined left to right by the INFIX operators of ``level``;
        an operand is an expression of the next level, or past the tightest a factor."""
        node = self.expr(level + 1) if level < _TIGHTEST else self.factor()
        while (tok := self.peek()).kind == "punct" and INFIX.get(tok.text, (0, -1))[1] == level:
            if tok.text == "*" and self.peek(1).kind == "keyword":
                break  # the measure terminator '*dx' belongs to the statement
            self.advance()
            rhs = self.expr(level + 1) if level < _TIGHTEST else self.factor()
            node = INFIX[tok.text][0](node, rhs)
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
            if tok.text in OPERATORS:
                node, n_operands = OPERATORS[tok.text]
                self.advance()
                operands = []
                for k in range(n_operands):
                    self.expect("punct", "," if k else "(")
                    operands.append(self.expr())
                self.expect("punct", ")")
                return node(*operands)
            if tok.text in BUILTINS:
                raise FormSyntaxError(
                    f"{tok.text!r} is only allowed in declarations", tok.line, tok.col
                )
            self.advance()
            kind, value = self.scope.get(tok.text, (None, None))
            if kind == "element":
                raise UnknownName(f"element {tok.text!r} used as a value", tok.line, tok.col)
            if kind is None:
                raise UnknownName(f"unknown name {tok.text!r}", tok.line, tok.col)
            return value
        raise FormSyntaxError(f"unexpected {tok.text or tok.kind!r}", tok.line, tok.col)


def parse(tokens: list[Token]) -> FormProgram:
    return _Parser(tokens).parse()


def parse_source(source: str) -> FormProgram:
    return parse(tokenize(source))


# ---------------------------------------------------------------------------
# Printer


def _print_expr(expr: FormExpr, names: dict, context: int = 0) -> str:
    """Source text of ``expr``.  ``context`` is 2*level of the infix operator
    that ``expr`` is an operand of, plus 1 on its right; an infix ``expr`` is
    parenthesised if it binds less tightly, or as tightly on the right."""
    if isinstance(expr, Argument):
        return names[expr.role]
    if isinstance(expr, Coefficient):
        return expr.name
    if isinstance(expr, ScalarLiteral):
        return repr(expr.value)
    for op, (node, level) in INFIX.items():
        if type(expr) is node:
            sep = op if level else f" {op} "
            left = _print_expr(expr.a, names, 2 * level)
            s = left + sep + _print_expr(expr.b, names, 2 * level + 1)
            return f"({s})" if context > 2 * level else s
    for name, (node, _) in OPERATORS.items():
        if type(expr) is node:
            return f"{name}({', '.join(_print_expr(c, names) for c in _children(expr))})"
    raise TypeError(f"cannot print {expr!r}")


def to_source(program: FormProgram) -> str:
    """Regenerate a source text whose parse equals this program's AST."""
    element_ctor = {vector: name for name, vector in ELEMENT_CONSTRUCTORS.items()}
    function_ctor = {kind: name for name, kind in FUNCTION_CONSTRUCTORS.items()}
    lines = []
    elem_names = {}
    for name, elem in program.element_decls:
        elem_names[elem] = name
        ctor = element_ctor[elem.is_vector]
        lines.append(f'{name} = {ctor}("{elem.family}", "{elem.cell.name}", {elem.degree})')
    names = {}  # role -> the argument's declared name
    for name, kind, elem in program.function_decls:
        lines.append(f"{name} = {function_ctor[kind]}({elem_names[elem]})")
        names[kind] = name
    lines.append(f"{program.form_name} = {_print_expr(program.integrand, names)}*dx")
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

    @property
    def tensor_shape(self) -> tuple:
        """Element-tensor shape: test dofs, then trial dofs if bilinear."""
        return tuple(e.space_dim for e in (self.test_element, self.trial_element)[: self.arity])

    @property
    def coef_sizes(self) -> tuple:
        """Dofs of each coefficient, in declaration order."""
        return tuple(element.space_dim for _, element in self.coefficients)

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
        if a.order > 0:  # also refuses rank 2, which only grad makes
            raise UnsupportedSecondDerivative("grad of a differentiated expression")
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
    """A node's operands: its fields that are expressions."""
    return tuple(v for v in vars(expr).values() if isinstance(v, FormExpr))


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
