"""Lower a typed form to a canonical sum of monomials in reference coordinates.

Expansion distributes sums over products, unrolls every component contraction,
and rewrites each physical derivative d/dx_b as a bound sum over reference
directions, sum_a Jinv(a, b) d/dX_a (the affine chain rule; Jinv is constant
per cell).  Every monomial carries exactly one determinant factor from the
change of measure.  Division by a coefficient is kept in a separate
denominator factor list.

A bound index is a position, not an object: a factor's ``derivs`` hold its
sorted physical directions b, and bound index k stands for the k-th of
them in factor order (``Monomial.directions``), summed over the reference
directions a of d/dX_a and Jinv(a, b).  ``BasisFactor.assignments`` walks a
factor's in ``product(range(d), repeat=k)`` order, so the product of a
monomial's factor assignments, in factor order, walks its own in
``product(range(d), repeat=n_bound)`` order; both kernel builders sum so.

``dsl.typecheck`` is the one judge of shape, arity and derivative order, so
every term has one test factor, one trial factor when the form is bilinear,
at most two derivatives per factor and none in a denominator.  Lowering
refuses only what the type checker cannot see: a denominator that is not one
product, an expansion beyond ``MAX_EXPANDED_TERMS`` and a non-finite constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

from . import dsl
from .dsl import FormExpr, TypedForm


class UnsupportedDenominator(dsl.FormError):
    """Denominators must be products of underived coefficient factors."""


class ExpansionTooLarge(dsl.FormError):
    """One expansion step would create more than MAX_EXPANDED_TERMS terms."""


class NonFiniteConstant(dsl.FormError):
    """Folding the literal constants of a monomial overflowed."""


MAX_EXPANDED_TERMS = 20_000


@dataclass(frozen=True)
class BasisFactor:
    """One basis-function evaluation: role, component, physical derivative.

    ``sort_key`` is the chain-rule order: (role, coefficient, component,
    derivative count, physical directions).  Handing out bound indices in
    this order gives, among all relabellings of a monomial's bound
    indices, the least key: fewer derivatives sort first within equal
    basis functions, and factors that tie in everything but their physical
    directions take the lower labels for the lower directions.  Monomials
    equal up to a relabelling therefore come out syntactically equal.
    """

    role: str  # "test" | "trial" | "coef"
    coef: int  # coefficient id, -1 for arguments
    component: int
    derivs: tuple  # sorted physical directions, order <= 2

    def sort_key(self) -> tuple:
        return (ROLE_ORDER[self.role], self.coef, self.component, len(self.derivs), self.derivs)

    def assignments(self, d: int) -> list:
        """(sorted reference directions, Jinv (ref, phys) pairs) per assignment
        of the factor's bound indices, in ``product(range(d), repeat=k)`` order."""
        return [
            (tuple(sorted(refs)), tuple(zip(refs, self.derivs)))
            for refs in product(range(d), repeat=len(self.derivs))
        ]


ROLE_ORDER = {"test": 0, "trial": 1, "coef": 2}


@dataclass(frozen=True)
class Monomial:
    """constant * product of basis factors * Jinv factors * det [/ denominators].

    The factors are in chain-rule order, so monomials equal up to a
    relabelling of their bound indices are equal (see ``BasisFactor``).
    The Jinv factors are Jinv(k, directions[k]), one per bound index k.
    The determinant factor from the measure is implicit: every monomial
    carries exactly one.
    """

    constant: float
    factors: tuple  # BasisFactor, chain-rule order
    denominators: tuple  # BasisFactor with empty derivs

    @property
    def directions(self) -> tuple:
        """Physical direction of each bound index."""
        return tuple(b for f in self.factors for b in f.derivs)

    @property
    def n_bound(self) -> int:
        return sum(len(f.derivs) for f in self.factors)

    def signature(self) -> tuple:
        """Basis structure shared by monomials with one reference tensor:
        the factors' keys without their directions, the denominators' keys."""
        return (
            tuple(f.sort_key()[:4] for f in self.factors),
            tuple(f.sort_key() for f in self.denominators),
        )


@dataclass(frozen=True)
class MonomialSum:
    form: TypedForm
    monomials: tuple

    @property
    def has_division(self) -> bool:
        return any(m.denominators for m in self.monomials)


# ---------------------------------------------------------------------------
# Phase 1: symbolic evaluation in physical coordinates


def _mk_term(const, factors, denoms) -> Monomial:
    return Monomial(
        const,
        tuple(sorted(factors, key=BasisFactor.sort_key)),
        tuple(sorted(denoms, key=BasisFactor.sort_key)),
    )


def _mul_terms(a: Monomial, b: Monomial) -> Monomial:
    return _mk_term(a.constant * b.constant, a.factors + b.factors, a.denominators + b.denominators)


def _check_terms(n: int) -> None:
    """Called before every step that multiplies or concatenates term lists."""
    if n > MAX_EXPANDED_TERMS:
        raise ExpansionTooLarge(f"expansion needs {n} terms, more than {MAX_EXPANDED_TERMS}")


def _ddx_terms(terms, b: int):
    """Differentiate a term list with respect to x_b (product/quotient rule)."""
    _check_terms(sum(len(t.factors) + len(t.denominators) for t in terms))
    out = []
    for t in terms:
        for k, f in enumerate(t.factors):
            df = replace(f, derivs=tuple(sorted(f.derivs + (b,))))
            factors = t.factors[:k] + (df,) + t.factors[k + 1 :]
            out.append(_mk_term(t.constant, factors, t.denominators))
        for g in t.denominators:
            dg = replace(g, derivs=tuple(sorted(g.derivs + (b,))))
            out.append(_mk_term(-t.constant, t.factors + (dg,), t.denominators + (g,)))
    return tuple(out)


def _leaf_value(role: str, coef: int, element, d: int):
    if element.is_vector:
        return {(c,): (_mk_term(1.0, (BasisFactor(role, coef, c, ()),), ()),) for c in range(d)}
    return {(): (_mk_term(1.0, (BasisFactor(role, coef, 0, ()),), ()),)}


def _eval(expr: FormExpr, d: int) -> dict:
    """Evaluate to a component map: index tuple -> tuple of terms."""
    if isinstance(expr, dsl.Argument):
        return _leaf_value(expr.role, -1, expr.element, d)
    if isinstance(expr, dsl.Coefficient):
        return _leaf_value("coef", expr.index, expr.element, d)
    if isinstance(expr, dsl.ScalarLiteral):
        if expr.value == 0.0:
            return {(): ()}
        return {(): (_mk_term(expr.value, (), ()),)}
    if isinstance(expr, dsl.Grad):
        a = _eval(expr.operand, d)
        return {
            idx + (b,): _ddx_terms(terms, b) for idx, terms in a.items() for b in range(d)
        }
    if isinstance(expr, dsl.Div):
        a = _eval(expr.operand, d)
        out: dict = {}
        for idx, terms in a.items():
            tgt = idx[:-1]
            out.setdefault(tgt, ())
            out[tgt] = out[tgt] + _ddx_terms(terms, idx[-1])
        return out
    if isinstance(expr, dsl.Transp):
        a = _eval(expr.operand, d)
        return {(idx[1], idx[0]): terms for idx, terms in a.items()}
    if isinstance(expr, dsl.Add) or isinstance(expr, dsl.Sub):
        a = _eval(expr.a, d)
        b = _eval(expr.b, d)
        sign = 1.0 if isinstance(expr, dsl.Add) else -1.0
        _check_terms(sum(map(len, a.values())) + sum(map(len, b.values())))
        out = dict(a)
        for idx, terms in b.items():
            signed = tuple(replace(t, constant=sign * t.constant) for t in terms)
            out[idx] = out.get(idx, ()) + signed
        return out
    if isinstance(expr, dsl.Mult):
        a = _eval(expr.a, d)
        b = _eval(expr.b, d)
        scal, other = (a, b) if len(next(iter(a))) == 0 else (b, a)
        s_terms = scal[()]
        _check_terms(len(s_terms) * sum(map(len, other.values())))
        return {
            idx: tuple(_mul_terms(s, t) for s in s_terms for t in terms)
            for idx, terms in other.items()
        }
    if isinstance(expr, dsl.Dot):
        a = _eval(expr.a, d)
        b = _eval(expr.b, d)
        _check_terms(sum(len(a[idx]) * len(b.get(idx, ())) for idx in a))
        terms: tuple = ()
        for idx in sorted(a):
            terms = terms + tuple(_mul_terms(s, t) for s in a[idx] for t in b.get(idx, ()))
        return {(): terms}
    if isinstance(expr, dsl.Quotient):
        a = _eval(expr.a, d)
        b_terms = _eval(expr.b, d)[()]
        if len(b_terms) != 1:
            raise UnsupportedDenominator(
                "denominator must reduce to a single product of coefficients"
            )
        den = b_terms[0]
        if den.constant == 0.0:
            raise UnsupportedDenominator("denominator is identically zero")
        out = {}
        for idx, terms in a.items():
            out[idx] = tuple(
                _mk_term(
                    t.constant / den.constant,
                    t.factors + den.denominators,
                    t.denominators + den.factors,
                )
                for t in terms
            )
        return out
    raise TypeError(f"unknown expression node {expr!r}")


def expand(form: TypedForm) -> MonomialSum:
    """Distribute and unroll contractions, in physical directions.

    The chain rule is positional (see the module docstring), so each term
    is a monomial.  The result is not yet merged; see :func:`simplify`.
    """
    terms = _eval(form.integrand, form.cell.dim)[()]
    return MonomialSum(form, tuple(t for t in terms if t.constant != 0.0))


# ---------------------------------------------------------------------------
# Phase 2: merging


def _merge_key(m: Monomial) -> tuple:
    """The signature's factors, then the directions, then its denominators."""
    factors, denominators = m.signature()
    return (factors, m.directions, denominators)


def simplify(ms: MonomialSum) -> MonomialSum:
    """Merge monomials identical up to constant; drop exact zeros; sort.

    Expansion already orders factors canonically (see
    :class:`BasisFactor`), so equal monomials have equal keys.
    Constants are summed in expansion order.
    """
    merged: dict = {}
    for m in ms.monomials:
        key = _merge_key(m)
        if key in merged:
            old = merged[key]
            merged[key] = replace(old, constant=old.constant + m.constant)
        else:
            merged[key] = m
    kept = [m for m in merged.values() if m.constant != 0.0]
    kept.sort(key=_merge_key)
    return MonomialSum(ms.form, tuple(kept))


# ---------------------------------------------------------------------------
# Degree estimation and dumping


def factor_degree(form: TypedForm, f: BasisFactor) -> int:
    """Polynomial degree of a basis factor: derivatives lower it by one each."""
    element = form.element_of(f.role, f.coef)
    return max(element.degree - len(f.derivs), 0)


def estimate_degree(ms: MonomialSum) -> int:
    """Quadrature degree: per-monomial sums of net factor degrees, maximised.

    Derivatives lower a factor's polynomial degree by one (exact on affine
    cells).  Denominator factors contribute their full degree; quadrature of
    forms with division is nominal, not exact.
    """
    best = 0
    for m in ms.monomials:
        deg = sum(factor_degree(ms.form, f) for f in m.factors)
        deg += sum(factor_degree(ms.form, f) for f in m.denominators)
        best = max(best, deg)
    return best


def _format_factor(f: BasisFactor, first: int = 0) -> str:
    """The factor with its bound indices labelled b<first>, b<first + 1>, ..."""
    base = {"test": "v", "trial": "u"}.get(f.role, f"w{f.coef}")
    base += f"[{f.component}]"
    if f.derivs:
        base += "dX(" + ",".join(f"b{first + k}" for k in range(len(f.derivs))) + ")"
    return base


def format_monomial_sum(ms: MonomialSum) -> str:
    """Stable one-monomial-per-line dump used by golden-file tests."""
    lines = []
    for m in ms.monomials:
        parts = [repr(m.constant)]
        first = 0
        for f in m.factors:
            parts.append(_format_factor(f, first))
            first += len(f.derivs)
        parts += [f"Jinv(b{k},{b})" for k, b in enumerate(m.directions)]
        parts.append("det")
        line = " * ".join(parts)
        if m.denominators:
            line += " / " + " / ".join(_format_factor(f) for f in m.denominators)
        if m.n_bound:
            line += "  sum over " + ",".join(f"b{i}" for i in range(m.n_bound))
        lines.append(line)
    return "\n".join(lines) + "\n"


def lower(form: TypedForm) -> MonomialSum:
    """expand + simplify; rejects constants that overflowed to inf or nan."""
    ms = simplify(expand(form))
    if not all(math.isfinite(m.constant) for m in ms.monomials):
        raise NonFiniteConstant("a monomial constant is not finite after folding literals")
    return ms
