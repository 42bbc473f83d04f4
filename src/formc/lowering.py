"""Lower a typed form to a canonical sum of monomials in reference coordinates.

Expansion distributes sums over products, unrolls every component contraction,
and rewrites each physical derivative d/dx_b as a bound sum over reference
directions, sum_a Jinv(a, b) d/dX_a (the affine chain rule; Jinv is constant
per cell).  Every monomial carries exactly one determinant factor from the
change of measure.  Division by a coefficient is kept in a separate
denominator factor list.

``dsl.typecheck`` is the one judge of shape, arity and derivative order, so
every term has one test factor, one trial factor when the form is bilinear,
at most two derivatives per factor and none in a denominator.  Lowering
refuses only what the type checker cannot see: a denominator that is not one
product, an expansion beyond ``MAX_EXPANDED_TERMS`` and a non-finite constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
class SumIndex:
    """Bound index, summed over the reference directions inside one monomial."""

    ident: int

    def __repr__(self) -> str:
        return f"b{self.ident}"


@dataclass(frozen=True)
class BasisFactor:
    """One basis-function evaluation: role, component, derivative.

    Before the chain rule the derivative holds sorted physical directions;
    after it, reference directions.
    """

    role: str  # "test" | "trial" | "coef"
    coef: int  # coefficient id, -1 for arguments
    component: int
    derivs: tuple  # entries are ints (concrete) or SumIndex (bound); order <= 2

    def sort_key(self) -> tuple:
        return (_ROLE_ORDER[self.role], self.coef, self.component, _idx_key_tuple(self.derivs))


@dataclass(frozen=True)
class JinvFactor:
    """Jacobian-inverse entry dX_ref / dx_phys."""

    ref: object  # int | SumIndex
    phys: object  # int | SumIndex

    def sort_key(self) -> tuple:
        return (_idx_key(self.ref), _idx_key(self.phys))


_ROLE_ORDER = {"test": 0, "trial": 1, "coef": 2}


def _idx_key(ix) -> tuple:
    return (0, ix) if isinstance(ix, int) else (1, ix.ident)


def _idx_key_tuple(t) -> tuple:
    return tuple(_idx_key(x) for x in t)


def resolve(ix, assignment):
    """Concrete direction of an index: bound indices read ``assignment``."""
    return assignment[ix.ident] if isinstance(ix, SumIndex) else ix


@dataclass(frozen=True)
class Monomial:
    """constant * product of basis factors * Jinv factors * det [/ denominators].

    Each bound index appears in exactly one basis-factor derivative slot and
    one Jinv factor.  The determinant factor from the measure is implicit:
    every monomial carries exactly one.
    """

    constant: float
    factors: tuple  # BasisFactor, canonical order
    jinvs: tuple  # JinvFactor, canonical order
    denominators: tuple  # BasisFactor with empty derivs
    n_bound: int

    def signature(self) -> tuple:
        """Basis structure shared by monomials with one reference tensor."""
        return (self.factors, self.denominators, self.n_bound)

    def jinv_product(self, assignment) -> tuple:
        """Sorted concrete (ref, phys) pairs of the Jinv factors."""
        return tuple(
            sorted((resolve(j.ref, assignment), resolve(j.phys, assignment)) for j in self.jinvs)
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


@dataclass(frozen=True)
class _Term:
    const: float
    factors: tuple  # BasisFactor with sorted physical derivatives, sorted
    denoms: tuple  # coefficient BasisFactor, sorted


def _mk_term(const, factors, denoms) -> _Term:
    return _Term(
        const,
        tuple(sorted(factors, key=BasisFactor.sort_key)),
        tuple(sorted(denoms, key=BasisFactor.sort_key)),
    )


def _mul_terms(a: _Term, b: _Term) -> _Term:
    return _mk_term(a.const * b.const, a.factors + b.factors, a.denoms + b.denoms)


def _check_terms(n: int) -> None:
    """Called before every step that multiplies or concatenates term lists."""
    if n > MAX_EXPANDED_TERMS:
        raise ExpansionTooLarge(f"expansion needs {n} terms, more than {MAX_EXPANDED_TERMS}")


def _ddx_terms(terms, b: int):
    """Differentiate a term list with respect to x_b (product/quotient rule)."""
    _check_terms(sum(len(t.factors) + len(t.denoms) for t in terms))
    out = []
    for t in terms:
        for k, f in enumerate(t.factors):
            df = replace(f, derivs=tuple(sorted(f.derivs + (b,))))
            out.append(_mk_term(t.const, t.factors[:k] + (df,) + t.factors[k + 1 :], t.denoms))
        for g in t.denoms:
            dg = replace(g, derivs=tuple(sorted(g.derivs + (b,))))
            out.append(_mk_term(-t.const, t.factors + (dg,), t.denoms + (g,)))
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
            signed = tuple(replace(t, const=sign * t.const) for t in terms)
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
        if den.const == 0.0:
            raise UnsupportedDenominator("denominator is identically zero")
        out = {}
        for idx, terms in a.items():
            out[idx] = tuple(
                _mk_term(
                    t.const / den.const,
                    t.factors + den.denoms,
                    t.denoms + den.factors,
                )
                for t in terms
            )
        return out
    raise TypeError(f"unknown expression node {expr!r}")


# ---------------------------------------------------------------------------
# Phase 2: chain rule to reference coordinates


def _chain_rule_order(f: BasisFactor) -> tuple:
    return (_ROLE_ORDER[f.role], f.coef, f.component, len(f.derivs), f.derivs)


def _term_to_monomial(term: _Term) -> Monomial:
    """Apply the chain rule, numbering the bound indices canonically.

    Factors are ordered by (role, coefficient, component, derivative order,
    physical directions), and bound indices 0, 1, 2, ... are handed out in
    that order, each to one reference slot and one Jinv factor.  Among all
    relabellings of the bound indices this one gives the least
    (factors, Jinv factors) key: fewer derivatives sort first within equal
    basis functions, and factors that tie in everything but their physical
    directions take the lower labels for the lower directions.  Monomials
    equal up to a relabelling therefore come out syntactically equal.
    """
    factors = []
    jinvs = []
    for f in sorted(term.factors, key=_chain_rule_order):
        ref = tuple(SumIndex(len(jinvs) + k) for k in range(len(f.derivs)))
        jinvs += [JinvFactor(ix, b) for ix, b in zip(ref, f.derivs)]
        factors.append(BasisFactor(f.role, f.coef, f.component, ref))
    return Monomial(
        constant=term.const,
        factors=tuple(factors),
        jinvs=tuple(jinvs),
        denominators=term.denoms,
        n_bound=len(jinvs),
    )


def expand(form: TypedForm) -> MonomialSum:
    """Distribute, unroll contractions, and apply the affine chain rule.

    The result is not yet merged; see :func:`simplify`.
    """
    terms = _eval(form.integrand, form.cell.dim)[()]
    return MonomialSum(form, tuple(_term_to_monomial(t) for t in terms if t.const != 0.0))


# ---------------------------------------------------------------------------
# Phase 3: merging


def _merge_key(m: Monomial) -> tuple:
    return (
        tuple(f.sort_key() for f in m.factors),
        tuple(j.sort_key() for j in m.jinvs),
        tuple(f.sort_key() for f in m.denominators),
        m.n_bound,
    )


def simplify(ms: MonomialSum) -> MonomialSum:
    """Merge monomials identical up to constant; drop exact zeros; sort.

    Expansion already numbers bound indices canonically (see
    :func:`_term_to_monomial`), so equal monomials have equal keys.
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


def _format_index(ix) -> str:
    return f"b{ix.ident}" if isinstance(ix, SumIndex) else str(ix)


def _format_factor(f: BasisFactor) -> str:
    base = {"test": "v", "trial": "u"}.get(f.role, f"w{f.coef}")
    base += f"[{f.component}]"
    if f.derivs:
        base += "dX(" + ",".join(_format_index(x) for x in f.derivs) + ")"
    return base


def format_monomial_sum(ms: MonomialSum) -> str:
    """Stable one-monomial-per-line dump used by golden-file tests."""
    lines = []
    for m in ms.monomials:
        parts = [repr(m.constant)]
        parts += [_format_factor(f) for f in m.factors]
        parts += [
            f"Jinv({_format_index(j.ref)},{_format_index(j.phys)})" for j in m.jinvs
        ]
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
