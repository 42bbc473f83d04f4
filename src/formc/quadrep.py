"""Quadrature-representation kernels: tabulation, zero elimination, hoisting.

The generated kernel mirrors the classical layered structure: constant basis
tables with non-zero-column maps, per-cell geometry constants hoisted above
the integration-point loop, per-point coefficient values F and combined
point scalars Gip, and an innermost accumulation of Psi_i*Psi_j*Gip (two
multiplies and one add per term).

Every expression is hoisted to the outermost scope in which all its operands
are defined.  The quadrature weight is folded into the geometry constants
only for single-point rules; multi-point rules keep the weight table at
point scope.

The concrete terms Psi_i*Psi_j*Gip come from summing each monomial over
every assignment of its bound (chain-rule) indices.  ``_flatten``
enumerates one factor's assignments at a time and combines them: the same
terms, in the same order, as one walk per assignment of all indices.  Each
factor option carries two integer codes, its Jinv pairs and its
coefficient signature as counts in fixed digits, so a term's Jinv multiset
and coefficient multiset are sums of its factors' codes, and summing a
term costs an integer add and a dict update.  The codes map one to one to
the sorted tuples they stand for, so every dict is keyed and filled in the
same order, and every constant summed in the same order, as with the
tuples; each distinct code is decoded once.  A form whose monomials need
more than ``MAX_CONCRETE_TERMS`` such terms is rejected before any is
built.  Groups of equal content share one point scalar Gip, built once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsl import check_budget
from .elements import tabulate
from .kernel import (
    AccumA,
    AccumScalar,
    AssignScalar,
    BinOp,
    CoefRef,
    Comment,
    DetRef,
    IxLin,
    IxMap,
    IxVar,
    JinvRef,
    KernelIR,
    Lit,
    Loop,
    ScalarRef,
    TableRef,
    chain,
)
from .lowering import ROLE_ORDER, MonomialSum
from .quadrature import QuadratureRule

ZERO_TOLERANCE = 1e-14

# Concrete terms sum_m dim**n_bound(m) that _flatten may enumerate; beyond
# it build_quadrature_kernel raises BudgetExceeded before it enumerates any.
MAX_CONCRETE_TERMS = 10**6


@dataclass(frozen=True)
class NonzeroColumnMap:
    """Surviving basis-table columns after zero elimination."""

    n_original: int
    survivors: tuple
    table: np.ndarray  # compacted table, no all-zero column

    @property
    def is_identity(self) -> bool:
        return self.survivors == tuple(range(self.n_original))


def eliminate_zero_columns(table: np.ndarray) -> NonzeroColumnMap:
    """Drop columns that vanish at every integration point."""
    table = np.asarray(table)
    keep = np.where(np.any(np.abs(table) >= ZERO_TOLERANCE, axis=0))[0]
    return NonzeroColumnMap(table.shape[1], tuple(int(k) for k in keep), table[:, keep])


# ---------------------------------------------------------------------------
# Monomial flattening: enumerate bound indices into concrete terms


def _flatten(ms: MonomialSum):
    """Concrete terms grouped as groups[key1][key2][jprod] = constant.

    Every basis table is keyed by one signature, (role, coef, component,
    reference derivs).  key1 is the (test, trial) signature pair driving
    the inner loops (trial None for a linear form), key2 the coefficient
    and denominator signatures of the point-value products, and jprod the
    multiset of Jinv entries.

    A monomial's factors are its test factor, the trial factor of a
    bilinear form, then the coefficients.  Each distinct factor's
    ``assignments`` are taken once as its options, and the product of a
    monomial's options is its walk in ``lowering``'s order: every dict is
    filled and every constant summed in that order.

    While terms are summed, jprod and key2 are integers that add up over
    the factors.  A jprod is its Jinv pairs counted in digits of base
    ``max n_bound + 1``, pair (a, b) at place ``a*d + b``; no pair occurs
    more often than a monomial has bound indices, so no digit carries, and
    the places run in the pairs' sorted order.  A key2 is its coefficient
    signatures counted the same way, one place per signature in sorted
    order, with the denominators' number in first-seen order above them.
    Equal tuples give equal codes and distinct tuples distinct ones, so
    every dict gets the same keys in the same order and every constant the
    same additions; each distinct code is decoded once, at the end, to the
    sorted tuple it stands for.
    """
    d = ms.form.cell.dim
    n_args = ms.form.arity
    # (table signature, Jinv pairs) of each distinct factor, per assignment
    options = {
        f: [((f.role, f.coef, f.component, refs), pairs) for refs, pairs in f.assignments(d)]
        for f in dict.fromkeys(f for m in ms.monomials for f in m.factors)
    }
    base = max((m.n_bound for m in ms.monomials), default=0) + 1
    pair_weight = {(a, b): base ** (a * d + b) for a in range(d) for b in range(d)}
    coef_sigs = sorted({sig for f, opts in options.items() if f.role == "coef" for sig, _ in opts})
    cbase = max((len(m.factors) - n_args for m in ms.monomials), default=0) + 1
    sig_weight = {sig: cbase**rank for rank, sig in enumerate(coef_sigs)}
    denoms_top = cbase ** len(coef_sigs)
    # each distinct factor's options as (signature or its key2 code, jprod code)
    coded = {
        f: [(sig, sum(pair_weight[p] for p in pairs)) for sig, pairs in opts]
        for f, opts in options.items()
    }
    coef_coded = {
        f: [(sig_weight[sig], j) for sig, j in opts] for f, opts in coded.items() if f.role == "coef"
    }
    denoms_of: dict = {}  # denominator factors -> their number

    groups: dict = {}
    for m in ms.monomials:
        test = coded[m.factors[0]]
        trial = coded[m.factors[1]] if n_args == 2 else [(None, 0)]
        # (key2, jprod) codes of the coefficient options, in product() order
        combos = [(denoms_top * denoms_of.setdefault(m.denominators, len(denoms_of)), 0)]
        for f in m.factors[n_args:]:
            codes = coef_coded[f]
            combos = [(k + fk, j + fj) for k, j in combos for fk, fj in codes]
        constant = m.constant
        for t, t_code in test:
            for u, u_code in trial:
                by_key2 = groups.setdefault((t, u), {})
                tu_code = t_code + u_code
                for key2, c_code in combos:
                    sub = by_key2.get(key2)
                    if sub is None:
                        sub = by_key2[key2] = {}
                    jprod = tu_code + c_code
                    sub[jprod] = sub.get(jprod, 0.0) + constant

    denoms_list = [
        tuple((f.role, f.coef, f.component, f.derivs) for f in denoms) for denoms in denoms_of
    ]
    jprods = {
        code: tuple(p for p, w in pair_weight.items() for _ in range(code // w % base))
        for code in {j for by_key2 in groups.values() for sub in by_key2.values() for j in sub}
    }
    key2s = {
        code: (
            tuple(s for s, w in sig_weight.items() for _ in range(code // w % cbase)),
            denoms_list[code // denoms_top],
        )
        for code in {key2 for by_key2 in groups.values() for key2 in by_key2}
    }
    out: dict = {}
    for key1 in list(groups):  # popped: the coded and decoded groups are never both whole
        kept = {}
        for key2, sub in groups.pop(key1).items():
            terms = {jprods[j]: c for j, c in sub.items() if c != 0.0}
            if terms:
                kept[key2s[key2]] = terms
        if kept:
            out[key1] = kept
    return out


# ---------------------------------------------------------------------------
# Basis-table inventory


def _signatures(groups) -> set:
    """The table signatures that ``groups`` read: arguments, coefficients, denominators."""
    sigs = {sig for key1 in groups for sig in key1 if sig}
    for sub in groups.values():
        sigs.update(sig for coefs, denoms in sub for sig in coefs + denoms)
    return sigs


def _basis_tables(form, rule: QuadratureRule, zero_elimination: bool, sigs) -> tuple:
    """Tabulated, zero-eliminated, content-deduplicated tables for ``sigs``.

    ``sigs`` holds (role, coef, component, derivs) signatures.  Returns
    ``(entries, tables)``: ``entries[sig]`` is (table name, nzc name or None,
    extent), and ``tables`` maps names to the compacted Psi tables, then the
    nzc index maps, in declaration order.  Names are deterministic in the
    (element, component, derivs) order of the tables.
    """
    users: dict = {}  # (element, component, derivs) -> (role, coef) of the functions reading it
    for role, coef, component, derivs in sigs:
        users.setdefault((form.element_of(role, coef), component, derivs), set()).add((role, coef))
    order = sorted(users, key=lambda k: (k[0].sort_key(), k[1], k[2]))
    max_order: dict = {}
    for element, _, derivs in order:
        max_order[element] = max(max_order.get(element, 0), len(derivs))
    tabs = {element: tabulate(element, rule.points, n) for element, n in max_order.items()}
    maps = {}
    for key in order:
        element, component, derivs = key
        raw = tabs[element].table(component, derivs)
        maps[key] = (
            eliminate_zero_columns(raw)
            if zero_elimination
            else NonzeroColumnMap(raw.shape[1], tuple(range(raw.shape[1])), raw)
        )

    def content(nz):
        return nz.table.shape, nz.table.tobytes()

    readers: dict = {}
    for key, nz in maps.items():
        readers.setdefault(content(nz), set()).update(users[key])
    tags = {"test": "v", "trial": "u", "coef": "w" if len(form.coefficients) == 1 else "w{}"}
    names: dict = {}  # content -> table name
    tables: dict = {}
    nzc: dict = {}  # survivors -> nzc name, numbered in first-use order
    by_key = {}
    for key, nz in maps.items():
        c = content(nz)
        if c not in names:
            ordered = sorted(readers[c], key=lambda r: (ROLE_ORDER[r[0]], r[1]))
            base = "Psi_" + "".join(tags[role].format(coef) for role, coef in ordered)
            name, suffix = base, 1
            while name in tables:
                name, suffix = f"{base}_{suffix}", suffix + 1
            names[c] = name
            tables[name] = nz.table
        nzc_name = None if nz.is_identity else nzc.setdefault(nz.survivors, f"nzc{len(nzc)}")
        by_key[key] = (names[c], nzc_name, len(nz.survivors))
    tables.update((name, np.array(survivors, dtype=np.uint32)) for survivors, name in nzc.items())
    entries = {sig: by_key[(form.element_of(*sig[:2]),) + sig[2:]] for sig in sigs}
    return entries, tables


# ---------------------------------------------------------------------------
# Kernel assembly


def _col_index(nzc_name, var):
    ix = IxVar(var)
    return IxMap(nzc_name, ix) if nzc_name else ix


def _point_value(entries, sig, var: str):
    """Psi[ip][var]*w[c][nzc[var]]: one basis term of a coefficient's point value."""
    tname, nzc, _ = entries[sig]
    psi = TableRef(tname, (IxVar("ip"), IxVar(var)))
    return BinOp("*", psi, CoefRef(sig[1], _col_index(nzc, var)))


def build_quadrature_kernel(
    ms: MonomialSum,
    rule: QuadratureRule,
    *,
    zero_elimination: bool = True,
    hoisting: bool = True,
    name: str = "form",
) -> KernelIR:
    """Build the runtime-quadrature kernel for a lowered form."""
    form = ms.form
    n2 = form.tensor_shape[1] if form.arity == 2 else 1
    single_point = rule.n_points == 1

    n_terms = sum(form.cell.dim**m.n_bound for m in ms.monomials)
    check_budget(
        n_terms, MAX_CONCRETE_TERMS, "quadrature kernel needs {} concrete terms, more than {}"
    )
    groups = _flatten(ms)
    entries, basis = _basis_tables(form, rule, zero_elimination, _signatures(groups))

    # Drop the groups whose basis tables lost every column, then the tables
    # that only they read.
    dead = {sig for sig, (_, _, extent) in entries.items() if extent == 0}
    if dead:
        live: dict = {}
        for key1, subgroups in groups.items():
            kept = {k2: v for k2, v in subgroups.items() if dead.isdisjoint(k2[0] + k2[1])}
            if kept and dead.isdisjoint(key1):
                live[key1] = kept
        groups = live
        entries, basis = _basis_tables(form, rule, zero_elimination, _signatures(groups))
    group_keys = sorted(
        (k1 for k1 in groups), key=lambda k1: (k1[0], k1[1] if k1[1] is not None else ())
    )

    const_scalars = []
    tables: dict = {}
    w_table = None
    if groups:  # with every group dead, no weight is read
        if single_point:
            const_scalars.append(("W0", float(rule.weights[0])))
        else:
            w_table = f"W{rule.n_points}"
            tables[w_table] = rule.weights.copy()
    tables.update(basis)

    # Cell scope: geometry constants G (hoisted products of Jinv entries).
    # Point scope: coefficient values F, point scalars Gip, accumulation.
    geo_stmts: list = []
    g_names: dict = {}
    body: list = []
    f_names: dict = {}

    def g_value(jprod, const) -> ScalarRef:
        """G<k> = Jinv products*const*det, computed on first use."""
        gkey = (jprod, const)
        if gkey not in g_names:
            g_names[gkey] = f"G{len(g_names)}"
            parts = [JinvRef(a, b) for a, b in jprod]
            if const != 1.0:
                parts.append(Lit(const))
            if single_point:
                parts.append(ScalarRef("W0"))
            parts.append(DetRef())
            geo_stmts.append(AssignScalar(g_names[gkey], chain("*", parts)))
        return ScalarRef(g_names[gkey])

    def f_value(sig) -> ScalarRef:
        """F<k> = sum_r Psi[ip][r]*w[c][nzc[r]], computed on first use."""
        if sig not in f_names:
            fname = f"F{len(f_names)}"
            f_names[sig] = fname
            body.append(AssignScalar(fname, Lit(0.0)))
            loop_body = (AccumScalar(fname, _point_value(entries, sig, "r")),)
            body.append(Loop("r", entries[sig][2], loop_body))
        return ScalarRef(f_names[sig])

    def geo_tail(const) -> list:
        """const*det*W0: the geometry factors of a term without Jinv."""
        parts = [Lit(const)] if const != 1.0 else []
        parts.append(DetRef())
        if single_point:
            parts.append(ScalarRef("W0"))
        return parts

    def weighted(expr):
        return expr if single_point else BinOp("*", expr, TableRef(w_table, (IxVar("ip"),)))

    gip_of: dict = {}  # point-scalar expression -> Gip name, in first-use order
    gip_memo: dict = {}  # group content -> its point scalar

    def gip(subgroups) -> ScalarRef:
        """Scalar factor of one (test, trial) group at a point.

        A group equal to an earlier one gets the earlier one's scalar: its
        G, F and Gip names all exist already, so the numbering is as if its
        expression were built again.
        """
        content = tuple((key2, tuple(sub.items())) for key2, sub in subgroups.items())
        if content not in gip_memo:
            gip_memo[content] = _gip(subgroups)
        return gip_memo[content]

    def _gip(subgroups) -> ScalarRef:
        sub_exprs = []
        for key2 in sorted(subgroups):
            coefs, denoms = key2
            geo_parts = [
                g_value(jprod, const) if jprod else chain("*", geo_tail(const))
                for jprod, const in sorted(subgroups[key2].items())
            ]
            expr = chain("*", [chain("+", geo_parts)] + [f_value(sig) for sig in coefs])
            sub_exprs.append(chain("/", [expr] + [f_value(sig) for sig in denoms]))
        gip_expr = weighted(chain("+", sub_exprs))
        if isinstance(gip_expr, ScalarRef):
            return gip_expr
        return ScalarRef(gip_of.setdefault(gip_expr, f"Gip{len(gip_of)}"))

    # Hoisted F values are numbered in signature order, un-hoisted ones
    # (denominators only) in order of first use.
    if hoisting:
        for sig in sorted(
            {sig for k1 in group_keys for (coefs, denoms) in groups[k1] for sig in coefs + denoms}
        ):
            f_value(sig)

    accum_plan: list = []  # ((extent_i, extent_j), statement)
    for key1 in group_keys:
        subgroups = groups[key1]
        test, trial = key1
        t_name, t_nzc, t_extent = entries[test]
        psi = [TableRef(t_name, (IxVar("ip"), IxVar("i")))]
        cols = [(n2, _col_index(t_nzc, "i"))]
        u_extent = None
        if trial is not None:
            u_name, u_nzc, u_extent = entries[trial]
            psi.append(TableRef(u_name, (IxVar("ip"), IxVar("j"))))
            cols.append((1, _col_index(u_nzc, "j")))
        index = IxLin(tuple(cols))
        extents = (t_extent, u_extent)
        if hoisting:
            accum_plan.append((extents, AccumA(index, chain("*", psi + [gip(subgroups)]))))
            continue
        # Un-hoisted: coefficient sums become extra loops around the
        # accumulation and everything is recomputed in the innermost loop.
        # Denominators stay per-point sums: a sum cannot be inlined into a
        # product term.
        for key2 in sorted(subgroups):
            coefs, denoms = key2
            f_refs = [f_value(sig) for sig in denoms]
            for jprod in sorted(subgroups[key2]):
                parts = psi + [_point_value(entries, sig, f"r{k}") for k, sig in enumerate(coefs)]
                parts += [JinvRef(a, b) for a, b in jprod]
                parts += geo_tail(subgroups[key2][jprod])
                stmt = AccumA(index, chain("/", [weighted(chain("*", parts))] + f_refs))
                for k in reversed(range(len(coefs))):
                    stmt = Loop(f"r{k}", entries[coefs[k]][2], (stmt,))
                accum_plan.append((extents, stmt))

    # Fuse accumulation statements into loop nests by matching extents.
    nests: dict = {}
    for extents, stmt in accum_plan:
        nests.setdefault(extents, []).append(stmt)
    for gexpr, gname in gip_of.items():
        body.append(AssignScalar(gname, gexpr))
    for (ei, ej), stmts_list in nests.items():
        if ej is None:
            body.append(Loop("i", ei, tuple(stmts_list)))
        else:
            body.append(Loop("i", ei, (Loop("j", ej, tuple(stmts_list)),)))

    stmts: list = [Comment("Geometry constants"), *geo_stmts] if geo_stmts else []
    if groups:
        stmts.append(Comment("Loop integration points"))
        stmts.append(Loop("ip", rule.n_points, tuple(body)))

    return KernelIR(
        name=name,
        representation="quadrature",
        shape=form.tensor_shape,
        dim=form.cell.dim,
        coef_sizes=form.coef_sizes,
        const_scalars=tuple(const_scalars),
        tables=tables,
        statements=tuple(stmts),
        meta={"n_points": rule.n_points},
    )
