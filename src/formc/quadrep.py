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
every assignment of its bound (chain-rule) indices.  Each basis factor owns
consecutive bound indices, so ``_flatten`` enumerates one factor's
assignments at a time and combines them: the same terms, in the same
order, as one walk per assignment of all indices.  A form whose monomials
need more than ``MAX_CONCRETE_TERMS`` such terms is rejected before any is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
from .lowering import MonomialSum
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


def _factor_options(f, jinvs, d: int) -> list:
    """(sorted concrete derivs, concrete Jinv pairs) of a factor, per assignment.

    A lowered factor's derivative slots all hold bound indices; their
    assignments come in ``product(range(d), repeat=k)`` order, and the pairs
    resolve the Jinv factors whose reference index the factor binds.
    """
    own = [(f.derivs.index(j.ref), j.phys) for j in jinvs if j.ref in f.derivs]
    return [
        (tuple(sorted(values)), tuple((values[k], phys) for k, phys in own))
        for values in product(range(d), repeat=len(f.derivs))
    ]


def _flatten(ms: MonomialSum):
    """Concrete terms grouped as groups[key1][key2][jprod] = constant.

    key1 is the (test, trial) basis-table signature pair driving the inner
    loops, key2 the coefficient/denominator value products, and jprod the
    multiset of Jinv entries.

    Lowering hands each basis factor consecutive bound indices, in factor
    order (test, trial, then coefficients), each tied to the reference slot
    of one Jinv factor.  So each factor's options are enumerated once, and
    the product of the test, trial and coefficient options visits the
    assignments in the order of ``product(range(d), repeat=n_bound)``:
    every dict is filled in that order and every constant is summed in that
    order.
    """
    d = ms.form.cell.dim
    groups: dict = {}
    for m in ms.monomials:
        test = trial = [(None, ())]
        coefs = []
        for f in m.factors:
            options = _factor_options(f, m.jinvs, d)
            if f.role == "test":
                test = [((f.component, derivs), pairs) for derivs, pairs in options]
            elif f.role == "trial":
                trial = [((f.component, derivs), pairs) for derivs, pairs in options]
            else:
                coefs.append([((f.coef, f.component, derivs), pairs) for derivs, pairs in options])
        denoms = tuple((f.coef, f.component, f.derivs) for f in m.denominators)
        combos = [
            ((tuple(sorted(sig for sig, _ in combo)), denoms), sum((p for _, p in combo), ()))
            for combo in product(*coefs)
        ]
        for t, t_pairs in test:
            for u, u_pairs in trial:
                by_key2 = groups.setdefault((t, u), {})
                tu_pairs = t_pairs + u_pairs
                for key2, c_pairs in combos:
                    sub = by_key2.setdefault(key2, {})
                    jprod = tuple(sorted(tu_pairs + c_pairs))
                    sub[jprod] = sub.get(jprod, 0.0) + m.constant
    for key1 in list(groups):
        for key2 in list(groups[key1]):
            groups[key1][key2] = {j: c for j, c in groups[key1][key2].items() if c != 0.0}
            if not groups[key1][key2]:
                del groups[key1][key2]
        if not groups[key1]:
            del groups[key1]
    return groups


# ---------------------------------------------------------------------------
# Basis-table inventory


def _basis_tables(form, rule: QuadratureRule, zero_elimination: bool, sigs) -> tuple:
    """Tabulated, zero-eliminated, content-deduplicated tables for ``sigs``.

    ``sigs`` holds (role, coef, component, derivs) signatures.  Returns
    ``(entries, tables)``: ``entries[sig]`` is (table name, nzc name or None,
    extent), and ``tables`` maps names to the compacted Psi tables, then the
    nzc index maps, in declaration order.  Names are deterministic in the
    (element, component, derivs) order of the tables.
    """
    single_coefficient = len(form.coefficients) == 1
    users: dict = {}  # (element, component, derivs) -> tags of the functions reading it
    for role, coef, component, derivs in sigs:
        if role == "coef":
            tag = "w" if single_coefficient else f"w{coef}"
        else:
            tag = "v" if role == "test" else "u"
        users.setdefault((form.element_of(role, coef), component, derivs), set()).add(tag)
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

    tags_for: dict = {}
    for key, nz in maps.items():
        tags_for.setdefault(content(nz), set()).update(users[key])
    names: dict = {}  # content -> table name
    tables: dict = {}
    nzc: dict = {}  # survivors -> nzc name, numbered in first-use order
    by_key = {}
    for key, nz in maps.items():
        c = content(nz)
        if c not in names:
            base = "Psi_" + "".join(sorted(tags_for[c], key=_tag_order))
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


def _tag_order(tag: str) -> tuple:
    if tag == "v":
        return (0, 0)
    if tag == "u":
        return (1, 0)
    return (2, int(tag[1:]) if len(tag) > 1 else 0)


# ---------------------------------------------------------------------------
# Kernel assembly


def _col_index(nzc_name, var):
    ix = IxVar(var)
    return IxMap(nzc_name, ix) if nzc_name else ix


def _point_value(entries, sig, var: str):
    """Psi[ip][var]*w[c][nzc[var]]: one basis term of a coefficient's point value."""
    tname, nzc, _ = entries[("coef",) + sig]
    psi = TableRef(tname, (IxVar("ip"), IxVar(var)))
    return BinOp("*", psi, CoefRef(sig[0], _col_index(nzc, var)))


def _argument_signatures(key1) -> tuple:
    """(role, coef, component, derivs) of the test and trial tables of a term group."""
    test, trial = key1
    return (("test", -1) + test,) + ((("trial", -1) + trial,) if trial else ())


def _coefficient_signatures(key2) -> tuple:
    """(role, coef, component, derivs) of the coefficient tables of a term group."""
    return tuple(("coef",) + sig for sig in key2[0] + key2[1])


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
    bilinear = form.arity == 2
    n1 = form.test_element.space_dim
    n2 = form.trial_element.space_dim if bilinear else 1
    shape = (n1, n2) if bilinear else (n1,)
    single_point = rule.n_points == 1

    n_terms = sum(form.cell.dim**m.n_bound for m in ms.monomials)
    check_budget(
        n_terms, MAX_CONCRETE_TERMS, "quadrature kernel needs {} concrete terms, more than {}"
    )
    groups = _flatten(ms)
    # Each distinct key reads its signatures once.
    arg_sigs = {key1: _argument_signatures(key1) for key1 in groups}
    key2s = {key2 for sub in groups.values() for key2 in sub}
    coef_sigs = {key2: _coefficient_signatures(key2) for key2 in key2s}
    entries, basis = _basis_tables(
        form,
        rule,
        zero_elimination,
        {sig for sigs in (*arg_sigs.values(), *coef_sigs.values()) for sig in sigs},
    )

    # Drop groups whose basis tables lost every column.
    dead = {sig for sig, (_, _, extent) in entries.items() if extent == 0}
    live_key2 = {key2 for key2, sigs in coef_sigs.items() if dead.isdisjoint(sigs)}
    live: dict = {}
    for key1, subgroups in groups.items():
        kept = {key2: v for key2, v in subgroups.items() if key2 in live_key2}
        if kept and dead.isdisjoint(arg_sigs[key1]):
            live[key1] = kept
    groups = live
    group_keys = sorted(
        (k1 for k1 in groups), key=lambda k1: (k1[0], k1[1] if k1[1] is not None else ())
    )

    const_scalars = []
    tables: dict = {}
    w_table = None
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
            body.append(Loop("r", entries[("coef",) + sig][2], loop_body))
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

    def gip(subgroups) -> ScalarRef:
        """Scalar factor of one (test, trial) group at a point."""
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
        t_name, t_nzc, t_extent = entries[("test", -1) + test]
        psi = [TableRef(t_name, (IxVar("ip"), IxVar("i")))]
        cols = [(n2, _col_index(t_nzc, "i"))]
        u_extent = None
        if trial is not None:
            u_name, u_nzc, u_extent = entries[("trial", -1) + trial]
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
                    stmt = Loop(f"r{k}", entries[("coef",) + coefs[k]][2], (stmt,))
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
    stmts.append(Comment("Loop integration points"))
    stmts.append(Loop("ip", rule.n_points, tuple(body)))

    coef_sizes = tuple(elem.space_dim for _, elem in form.coefficients)
    return KernelIR(
        name=name,
        representation="quadrature",
        shape=shape,
        dim=form.cell.dim,
        coef_sizes=coef_sizes,
        const_scalars=tuple(const_scalars),
        tables=tables,
        statements=tuple(stmts),
        meta={"n_points": rule.n_points},
    )
