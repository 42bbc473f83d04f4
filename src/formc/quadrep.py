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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

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
from .lowering import MonomialSum, resolve
from .quadrature import QuadratureRule

ZERO_TOLERANCE = 1e-14


@dataclass(frozen=True)
class NonzeroColumnMap:
    """Surviving basis-table columns after zero elimination."""

    n_original: int
    survivors: tuple
    table: np.ndarray  # compacted table, no all-zero column

    @property
    def is_identity(self) -> bool:
        return self.survivors == tuple(range(self.n_original))


def eliminate_zero_columns(table: np.ndarray, tol: float = ZERO_TOLERANCE) -> NonzeroColumnMap:
    """Drop columns that vanish at every integration point."""
    table = np.asarray(table)
    keep = np.where(np.any(np.abs(table) >= tol, axis=0))[0]
    return NonzeroColumnMap(table.shape[1], tuple(int(k) for k in keep), table[:, keep])


# ---------------------------------------------------------------------------
# Monomial flattening: enumerate bound indices into concrete terms


def _flatten(ms: MonomialSum):
    """Concrete terms grouped as groups[key1][key2][jprod] = constant.

    key1 is the (test, trial) basis-table signature pair driving the inner
    loops, key2 the coefficient/denominator value products, and jprod the
    multiset of Jinv entries.
    """
    d = ms.form.cell.dim
    groups: dict = {}
    for m in ms.monomials:
        for sigma in product(range(d), repeat=m.n_bound):
            test = trial = None
            coefs = []
            for f in m.factors:
                derivs = tuple(sorted(resolve(x, sigma) for x in f.derivs))
                if f.role == "test":
                    test = (f.component, derivs)
                elif f.role == "trial":
                    trial = (f.component, derivs)
                else:
                    coefs.append((f.coef, f.component, derivs))
            denoms = tuple((f.coef, f.component, f.derivs) for f in m.denominators)
            jprod = m.jinv_product(sigma)
            key1 = (test, trial)
            key2 = (tuple(sorted(coefs)), denoms)
            sub = groups.setdefault(key1, {}).setdefault(key2, {})
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


class _TableSet:
    """Tabulated, zero-eliminated, content-deduplicated basis tables."""

    def __init__(self, ms: MonomialSum, rule: QuadratureRule, zero_elimination: bool):
        self.ms = ms
        self.rule = rule
        self.zero_elimination = zero_elimination
        self.single_coefficient = len(ms.form.coefficients) == 1
        self.entries: dict = {}  # tkey -> (table_name, nzc_name|None, extent, survivors)
        self.users: dict = {}  # tkey -> set of tags
        self.tables: dict = {}  # name -> ndarray, in declaration order
        self._content: dict = {}
        self._nzc_names: dict = {}
        self._tabulations: dict = {}

    def tag(self, role: str, coef: int) -> str:
        if role == "test":
            return "v"
        if role == "trial":
            return "u"
        return "w" if self.single_coefficient else f"w{coef}"

    def request(self, role: str, coef: int, component: int, derivs: tuple) -> tuple:
        element = self.ms.form.element_of(role, coef)
        tkey = (element, component, derivs)
        self.users.setdefault(tkey, set()).add(self.tag(role, coef))
        return tkey

    def _tabulation(self, element, nderiv):
        key = (element, nderiv)
        got = self._tabulations.get(key)
        if got is None:
            got = tabulate(element, self.rule.points, nderiv)
            self._tabulations[key] = got
        return got

    def build(self) -> None:
        """Assign table and nzc names; deterministic in the signature order."""
        order = sorted(self.users, key=self._tkey_sort)
        max_order: dict = {}
        for element, _, derivs in order:
            max_order[element] = max(max_order.get(element, 0), len(derivs))
        computed = []
        for tkey in order:
            element, component, derivs = tkey
            tab = self._tabulation(element, max_order[element])
            raw = tab.table(component, derivs)
            nz = (
                eliminate_zero_columns(raw)
                if self.zero_elimination
                else NonzeroColumnMap(raw.shape[1], tuple(range(raw.shape[1])), raw)
            )
            computed.append((tkey, nz, (nz.table.shape, nz.table.tobytes())))
        tags_for: dict = {}
        for tkey, _, content in computed:
            tags_for.setdefault(content, set()).update(self.users[tkey])
        for tkey, nz, content in computed:
            name = self._content.get(content)
            if name is None:
                base = "Psi_" + "".join(sorted(tags_for[content], key=_tag_order))
                name = base
                suffix = 1
                while name in self.tables:
                    name = f"{base}_{suffix}"
                    suffix += 1
                self._content[content] = name
                self.tables[name] = nz.table
            nzc_name = None
            if not nz.is_identity:
                nzc_name = self._nzc_names.get(nz.survivors)
                if nzc_name is None:
                    nzc_name = f"nzc{len(self._nzc_names)}"
                    self._nzc_names[nz.survivors] = nzc_name
            self.entries[tkey] = (self._content[content], nzc_name, len(nz.survivors), nz.survivors)

    @staticmethod
    def _tkey_sort(tkey):
        element, component, derivs = tkey
        return (element.sort_key(), component, derivs)

    def nzc_tables(self) -> dict:
        return {
            name: np.array(survivors, dtype=np.uint32)
            for survivors, name in sorted(
                self._nzc_names.items(), key=lambda kv: int(kv[1][3:])
            )
        }

    def lookup(self, role, coef, component, derivs):
        element = self.ms.form.element_of(role, coef)
        return self.entries[(element, component, derivs)]


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


def _point_value(tset: _TableSet, sig, var: str):
    """Psi[ip][var]*w[c][nzc[var]]: one basis term of a coefficient's point value."""
    tname, nzc, _, _ = tset.lookup("coef", *sig)
    psi = TableRef(tname, (IxVar("ip"), IxVar(var)))
    return BinOp("*", psi, CoefRef(sig[0], _col_index(nzc, var)))


def _table_signatures(key1, key2) -> list:
    """(role, coef, component, derivs) of every basis table a term group reads."""
    test, trial = key1
    sigs = [("test", -1) + test] + ([("trial", -1) + trial] if trial else [])
    return sigs + [("coef",) + sig for sig in key2[0] + key2[1]]


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

    groups = _flatten(ms)
    tset = _TableSet(ms, rule, zero_elimination)
    for key1, subgroups in groups.items():
        for key2 in subgroups:
            for sig in _table_signatures(key1, key2):
                tset.request(*sig)
    tset.build()

    # Drop groups whose basis tables lost every column.
    live: dict = {}
    for key1, subgroups in groups.items():
        kept = {
            key2: v
            for key2, v in subgroups.items()
            if all(tset.lookup(*sig)[2] > 0 for sig in _table_signatures(key1, key2))
        }
        if kept:
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
    tables.update(tset.tables)
    tables.update(tset.nzc_tables())

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
            loop_body = (AccumScalar(fname, _point_value(tset, sig, "r")),)
            body.append(Loop("r", tset.lookup("coef", *sig)[2], loop_body))
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
        t_name, t_nzc, t_extent, _ = tset.lookup("test", -1, *test)
        psi = [TableRef(t_name, (IxVar("ip"), IxVar("i")))]
        cols = [(n2, _col_index(t_nzc, "i"))]
        u_extent = None
        if trial is not None:
            u_name, u_nzc, u_extent, _ = tset.lookup("trial", -1, *trial)
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
                parts = psi + [_point_value(tset, sig, f"r{k}") for k, sig in enumerate(coefs)]
                parts += [JinvRef(a, b) for a, b in jprod]
                parts += geo_tail(subgroups[key2][jprod])
                stmt = AccumA(index, chain("/", [weighted(chain("*", parts))] + f_refs))
                for k in reversed(range(len(coefs))):
                    stmt = Loop(f"r{k}", tset.lookup("coef", *coefs[k])[2], (stmt,))
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
        meta={
            "n_points": rule.n_points,
            "points_per_direction": rule.points_per_direction,
            "rule_degree": rule.degree,
            "zero_elimination": zero_elimination,
            "hoisting": hoisting,
        },
    )
