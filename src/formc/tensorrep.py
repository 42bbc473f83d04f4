"""Tensor-contraction kernels: precomputed reference tensor, per-cell
geometry tensor, fully unrolled contraction with exact-zero dropping.

Monomials that share their basis-factor structure share one reference
tensor; their geometry products are summed inside the geometry-tensor
entries.  A reference tensor whose test and trial factors tabulate the same
array is integrated once per unordered test/trial pair and mirrored: each
point's product starts with the two table entries, and IEEE multiplication
commutes, so the mirror is the same bits.  Each group's geometry tensor is
one ``GeometryTensor`` statement: its coefficient-dof reads, one row per
combination of the coefficient factors' dofs, times one closing factor per
chain-rule assignment, which is the row order of ``geometry_tensor_spec``.
The groups' rows take consecutive geometry slots, and the closing factors'
Jinv sums are hoisted into ``K`` scalars, shared across groups.  Division
cannot be expressed in this representation and is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .dsl import Rejected, check_budget
from .elements import tabulate
from .kernel import (
    AssignScalar,
    Comment,
    Contract,
    GeometryTensor,
    JinvRef,
    KernelIR,
    Lit,
    ScalarRef,
    chain,
)
from .lowering import Monomial, MonomialSum, factor_degree
from .quadrature import simplex_rule

SNAP_TOLERANCE = 1e-12
DEGREE_MARGIN = 2
DEFAULT_TERM_BUDGET = 8_000_000


class UnsupportedDivision(Rejected):
    """Forms with coefficient division have no tensor-contraction kernel."""


def _as_group(monomials) -> tuple:
    group = (monomials,) if isinstance(monomials, Monomial) else tuple(monomials)
    if not group:
        raise ValueError("empty monomial group")
    sig = group[0].signature()
    if any(m.signature() != sig for m in group):
        raise ValueError("monomials in a group must share their basis structure")
    if group[0].denominators:
        raise UnsupportedDivision("monomial divides by a coefficient")
    return group


@dataclass(eq=False)
class ReferenceTensor:
    """Cell-independent integrals over the reference cell.

    ``values`` has one axis per test/trial dof block, then one per
    coefficient factor (dof axis), then one per bound chain-rule index.
    Entries below the snap tolerance are exactly zero.
    """

    values: np.ndarray
    test_dofs: np.ndarray
    trial_dofs: np.ndarray | None


def reference_tensor(monomials, form) -> ReferenceTensor:
    """Integrate the group's basis-factor product over the reference cell.

    The quadrature degree is the exact degree of the (polynomial) reference
    integrand plus a safety margin that guards the snap to zero.  One point
    loop runs over a pair axis, which joins the test extended index (dof,
    then its derivative directions) with the trial one.  At each point the
    pair's table entries, then the coefficient factors' tables, are
    multiplied in factor order, left to right; the weighted products are
    summed in point order, so the values are the same bits on every run.

    When the test and trial factors tabulate the same array (one scalar
    table and one derivative count, as two components of one vector element
    have), the pair axis holds only the pairs E1 <= E2, and each value goes
    to ``(i, k_test, j, k_trial)`` and to its mirror ``(j, k_trial, i,
    k_test)``.  Both are the same bits: ``t[E1]*t[E2] == t[E2]*t[E1]`` in
    IEEE arithmetic, and every later factor and the point-order sum are the
    same for both.  Every other group, linear forms included, runs over all
    pairs.
    """
    group = _as_group(monomials)
    lead = group[0]
    cell = form.cell
    d = cell.dim
    degree = sum(factor_degree(form, f) for f in lead.factors) + DEGREE_MARGIN
    rule = simplex_rule(cell, degree)

    # Output axes: test dofs, [trial dofs,] coefficient dofs, bound indices.
    n_f = len(lead.factors)
    shape = [0] * (n_f + lead.n_bound)
    next_coef_axis = 2 if any(f.role == "trial" for f in lead.factors) else 1
    # The scalar table on one cell depends on the degree alone, so factors of
    # one degree and derivative count share one array.
    by_key: dict = {}
    tables, axes = [], []
    test_dofs = trial_dofs = None
    n_bound = 0
    for f in lead.factors:
        element = form.element_of(f.role, f.coef)
        dofs = element.component_dofs(f.component)
        k = len(f.derivs)
        if (element.degree, k) not in by_key:
            tab = tabulate(element, rule.points, nderiv=k)
            # (points, scalar dofs, d, ..., d): one axis per derivative direction
            arr = np.stack([tab.scalar_tables[refs] for refs, _ in f.assignments(d)], axis=-1)
            by_key[element.degree, k] = arr.reshape(arr.shape[:2] + (d,) * k)
        tables.append(by_key[element.degree, k])
        if f.role == "test":
            test_dofs, dof_axis = dofs, 0
        elif f.role == "trial":
            trial_dofs, dof_axis = dofs, 1
        else:
            dof_axis = next_coef_axis
            next_coef_axis += 1
        # A factor's axes are in output order: its dof axis, then one axis
        # per bound index, the k-th bound index of the monomial on axis n_f + k.
        axes.append([dof_axis] + list(range(n_f + n_bound, n_f + n_bound + k)))
        n_bound += k
        for axis, n in zip(axes[-1], tables[-1].shape[1:]):
            shape[axis] = n

    # The arguments (test first) lead the factors; their extended indices
    # form the pair axis, which runs innermost, after the other output axes.
    n_args = 1 if trial_dofs is None else 2
    ext = [t.reshape(len(t), -1) for t in tables[:n_args]]
    rest = [a for a in range(len(shape)) if not any(a in ax for ax in axes[:n_args])]
    operands = []
    for arr, ax in zip(tables[n_args:], axes[n_args:]):
        op_shape = [len(arr)] + [1] * (len(rest) + 1)  # points, rest, pair
        for axis, n in zip(ax, arr.shape[1:]):
            op_shape[1 + rest.index(axis)] = n
        operands.append(arr.reshape(op_shape))
    mirrored = n_args == 2 and tables[0] is tables[1]
    if mirrored:
        pairs = np.triu_indices(ext[0].shape[1])
    else:
        sizes = [e.shape[1] for e in ext]
        pairs = np.unravel_index(np.arange(np.prod(sizes)), sizes)

    A0 = np.zeros(shape)
    acc = np.zeros(tuple(shape[a] for a in rest) + (len(pairs[0]),))
    for q, w in enumerate(rule.weights.tolist()):
        prod = ext[0][q][pairs[0]]
        for e, ids in zip(ext[1:], pairs[1:]):
            prod *= e[q][ids]
        for op in operands:
            prod = prod * op[q]
        prod *= w
        acc += prod
    acc[np.abs(acc) < SNAP_TOLERANCE] = 0.0

    # Scatter the pair axis onto the argument axes.  The advanced indices
    # include axis 0, so the indexed result has the pair axis first.
    acc = np.moveaxis(acc, -1, 0)
    for ids_of in [pairs, pairs[::-1]] if mirrored else [pairs]:
        index = [slice(None)] * len(shape)
        for ids, ax, t in zip(ids_of, axes, tables):
            for axis, i in zip(ax, np.unravel_index(ids, t.shape[1:])):
                index[axis] = i
        A0[tuple(index)] = acc
    return ReferenceTensor(values=A0, test_dofs=test_dofs, trial_dofs=trial_dofs)


def _coef_blocks(group, form) -> list:
    """(coefficient, dofs) of each coefficient factor of the group, in factor order."""
    coefs = [f for f in group[0].factors if f.role == "coef"]
    return [(f.coef, form.element_of("coef", f.coef).component_dofs(f.component)) for f in coefs]


def _bound_terms(group, dim: int) -> list:
    """Per chain-rule assignment: (constant, sorted Jinv index pairs) per monomial."""
    walks = [product(*[f.assignments(dim) for f in m.factors]) for m in group]
    return [
        tuple(
            (m.constant, tuple(sorted(p for _, pairs in combo for p in pairs)))
            for m, combo in zip(group, combos)
        )
        for combos in zip(*walks)
    ]


def geometry_tensor_spec(monomials, form) -> tuple:
    """Per-cell products matching one reference tensor.

    Entry k belongs to the k-th flattened alpha index (coefficient dof axes
    first, then chain-rule axes) and holds the coefficient-dof reads plus,
    per monomial of the group, (constant, Jinv index pairs).
    """
    group = _as_group(monomials)
    reads = product(
        *[[(coef, int(dof)) for dof in dofs] for coef, dofs in _coef_blocks(group, form)]
    )
    return tuple(product(reads, _bound_terms(group, form.cell.dim)))


def build_tensor_kernel(
    ms: MonomialSum,
    *,
    term_budget: int = DEFAULT_TERM_BUDGET,
    name: str = "form",
) -> KernelIR:
    """Unrolled-contraction kernel: A[e] = sum_alpha A0[e, alpha] * G[alpha].

    Terms whose reference-tensor entry is exactly zero are omitted;
    coefficients of magnitude one skip their multiply.  ``term_budget``
    bounds the unrolled size (BudgetExceeded beyond it), mirroring the failure
    mode of tensor code generation for very complicated forms.
    """
    form = ms.form
    if ms.has_division:
        raise UnsupportedDivision("form divides by a coefficient")
    shape = form.tensor_shape
    n2 = shape[1] if form.arity == 2 else 1

    # simplify sorts the monomials by their factors, which fix the signature
    # of a monomial without denominators: groups come in factor order
    by_sig: dict = {}
    for m in ms.monomials:
        by_sig.setdefault(m.signature(), []).append(m)
    groups = list(by_sig.values())

    upper = 0
    d = form.cell.dim
    for group in groups:
        lead = group[0]
        size = d**lead.n_bound
        for f in lead.factors:
            size *= form.element_of(f.role, f.coef).n_scalar
        upper += size
    check_budget(upper, term_budget, "unrolled contraction needs up to {} terms (budget {})")

    k_names: dict = {}
    k_stmts: list = []
    g_stmts: list = []
    n_slots = 0
    # (entry, coefficient, geometry slot) of every kept term, per group; the
    # empty seeds serve a form whose monomials all cancel.
    entry_ids, coeffs, slots = [np.empty(0, np.intp)], [np.empty(0)], [np.empty(0, np.intp)]

    for group in groups:
        g_stmts.append(_geometry_tensor(group, form, n_slots, k_names, k_stmts))
        # No reference tensor or index array outlives its group into the
        # sort below, which copies every kept term twice.
        entry, coef, slot = _kept_terms(group, form, n2, n_slots)
        entry_ids.append(entry)
        coeffs.append(coef)
        slots.append(slot)
        n_slots += g_stmts[-1].n_rows

    # A stable sort keeps each entry's terms in group order, then in
    # reference-tensor order within a group.
    entry_ids = np.concatenate(entry_ids)
    order = np.argsort(entry_ids, kind="stable")
    coeffs = np.concatenate(coeffs)[order]
    slots = np.concatenate(slots)[order].astype(np.int32)
    indptr = np.searchsorted(entry_ids[order], np.arange(int(np.prod(shape)) + 1))

    stmts: list = [Comment("Geometry tensor")]
    stmts.extend(k_stmts)
    stmts.extend(g_stmts)
    stmts.append(Comment("Unrolled contraction"))
    stmts.append(Contract(n_slots, indptr, coeffs, slots))

    return KernelIR(
        name=name,
        representation="tensor",
        shape=shape,
        dim=form.cell.dim,
        coef_sizes=form.coef_sizes,
        const_scalars=(),
        tables={},
        statements=tuple(stmts),
        meta={"n_terms": len(coeffs)},
    )


def _kept_terms(group, form, n2: int, first: int) -> tuple:
    """(entry, coefficient, geometry slot) of each nonzero reference-tensor entry."""
    rt = reference_tensor(group, form)
    bilinear = rt.trial_dofs is not None
    # Axes (test, [trial,] flattened alpha), alpha row-major as in the spec.
    values = rt.values.reshape(rt.values.shape[: 2 if bilinear else 1] + (-1,))
    nz = np.nonzero(values)
    test_ids = rt.test_dofs[nz[0]]
    entry = test_ids * n2 + rt.trial_dofs[nz[1]] if bilinear else test_ids
    return entry, values[nz], first + nz[-1]


def _geometry_tensor(group, form, first: int, k_names, k_stmts) -> GeometryTensor:
    """The group's geometry tensor from slot ``first`` on.

    Read rows run over the coefficient dofs, first factor slowest; the
    closing factors over the chain-rule assignments.
    """
    blocks = _coef_blocks(group, form)
    grids = np.meshgrid(*[dofs for _, dofs in blocks], indexing="ij")
    return GeometryTensor(
        first=first,
        coefs=tuple(coef for coef, _ in blocks),
        reads=np.stack([g.ravel() for g in grids], axis=-1) if blocks else np.empty((1, 0), int),
        factors=tuple(
            _closing_factor(t, k_names, k_stmts) for t in _bound_terms(group, form.cell.dim)
        ),
    )


def _closing_factor(terms, k_names, k_stmts):
    """The constant if no term has a Jinv product (None for one), else a hoisted K sum."""
    if all(not jprod for _, jprod in terms):
        total = sum(c for c, _ in terms)
        return None if total == 1.0 else Lit(total)
    kname = k_names.get(terms)
    if kname is None:
        summands = []
        for c, jprod in terms:
            factors = [JinvRef(a, b) for a, b in jprod]
            if c != 1.0 or not factors:
                factors.append(Lit(c))
            summands.append(chain("*", factors))
        kname = f"K{len(k_names)}"
        k_names[terms] = kname
        k_stmts.append(AssignScalar(kname, chain("+", summands)))
    return ScalarRef(kname)
