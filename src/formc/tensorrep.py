"""Tensor-contraction kernels: precomputed reference tensor, per-cell
geometry tensor, fully unrolled contraction with exact-zero dropping.

Monomials that share their basis-factor structure share one reference
tensor; their geometry products are summed inside the geometry-tensor
entries.  Division cannot be expressed in this representation and is a hard
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .elements import tabulate
from .kernel import (
    AssignScalar,
    CoefRef,
    Comment,
    Contract,
    DetRef,
    IxConst,
    JinvRef,
    KernelIR,
    Lit,
    ScalarRef,
    chain,
)
from .lowering import BasisFactor, Monomial, MonomialSum, factor_degree
from .quadrature import simplex_rule

SNAP_TOLERANCE = 1e-12
DEGREE_MARGIN = 2


class UnsupportedDivision(Exception):
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


def _factor_block(form, f: BasisFactor):
    """Dof block (global ids within the element) carrying component f.component."""
    element = form.element_of(f.role, f.coef)
    n = element.n_scalar
    if element.is_vector:
        return element, np.arange(f.component * n, (f.component + 1) * n)
    return element, np.arange(n)


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


def reference_tensor(
    monomials, form, *, snap: float = SNAP_TOLERANCE, margin: int = DEGREE_MARGIN
) -> ReferenceTensor:
    """Integrate the group's basis-factor product over the reference cell.

    The quadrature degree is the exact degree of the (polynomial) reference
    integrand plus a safety margin that guards the snap to zero.  At each
    point the factors' tables, broadcast onto the output axes, are multiplied
    in factor order, left to right; the weighted products are summed in
    point order, so the values are the same bits on every run.
    """
    group = _as_group(monomials)
    lead = group[0]
    cell = form.cell
    d = cell.dim
    degree = sum(factor_degree(form, f) for f in lead.factors) + margin
    rule = simplex_rule(cell, degree)

    # Output axes: test dofs, [trial dofs,] coefficient dofs, bound indices.
    n_out = len(lead.factors) + lead.n_bound
    next_coef_axis = 2 if any(f.role == "trial" for f in lead.factors) else 1
    operands = []
    test_dofs = trial_dofs = None
    for f in lead.factors:
        element, dofs = _factor_block(form, f)
        k = len(f.derivs)
        tab = tabulate(element, rule.points, nderiv=k)
        # (points, scalar dofs, d, ..., d): one axis per derivative direction
        arr = np.stack(
            [tab.scalar_tables[tuple(sorted(a))] for a in product(range(d), repeat=k)], axis=-1
        )
        arr = arr.reshape(arr.shape[:2] + (d,) * k)
        if f.role == "test":
            test_dofs, dof_axis = dofs, 0
        elif f.role == "trial":
            trial_dofs, dof_axis = dofs, 1
        else:
            dof_axis = next_coef_axis
            next_coef_axis += 1
        # Each operand's axes go to their output positions, length one
        # elsewhere.  They are already in output order: the dof axis precedes
        # every bound index, and lowering numbers a factor's bound indices
        # consecutively.
        axes = np.array([dof_axis] + [len(lead.factors) + x.ident for x in f.derivs])
        shape = np.ones(1 + n_out, dtype=int)
        shape[0] = len(rule.weights)
        shape[1 + axes] = arr.shape[1:]
        operands.append(arr.reshape(shape))

    A0 = np.zeros(np.broadcast_shapes(*(op.shape[1:] for op in operands)))
    for q, w in enumerate(rule.weights):
        prod = operands[0][q]
        for op in operands[1:]:
            prod = prod * op[q]
        A0 += w * prod
    A0[np.abs(A0) < snap] = 0.0
    return ReferenceTensor(values=A0, test_dofs=test_dofs, trial_dofs=trial_dofs)


@dataclass(eq=False)
class GeometryTensorSpec:
    """Per-cell products matching one reference tensor.

    ``entries[k]`` corresponds to the k-th flattened alpha index (coefficient
    dof axes first, then chain-rule axes) and holds the coefficient-dof reads
    plus, per monomial of the group, (constant, Jinv index pairs).
    """

    entries: tuple  # ((coef_reads, ((const, jprod), ...)), ...)


def geometry_tensor_spec(monomials, form) -> GeometryTensorSpec:
    group = _as_group(monomials)
    lead = group[0]
    d = form.cell.dim
    coef_axes = [
        (f.coef, _factor_block(form, f)[1]) for f in lead.factors if f.role == "coef"
    ]
    entries = []
    coef_ranges = [range(len(dofs)) for _, dofs in coef_axes]
    bound_ranges = [range(d)] * lead.n_bound
    for alpha in product(*coef_ranges, *bound_ranges):
        coef_part = alpha[: len(coef_axes)]
        assignment = alpha[len(coef_axes) :]
        reads = tuple(
            (coef, int(dofs[k])) for (coef, dofs), k in zip(coef_axes, coef_part)
        )
        terms = tuple((m.constant, m.jinv_product(assignment)) for m in group)
        entries.append((reads, terms))
    return GeometryTensorSpec(tuple(entries))


def _group_key(group) -> tuple:
    lead = group[0]
    return (
        tuple(f.sort_key() for f in lead.factors),
        tuple(f.sort_key() for f in lead.denominators),
        lead.n_bound,
        tuple(sorted(tuple(j.sort_key() for j in m.jinvs) for m in group)),
    )


def build_tensor_kernel(
    ms: MonomialSum,
    *,
    snap: float = SNAP_TOLERANCE,
    margin: int = DEGREE_MARGIN,
    drop_zeros: bool = True,
    term_budget: int | None = None,
    name: str = "form",
) -> KernelIR:
    """Unrolled-contraction kernel: A[e] = sum_alpha A0[e, alpha] * G[alpha].

    Terms whose reference-tensor entry is exactly zero are omitted;
    coefficients of magnitude one skip their multiply.  ``term_budget``
    bounds the unrolled size (MemoryError beyond it), mirroring the failure
    mode of tensor code generation for very complicated forms.
    """
    form = ms.form
    if any(m.denominators for m in ms.monomials):
        raise UnsupportedDivision("form divides by a coefficient")
    bilinear = form.arity == 2
    n1 = form.test_element.space_dim
    n2 = form.trial_element.space_dim if bilinear else 1
    shape = (n1, n2) if bilinear else (n1,)

    by_sig: dict = {}
    for m in ms.monomials:
        by_sig.setdefault(m.signature(), []).append(m)
    groups = sorted((tuple(g) for g in by_sig.values()), key=_group_key)

    if term_budget is not None:
        upper = 0
        d = form.cell.dim
        for group in groups:
            lead = group[0]
            size = d**lead.n_bound
            for f in lead.factors:
                size *= len(_factor_block(form, f)[1])
            upper += size
        if upper > term_budget:
            raise MemoryError(
                f"unrolled contraction needs up to {upper} terms"
                f" (budget {term_budget})"
            )

    k_names: dict = {}
    k_stmts: list = []
    g_stmts: list = []
    g_names: list = []
    # (entry, coefficient, geometry slot) of every kept term, per group; the
    # empty seeds serve a form whose monomials all cancel.
    entry_ids, coeffs, slots = [np.empty(0, np.intp)], [np.empty(0)], [np.empty(0, np.intp)]

    for group in groups:
        rt = reference_tensor(group, form, snap=snap, margin=margin)
        spec = geometry_tensor_spec(group, form)
        base_slot = len(g_names)
        # One geometry scalar per alpha; Jinv sums are hoisted and shared.
        for reads, terms in spec.entries:
            gexpr = _geometry_expr(reads, terms, k_names, k_stmts)
            gname = f"G{len(g_names)}"
            g_names.append(gname)
            g_stmts.append(AssignScalar(gname, gexpr))
        # Axes (test, [trial,] flattened alpha), alpha row-major as in spec.entries.
        values = rt.values.reshape(rt.values.shape[: 2 if bilinear else 1] + (-1,))
        nz = np.nonzero(values if drop_zeros else np.ones(values.shape, dtype=bool))
        coeffs.append(values[nz])
        test_ids = rt.test_dofs[nz[0]]
        entry_ids.append(test_ids * n2 + rt.trial_dofs[nz[1]] if bilinear else test_ids)
        slots.append(base_slot + nz[-1])

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
    stmts.append(Contract(tuple(g_names), indptr, coeffs, slots))

    coef_sizes = tuple(elem.space_dim for _, elem in form.coefficients)
    return KernelIR(
        name=name,
        representation="tensor",
        shape=shape,
        dim=form.cell.dim,
        coef_sizes=coef_sizes,
        const_scalars=(),
        tables={},
        statements=tuple(stmts),
        meta={
            "n_groups": len(groups),
            "n_terms": len(coeffs),
            "drop_zeros": drop_zeros,
        },
    )


def _geometry_expr(reads, terms, k_names, k_stmts):
    """det * coefficient dofs * (hoisted sum of Jinv products)."""
    parts = [DetRef()] + [CoefRef(coef, IxConst(dof)) for coef, dof in reads]
    if all(not jprod for _, jprod in terms):
        total = sum(c for c, _ in terms)
        if total != 1.0:
            parts.append(Lit(total))
    else:
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
        parts.append(ScalarRef(kname))
    return chain("*", parts)
