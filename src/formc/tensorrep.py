"""Tensor-contraction kernels: precomputed reference tensor, per-cell
geometry tensor, fully unrolled contraction with exact-zero dropping.

Monomials that share their basis-factor structure share one reference
tensor; their geometry products are summed inside the geometry-tensor
entries.  Each group's geometry tensor is one ``GeometryTensor`` statement:
its coefficient-dof reads, one row per combination of the coefficient
factors' dofs, times one closing factor per chain-rule assignment, which is
the row order of ``geometry_tensor_spec``.  The groups' rows take
consecutive geometry slots, and the closing factors' Jinv sums are hoisted
into ``K`` scalars, shared across groups.  Division cannot be expressed in
this representation and is a hard error.
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
from .lowering import BasisFactor, Monomial, MonomialSum, factor_degree
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


def reference_tensor(monomials, form) -> ReferenceTensor:
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
    degree = sum(factor_degree(form, f) for f in lead.factors) + DEGREE_MARGIN
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
    A0[np.abs(A0) < SNAP_TOLERANCE] = 0.0
    return ReferenceTensor(values=A0, test_dofs=test_dofs, trial_dofs=trial_dofs)


def _coef_blocks(group, form) -> list:
    """(coefficient, dofs) of each coefficient factor of the group, in factor order."""
    return [(f.coef, _factor_block(form, f)[1]) for f in group[0].factors if f.role == "coef"]


def _bound_terms(group, dim: int) -> list:
    """Per chain-rule assignment, row-major: (constant, Jinv index pairs) per monomial."""
    return [
        tuple((m.constant, m.jinv_product(assignment)) for m in group)
        for assignment in product(range(dim), repeat=group[0].n_bound)
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
    if any(m.denominators for m in ms.monomials):
        raise UnsupportedDivision("form divides by a coefficient")
    bilinear = form.arity == 2
    n1 = form.test_element.space_dim
    n2 = form.trial_element.space_dim if bilinear else 1
    shape = (n1, n2) if bilinear else (n1,)

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
            size *= len(_factor_block(form, f)[1])
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
        rt = reference_tensor(group, form)
        g_stmts.append(_geometry_tensor(group, form, n_slots, k_names, k_stmts))
        # Axes (test, [trial,] flattened alpha), alpha row-major as in the spec.
        values = rt.values.reshape(rt.values.shape[: 2 if bilinear else 1] + (-1,))
        nz = np.nonzero(values)
        coeffs.append(values[nz])
        test_ids = rt.test_dofs[nz[0]]
        entry_ids.append(test_ids * n2 + rt.trial_dofs[nz[1]] if bilinear else test_ids)
        slots.append(n_slots + nz[-1])
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
        meta={"n_terms": len(coeffs)},
    )


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
