"""Kernel IR shared by both representations, with interpreter and emitter.

A kernel is a straight-line program of constant tables, scalar assignments
and loop nests accumulating into the element tensor A.  A tensor kernel
holds each monomial group's geometry tensor as one ``GeometryTensor``
statement (coefficient reads times closing factors) and its unrolled
contraction as one ``Contract`` statement of CSR arrays over the geometry
slots ``G{k}``.  There are no conditionals, so the static flop count (loop
bodies multiplied by extents) is the number of operations any run performs
on one cell.

Flop convention: '+' and '*' count one each, '-' counts as '+', '/' counts
as '*', a compound '+=' counts one, constant-table construction costs zero.
A ``GeometryTensor`` of R read rows of n_reads reads and T closing factors
counts R*T*n_reads multiplies plus R per closing factor that is set, as its
rows ``det*w[c][d]*...*factor`` would.  Geometry (Jinv, det) is an input,
never computed inside the kernel.

The interpreter evaluates a batch of cells at once, the batch axis last,
and where it cannot change a bit it evaluates a loop over its whole range:

- a perfect nest (loops nested one in the next around ``AccumA``
  statements only, such as a hoisted i/j nest or the coefficient loops of
  an un-hoisted kernel) binds each loop variable to an ``arange`` on its
  own axis and evaluates each statement once;
- a point loop (assignments and reductions ahead of statements that write
  no scalar) evaluates its scalars for all points at once, reductions still
  added term by term, then runs the rest one point at a time;
- a fused point loop, whose rest is perfect nests of ``AccumA(c * s)``
  statements with indices that read only their own nest's variables (c
  reads only tables, literals and compile-time scalars; s is a per-cell or
  per-point scalar; every hoisted quadrature kernel's point loop), runs
  its scalars as above, then point by point multiplies each s by its c,
  tabulated by the plan at every point, and adds the products rank by rank;
- any other loop runs one trip at a time.

A geometry block multiplies det by its reads once per read row, left to
right, then by its closing factors, so each row gets the bits its scalar
chain would; a ``Contract`` reads the blocks' rows as one array and runs
one stacked product per term count.  Each entry of A still sums its
contributions in trip-then-statement order, so results equal the
trip-by-trip walk bit for bit.  A nest is evaluated in slices of its outer
loop (and a point loop in slices of its points) that hold about
``_BLOCK_BYTES`` of values at a time.  The interpreter counts no
operations: the tests check ``count_flops`` against a one-cell walk that
counts each operation it performs and never calls ``_stmt_ops``.

A kernel's first call plans what does not depend on the cells and keeps it
on the kernel (``KernelIR._plan``): how each loop runs, each ``Contract``'s
entries grouped by term count, per slice bounds the scatter plan of a nest
whose indices read only its own variables, and a fused point loop's
scatter plan and c table.  A kernel keeps at most ``_PLAN_BYTES``
(16 MiB); a plan over it is built and dropped on every call, except in a
fused loop: without room for its c table it tabulates c for a slice of
points at a time on each call, and without room for its scatter plan it
runs one point at a time.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise

import numpy as np


class DegenerateCell(ValueError):
    pass


class NegativeOrientation(ValueError):
    pass


class DivisionByZero(ArithmeticError):
    """Runtime divide by zero; the message names the divisor."""


# ---------------------------------------------------------------------------
# Index expressions (integers: loop variables, index-map reads, affine combos)


@dataclass(frozen=True)
class IxConst:
    value: int


@dataclass(frozen=True)
class IxVar:
    name: str


@dataclass(frozen=True)
class IxMap:
    """Read of an integer index table, e.g. nzc0[i]."""

    table: str
    inner: object


@dataclass(frozen=True)
class IxLin:
    """Affine combination: sum of coef*index plus a constant."""

    terms: tuple  # ((coef, Ix), ...)
    const: int = 0


# ---------------------------------------------------------------------------
# Value expressions


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class ScalarRef:
    name: str


@dataclass(frozen=True)
class TableRef:
    table: str
    indices: tuple  # of index expressions


@dataclass(frozen=True)
class CoefRef:
    coef: int
    index: object


@dataclass(frozen=True)
class JinvRef:
    ref: int
    phys: int


@dataclass(frozen=True)
class DetRef:
    pass


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    a: object
    b: object


def chain(op: str, parts):
    """Left-associated fold ((p0 op p1) op p2) ... of one or more operands."""
    expr = parts[0]
    for p in parts[1:]:
        expr = BinOp(op, expr, p)
    return expr


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class Comment:
    text: str


@dataclass(frozen=True)
class AssignScalar:
    name: str
    expr: object


@dataclass(frozen=True)
class AccumScalar:
    name: str
    expr: object


@dataclass(frozen=True)
class Loop:
    var: str
    extent: int
    body: tuple


@dataclass(frozen=True)
class AccumA:
    index: object
    expr: object


@dataclass(frozen=True, eq=False)
class Contract:
    """A[e] = sum_k coeffs[k] * G[slots[k]] over k in indptr[e]:indptr[e+1].

    One CSR row per element-tensor entry; an entry without terms is zero.
    G is the kernel's ``GeometryTensor`` rows in statement order, or in a
    kernel without one its scalars ``G{k}``.  Coefficients of magnitude one
    skip their multiply in flops and emitted code.
    """

    n_slots: int
    indptr: np.ndarray  # (n_entries + 1,)
    coeffs: np.ndarray  # float64
    slots: np.ndarray  # int32


@dataclass(frozen=True, eq=False)
class GeometryTensor:
    """G[first + a*T + t] = det * w[coefs[0]][reads[a, 0]] * ... * factors[t], T = len(factors).

    One monomial group's geometry tensor: each row of coefficient dofs
    times each closing factor (a ``ScalarRef`` to a hoisted Jinv sum, a
    ``Lit``, or None for no factor), multiplied left to right.
    """

    first: int  # slot of the first row
    coefs: tuple  # coefficient number of each read column
    reads: np.ndarray  # (R, n_reads) integer dofs
    factors: tuple  # ScalarRef | Lit | None, one per chain-rule assignment

    @property
    def n_rows(self) -> int:
        return len(self.reads) * len(self.factors)


@dataclass(eq=False)
class KernelIR:
    """Element-tensor kernel: constant tables plus a statement list."""

    name: str
    representation: str  # "quadrature" | "tensor"
    shape: tuple  # (n_test,) or (n_test, n_trial)
    dim: int
    coef_sizes: tuple  # dofs per coefficient, indexing the runtime w array
    const_scalars: tuple  # ((name, value), ...): compile-time scalar constants
    tables: dict  # name -> ndarray (float tables and integer index maps)
    statements: tuple
    meta: dict = field(default_factory=dict)

    @property
    def n_entries(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def flops(self) -> int:
        """Static '+'/'*' count, walked once per kernel: see ``count_flops``."""
        return sum(_stmt_ops(s) for s in self.statements)

    @cached_property
    def _plan(self) -> _Plan:  # built by the first interpret_batch call
        return _Plan(self.statements, {name for name, _ in self.const_scalars})


# ---------------------------------------------------------------------------
# Affine cell geometry


@dataclass(frozen=True)
class BatchGeometry:
    jinv: np.ndarray  # (B, d, d)
    det: np.ndarray  # (B,)


def _dets(J: np.ndarray) -> np.ndarray:
    d = J.shape[-1]
    if d == 2:
        return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    return (
        J[..., 0, 0] * (J[..., 1, 1] * J[..., 2, 2] - J[..., 1, 2] * J[..., 2, 1])
        - J[..., 0, 1] * (J[..., 1, 0] * J[..., 2, 2] - J[..., 1, 2] * J[..., 2, 0])
        + J[..., 0, 2] * (J[..., 1, 0] * J[..., 2, 1] - J[..., 1, 1] * J[..., 2, 0])
    )


def _invert(J: np.ndarray, det: np.ndarray) -> np.ndarray:
    d = J.shape[-1]
    inv = np.empty_like(J)
    if d == 2:
        inv[..., 0, 0] = J[..., 1, 1]
        inv[..., 0, 1] = -J[..., 0, 1]
        inv[..., 1, 0] = -J[..., 1, 0]
        inv[..., 1, 1] = J[..., 0, 0]
    else:
        for i in range(3):
            for j in range(3):
                r = [(j + 1) % 3, (j + 2) % 3]
                c = [(i + 1) % 3, (i + 2) % 3]
                inv[..., i, j] = (
                    J[..., r[0], c[0]] * J[..., r[1], c[1]]
                    - J[..., r[0], c[1]] * J[..., r[1], c[0]]
                )
    return inv / det[..., None, None]


def affine_map(vertices) -> BatchGeometry:
    """Geometry of the affine cell with the given d+1 vertices, as a batch of one."""
    v = np.asarray(vertices, dtype=float)
    d = v.shape[-1]
    if v.shape != (d + 1, d):
        raise ValueError(f"expected {d + 1} vertices in {d} dimensions")
    return affine_map_batch(v[None])


def affine_map_batch(vertices) -> BatchGeometry:
    """Jinv and det of each cell of a (B, d+1, d) vertex array.

    The Jacobian columns are the edge vectors from vertex 0; every cell must
    have a positive orientation.
    """
    v = np.asarray(vertices, dtype=float)
    J = np.swapaxes(v[:, 1:, :] - v[:, :1, :], 1, 2)
    det = _dets(J)
    bad = np.abs(det) < 1e-14
    if bad.any():
        raise DegenerateCell(f"cell {int(np.argmax(bad))} is degenerate")
    neg = det < 0
    if neg.any():
        raise NegativeOrientation(f"cell {int(np.argmax(neg))} has negative orientation")
    return BatchGeometry(_invert(J, det), det)


# ---------------------------------------------------------------------------
# Flop counting


def _expr_ops(expr) -> int:
    if isinstance(expr, BinOp):
        return 1 + _expr_ops(expr.a) + _expr_ops(expr.b)
    return 0


def _stmt_ops(stmt) -> int:
    if isinstance(stmt, Loop):
        return stmt.extent * sum(_stmt_ops(s) for s in stmt.body)
    if isinstance(stmt, (AccumScalar, AccumA)):
        return 1 + _expr_ops(stmt.expr)
    if isinstance(stmt, AssignScalar):
        return _expr_ops(stmt.expr)
    if isinstance(stmt, Contract):
        # n - 1 adds per non-empty entry, one multiply per non-unit coefficient
        c = stmt.coeffs
        filled = np.count_nonzero(np.diff(stmt.indptr))
        return len(c) - int(filled) + int(np.count_nonzero(np.abs(c) != 1.0))
    if isinstance(stmt, GeometryTensor):
        closes = sum(f is not None for f in stmt.factors)
        return stmt.n_rows * len(stmt.coefs) + len(stmt.reads) * closes
    return 0  # Comment


def count_flops(kernel: KernelIR) -> int:
    """Static '+'/'*' count with loop bodies multiplied by their extents."""
    return kernel.flops


# ---------------------------------------------------------------------------
# Interpretation (vectorised over a batch of cells, and over whole loops)

# Bytes of float64 values a vectorised loop holds at once, per slice of its
# trips; a single trip may exceed it.
_BLOCK_BYTES = 1 << 20
_PLAN_BYTES = 1 << 24  # of the plans one kernel keeps: see the module docstring
_PLAN_LOCK = threading.Lock()  # guards the kept-bytes count of every kernel


class _Plan:
    """One (runner, argument) step per statement but comments, each loop analysed
    once, and the bytes ``kept`` by the scatter plans, groupings and tables it holds."""

    def __init__(self, statements, consts):
        self.kept = 0
        self.consts = consts  # names of the kernel's compile-time scalars
        self.steps = self.program(statements)

    def program(self, stmts) -> tuple:
        steps = []
        for s in stmts:
            if isinstance(s, Loop) and (nest := _perfect_nest(s)):
                static = all(_ix_vars(t.index) <= set(nest[0]) for t in nest[2])
                steps.append((_exec_nest, (*nest, {} if static else None)))
            elif isinstance(s, Loop):
                n = _scalar_prefix(s.body)
                names = {t.name for t in s.body[:n] if isinstance(t, AssignScalar)}
                rest = s.body[n:]
                fused = _fusion(s.var, rest, self.consts)
                steps.append((_exec_points, (s, s.body[:n], names, self.program(rest), fused)))
            elif isinstance(s, Contract):
                steps.append((_contract, (s, {})))
            elif not isinstance(s, Comment):
                steps.append((_geometry if isinstance(s, GeometryTensor) else _assign, s))
        return tuple(steps)

    def keep(self, store: dict, key, value, nbytes: int) -> None:
        """store[key] = value, unless the kernel's plans would pass ``_PLAN_BYTES``."""
        with _PLAN_LOCK:
            if key not in store and self.kept + nbytes <= _PLAN_BYTES:
                store[key] = value
                self.kept += nbytes


class _Run:
    __slots__ = ("kernel", "plan", "env", "blocks", "A", "w", "jinv", "det", "cells")

    def __init__(self, kernel, jinv, det, w):
        self.kernel = kernel
        self.plan = kernel._plan  # the one plan this call reads and adds to
        self.env = dict(kernel.const_scalars)
        self.blocks = []  # (n_rows, B) values of each GeometryTensor, in statement order
        self.A = np.zeros((kernel.n_entries, det.shape[0]))  # entries x cells
        self.w = w
        self.jinv = jinv
        self.det = det
        self.cells = np.arange(det.shape[0])


def _ix_vars(ix) -> set:
    if isinstance(ix, IxLin):
        return set().union(*(_ix_vars(sub) for _, sub in ix.terms))
    if isinstance(ix, IxMap):
        return _ix_vars(ix.inner)
    return {ix.name} if isinstance(ix, IxVar) else set()


def _eval_ix(ix, run: _Run):
    """An index, or an integer array of indices where loop variables are arrays."""
    if isinstance(ix, IxVar):
        return run.env[ix.name]
    if isinstance(ix, IxConst):
        return ix.value
    if isinstance(ix, IxMap):
        return run.kernel.tables[ix.table][_eval_ix(ix.inner, run)].astype(np.intp)
    total = ix.const
    for c, sub in ix.terms:
        total = total + c * _eval_ix(sub, run)
    return total


def _eval(expr, run: _Run):
    if isinstance(expr, BinOp):
        a = _eval(expr.a, run)
        b = _eval(expr.b, run)
        op = expr.op
        if op == "*":
            return a * b
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        zero = (b == 0.0).any() if isinstance(b, np.ndarray) else b == 0.0
        if zero:
            raise DivisionByZero(f"division by zero: {_expr_str(expr.b)} is zero")
        return a / b
    if isinstance(expr, TableRef):
        return run.kernel.tables[expr.table][tuple(_eval_ix(ix, run) for ix in expr.indices)]
    if isinstance(expr, ScalarRef):
        return run.env[expr.name]
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, CoefRef):
        ix = _eval_ix(expr.index, run)
        w = run.w[expr.coef]
        return w[run.cells, ix] if isinstance(ix, np.ndarray) else w[:, ix]
    if isinstance(expr, JinvRef):
        return run.jinv[:, expr.ref, expr.phys]
    if isinstance(expr, DetRef):
        return run.det
    raise TypeError(f"cannot evaluate {type(expr).__name__}")


def _assign(stmt, run: _Run) -> None:
    val = _eval(stmt.expr, run)
    if isinstance(stmt, AssignScalar):
        run.env[stmt.name] = val
    elif isinstance(stmt, AccumScalar):
        run.env[stmt.name] = run.env[stmt.name] + val
    else:  # AccumA
        run.A[_eval_ix(stmt.index, run)] += val


def _geometry(stmt: GeometryTensor, run: _Run) -> None:
    """All rows at once, each multiplied left to right as its scalar chain would be."""
    shape = (len(stmt.reads), len(stmt.factors), run.A.shape[1])  # (R, T, B)
    values = np.broadcast_to(run.det, (shape[0], 1, shape[2]))
    for c, dofs in zip(stmt.coefs, stmt.reads.T):
        values = values * run.w[c].T[dofs, None]
    if any(f is not None for f in stmt.factors):
        table = np.ones(shape[1:])
        for row, f in zip(table, stmt.factors):
            if f is not None:
                row[:] = _eval(f, run)
        values = values * table  # x * 1.0 is x, bit for bit
    run.blocks.append(np.broadcast_to(values, shape).reshape(stmt.n_rows, shape[2]))


def _contract(planned, run: _Run) -> None:
    """Each entry's coeffs[s0:s1] @ G[slots[s0:s1]] by a stacked ``matmul`` per term count
    n > 0 and chunk: the same BLAS gemv per entry, so the same bits.  Chunks of half a
    block ran faster than whole ones on every tensor kernel of forms/."""
    stmt, kept = planned
    if (groups := kept.get(0)) is None:
        lengths, groups = np.diff(stmt.indptr), []
        for n in sorted(set(lengths.tolist()) - {0}):  # np.unique would import numpy.ma
            entries = np.flatnonzero(lengths == n)
            terms = stmt.indptr[entries][:, None] + np.arange(n)
            groups.append((entries, stmt.coeffs[terms][:, None], stmt.slots[terms]))
        run.plan.keep(kept, 0, groups, sum(a.nbytes for g in groups for a in g))
    n_cells = run.A.shape[1]
    rows = run.blocks or [
        np.broadcast_to(run.env[f"G{k}"], (1, n_cells)) for k in range(stmt.n_slots)
    ]
    # (n_slots, B): one block is read in place, not copied
    gmat = rows[0] if len(rows) == 1 else np.concatenate([np.empty((0, n_cells)), *rows])
    for entries, coeffs, slots in groups:
        step = max(1, _BLOCK_BYTES // (16 * slots.shape[1] * max(n_cells, 1)))
        for lo in range(0, len(entries), step):
            hi = lo + step
            run.A[entries[lo:hi]] = np.matmul(coeffs[lo:hi], gmat[slots[lo:hi]])[:, 0]


def _perfect_nest(loop: Loop):
    """(variables, extents, statements) of loops nested one in the next around AccumAs only."""
    names, extents = [], []
    while True:
        names.append(loop.var)
        extents.append(loop.extent)
        body = loop.body
        if len(body) == 1 and isinstance(body[0], Loop):
            loop = body[0]
        elif body and all(isinstance(s, AccumA) for s in body):
            return names, extents, body
        else:
            return None


def _exec_nest(planned, run: _Run) -> None:
    """Each statement once per slice of the outer loop, every loop variable an arange.

    Variable k spans axis k; the batch axis comes last.  ``kept`` maps slice
    bounds to scatter plans, or is None if an index reads an outer variable.
    """
    names, extents, body, kept = planned
    env = run.env
    n_cells = run.A.shape[1]
    depth = len(extents)
    for k in range(1, depth):
        env[names[k]] = np.arange(extents[k]).reshape((-1,) + (1,) * (depth - k))
    per_trip = n_cells * math.prod(extents[1:]) * len(body)
    step = max(1, _BLOCK_BYTES // (8 * max(per_trip, 1)))
    for start in range(0, extents[0], step):
        stop = min(start + step, extents[0])
        env[names[0]] = np.arange(start, stop).reshape((-1,) + (1,) * depth)
        shape = (stop - start, *extents[1:], len(body))
        value = np.empty(shape + (n_cells,))
        for k, s in enumerate(body):
            value[..., k, :] = _eval(s.expr, run)
        plan = None if kept is None else kept.get((start, stop))
        if plan is None:
            index = np.empty(shape, np.intp)
            for k, s in enumerate(body):
                index[..., k : k + 1] = _eval_ix(s.index, run)
            plan = _scatter_plan(index.ravel())
            if kept is not None:  # counted as two indices per contribution
                run.plan.keep(kept, (start, stop), plan, 16 * index.size)
        value = value.reshape(math.prod(shape), n_cells)
        for targets, picks in plan:
            run.A[targets] += value[picks]


def _scatter_plan(index: np.ndarray) -> list:
    """(targets, picks) pairs: ``A[targets] += value[picks]`` pair by pair adds each
    value[k] to A[index[k]] in order of k.  A pair holds one rank (the number of
    earlier contributions to the same entry), so its targets are distinct."""
    order = np.argsort(index, kind="stable")
    first = np.flatnonzero(np.diff(index[order], prepend=-1))
    if len(first) == len(index):
        return [(index, slice(None))]
    rank = np.arange(len(index)) - np.repeat(first, np.diff(first, append=len(index)))
    by_rank = order[np.argsort(rank, kind="stable")]
    return [(index[p], p) for p in np.split(by_rank, np.cumsum(np.bincount(rank))[:-1])]


def _writes_scalars(stmts) -> bool:
    return any(
        isinstance(s, (AssignScalar, AccumScalar, GeometryTensor))
        or (isinstance(s, Loop) and _writes_scalars(s.body))
        for s in stmts
    )


def _fusion(var: str, rest, consts):
    """(nests, scalar numbers, store) if ``rest`` is static perfect nests of
    ``AccumA(c * s)`` statements, c cell-independent and s a ScalarRef to a
    per-cell or per-point scalar; else None."""
    nests, numbers = [], {}
    for s in rest:
        nest = _perfect_nest(s) if isinstance(s, Loop) else None
        if nest is None:
            if isinstance(s, Comment):
                continue
            return None
        own = set(nest[0])
        for t in nest[2]:
            e = t.expr
            if not (
                _ix_vars(t.index) <= own
                and isinstance(e, BinOp)
                and e.op == "*"
                and isinstance(e.b, ScalarRef)
                and e.b.name not in consts
                and _cell_free(e.a, own | {var}, consts)
            ):
                return None
            numbers.setdefault(e.b.name, len(numbers))
        nests.append(nest)
    return nests, numbers, {}


def _cell_free(expr, variables: set, consts: set) -> bool:
    """True if ``expr`` reads only tables indexed by ``variables``, literals and
    ``consts``, with no division (whose zero test belongs to each trip)."""
    if isinstance(expr, BinOp):
        return expr.op != "/" and all(_cell_free(e, variables, consts) for e in (expr.a, expr.b))
    if isinstance(expr, TableRef):
        return all(_ix_vars(ix) <= variables for ix in expr.indices)
    return isinstance(expr, Lit) or isinstance(expr, ScalarRef) and expr.name in consts


def _scalar_names(expr) -> set:
    if isinstance(expr, BinOp):
        return _scalar_names(expr.a) | _scalar_names(expr.b)
    return {expr.name} if isinstance(expr, ScalarRef) else set()


def _scalar_prefix(body) -> int:
    """Length of the leading scalar statements that can run for all trips at once.

    They are assignments and reduction loops (loops of AccumScalars onto
    scalars assigned before them), none reads a scalar that the trip
    assigns only later, and the statements after them write no scalar.  A
    point loop of a quadrature kernel, with its F and Gip scalars ahead of
    the accumulation nests, has such a prefix.
    """
    later = {s.name for s in body if isinstance(s, AssignScalar)}
    done: set = set()
    n = 0
    for s in body:
        reduction = isinstance(s, Loop) and all(isinstance(t, AccumScalar) for t in s.body)
        if not (reduction or isinstance(s, AssignScalar)):
            break
        for t in s.body if reduction else (s,):
            if _scalar_names(t.expr) & later or (reduction and t.name not in done):
                return 0
        if not reduction:
            later.discard(s.name)
            done.add(s.name)
        n += 1
    return 0 if _writes_scalars(body[n:]) else n


def _bind(env: dict, names, extents) -> None:
    """Bind nest variable k to an arange on axis k of the nest's extents."""
    for k, name in enumerate(names):
        env[name] = np.arange(extents[k]).reshape((-1,) + (1,) * (len(extents) - 1 - k))


def _tabulate(nests, var: str, trips: np.ndarray, run: _Run) -> np.ndarray:
    """(trips, contributions): each fused statement's c at the given trips of
    ``var``, evaluated as ``_eval`` evaluates it in one trip."""
    parts = [np.empty((len(trips), 0))]
    for names, extents, body in nests:
        _bind(run.env, names, extents)
        run.env[var] = trips.reshape((-1,) + (1,) * len(extents))
        c = np.empty((len(trips), *extents, len(body)))
        for k, t in enumerate(body):
            c[..., k] = _eval(t.expr.a, run)
        parts.append(c.reshape(len(trips), -1))
    return np.hstack(parts)


def _fused_tables(fused, loop: Loop, run: _Run):
    """(rows, ranks, order, table) of a fused point loop, kept in its store, or
    None if its scatter plan does not fit.

    The contributions of one trip are numbered in the order (nest, loop
    indices, statement).  ``rows`` lists the entries of A they reach, most
    contributions first, so the entries that receive a contribution of rank
    r are the first n_r rows.  Rank r is (n_r, kid, span): for each of those
    rows in order, the number in ``numbers`` of the scalar s that its
    contribution reads, and the span of ``order`` that lists the
    contributions.  ``table`` is ``_tabulate`` at every trip with its
    columns in ``order``, or None if it does not fit as well.
    """
    nests, numbers, kept = fused
    if (tables := kept.get(0)) is not None:
        return tables
    n = sum(math.prod(extents) * len(body) for _, extents, body in nests)
    nbytes = 24 * n  # counted as a row, a kid and an order entry per contribution
    if run.plan.kept + nbytes > _PLAN_BYTES:
        return None
    index, kid = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for names, extents, body in nests:
        _bind(run.env, names, extents)
        ix = np.empty((*extents, len(body)), np.intp)
        for k, t in enumerate(body):
            ix[..., k] = _eval_ix(t.index, run)
        index.append(ix.ravel())
        kid.append(np.broadcast_to([numbers[t.expr.b.name] for t in body], ix.shape).ravel())
    index, kid = np.concatenate(index), np.concatenate(kid)
    counts = np.bincount(index)
    rows = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    position = np.empty(len(counts), np.intp)
    position[rows] = np.arange(len(rows))
    order, ranks, at = [], [], 0
    for targets, picks in _scatter_plan(index):
        picks = np.arange(n)[picks][np.argsort(position[targets])]
        ranks.append((len(picks), kid[picks], slice(at, at + len(picks))))
        order.append(picks)
        at += len(picks)
    order = np.concatenate(order)
    table = None
    if run.plan.kept + nbytes + 8 * n * loop.extent <= _PLAN_BYTES:
        table = _tabulate(nests, loop.var, np.arange(loop.extent), run)[:, order]
        nbytes += table.nbytes
    tables = (rows, ranks, order, table)
    run.plan.keep(kept, 0, tables, nbytes)
    return tables


def _exec_points(planned, run: _Run) -> None:
    """The scalar prefix (maybe none) for a slice of trips at once, then the rest.

    Reductions still add term by term over their own loop.  A fused loop
    then adds each trip's contributions rank by rank, the scalar s times
    the planned c (c*s, the same bits), into the rows of A gathered in
    ``rows`` order; otherwise the rest of the body runs trip by trip and
    reads each scalar at its own trip.
    """
    loop, prefix, names, rest, fused = planned
    tables = fused and _fused_tables(fused, loop, run)
    env = run.env
    n_cells = run.A.shape[1]
    width = n_cells * len(names)
    if tables:
        nests, numbers, _ = fused
        rows, ranks, order, table = tables
        # the scalars s, and c tabulated and reordered when no table is kept
        width += n_cells * len(numbers) + (2 * len(order) if table is None else 0)
        gathered = run.A[rows]
    step = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
    for start in range(0, loop.extent, step):
        stop = min(start + step, loop.extent)
        env[loop.var] = np.arange(start, stop)[:, None]
        for s in prefix:
            if isinstance(s, AssignScalar):
                env[s.name] = _eval(s.expr, run)
                continue
            for trip in range(s.extent):
                env[s.var] = trip
                for t in s.body:
                    env[t.name] = env[t.name] + _eval(t.expr, run)
        if tables:
            scalars = np.empty((stop - start, len(numbers), n_cells))
            for name, k in numbers.items():
                scalars[:, k] = env[name]
            if table is None:
                factors = _tabulate(nests, loop.var, np.arange(start, stop), run)[:, order]
            else:
                factors = table[start:stop]
            for current, c in zip(scalars, factors):
                for n, kid, span in ranks:
                    value = current[kid]
                    value *= c[span, None]
                    gathered[:n] += value
            continue
        full = {name: np.broadcast_to(env[name], (stop - start, n_cells)) for name in names}
        for trip in range(start, stop):
            env[loop.var] = trip
            env.update((name, v[trip - start]) for name, v in full.items())
            for runner, arg in rest:
                runner(arg, run)
    if tables:
        run.A[rows] = gathered


def interpret_batch(kernel: KernelIR, geo: BatchGeometry, w) -> np.ndarray:
    """Run the kernel on a batch of cells; returns (B, n_entries) tensors.

    ``geo`` holds a (B, dim, dim) Jacobian inverse and a (B,) determinant,
    and ``w`` one (B, n_dofs) array per coefficient.  Each entry of A sums
    its contributions in trip-then-statement order, as a walk of the loops
    one trip and one statement at a time would, so results are bit-identical
    to that walk and bit-reproducible across runs; each ``Contract`` entry
    sums in the order of its one BLAS gemv.  A fused point loop forms each
    contribution c*s as s*c, the same bits, from c tabulated at plan time.
    The first call plans the kernel and later calls reuse the plan: the
    module docstring sets out what is planned, which loops run at once, and
    the memory both hold.  A plan depends on the statements alone and a
    lock guards its byte count, while the values of a call stay in the
    call, so concurrent calls on one kernel are safe.  The result is a
    transposed view of the (n_entries, B) tensor the interpreter fills; the
    operations a run performs are ``count_flops`` per cell, which the
    interpreter does not count again.
    """
    d = kernel.dim
    if geo.det.ndim != 1 or geo.jinv.shape != (len(geo.det), d, d):
        raise ValueError(
            f"expected Jinv of shape (B, {d}, {d}) and det of shape (B,),"
            f" got {geo.jinv.shape} and {geo.det.shape}"
        )
    if len(w) != len(kernel.coef_sizes):
        raise ValueError(f"expected {len(kernel.coef_sizes)} coefficient arrays")
    n_cells = geo.det.shape[0]
    for c, size in enumerate(kernel.coef_sizes):
        if w[c].shape != (n_cells, size):
            raise ValueError(
                f"coefficient {c} expects shape {(n_cells, size)}, got {w[c].shape}"
            )
    run = _Run(kernel, geo.jinv, geo.det, w)
    for runner, planned in run.plan.steps:
        runner(planned, run)
    return run.A.T


def interpret(kernel: KernelIR, geo: BatchGeometry, w) -> np.ndarray:
    """Interpretation on the one cell of ``geo``; ``w`` is a list of 1-D dof arrays."""
    if geo.det.shape != (1,):
        raise ValueError(f"expected the geometry of one cell, got {geo.det.shape[0]}")
    wb = [np.asarray(wc, dtype=float)[None, :] for wc in w]
    return interpret_batch(kernel, geo, wb)[0]


# ---------------------------------------------------------------------------
# Source emission


def _fmt(v: float) -> str:
    return repr(float(v))


def _ix_str(ix) -> str:
    if isinstance(ix, IxVar):
        return ix.name
    if isinstance(ix, IxConst):
        return str(ix.value)
    if isinstance(ix, IxMap):
        return f"{ix.table}[{_ix_str(ix.inner)}]"
    parts = []
    for c, sub in ix.terms:
        parts.append(_ix_str(sub) if c == 1 else f"{_ix_str(sub)}*{c}")
    if ix.const or not parts:
        parts.append(str(ix.const))
    return " + ".join(parts)


def _expr_str(expr, prec: int = 0) -> str:
    if isinstance(expr, BinOp):
        level = 1 if expr.op in "+-" else 2
        a = _expr_str(expr.a, level)
        b = _expr_str(expr.b, level + 1)
        s = f"{a}{expr.op if expr.op in '*/' else ' ' + expr.op + ' '}{b}"
        return f"({s})" if prec > level else s
    if isinstance(expr, Lit):
        return _fmt(expr.value)
    if isinstance(expr, ScalarRef):
        return expr.name
    if isinstance(expr, TableRef):
        return expr.table + "".join(f"[{_ix_str(ix)}]" for ix in expr.indices)
    if isinstance(expr, CoefRef):
        return f"w[{expr.coef}][{_ix_str(expr.index)}]"
    if isinstance(expr, JinvRef):
        return f"Jinv_{expr.ref}{expr.phys}"
    if isinstance(expr, DetRef):
        return "det"
    raise TypeError(f"cannot emit {type(expr).__name__}")


def _contract_rows(stmt: Contract):
    """(entry, coefficients, slots) as lists, one entry converted at a time."""
    for e, (s0, s1) in enumerate(pairwise(stmt.indptr.tolist())):
        yield e, stmt.coeffs[s0:s1].tolist(), stmt.slots[s0:s1].tolist()


def _contract_lines(stmt: Contract, pad: str):
    for e, coeffs, slots in _contract_rows(stmt):
        parts = []
        for c, slot in zip(coeffs, slots):
            body = f"G{slot}" if abs(c) == 1.0 else f"{_fmt(abs(c))}*G{slot}"
            if not parts:
                parts.append(body if c >= 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c >= 0 else '-'} {body}")
        yield f"{pad}A[{e}] = {' '.join(parts) if parts else '0.0'};"


def _accumulated_names(stmts, out: set) -> None:
    for s in stmts:
        if isinstance(s, Loop):
            _accumulated_names(s.body, out)
        elif isinstance(s, AccumScalar):
            out.add(s.name)


def _emit_stmts(stmts, lines, indent, accumulated) -> None:
    pad = "  " * indent
    for s in stmts:
        if isinstance(s, Comment):
            lines.append(f"{pad}// {s.text}")
        elif isinstance(s, Loop):
            lines.append(f"{pad}for (unsigned int {s.var} = 0; {s.var} < {s.extent}; {s.var}++)")
            if len(s.body) == 1 and not isinstance(s.body[0], (Loop, Comment)):
                _emit_stmts(s.body, lines, indent + 1, accumulated)
            else:
                lines.append(f"{pad}{{")
                _emit_stmts(s.body, lines, indent + 1, accumulated)
                lines.append(f"{pad}}}")
        elif isinstance(s, AssignScalar):
            decl = "double" if s.name in accumulated else "const double"
            lines.append(f"{pad}{decl} {s.name} = {_expr_str(s.expr)};")
        elif isinstance(s, AccumScalar):
            lines.append(f"{pad}{s.name} += {_expr_str(s.expr)};")
        elif isinstance(s, (Contract, GeometryTensor)):
            lines.append((s, pad))  # rows written or counted by the caller
        else:
            lines.append(f"{pad}A[{_ix_str(s.index)}] += {_expr_str(s.expr)};")


def _table_cstr(arr: np.ndarray) -> str:
    """C initialiser of an integer or float table: each value as ``repr`` prints it."""
    return repr(arr.tolist()).translate(_BRACES)


_BRACES = str.maketrans("[]", "{}")


def emit_source(kernel: KernelIR) -> str:
    """Deterministic C-flavoured text of the kernel (documentation output).

    The signature follows the element-kernel convention: the element tensor
    A, coefficient dofs w, and the cell geometry (flattened Jacobian inverse
    plus determinant) as inputs.
    """
    lines = []
    for line in _source_lines(kernel):
        if isinstance(line, str):
            lines.append(line)
        elif isinstance(line[0], Contract):
            lines.extend(_contract_lines(*line))
        else:
            lines.extend(_geometry_lines(*line))
    return "\n".join(lines) + "\n"


def source_bytes(kernel: KernelIR) -> int:
    """``len(emit_source(kernel).encode())``, without the text of block statements' rows."""
    total = 0
    for line in _source_lines(kernel):
        if isinstance(line, str):
            total += len(line.encode()) + 1
        elif isinstance(line[0], Contract):
            total += _contract_bytes(*line)
        else:
            total += _geometry_bytes(*line)
    return total


def _digits(values: np.ndarray) -> int:
    """Total decimal digits of non-negative integers."""
    if not values.size:
        return 0
    top = len(str(int(values.max())))
    return values.size + sum(int(np.count_nonzero(values >= 10**k)) for k in range(1, top))


def _closing_strs(stmt: GeometryTensor) -> list:
    return ["" if f is None else f"*{_expr_str(f)}" for f in stmt.factors]


def _geometry_lines(stmt: GeometryTensor, pad: str):
    columns = [f"*w[{c}][" for c in stmt.coefs]
    closing = _closing_strs(stmt)
    slot = stmt.first
    for dofs in stmt.reads.tolist():
        body = "".join(f"{r}{d}]" for r, d in zip(columns, dofs))
        for tail in closing:
            yield f"{pad}const double G{slot} = det{body}{tail};"
            slot += 1


def _geometry_bytes(stmt: GeometryTensor, pad: str) -> int:
    """Byte length of the rows of ``_geometry_lines``, newlines included."""
    n, n_factors = stmt.n_rows, len(stmt.factors)
    fixed = n * (len(f"{pad}const double G = det;") + 1)
    names = _digits(np.arange(stmt.first, stmt.first + n))
    reads = n * sum(len(f"*w[{c}][]") for c in stmt.coefs) + n_factors * _digits(stmt.reads)
    closing = len(stmt.reads) * sum(map(len, _closing_strs(stmt)))
    return fixed + names + reads + closing


def _contract_bytes(stmt: Contract, pad: str) -> int:
    """Byte length of the rows of ``_contract_lines``, newlines included.

    An entry's row is ``{pad}A[{e}] = {rhs};``.  Its right-hand side joins
    the terms with " + " or " - ", a leading "-" marks a negative first
    coefficient, and an empty entry reads "0.0".  A term is the slot's name,
    behind "{repr(|c|)}*" unless |c| is one; each distinct |c| is formatted
    once.
    """
    n = len(stmt.indptr) - 1
    mags, inverse = np.unique(np.abs(stmt.coeffs), return_inverse=True)
    factor_len = np.array([0 if m == 1.0 else len(_fmt(m)) + 1 for m in mags.tolist()], int)
    terms = len(stmt.slots) + _digits(stmt.slots) + int(factor_len[inverse].sum())
    starts = stmt.indptr[:-1][np.diff(stmt.indptr) > 0]
    filled = len(starts)
    negative_leads = int(np.count_nonzero(stmt.coeffs[starts] < 0))
    separators = 3 * (len(stmt.coeffs) - filled)
    # "A[", "] = ", ";" and the newline, plus the entry's digits
    fixed = n * (len(pad) + 8) + _digits(np.arange(n))
    return fixed + terms + negative_leads + separators + 3 * (n - filled)


def _source_lines(kernel: KernelIR):
    """The lines of ``emit_source``, with one (Contract, pad) in place of its rows."""
    name = kernel.name
    d = kernel.dim
    lines = []
    lines.append(f"// {name}: element-tensor kernel ({kernel.representation} representation)")
    shape = "x".join(str(n) for n in kernel.shape)
    lines.append(
        f"// element tensor: {shape}, coefficients: {len(kernel.coef_sizes)},"
        f" flops: {count_flops(kernel)}"
    )
    lines.append(f"void {name}(double* A, const double* const* w,")
    lines.append(f"{' ' * (6 + len(name))}const double* Jinv, const double det)")
    lines.append("{")
    lines.append("  // Jacobian inverse entries")
    for a in range(d):
        for b in range(d):
            lines.append(f"  const double Jinv_{a}{b} = Jinv[{a * d + b}];")
    lines.append("")
    lines.append("  // Reset element tensor")
    lines.append(f"  for (unsigned int e = 0; e < {kernel.n_entries}; e++)")
    lines.append("    A[e] = 0.0;")
    lines.append("")
    if kernel.const_scalars:
        lines.append("  // Quadrature weight")
        for cname, cval in kernel.const_scalars:
            lines.append(f"  const static double {cname} = {_fmt(cval)};")
        lines.append("")
    basis_header_done = False
    for tname, arr in kernel.tables.items():
        if tname == f"W{arr.shape[0]}" and arr.ndim == 1 and arr.dtype.kind == "f":
            lines.append("  // Quadrature weights")
        elif not basis_header_done:
            lines.append("  // Tabulated basis functions and non-zero column maps")
            basis_header_done = True
        dims = "".join(f"[{n}]" for n in arr.shape)
        if arr.dtype.kind in "iu":
            lines.append(f"  static const unsigned int {tname}{dims} = {_table_cstr(arr)};")
        else:
            lines.append(f"  const static double {tname}{dims} = {_table_cstr(arr)};")
    if kernel.tables:
        lines.append("")
    accumulated: set = set()
    _accumulated_names(kernel.statements, accumulated)
    _emit_stmts(kernel.statements, lines, 1, accumulated)
    lines.append("}")
    return lines


# ---------------------------------------------------------------------------
# IR serialisation (stable text form for golden tests)


def _ix_json(ix):
    if isinstance(ix, IxVar):
        return {"var": ix.name}
    if isinstance(ix, IxConst):
        return {"const": ix.value}
    if isinstance(ix, IxMap):
        return {"map": ix.table, "inner": _ix_json(ix.inner)}
    return {"lin": [[c, _ix_json(sub)] for c, sub in ix.terms], "offset": ix.const}


def _expr_json(expr):
    if isinstance(expr, BinOp):
        return {"op": expr.op, "a": _expr_json(expr.a), "b": _expr_json(expr.b)}
    if isinstance(expr, Lit):
        return {"lit": expr.value}
    if isinstance(expr, ScalarRef):
        return {"scalar": expr.name}
    if isinstance(expr, TableRef):
        return {"table": expr.table, "indices": [_ix_json(ix) for ix in expr.indices]}
    if isinstance(expr, CoefRef):
        return {"w": expr.coef, "index": _ix_json(expr.index)}
    if isinstance(expr, JinvRef):
        return {"jinv": [expr.ref, expr.phys]}
    if isinstance(expr, DetRef):
        return {"det": True}
    raise TypeError(type(expr).__name__)


def _geometry_json(stmt: GeometryTensor):
    """One "assign" record per row, its product nested as a left-deep chain."""
    closing = [None if f is None else _expr_json(f) for f in stmt.factors]
    slot = stmt.first
    for dofs in stmt.reads.tolist():
        reads = {"det": True}
        for c, d in zip(stmt.coefs, dofs):
            reads = {"op": "*", "a": reads, "b": {"w": c, "index": {"const": d}}}
        for factor in closing:
            expr = reads if factor is None else {"op": "*", "a": reads, "b": factor}
            yield {"assign": f"G{slot}", "expr": expr}
            slot += 1


def _stmts_json(stmts) -> list:
    """One record per statement; a contraction gives one "assignA" per entry and
    a geometry tensor one "assign" per row."""
    out = []
    for stmt in stmts:
        if isinstance(stmt, GeometryTensor):
            out.extend(_geometry_json(stmt))
        elif isinstance(stmt, Contract):
            for e, coeffs, slots in _contract_rows(stmt):
                rhs = {"termsum": {"coeffs": coeffs, "slots": slots}} if coeffs else {"lit": 0.0}
                out.append({"assignA": {"lin": [], "offset": e}, "expr": rhs})
        elif isinstance(stmt, Comment):
            out.append({"comment": stmt.text})
        elif isinstance(stmt, Loop):
            body = _stmts_json(stmt.body)
            out.append({"loop": stmt.var, "extent": stmt.extent, "body": body})
        elif isinstance(stmt, AssignScalar):
            out.append({"assign": stmt.name, "expr": _expr_json(stmt.expr)})
        elif isinstance(stmt, AccumScalar):
            out.append({"accum": stmt.name, "expr": _expr_json(stmt.expr)})
        else:
            out.append({"accumA": _ix_json(stmt.index), "expr": _expr_json(stmt.expr)})
    return out


def kernel_to_json(kernel: KernelIR) -> str:
    obj = {
        "name": kernel.name,
        "representation": kernel.representation,
        "shape": list(kernel.shape),
        "dim": kernel.dim,
        "coef_sizes": list(kernel.coef_sizes),
        "const_scalars": [[n, v] for n, v in kernel.const_scalars],
        "tables": {n: arr.tolist() for n, arr in kernel.tables.items()},
        "g_slots": [
            f"G{k}" for s in kernel.statements if isinstance(s, Contract) for k in range(s.n_slots)
        ],
        "flops": count_flops(kernel),
        "statements": _stmts_json(kernel.statements),
    }
    return json.dumps(obj, indent=1, sort_keys=True)
