"""Reference interpreter: one cell, one trip and one statement at a time.

``walk`` evaluates a kernel with Python floats and counts each '+', '-',
'*', '/' and compound '+=' it performs, so its count is a dynamic one,
independent of ``kernel._stmt_ops``.  A ``Contract`` row is walked term by
term in row order: a multiply only where |c| is not one, a free sign where c
is -1, and one add between terms; slot k is the scalar ``G{k}``.  A
``GeometryTensor`` row (read row a, closing factor t) is walked factor by
factor: det, then one multiply per coefficient read, then one for its
closing factor if that is set.  Every entry of A adds its contributions in
trip-then-statement order, the order ``interpret_batch`` keeps.
"""

import operator

import numpy as np

from formc.kernel import (
    AccumA,
    AccumScalar,
    AssignScalar,
    BatchGeometry,
    BinOp,
    CoefRef,
    Comment,
    Contract,
    DetRef,
    GeometryTensor,
    IxConst,
    IxMap,
    IxVar,
    JinvRef,
    KernelIR,
    Loop,
    ScalarRef,
    TableRef,
)

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def walk(k: KernelIR, geo: BatchGeometry, w) -> tuple:
    """(A, ops): the (B, n_entries) tensors and the operations run on one cell.

    ``w`` holds one (B, n_dofs) array per coefficient, or one 1-D array for
    a single cell.  Every cell runs the same operations; ``ops`` is 0 for a
    batch of no cells.
    """
    w = [np.atleast_2d(wc) for wc in w]
    out = np.zeros((len(geo.det), k.n_entries))
    ops = 0
    for b in range(len(geo.det)):
        env = dict(k.const_scalars)
        ops = 0

        def ix(e):
            if isinstance(e, IxVar):
                return env[e.name]
            if isinstance(e, IxConst):
                return e.value
            if isinstance(e, IxMap):
                return int(k.tables[e.table][ix(e.inner)])
            return e.const + sum(c * ix(sub) for c, sub in e.terms)

        def val(e):
            nonlocal ops
            if isinstance(e, BinOp):
                x, y = val(e.a), val(e.b)
                ops += 1
                return _OPS[e.op](x, y)
            if isinstance(e, TableRef):
                return float(k.tables[e.table][tuple(ix(i) for i in e.indices)])
            if isinstance(e, CoefRef):
                return float(w[e.coef][b, ix(e.index)])
            if isinstance(e, JinvRef):
                return float(geo.jinv[b, e.ref, e.phys])
            if isinstance(e, DetRef):
                return float(geo.det[b])
            return env[e.name] if isinstance(e, ScalarRef) else e.value

        def contract(s: Contract):
            nonlocal ops
            indptr = s.indptr.tolist()
            coeffs, slots = s.coeffs.tolist(), s.slots.tolist()
            for e in range(len(indptr) - 1):
                total = None
                for t in range(indptr[e], indptr[e + 1]):
                    c, g = coeffs[t], env[f"G{slots[t]}"]
                    if c == 1.0:
                        term = g
                    elif c == -1.0:
                        term = -g
                    else:
                        term = c * g
                        ops += 1
                    if total is None:
                        total = term
                    else:
                        total += term
                        ops += 1
                out[b, e] = 0.0 if total is None else total

        def geometry(s: GeometryTensor):
            nonlocal ops
            slot = s.first
            for dofs in s.reads.tolist():
                for factor in s.factors:
                    g = float(geo.det[b])
                    for c, dof in zip(s.coefs, dofs):
                        g *= float(w[c][b, dof])
                        ops += 1
                    if factor is not None:
                        g *= val(factor)
                        ops += 1
                    env[f"G{slot}"] = g
                    slot += 1

        def run(stmts):
            nonlocal ops
            for s in stmts:
                if isinstance(s, Loop):
                    for trip in range(s.extent):
                        env[s.var] = trip
                        run(s.body)
                elif isinstance(s, Contract):
                    contract(s)
                elif isinstance(s, GeometryTensor):
                    geometry(s)
                elif isinstance(s, AssignScalar):
                    env[s.name] = val(s.expr)
                elif isinstance(s, AccumScalar):
                    env[s.name] += val(s.expr)
                    ops += 1
                elif isinstance(s, AccumA):
                    out[b, ix(s.index)] += val(s.expr)
                    ops += 1
                else:
                    assert isinstance(s, Comment), type(s).__name__

        run(k.statements)
    return out, ops
