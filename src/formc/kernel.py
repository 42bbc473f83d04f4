"""Kernel IR shared by both representations, with interpreter and emitter.

A kernel is a straight-line program of constant tables, scalar assignments
and loop nests accumulating into the element tensor A; a tensor kernel's
unrolled contraction is one ``Contract`` statement of CSR arrays.  There are
no conditionals, so the static flop count (loop bodies multiplied by extents)
coincides exactly with the number of operations an instrumented run performs.

Flop convention: '+' and '*' count one each, '-' counts as '+', '/' counts
as '*', a compound '+=' counts one, constant-table construction costs zero.
Geometry (Jinv, det) is an input, never computed inside the kernel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np


class DegenerateCell(ValueError):
    pass


class NegativeOrientation(ValueError):
    pass


class DivisionByZero(ArithmeticError):
    """Runtime divide by zero; carries the statement location."""


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
    """A[e] = sum_k coeffs[k] * names[slots[k]] over k in indptr[e]:indptr[e+1].

    One CSR row per element-tensor entry; an entry without terms is zero.
    Coefficients of magnitude one skip their multiply in flops and emitted
    code.  Exact-zero coefficients (kept when zeros are not dropped) are
    counted and emitted, but the interpreter leaves them out of the sum.
    """

    names: tuple  # geometry scalars addressed by slots
    indptr: np.ndarray  # (n_entries + 1,)
    coeffs: np.ndarray  # float64
    slots: np.ndarray  # int32


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
        return int(np.prod(self.shape))


# ---------------------------------------------------------------------------
# Affine cell geometry


@dataclass(frozen=True)
class CellGeometry:
    vertices: np.ndarray  # (d+1, d)
    jacobian: np.ndarray  # (d, d), columns are edge vectors from vertex 0
    jinv: np.ndarray  # (d, d)
    det: float


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


def affine_map(vertices) -> CellGeometry:
    """Geometry of the affine cell with the given d+1 vertices.

    The Jacobian columns are the edge vectors from vertex 0; requires a
    positive orientation.
    """
    v = np.asarray(vertices, dtype=float)
    d = v.shape[1]
    if v.shape != (d + 1, d):
        raise ValueError(f"expected {d + 1} vertices in {d} dimensions")
    J = (v[1:] - v[0]).T
    det = float(_dets(J))
    if abs(det) < 1e-14:
        raise DegenerateCell(f"cell volume vanishes (det = {det:g})")
    if det < 0:
        raise NegativeOrientation(f"negative orientation (det = {det:g})")
    return CellGeometry(v, J, _invert(J, np.asarray(det)), det)


def affine_map_batch(vertices) -> BatchGeometry:
    """Vectorised affine_map over a (B, d+1, d) vertex array."""
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


def map_to_physical(geo: CellGeometry, X: np.ndarray) -> np.ndarray:
    """x = v0 + J X for reference points X of shape (n, d)."""
    return geo.vertices[0] + np.asarray(X) @ geo.jacobian.T


def map_to_reference(geo: CellGeometry, x: np.ndarray) -> np.ndarray:
    return (np.asarray(x) - geo.vertices[0]) @ geo.jinv.T


# ---------------------------------------------------------------------------
# Flop counting


def _expr_ops(kernel: KernelIR, expr) -> int:
    if isinstance(expr, BinOp):
        return 1 + _expr_ops(kernel, expr.a) + _expr_ops(kernel, expr.b)
    return 0


def _stmt_ops(kernel: KernelIR, stmt) -> int:
    if isinstance(stmt, Loop):
        return stmt.extent * sum(_stmt_ops(kernel, s) for s in stmt.body)
    if isinstance(stmt, (AccumScalar, AccumA)):
        return 1 + _expr_ops(kernel, stmt.expr)
    if isinstance(stmt, AssignScalar):
        return _expr_ops(kernel, stmt.expr)
    if isinstance(stmt, Contract):
        # n - 1 adds per non-empty entry, one multiply per non-unit coefficient
        c = stmt.coeffs
        filled = np.count_nonzero(np.diff(stmt.indptr))
        return len(c) - int(filled) + int(np.count_nonzero(np.abs(c) != 1.0))
    return 0  # Comment


def count_flops(kernel: KernelIR) -> int:
    """Static '+'/'*' count with loop bodies multiplied by their extents."""
    return sum(_stmt_ops(kernel, s) for s in kernel.statements)


# ---------------------------------------------------------------------------
# Interpretation (vectorised over a batch of cells)


class _Run:
    __slots__ = ("kernel", "env", "A", "w", "jinv", "det", "B", "ops", "count")

    def __init__(self, kernel, jinv, det, w, count):
        self.kernel = kernel
        self.env = dict(kernel.const_scalars)
        self.B = det.shape[0]
        self.A = np.zeros((self.B, kernel.n_entries))
        self.w = w
        self.jinv = jinv
        self.det = det
        self.ops = 0
        self.count = count


def _eval_ix(ix, run: _Run) -> int:
    if isinstance(ix, IxVar):
        return run.env[ix.name]
    if isinstance(ix, IxConst):
        return ix.value
    if isinstance(ix, IxMap):
        return int(run.kernel.tables[ix.table][_eval_ix(ix.inner, run)])
    total = ix.const
    for c, sub in ix.terms:
        total += c * _eval_ix(sub, run)
    return total


def _eval(expr, run: _Run, loc):
    if isinstance(expr, BinOp):
        a = _eval(expr.a, run, loc)
        b = _eval(expr.b, run, loc)
        op = expr.op
        if op == "*":
            return a * b
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        zero = (b == 0.0).any() if isinstance(b, np.ndarray) else b == 0.0
        if zero:
            raise DivisionByZero(f"division by zero at statement {loc}")
        return a / b
    if isinstance(expr, TableRef):
        tab = run.kernel.tables[expr.table]
        for ix in expr.indices:
            tab = tab[_eval_ix(ix, run)]
        return tab
    if isinstance(expr, ScalarRef):
        return run.env[expr.name]
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, CoefRef):
        return run.w[expr.coef][:, _eval_ix(expr.index, run)]
    if isinstance(expr, JinvRef):
        return run.jinv[:, expr.ref, expr.phys]
    if isinstance(expr, DetRef):
        return run.det
    raise TypeError(f"cannot evaluate {type(expr).__name__}")


def _contract(stmt: Contract, run: _Run) -> None:
    gmat = np.array([run.env[name] for name in stmt.names])  # (names, B)
    coeffs, slots = stmt.coeffs, stmt.slots
    # exact zeros ahead of each entry's first term
    zeros = np.concatenate(([0], np.cumsum(coeffs == 0.0)))[stmt.indptr].tolist()
    bounds = stmt.indptr.tolist()
    for e, (s0, s1) in enumerate(pairwise(bounds)):
        if s1 == s0:
            continue
        c, s = coeffs[s0:s1], slots[s0:s1]
        if zeros[e + 1] > zeros[e]:
            live = c != 0.0
            c, s = c[live], s[live]
        run.A[:, e] = c @ gmat[s]


def _exec(stmts, run: _Run, path) -> None:
    env = run.env
    for k, stmt in enumerate(stmts):
        if isinstance(stmt, Loop):
            for trip in range(stmt.extent):
                env[stmt.var] = trip
                _exec(stmt.body, run, path + (k,))
            continue
        if isinstance(stmt, Comment):
            continue
        if run.count:
            run.ops += _stmt_ops(run.kernel, stmt)
        if isinstance(stmt, Contract):
            _contract(stmt, run)
            continue
        val = _eval(stmt.expr, run, path + (k,))
        if isinstance(stmt, AssignScalar):
            env[stmt.name] = val
        elif isinstance(stmt, AccumScalar):
            env[stmt.name] = env[stmt.name] + val
        else:  # AccumA
            run.A[:, _eval_ix(stmt.index, run)] += val


def interpret_batch(kernel: KernelIR, geo: BatchGeometry, w, count_ops: bool = False):
    """Run the kernel on a batch of cells; returns (B, n_entries) tensors.

    ``w`` is a list with one (B, n_dofs) array per coefficient.  Execution
    is sequential in statement order per entry, so results are
    bit-reproducible across runs.  Kernels are immutable and hold no run
    state; interpreting one kernel concurrently over disjoint batches is
    safe.
    """
    if len(w) != len(kernel.coef_sizes):
        raise ValueError(f"expected {len(kernel.coef_sizes)} coefficient arrays")
    for c, size in enumerate(kernel.coef_sizes):
        if w[c].shape[1] != size:
            raise ValueError(f"coefficient {c} expects {size} dofs, got {w[c].shape[1]}")
    run = _Run(kernel, geo.jinv, geo.det, w, count_ops)
    _exec(kernel.statements, run, ())
    if count_ops:
        return run.A, run.ops
    return run.A


def interpret(kernel: KernelIR, geo: CellGeometry, w, count_ops: bool = False):
    """Single-cell interpretation; ``w`` is a list of 1-D dof arrays."""
    batch_geo = BatchGeometry(geo.jinv[None, :, :], np.array([geo.det]))
    wb = [np.asarray(wc, dtype=float)[None, :] for wc in w]
    out = interpret_batch(kernel, batch_geo, wb, count_ops)
    if count_ops:
        return out[0][0], out[1]
    return out[0]


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
    names = stmt.names
    for e, coeffs, slots in _contract_rows(stmt):
        parts = []
        for c, slot in zip(coeffs, slots):
            body = names[slot] if abs(c) == 1.0 else f"{_fmt(abs(c))}*{names[slot]}"
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


def _emit_stmts(stmts, lines, indent, declared, accumulated) -> None:
    pad = "  " * indent
    for s in stmts:
        if isinstance(s, Comment):
            lines.append(f"{pad}// {s.text}")
        elif isinstance(s, Loop):
            lines.append(f"{pad}for (unsigned int {s.var} = 0; {s.var} < {s.extent}; {s.var}++)")
            if len(s.body) == 1 and not isinstance(s.body[0], (Loop, Comment)):
                _emit_stmts(s.body, lines, indent + 1, declared, accumulated)
            else:
                lines.append(f"{pad}{{")
                _emit_stmts(s.body, lines, indent + 1, declared, accumulated)
                lines.append(f"{pad}}}")
        elif isinstance(s, AssignScalar):
            rhs = _expr_str(s.expr)
            if s.name in accumulated:
                decl = "" if s.name in declared else "double "
                declared.add(s.name)
                lines.append(f"{pad}{decl}{s.name} = {rhs};")
            else:
                lines.append(f"{pad}const double {s.name} = {rhs};")
        elif isinstance(s, AccumScalar):
            lines.append(f"{pad}{s.name} += {_expr_str(s.expr)};")
        elif isinstance(s, Contract):
            lines.append((s, pad))  # rows written or counted by the caller
        else:
            lines.append(f"{pad}A[{_ix_str(s.index)}] += {_expr_str(s.expr)};")


def _table_cstr(arr: np.ndarray) -> str:
    if arr.ndim == 1:
        if arr.dtype.kind in "iu":
            return "{" + ", ".join(str(int(v)) for v in arr) + "}"
        return "{" + ", ".join(_fmt(v) for v in arr) + "}"
    return "{" + ", ".join(_table_cstr(row) for row in arr) + "}"


def emit_source(kernel: KernelIR, name: str | None = None) -> str:
    """Deterministic C-flavoured text of the kernel (documentation output).

    The signature follows the element-kernel convention: the element tensor
    A, coefficient dofs w, and the cell geometry (flattened Jacobian inverse
    plus determinant) as inputs.
    """
    lines = _source_lines(kernel, name)
    for i, line in enumerate(lines):
        if not isinstance(line, str):
            lines[i : i + 1] = _contract_lines(*line)
    return "\n".join(lines) + "\n"


def source_bytes(kernel: KernelIR) -> int:
    """``len(emit_source(kernel).encode())``, without the contraction rows' text."""
    total = 0
    for line in _source_lines(kernel, None):
        if isinstance(line, str):
            total += len(line.encode()) + 1
        else:
            total += _contract_bytes(*line)
    return total


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
    name_len = np.array([len(name) for name in stmt.names], int)
    terms = int(name_len[stmt.slots].sum() + factor_len[inverse].sum())
    starts = stmt.indptr[:-1][np.diff(stmt.indptr) > 0]
    filled = len(starts)
    negative_leads = int(np.count_nonzero(stmt.coeffs[starts] < 0))
    separators = 3 * (len(stmt.coeffs) - filled)
    # "A[", "] = ", ";" and the newline, plus the entry's digits
    digits = n + sum(n - 10**k for k in range(1, len(str(n))))
    fixed = n * (len(pad) + 8) + digits
    return fixed + terms + negative_leads + separators + 3 * (n - filled)


def _source_lines(kernel: KernelIR, name: str | None):
    """The lines of ``emit_source``, with one (Contract, pad) in place of its rows."""
    name = name or kernel.name
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
    _emit_stmts(kernel.statements, lines, 1, set(), accumulated)
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


def _stmts_json(stmts) -> list:
    """One record per statement; a contraction gives one "assignA" per entry."""
    out = []
    for stmt in stmts:
        if isinstance(stmt, Contract):
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
        "g_slots": [n for s in kernel.statements if isinstance(s, Contract) for n in s.names],
        "flops": count_flops(kernel),
        "statements": _stmts_json(kernel.statements),
    }
    return json.dumps(obj, indent=1, sort_keys=True)
