"""Spans around formc's public functions, recorded from outside the package.

A wrapper replaces a function under the module attribute its caller looks
up, and ``restore`` puts every original back.  Each span records its layer
name, start, end, parent span and the operation it ran in; hooks take
counts from public return values after the span has closed.  A layer's
value is its self time: span duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: str | None = None
    tag: str | None = None  # e.g. "<form>.<q|t>" for interpreter spans
    error: str | None = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.op: str | None = None
        self.active = False  # spans are recorded only while an operation runs
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, owner, attr: str, layer: str, hook=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``hook(tracer, span, args, kwargs, result)`` runs after a call that
        returned normally.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            span = Span(
                layer,
                self.clock(),
                parent=self._stack[-1] if self._stack else None,
                op=self.op,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span], key=lambda s: s.name) -> dict:
    """Sum over spans of duration minus the durations of their child spans.

    Spans come from one thread's call stack, so children of one parent
    never overlap.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    out: dict = {}
    for s, seconds in zip(spans, own):
        k = key(s)
        out[k] = out.get(k, 0.0) + seconds
    return out


# ---------------------------------------------------------------------------
# formc's layer boundaries


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _on_expand(t, span, args, kwargs, ms):
    t.count("lowering.monomials_in", len(ms.monomials))
    t.count("lowering.permutations", sum(math.factorial(m.n_bound) for m in ms.monomials))


def _on_simplify(t, span, args, kwargs, ms):
    t.count("lowering.monomials_out", len(ms.monomials))


def _on_rule(t, span, args, kwargs, rule):
    t.count("quadrature.points", rule.n_points)


def _on_tabulate(t, span, args, kwargs, result):
    t.count("elements.tabulate_calls", 1)


def _on_quadrature_kernel(t, span, args, kwargs, k):
    for arr in k.tables.values():
        if arr.dtype.kind == "f":
            t.count("quadrep.tables", 1)
            t.count("quadrep.table_entries", arr.size)
        else:
            t.count("quadrep.nzc_maps", 1)


def _on_tensor_kernel(t, span, args, kwargs, k):
    t.count("tensorrep.terms", k.meta["n_terms"])


def _on_reference_tensor(t, span, args, kwargs, rt):
    t.count("tensorrep.nonzero_entries", int((rt.values != 0).sum()))
    t.count("tensorrep.dense_entries", rt.values.size)


def _on_emit(t, span, args, kwargs, text):
    t.count("kernel.emitted_bytes", len(text) if text.isascii() else len(text.encode()))


def kernel_tag(k) -> str:
    return f"{k.name}.{k.representation[0]}"


def _on_interpret(t, span, args, kwargs, A):
    span.tag = kernel_tag(_arg(args, kwargs, 0, "kernel"))
    t.count("kernel.cells", A.shape[0])
    t.count("cells:" + span.tag, A.shape[0])


def _on_assemble(t, span, args, kwargs, result):
    matrix, timings = result
    t.count("assemble.structure", timings["structure"])
    t.count("harness.compute_s", timings["compute"])
    t.count("harness.insertion_s", timings["insertion"])
    t.count("harness.nnz", int(matrix.indptr[-1]))
    t.count("harness.cells_assembled", _arg(args, kwargs, 2, "mesh").n_cells)


def install_layers(tracer: Tracer) -> None:
    """Wrap every cross-module call site the benchmark's layers are read from."""
    from formc import dsl, harness, kernel, lowering, quadrep, tensorrep

    sites = [
        (dsl, "parse_source", "dsl.parse", None),
        (dsl, "typecheck", "dsl.typecheck", None),
        (lowering, "expand", "lowering.expand", _on_expand),
        (lowering, "simplify", "lowering.simplify", _on_simplify),
        (harness, "rule_for_form", "quadrature.rule", _on_rule),
        (quadrep, "tabulate", "elements.tabulate", _on_tabulate),
        (tensorrep, "tabulate", "elements.tabulate", _on_tabulate),
        (quadrep, "build_quadrature_kernel", "quadrep.build", _on_quadrature_kernel),
        (tensorrep, "build_tensor_kernel", "tensorrep.build", _on_tensor_kernel),
        (tensorrep, "reference_tensor", "tensorrep.reference_tensor", _on_reference_tensor),
        (tensorrep, "geometry_tensor_spec", "tensorrep.geometry_spec", None),
        (harness, "count_flops", "kernel.count_flops", None),
        (kernel, "count_flops", "kernel.count_flops", None),
        (harness, "emit_source", "kernel.emit", _on_emit),
        (kernel, "emit_source", "kernel.emit", _on_emit),
        (harness, "interpret_batch", "kernel.interpret", _on_interpret),
        (kernel, "interpret_batch", "kernel.interpret", _on_interpret),
        (harness, "affine_map_batch", "kernel.affine_map", None),
        (kernel, "affine_map_batch", "kernel.affine_map", None),
        (harness, "build_dofmap", "harness.dofmap", None),
        (harness, "random_cells", "harness.random_cells", None),
        (harness, "compare", "harness.compare", None),
        (harness, "assemble", "harness.assemble", _on_assemble),
    ]
    for owner, attr, layer, hook in sites:
        tracer.wrap(owner, attr, layer, hook)


# Self-time metrics: metric name -> span name.
SELF_TIME = {
    "dsl.parse_s": "dsl.parse",
    "dsl.typecheck_s": "dsl.typecheck",
    "lowering.expand_s": "lowering.expand",
    "lowering.simplify_s": "lowering.simplify",
    "quadrature.rule_s": "quadrature.rule",
    "elements.tabulate_s": "elements.tabulate",
    "quadrep.build_s": "quadrep.build",
    "tensorrep.build_s": "tensorrep.build",
    "tensorrep.reference_tensor_s": "tensorrep.reference_tensor",
    "tensorrep.geometry_spec_s": "tensorrep.geometry_spec",
    "kernel.count_flops_s": "kernel.count_flops",
    "kernel.emit_s": "kernel.emit",
    "kernel.interpret_s": "kernel.interpret",
    "kernel.affine_map_s": "kernel.affine_map",
    "harness.dofmap_s": "harness.dofmap",
    "harness.compare_s": "harness.compare",
    "harness.random_cells_s": "harness.random_cells",
}

COUNTS = [
    "lowering.monomials_in",
    "lowering.monomials_out",
    "lowering.permutations",
    "quadrature.points",
    "elements.tabulate_calls",
    "quadrep.tables",
    "quadrep.table_entries",
    "quadrep.nzc_maps",
    "tensorrep.terms",
    "kernel.emitted_bytes",
    "kernel.cells",
    "harness.compute_s",
    "harness.insertion_s",
    "harness.nnz",
    "harness.cells_assembled",
]


def layer_metrics(tracer: Tracer, n_passes: int, flops_of: dict, tags: list[str]) -> dict:
    """Per-pass layer values from the spans and counts of ``n_passes`` traced passes.

    ``flops_of`` maps an interpreter tag ("<form>.<q|t>") to the kernel's
    exact flops per cell; ``tags`` names the per-form rate metrics to report.
    """
    spans = tracer.spans
    by_tag = self_times(spans, key=lambda s: (s.name, s.tag))
    own: dict = {}
    for (name, _), seconds in by_tag.items():
        own[name] = own.get(name, 0.0) + seconds
    c = tracer.counts
    out = {m: own.get(span, 0.0) / n_passes for m, span in SELF_TIME.items()}
    out.update({m: c.get(m, 0) / n_passes for m in COUNTS})
    m_in = c.get("lowering.monomials_in", 0)
    out["lowering.merge_ratio"] = c.get("lowering.monomials_out", 0) / m_in if m_in else 0.0
    dense = c.get("tensorrep.dense_entries", 0)
    out["tensorrep.kept_ratio"] = c.get("tensorrep.nonzero_entries", 0) / dense if dense else 0.0
    out["tensorrep.rejected"] = (
        sum(1 for s in spans if s.name == "tensorrep.build" and s.error) / n_passes
    )
    dofmap_total = sum(s.end - s.start for s in spans if s.name == "harness.dofmap")
    out["harness.structure_s"] = (c.get("assemble.structure", 0.0) - dofmap_total) / n_passes
    for tag in tags:
        busy = by_tag.get(("kernel.interpret", tag), 0.0)
        rate = c.get("cells:" + tag, 0) / busy if busy else 0.0
        out[f"kernel.cells_per_s.{tag}"] = rate
        out[f"kernel.flops_per_s.{tag}"] = rate * flops_of.get(tag, 0)
    return out
