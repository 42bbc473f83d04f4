"""Tests of the benchmark's own logic: run with python3 -m pytest perfbench/tests."""

import itertools
import json
import math
import types
from pathlib import Path

import pytest

import runner
import tracer as tracing
from runner import Ledger, Op


def ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


class FakeWorkload:
    name = "fake"

    def __init__(self, ops):
        self._ops = ops

    def ops(self, state):
        return list(self._ops)

    def setup(self):
        """Counts set-ups; the runner attaches the shared ``first`` dict."""
        self.setups = getattr(self, "setups", 0) + 1
        return self, types.SimpleNamespace(), 0.5


def boom():
    raise RecursionError("maximum recursion depth exceeded")


def test_wrappers_are_restored_after_a_traced_run():
    from formc import dsl, harness, kernel, lowering, quadrep, tensorrep

    modules = (dsl, harness, kernel, lowering, quadrep, tensorrep)
    before = [dict(vars(m)) for m in modules]
    t = tracing.Tracer()
    tracing.install_layers(t)
    assert harness.compare is not before[1]["compare"]
    t.restore()
    for m, snapshot in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in snapshot.items())

    wl = FakeWorkload([Op("src", lambda: harness.compile_source("element = FiniteElement(\"Lagrange\", \"triangle\", 1)\nv = TestFunction(element)\nu = TrialFunction(element)\na = v*u*dx\n"))])
    run = runner.measure(wl.setup, 0.0, trace=True, min_passes=3)
    assert len(run.plain.passes) == len(run.traced.passes) == 1
    assert {s.name for s in run.tracer.spans} >= {"dsl.parse", "dsl.typecheck", "lowering.expand"}
    for m, snapshot in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in snapshot.items())


def test_wrapper_restored_when_the_wrapped_call_raises():
    owner = types.SimpleNamespace(f=boom)
    t = tracing.Tracer(ticking_clock())
    t.wrap(owner, "f", "layer")
    t.active = True
    with pytest.raises(RecursionError):
        owner.f()
    t.restore()
    assert owner.f is boom
    assert t.spans[0].error == "RecursionError" and t.spans[0].end > t.spans[0].start
    assert t._stack == []


def test_failing_operation_is_counted_and_the_run_continues():
    seen = []
    ops = [Op("a", lambda: seen.append("a")), Op("bad", boom), Op("c", lambda: seen.append("c"))]
    wl = FakeWorkload(ops)
    run = runner.measure(wl.setup, 0.0, trace=False, min_passes=2)
    ledger = run.plain
    assert run.traced is None and len(ledger.passes) == 2
    n_setups = 2  # one before every timed pass
    # the warm-up pass has a set-up of its own, neither timed nor probed
    assert wl.setups == n_setups + 1 and run.state.first == {}
    assert run.setup_s == [0.5] * n_setups and len(run.setup_scaled_s) == n_setups
    # a probe before and after every timed set-up, and at the end of every timed pass
    assert len(run.speed.loops) >= 2 * n_setups + 2
    assert [len(part) for part in ledger.stretches] == [1, 1]
    assert run.warmup.stretches == [] and run.peak_anon_mb > 0
    assert seen == ["a", "c"] * 3
    assert run.warmup.attempted == 3 and run.warmup.failed == 1
    assert ledger.attempted == 6 and ledger.failed == 2
    assert ledger.failures["bad"][0].startswith("RecursionError")
    assert sum(math.isinf(s) for s in ledger.samples) == 2


def test_pass_time_is_scaled_by_the_probes_around_each_stretch():
    ref = runner.REFERENCE_CALIBRATION_S
    # two passes of 3 s: 1 s of work at full speed, 2 s at half speed, so 2 s at reference speed
    # a pass of 3 s: 1 s of work at full speed, 2 s at half speed, so 2 s at reference speed
    ledger = Ledger(stretches=[[(1.0, ref), (2.0, 2 * ref)]])
    assert ledger.scaled_passes() == [pytest.approx(3.0 / (5 / 3))]
    # uniformly at half speed, times halve; the median pass is taken
    ledger.stretches = [[(1.5, 2 * ref)] * 2, [(1.0, 2 * ref)] * 2, [(9.0, ref)]]
    assert ledger.scaled_passes() == pytest.approx([1.5, 1.0, 9.0])
    assert ledger.scaled_pass() == pytest.approx(1.5)


def test_probes_split_a_pass_into_stretches_of_at_least_probe_every_s():
    wl = FakeWorkload([Op("a", lambda: None)] * 5)
    ledger = Ledger()
    clock = ticking_clock()
    speed = runner.Speedometer(clock)
    runner._run_pass(wl, None, ledger, clock, None, 0, speed)
    # each op and each calibration loop takes one tick; every op exceeds PROBE_EVERY_S
    assert len(ledger.stretches) == 1 and len(speed.loops) == 5
    assert ledger.stretches[0] == [(1.0, 1.0)] * 5
    assert ledger.passes == [5.0]


def test_a_probe_looks_at_the_machine_for_a_share_of_the_work_before_it():
    speed = runner.Speedometer(ticking_clock())
    assert speed.probe(0.0) == 1.0 and len(speed.loops) == 1
    speed.probe(25 / runner.PROBE_SHARE)
    assert len(speed.loops) == 1 + 25


def test_failed_check_counts_as_failed_operation():
    ledger = Ledger()
    runner.run_op(Op("x", lambda: 3, check=lambda out: "wrong" if out != 4 else None), ledger)
    runner.run_op(Op("y", lambda: 4, check=lambda out: "wrong" if out != 4 else None), ledger)
    assert ledger.failed == 1 and ledger.check_failures == 1
    assert ledger.failures["x"] == ["CheckFailed: wrong"]


def test_percentiles_treat_failures_as_infinitely_slow():
    samples = [float(i) for i in range(1, 10)] + [math.inf]
    assert runner.percentile(samples, 0.5) == 5.0
    assert runner.percentile(samples, 0.9) == 9.0
    assert math.isinf(runner.percentile(samples, 0.95))
    assert math.isinf(runner.percentile([1.0, math.inf], 0.5 + 1e-9))
    ledger = Ledger()
    for op in [Op("ok", lambda: None)] * 8 + [Op("bad", boom)] * 2:
        runner.run_op(op, ledger, clock=ticking_clock())
    assert math.isinf(runner.percentile(ledger.samples, 0.9))
    assert runner.percentile(ledger.samples, 0.8) == 1.0


def test_best_pass_takes_each_operation_at_its_fastest():
    ledger = Ledger(times={"a": [1.5, 9.0, 2.0], "b": [5.0, 5.0, 4.0, 5.0, 5.0, 6.0]}, passes=[0.0] * 3)
    assert ledger.best_pass() == pytest.approx(1.5 + 2 * 4.0)


def test_self_time_subtracts_time_covered_by_children():
    spans = [
        tracing.Span("parent", 0.0, 10.0),
        tracing.Span("child", 2.0, 5.0, parent=0),
        tracing.Span("child", 6.0, 7.0, parent=0),
        tracing.Span("grandchild", 2.5, 3.0, parent=1),
    ]
    own = tracing.self_times(spans)
    assert own["parent"] == pytest.approx(6.0)
    assert own["child"] == pytest.approx(2.5 + 1.0)
    assert own["grandchild"] == pytest.approx(0.5)


def test_nested_wrappers_record_parents_and_self_time():
    clock = ticking_clock()
    owner = types.SimpleNamespace()
    owner.inner = lambda: clock()
    owner.outer = lambda: owner.inner() + owner.inner()
    t = tracing.Tracer(clock)
    t.wrap(owner, "inner", "in")
    t.wrap(owner, "outer", "out")
    t.active = True
    owner.outer()
    t.restore()
    assert [s.parent for s in t.spans] == [None, 0, 0]
    own = tracing.self_times(t.spans)
    total = t.spans[0].end - t.spans[0].start
    children = sum(s.end - s.start for s in t.spans[1:])
    assert own["out"] == total - children
    assert own["in"] == children


def test_per_layer_names_match_benchmark_json():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    from workloads import RATE_TAGS

    values = tracing.layer_metrics(tracing.Tracer(), 1, {}, RATE_TAGS)
    values["trace.overhead_s"] = 0.0
    assert sorted(values) == sorted(m["name"] for m in bench["per_layer"])


def test_invariant_checks_accept_exact_tensors_and_flag_perturbed_ones():
    import numpy as np
    from formc import forms, harness, kernel

    from workloads import INVARIANT_TOL, invariant_error

    for source, invariant in ((forms.mass(2, 2), "volume"), (forms.poisson(3, 2), "rowsum")):
        cf = harness.compile_source(source)
        k = harness.tensor_kernel(cf)
        verts = harness.random_cells(cf.cell, 8, 5)
        A = kernel.interpret_batch(k, kernel.affine_map_batch(verts), [])
        assert invariant_error(A, k.shape, invariant, verts) <= INVARIANT_TOL
        A[3, 0] *= 1 + 1e-9
        assert invariant_error(A, k.shape, invariant, verts) > INVARIANT_TOL


def test_reference_mismatches_name_kernels_whose_counts_changed(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "REFERENCE", tmp_path)
    (tmp_path / "w.json").write_text(json.dumps({"a": {"flops": 1}, "b": {"flops": 2}}))
    assert run.reference_mismatches("w", {"a": {"flops": 1}, "b": {"flops": 2}}) == []
    # a kernel that failed when the reference was written may now build
    assert run.reference_mismatches("w", {"a": {"flops": 1}, "b": {"flops": 2}, "c": {"flops": 3}}) == []
    assert run.reference_mismatches("w", {"a": {"flops": 9}, "b": {"errors": ["RecursionError"]}}) == ["a", "b"]
    assert run.reference_mismatches("other", {}) == ["no reference file other.json"]
