"""The benchmark in perfbench/ still finds every formc name it uses.

The tracer wraps module attributes by name, and the workloads call formc's
functions; a name deleted from formc breaks the benchmark without failing any
other test.  This sets every workload up and runs and checks its first
operation under the tracer's wrappers.  It changes nothing in perfbench/.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ["compile", "execute", "assemble", "sweep"]


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import runner
        import tracer
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return runner, tracer, workloads


def test_tracer_wraps_and_restores_every_site(bench_modules):
    _, tracing, workloads = bench_modules
    from formc import harness

    assert sorted(workloads.WORKLOADS) == sorted(WORKLOADS)

    original = harness.compare
    t = tracing.Tracer()
    tracing.install_layers(t)
    try:
        assert harness.compare is not original
    finally:
        t.restore()
    assert harness.compare is original


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_sets_up_and_runs_one_checked_operation(bench_modules, name):
    runner, tracing, workloads = bench_modules
    workload = workloads.WORKLOADS[name]
    state = workload.setup(0)
    state.first = {}  # what the runner gives each pass's checks
    op = workload.ops(state)[0]
    ledger = runner.Ledger()
    t = tracing.Tracer()
    tracing.install_layers(t)
    try:
        runner.run_op(op, ledger, tracer=t, op_id=f"{name}/{op.label}/0")
    finally:
        t.restore()
    assert ledger.failures == {}
    assert ledger.samples and t.spans
