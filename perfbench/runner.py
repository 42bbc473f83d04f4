"""Closed-loop runner: one client, each operation issued after the last ends.

Every operation is timed on its own.  An exception or a failed reference
check marks it failed: the error type is recorded against its label, it
counts as infinitely slow in the percentiles, and the run carries on.
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import tracer as tracing

# The machine's speed switches between a fast and a slow state (up to 2x
# apart) within tens of milliseconds as well as for minutes (see NOTES.md).
# So the runner probes it with a fixed loop that does not use formc: before
# and after every set-up, and between operations whenever PROBE_EVERY_S of
# operation time has passed since the last probe.  A probe repeats the loop
# for PROBE_SHARE of the work since the last probe (at least once), so that
# a long operation gets a longer look at the machine.  Each stretch of work
# is scaled by REFERENCE_CALIBRATION_S / the mean loop time of the probes on
# either side of it: seconds at the speed at which the loop takes
# REFERENCE_CALIBRATION_S.
PROBE_EVERY_S = 0.02
PROBE_SHARE = 0.1
REFERENCE_CALIBRATION_S = 1.5e-3  # about the loop's fastest time on the VM in NOTES.md


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None] | None = None  # returns a problem or None


@dataclass
class Ledger:
    samples: list[float] = field(default_factory=list)  # inf for a failed operation
    times: dict[str, list[float]] = field(default_factory=dict)  # wall time per label
    passes: list[float] = field(default_factory=list)  # wall time of each pass
    attempted: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)
    check_failures: int = 0
    # per probed pass: (operation time between two probes, mean loop time of those probes)
    stretches: list[list[tuple[float, float]]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.failures.values())

    def fail(self, label: str, error: str) -> None:
        self.failures.setdefault(label, []).append(error)

    def best_pass(self, only=lambda label: True) -> float:
        """One pass with every operation at its fastest wall time in the run.

        Slower repetitions of the same deterministic work are interference
        from the machine, not the program, and on a shared machine they vary
        more from run to run than the fastest one does.
        """
        n = len(self.passes)
        return sum(min(t) * len(t) / n for label, t in self.times.items() if only(label))

    def scaled_passes(self) -> list[float]:
        """Each probed pass's time at reference speed.

        A pass's wall time is divided by the machine's mean slowdown during
        it: the probes' loop time, weighted by the operation time of each
        stretch, over the reference.  A ratio of sums, not a sum of
        per-stretch ratios, so that a stretch whose probes both missed its
        speed moves the result by its share only.
        """
        out = []
        for part in self.stretches:
            work = sum(t for t, _ in part)
            slowdown = sum(t * probe for t, probe in part) / work / REFERENCE_CALIBRATION_S
            out.append(work / slowdown)
        return out

    def scaled_pass(self) -> float:
        """Median pass time at reference speed: a pass that an episode of contention
        slowed more than the probes saw does not move it."""
        return statistics.median(self.scaled_passes())


def run_op(op: Op, ledger: Ledger, clock=time.perf_counter, tracer=None, op_id=None) -> float:
    """Run, time and check one operation; returns its wall time in seconds."""
    ledger.attempted += 1
    if tracer is not None:
        tracer.op = op_id
        tracer.active = True
    error = None
    out = None
    t0 = clock()
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is recorded, not fatal
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    elapsed = clock() - t0
    if tracer is not None:
        tracer.active = False
    ledger.times.setdefault(op.label, []).append(elapsed)
    if error is None and op.check is not None:
        problem = op.check(out)
        if problem:
            error = f"CheckFailed: {problem}"
            ledger.check_failures += 1
    if error is None:
        ledger.samples.append(elapsed)
    else:
        ledger.samples.append(math.inf)
        ledger.fail(op.label, error)
    return elapsed


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 1; failures (inf) sort last."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def calibration_loop() -> int:
    """Fixed work that does not use formc: dict and tuple churn, then small numpy arrays."""
    import numpy as np

    terms: dict = {}
    for i in range(3000):
        key = (i % 53, i % 7, "x" if i % 2 else "y")
        terms[key] = terms.get(key, 0.0) + i * 0.5
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(200):
        a = a * 0.999 + np.sqrt(a + 1.0)
    return len(sorted(terms)) + int(a[0] > 0)


def calibrate(clock=time.perf_counter) -> float:
    """Time one calibration loop, with the garbage collector off so the heap does not show."""
    gc.disable()
    try:
        t0 = clock()
        calibration_loop()
        return clock() - t0
    finally:
        gc.enable()


class Speedometer:
    """Probes of the machine's speed, one after another through a run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.loops: list[float] = []  # every loop time of the run
        self.last: float | None = None  # mean loop time of the last probe

    def probe(self, work_s: float) -> float:
        """Probe after ``work_s`` seconds of work; returns the mean loop time on either side of it."""
        times = [calibrate(self.clock)]
        while sum(times) < PROBE_SHARE * work_s:
            times.append(calibrate(self.clock))
        self.loops += times
        before, self.last = self.last, sum(times) / len(times)
        return self.last if before is None else (before + self.last) / 2


def fresh_setup(name: str, seed: int, clock=time.perf_counter):
    """Import formc and the workload module afresh and set the workload up.

    Dropping them from ``sys.modules`` first empties formc's caches, so that
    every set-up, and the pass that follows it, starts from the same state.
    Returns the workload, its state and the seconds taken.
    """
    for module in list(sys.modules):
        if module in ("formc", "workloads") or module.startswith("formc."):
            del sys.modules[module]
    t0 = clock()
    workload = importlib.import_module("workloads").WORKLOADS[name]
    state = workload.setup(seed)
    return workload, state, clock() - t0


def _run_pass(workload, state, ledger, clock, tracer, index: int, speed: Speedometer | None) -> None:
    """Run one pass, probing the machine's speed between operations unless ``speed`` is None."""
    if tracer is not None:
        tracing.install_layers(tracer)
    try:
        total = since = 0.0
        stretches = []
        for op in workload.ops(state):
            if speed is not None and since >= PROBE_EVERY_S:
                stretches.append((since, speed.probe(since)))
                since = 0.0
            elapsed = run_op(op, ledger, clock, tracer, f"{workload.name}/{op.label}/{index}")
            total += elapsed
            since += elapsed
        if speed is not None:
            stretches.append((since, speed.probe(since)))
            ledger.stretches.append(stretches)
        ledger.passes.append(total)
    finally:
        if tracer is not None:
            tracer.restore()


@dataclass
class Run:
    warmup: Ledger
    plain: Ledger
    traced: Ledger | None
    tracer: tracing.Tracer | None
    setup_s: list[float] = field(default_factory=list)  # one set-up before every timed pass
    setup_scaled_s: list[float] = field(default_factory=list)  # each at reference speed
    speed: Speedometer = field(default_factory=Speedometer)
    workload: object = None  # the workload and state of the last pass
    state: object = None
    peak_anon_mb: float = 0.0  # after the warm-up pass


def measure(setup, seconds: float, trace: bool, min_passes: int, clock=time.perf_counter) -> Run:
    """Run set-up and pass alternately until ``seconds`` would be exceeded.

    ``setup()`` returns (workload, state, seconds).  Every pass gets its own
    set-up, and ``memo`` is carried from one state to the next so that
    checks can compare a pass with the first.  A warm-up pass comes first,
    not probed and left out of the timed passes, and the memory peak is
    taken after it: probes between operations, whose number depends on the
    machine's speed, moved the peak of a probed first pass by 10%.  With
    ``trace``, untraced and traced passes alternate and the tracer is
    installed only for the traced ones.  At least ``min_passes`` untraced
    passes run (one with ``trace``).
    """
    tracer = tracing.Tracer(clock) if trace else None
    run = Run(Ledger(), Ledger(), Ledger() if trace else None, tracer, speed=Speedometer(clock))
    memo: dict = {}
    start = clock()

    def set_up(probe: bool) -> None:
        run.workload = run.state = None
        gc.collect()  # the last pass's objects are freed before, not during, the next one
        if probe:
            run.speed.probe(run.setup_s[-1] if run.setup_s else 0.0)
        run.workload, run.state, seconds_setup = setup()
        if probe:
            run.setup_s.append(seconds_setup)
            run.setup_scaled_s.append(seconds_setup * REFERENCE_CALIBRATION_S / run.speed.probe(seconds_setup))
        run.state.first = memo
        gc.collect()

    set_up(probe=False)
    _run_pass(run.workload, run.state, run.warmup, clock, None, 0, None)
    run.peak_anon_mb = peak_anon_mb()
    while True:
        t0 = clock()
        for ledger, tracer in [(run.plain, None)] + ([(run.traced, run.tracer)] if trace else []):
            set_up(probe=True)
            _run_pass(run.workload, run.state, ledger, clock, tracer, len(run.setup_s) - 1, run.speed)
        last = clock() - t0
        enough = len(run.plain.passes) >= (1 if trace else min_passes)
        if enough and clock() - start + last > seconds:
            return run


def peak_anon_mb() -> float:
    """The process's peak resident memory less the file-backed pages resident now, in MB.

    Which pages of the shared libraries (numpy, OpenBLAS) are resident
    depends on what the host's page cache holds, and moved the peak by up
    to 7 MB from run to run; the memory formc allocates does not.
    """
    kb = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "RssFile", "RssShmem"):
                kb[key] = int(value.split()[0])
    return (kb["VmHWM"] - kb["RssFile"] - kb["RssShmem"]) / 1024.0


def machine_record() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {
            v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
