"""formc benchmark: one workload per run, timed from outside the compiler.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 8 --trace 0

Workloads: sweep, compile, execute, assemble (see NOTES.md).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of traced passes, which alternate with untraced ones.  Outputs are checked
against references that do not come from formc, and exact counts against
the record committed in perfbench/reference/ (``--write-reference``
rewrites it after an intended change of formc's output).  Every run writes
its report (machine, failures, exact-count record, spans) under
perfbench/out/.  Exits 2 if the formc sources are not next to this
directory.
"""

from __future__ import annotations

import os
import sys

# Fixed string hashing: with Python's per-process random hash seed, the
# iteration order of sets and dicts of strings, and with it the memory
# peak, differs from run to run.  The setting must be in place when the
# interpreter starts, so the script restarts itself.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one client, one thread: pinned before numpy loads
# numpy would ask for transparent huge pages for large arrays; whether it
# gets them depends on the host's memory, not on formc.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"


def load_formc() -> bool:
    """Import formc from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "formc" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import formc

    return Path(formc.__file__).resolve().is_relative_to(src.resolve())


def counts_only(record: dict) -> dict:
    """The record without error types: the kernels that built, and their counts."""
    rows = {label: {k: v for k, v in row.items() if k != "errors"} for label, row in record.items()}
    return {label: row for label, row in rows.items() if row}


def reference_mismatches(workload: str, record: dict) -> list[str]:
    """Labels of the committed reference whose exact counts this run did not reproduce.

    An operation that failed when the reference was written has no entry,
    so a change that makes it build is not flagged.
    """
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return [f"no reference file {path.name}"]
    counts = counts_only(record)
    return sorted(label for label, row in json.loads(path.read_text()).items() if counts.get(label) != row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true", help="store this run's exact counts as the reference, if every check passed"
    )
    args = parser.parse_args(argv)

    if not load_formc():
        print(f"formc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import_s = time.perf_counter() - T_START  # numpy stays loaded; formc is imported again per set-up
    import runner
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    min_passes = workloads.WORKLOADS[args.workload].min_passes

    run = runner.measure(
        lambda: runner.fresh_setup(args.workload, args.seed), args.seconds, bool(args.trace), min_passes
    )
    workload, ledger, traced = run.workload, run.plain, run.traced
    ledgers = [run.warmup, ledger] + ([] if traced is None else [traced])
    attempted = sum(lg.attempted for lg in ledgers)
    failed = sum(lg.failed for lg in ledgers)
    failures: dict = {}
    for lg in ledgers:
        for label, errors in lg.failures.items():
            failures.setdefault(label, []).extend(errors)

    record = workload.record(run.state)
    for label, errors in failures.items():
        record.setdefault(label, {})["errors"] = sorted({e.split(":", 1)[0] for e in errors})
    record_sha = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    OUT.mkdir(exist_ok=True)
    checks_passed = all(lg.check_failures == 0 for lg in ledgers)
    if args.write_reference and checks_passed:
        REFERENCE.mkdir(exist_ok=True)
        path = REFERENCE / f"{workload.name}.json"
        path.write_text(json.dumps(counts_only(record), indent=1, sort_keys=True) + "\n")
    mismatches = reference_mismatches(workload.name, record)
    correct = checks_passed and not mismatches

    pass_wall_s = ledger.best_pass()
    pass_s = ledger.scaled_pass()
    setup_wall_s = statistics.median(run.setup_s)
    # the warm-up pass is timed too, though not probed: its samples count in percentiles
    named = workload.named(record, pass_wall_s, ledger, run.warmup.samples + ledger.samples)
    named["pass_wall_s"] = (pass_wall_s, "s")
    named["setup_wall_s"] = (setup_wall_s, "s")
    named["calibration_ms"] = (statistics.median(run.speed.loops) * 1e3, "ms")
    named["error_rate"] = (failed / attempted, "ratio")
    if traced is not None:
        flops_of = {tag: r.get("flops", 0) for tag, r in record.items()}
        rate_tags = sys.modules["workloads"].RATE_TAGS
        values = tracing.layer_metrics(run.tracer, len(traced.passes), flops_of, rate_tags)
        values["trace.overhead_s"] = traced.scaled_pass() - pass_s
    else:
        flops, code_bytes = workload.totals(record)
        values = {
            "setup_s": statistics.median(run.setup_scaled_s),
            "pass_s": pass_s,
            "peak_anon_mb": run.peak_anon_mb,
            "flops": flops,
            "code_bytes": code_bytes,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": runner.machine_record(),
        "load": "closed loop, one client, one thread",
        "import_s": import_s,
        "setups_s": run.setup_s,
        "calibrations_s": run.speed.loops,
        "setups_scaled_s": run.setup_scaled_s,
        "stretches": [len(part) for part in ledger.stretches],
        "passes_s": {"untraced": ledger.passes, "traced": traced.passes if traced else []},
        "scaled_passes_s": ledger.scaled_passes(),
        "samples": len(ledger.samples),
        "op_p50_ms": runner.percentile(ledger.samples, 0.5) * 1e3,
        "op_p90_ms": runner.percentile(ledger.samples, 0.9) * 1e3,
        "samples_beyond_p90": len(ledger.samples) - math.ceil(0.9 * len(ledger.samples)),
        "op_ms": {
            k: {"min": min(v) * 1e3, "median": statistics.median(v) * 1e3, "count": len(v)}
            for k, v in ledger.times.items()
        },
        "attempted": attempted,
        "failures": failures,
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": metrics,
        "record_sha256": record_sha,
        "reference_mismatches": mismatches,
        "record": record,
    }
    if run.tracer is not None:
        report["spans"] = [vars(s) for s in run.tracer.spans]
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str))

    shown = {**named, **{k: (m["value"], m["unit"]) for k, m in metrics.items() if not args.trace}}
    for name, (value, unit) in shown.items():
        print(f"{workload.name}: {name} = {value:.6g} {unit}")
    for label, errors in sorted(failures.items()):
        print(f"{workload.name}: failed {label}: {len(errors)}x {errors[0]}")
    for label in mismatches:
        print(f"{workload.name}: exact counts differ from perfbench/reference/: {label}")
    print(f"{workload.name}: record sha256 {record_sha}")
    print(f"{workload.name}: report in {out_file.relative_to(ROOT)}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
