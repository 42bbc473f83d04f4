"""Command-line interface: compile, check, bench, assemble, trends.

Exit codes: 0 on success, 2 when the input is refused, 3 when a cross-check
exceeds its tolerance.  The commands raise every refusal as a
``dsl.Rejected``, and ``main`` alone reports it: ``error: <message>`` when
the form cannot be read or compiled (``dsl.FormError``, ``UnreadableForm``),
``rejected: <message>`` for any other refusal (division or a quadrature-only
flag under tensor, a linear or non-triangle form under assemble, or a size
bound of ``dsl.check_budget``) and for an allocation that failed.  Bad
arguments, and a ``compile --emit`` that cannot write its directory or file,
also exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dsl, harness, lowering
from .elements import reference_cell
from .kernel import count_flops, emit_source, kernel_to_json

CHECK_TOLERANCE = 1e-10
CHECK_TOLERANCE_DIVISION = 1e-8

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_CHECK_FAILED = 3


def _int_at_least(low: int, kind: str):
    """argparse type for integers no less than ``low``."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


class UnreadableForm(dsl.Rejected):
    """The form file is missing, is a directory or is not UTF-8 text."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UnreadableForm(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UnreadableForm(f"cannot read {path}: not UTF-8 at byte {exc.start}") from None


def _load(path: str) -> harness.CompiledForm:
    return harness.compile_source(_read(path), name=Path(path).stem)


class QuadratureOnlyFlag(dsl.Rejected):
    """A flag of the quadrature representation was given with ``-r tensor``."""


def _build(cf: harness.CompiledForm, args) -> object:
    if args.representation == "tensor":
        given = (args.points is not None, args.no_tabulate_zeros, args.no_hoist)
        flags = [f for f, on in zip(("--points", "--no-tabulate-zeros", "--no-hoist"), given) if on]
        if flags:
            raise QuadratureOnlyFlag(f"{', '.join(flags)}: not used by the tensor representation")
        return harness.tensor_kernel(cf)
    return harness.quadrature_kernel(
        cf,
        points_override=args.points,
        zero_elimination=not args.no_tabulate_zeros,
        hoisting=not args.no_hoist,
    )


def cmd_compile(args) -> int:
    cf = _load(args.form)
    if args.dump_monomials:
        sys.stdout.write(lowering.format_monomial_sum(cf.monomials))
    kernel = _build(cf, args)
    if args.dump_ir:
        print(kernel_to_json(kernel))
    if args.emit:
        path = Path(args.emit) / f"{cf.name}_{args.representation}.kernel.c"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(emit_source(kernel))
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
            return EXIT_REJECTED
        print(f"wrote {path}")
    print(
        f"{cf.name}: representation={args.representation}"
        f" degree={cf.degree} flops={count_flops(kernel)}"
    )
    return EXIT_OK


def cmd_check(args) -> int:
    cf = _load(args.form)
    check = harness.cross_check(cf, n_cells=args.cells, seed=args.seed, points_override=args.points)
    tol = (
        CHECK_TOLERANCE_DIVISION
        if check.mode == "quadrature-two-degrees"
        else CHECK_TOLERANCE
    )
    status = "ok" if check.max_relative_difference <= tol else "FAILED"
    print(
        f"{cf.name}: {check.mode} max relative difference"
        f" {check.max_relative_difference:.3e} (tolerance {tol:g}) {status}"
    )
    return EXIT_OK if status == "ok" else EXIT_CHECK_FAILED


def cmd_bench(args) -> int:
    report = harness.compare(_read(args.form), name=Path(args.form).stem, bench_n=args.count)
    print(harness.CSV_HEADER)
    print(report.csv_row())
    for note in report.notes:
        print(f"# {note}")
    if report.tensor_error:
        print(f"# tensor representation unavailable: {report.tensor_error}")
    return EXIT_OK


def cmd_assemble(args) -> int:
    cf = _load(args.form)
    harness.check_assembly(cf, reference_cell("triangle"), 2 * args.mesh_n**2)
    kernel = _build(cf, args)
    mesh = harness.unit_square_mesh(args.mesh_n)
    matrix, timings = harness.assemble(cf, kernel, mesh, seed=args.seed)
    nnz = len(matrix.indices)
    print(
        f"{cf.name}: {matrix.n_rows}x{matrix.n_cols} matrix, nnz={nnz},"
        f" sum={matrix.total():.12g}"
    )
    print(
        f"timings[s]: structure={timings['structure']:.4g} (dofmap={timings['dofmap']:.4g})"
        f" compute={timings['compute']:.4g} insertion={timings['insertion']:.4g}"
        f" (insertion {timings['insertion_mode']})"
    )
    return EXIT_OK


def cmd_trends(args) -> int:
    rows = harness.trend_suite(
        quick=args.quick, include_3d=args.include_3d, bench_n=args.bench_n
    )
    print(harness.render_trend_table(rows))
    print(harness.CSV_HEADER)
    for cell, report, error in rows:
        if report is not None:
            print(report.csv_row())
        else:
            print(f"{cell.label()},{error}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="formc", description="miniature variational-form compiler"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rep(p):
        p.add_argument(
            "-r",
            "--representation",
            choices=("quadrature", "tensor"),
            default="quadrature",
        )
        p.add_argument("--points", type=_positive_int, default=None, help="points per direction")
        p.add_argument("--no-tabulate-zeros", action="store_true")
        p.add_argument("--no-hoist", action="store_true")

    p = sub.add_parser("compile", help="compile a form to a kernel")
    p.add_argument("form")
    add_rep(p)
    p.add_argument("--dump-ir", action="store_true")
    p.add_argument("--dump-monomials", action="store_true")
    p.add_argument("--emit", metavar="DIR", default=None)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("check", help="cross-check the two representations")
    p.add_argument("form")
    p.add_argument("--cells", type=_positive_int, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--points", type=_positive_int, default=None, help="points per direction")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="benchmark N-fold element-tensor evaluation")
    p.add_argument("form")
    p.add_argument("-N", "--count", type=_non_negative_int, default=harness.DEFAULT_BENCH_N)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("assemble", help="assemble the global matrix on a unit square")
    p.add_argument("form")
    add_rep(p)
    p.add_argument("--mesh-n", type=_positive_int, default=8)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("trends", help="sweep the benchmark families")
    sweep = p.add_mutually_exclusive_group()  # the quick sweep has no 3D cells
    sweep.add_argument("--quick", action="store_true")
    sweep.add_argument("--include-3d", action="store_true")
    p.add_argument("--bench-n", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_trends)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (dsl.FormError, UnreadableForm) as exc:  # no form to compile
        print(f"error: {exc}", file=sys.stderr)
    except (dsl.Rejected, MemoryError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
    return EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
