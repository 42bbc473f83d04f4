import ast
import json
import re
import time
from pathlib import Path

import pytest

from formc import forms, harness
from formc.cli import main
from formc.dsl import BudgetExceeded
from formc.elements import MAX_DEGREE, TRIANGLE
from formc.quadrature import MAX_POINTS_PER_DIRECTION, simplex_rule_by_points
from formc.quadrep import MAX_CONCRETE_TERMS
from formc.tensorrep import DEFAULT_TERM_BUDGET

FORMS_DIR = Path(__file__).resolve().parent.parent / "forms"
SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "formc"


@pytest.fixture(scope="module")
def form_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("forms")
    paths = {p.stem: str(p) for p in FORMS_DIR.glob("*.form")}
    paths["mass_small"] = str(d / "mass_small.form")
    Path(paths["mass_small"]).write_text(forms.mass(2, 1))
    return paths


def test_compile_quadrature(form_files, capsys):
    rc = main(["compile", form_files["mass_small"], "-r", "quadrature"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "flops=" in out and "degree=2" in out


def test_compile_dumps_and_emit(form_files, capsys, tmp_path):
    rc = main(
        [
            "compile",
            form_files["mass_small"],
            "-r",
            "tensor",
            "--dump-ir",
            "--dump-monomials",
            "--emit",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "v[0] * u[0]" in out  # monomial dump
    payload = out[out.index("{") : out.rindex("}") + 1]
    ir = json.loads(payload)
    assert ir["representation"] == "tensor"
    emitted = tmp_path / "mass_small_tensor.kernel.c"
    assert emitted.exists()
    assert "void mass_small" in emitted.read_text()


def test_compile_emit_to_a_file_is_rejected(form_files, capsys, tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    assert main(["compile", form_files["mass_small"], "--emit", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}") and len(err.splitlines()) == 1


def test_compile_rejects_division_under_tensor(form_files, capsys):
    rc = main(["compile", form_files["pressure_equation_2d"], "-r", "tensor"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "rejected" in err
    # quadrature accepts the same form
    assert main(["compile", form_files["pressure_equation_2d"], "-r", "quadrature"]) == 0


def test_check_ok_and_failure(form_files, capsys):
    assert main(["check", form_files["mass_small"], "--cells", "10", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    # deliberately inexact quadrature trips the cross-check
    rc = main(["check", form_files["mass_2d_q2"], "--cells", "5", "--points", "1"])
    out = capsys.readouterr().out
    assert rc == 3 and "FAILED" in out


def test_check_rejects_too_many_cells(tmp_path, capsys):
    # rejected before the kernels are built or any cell is generated
    path = tmp_path / "mass-2d-p3-q1-nf4.form"
    path.write_text(harness.TrendCell("mass", 2, 3, 1, 4).source())
    t0 = time.perf_counter()
    rc = main(["check", str(path), "--cells", str(harness.MAX_CHECK_CELLS + 1)])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert rc == 2 and elapsed < 2.0
    assert f"maximum of {harness.MAX_CHECK_CELLS}" in err and len(err.splitlines()) == 1


def test_check_division_form(form_files, capsys):
    rc = main(["check", form_files["pressure_equation_2d"], "--cells", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "quadrature-two-degrees" in out


def test_bench_csv(form_files, capsys):
    rc = main(["bench", form_files["mass_small"], "-N", "200"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0].startswith("form,flops_q,flops_t,ratio")
    fields = out[1].split(",")
    assert fields[0] == "mass_small" and fields[1].isdigit()


def test_assemble_cli(form_files, capsys):
    rc = main(["assemble", form_files["mass_small"], "--mesh-n", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "16x16 matrix" in out and "insertion serial" in out and "(dofmap=" in out


def test_repo_form_files_compile():
    # the checked-in example inputs stay in sync with the grammar
    assert FORMS_DIR.is_dir()
    names = sorted(p.name for p in FORMS_DIR.glob("*.form"))
    assert len(names) == 5
    for p in FORMS_DIR.glob("*.form"):
        assert main(["compile", str(p), "-r", "quadrature"]) == 0


_P1_HEADER = (
    'element = FiniteElement("Lagrange", "triangle", 1)\n'
    "v = TestFunction(element)\nu = TrialFunction(element)\n"
)

# Each integrand once reached a traceback or a NaN verdict.
_BAD_INTEGRANDS = {
    "nested_parentheses": "(" * 3000 + "v*u" + ")" * 3000,
    "long_sum": " + ".join(["v*u"] * 3000),
    "non_finite_literal": "1e400*v*u",
    "overflowing_constant": "1e300*1e300*v*u",
    "non_decimal_digit": "2²*v*u",
}


@pytest.mark.parametrize("name", sorted(_BAD_INTEGRANDS))
def test_front_end_rejects_unbounded_input(name, tmp_path, capsys):
    path = tmp_path / f"{name}.form"
    path.write_text(_P1_HEADER + f"a = {_BAD_INTEGRANDS[name]}*dx\n", encoding="utf-8")
    for command in ("check", "compile"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command", ["compile", "assemble"])
@pytest.mark.parametrize(
    "flags", [["--points", "9"], ["--no-hoist"], ["--no-tabulate-zeros"]], ids=lambda f: f[0]
)
def test_tensor_rejects_quadrature_flags(command, flags, form_files, capsys):
    assert main([command, form_files["mass_2d_q2"], "-r", "tensor"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rejected: " + flags[0])
    assert len(captured.err.strip().splitlines()) == 1


# Four squarings of a two-term sum expand to 2^16 terms (a fifth to 2^32);
# fifteen doublings to 2^15.  Neither deepens the expression much.
_EXPANSIONS = {
    "squares": ("s1 = (f + g)*(f + g)\ns2 = s1*s1\ns3 = s2*s2\ns4 = s3*s3\n", "s4", 65536),
    "doublings": (
        "s0 = f + g\n" + "".join(f"s{k + 1} = s{k} + s{k}\n" for k in range(14)),
        "s14",
        32768,
    ),
}


@pytest.mark.parametrize("name", sorted(_EXPANSIONS))
def test_front_end_rejects_expansion_beyond_budget(name, tmp_path, capsys):
    lines, last, terms = _EXPANSIONS[name]
    path = tmp_path / f"{name}.form"
    path.write_text(
        _P1_HEADER + "f = Function(element)\ng = Function(element)\n"
        + lines + f"a = {last}*v*u*dx\n"
    )
    assert main(["compile", str(path)]) == 2
    assert f"{terms} terms" in capsys.readouterr().err


def test_front_end_rejects_inlined_tree_beyond_budget(tmp_path, capsys):
    # 40 squarings inline to about 2^42 nodes; type checking walks each use
    path = tmp_path / "squarings.form"
    path.write_text(
        _P1_HEADER + "f = Function(element)\ng = Function(element)\ns0 = f + g\n"
        + "".join(f"s{k + 1} = s{k}*s{k}\n" for k in range(40))
        + "a = s40*v*u*dx\n"
    )
    for command in ("check", "compile"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "nodes once inlined" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--cells", "0"],
        ["compile", "--points", "0"],
        ["check", "--points", "-1"],
        ["assemble", "--mesh-n", "0"],
    ],
)
def test_counts_must_be_positive(argv, form_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], form_files["mass_small"]] + argv[1:])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bench", "FORM", "-N", "-5"], ["trends", "--bench-n", "-3"]])
def test_bench_counts_must_be_non_negative(argv, form_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main([form_files["mass_small"] if a == "FORM" else a for a in argv])
    assert exc.value.code == 2
    assert "expected a non-negative integer" in capsys.readouterr().err


def test_trends_quick_excludes_3d(capsys):
    # the quick sweep has no 3D cells, so the pair would drop --include-3d
    with pytest.raises(SystemExit) as exc:
        main(["trends", "--quick", "--include-3d"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_bench_zero_count_skips_timing(form_files, capsys):
    assert main(["bench", form_files["mass_small"], "-N", "0"]) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert fields[4:6] == ["NA", "NA"]


_LINEAR = 'element = FiniteElement("Lagrange", "triangle", 1)\nv = TestFunction(element)\na = v*dx\n'


@pytest.mark.parametrize(
    "source, argv, message",
    [
        (forms.mass(3, 1), [], "tetrahedron form"),
        (_LINEAR, [], "bilinear form"),
        (forms.mass(2, 1), ["--mesh-n", "100000"], "local entries"),
    ],
    ids=["tetrahedron", "linear", "entry_budget"],
)
def test_assemble_rejects(source, argv, message, tmp_path, capsys):
    path = tmp_path / "form.form"
    path.write_text(source)
    assert main(["assemble", str(path)] + argv) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


def test_front_end_accepts_depth_below_limit(tmp_path, capsys):
    path = tmp_path / "sum.form"
    path.write_text(_P1_HEADER + "a = " + "(" * 40 + " + ".join(["v*u"] * 50) + ")" * 40 + "*dx\n")
    assert main(["compile", str(path)]) == 0


# Both forms need far more unrolled terms than the budget: without one the
# tensor builder allocates until the process is killed.  The P2 form needs up
# to 429,981,696 terms and has 8 bound indices per monomial; the P3 form has
# none.
_HEAVY_P2 = (
    'element = FiniteElement("Lagrange", "triangle", 2)\n'
    "v = TestFunction(element)\nu = TrialFunction(element)\nf = Function(element)\n"
    "a = dot(grad(f), grad(f))*dot(grad(f), grad(f))*dot(grad(f), grad(f))"
    "*dot(grad(v), grad(u))*dx\n"
)
_HEAVY_P3 = (
    'element = FiniteElement("Lagrange", "triangle", 3)\n'
    "v = TestFunction(element)\nu = TrialFunction(element)\nf = Function(element)\n"
    "a = f*f*f*f*f*f*v*u*dx\n"
)


@pytest.mark.parametrize(
    "argv", [["check"], ["compile", "-r", "tensor"], ["assemble", "-r", "tensor"]]
)
def test_tensor_term_budget_rejects(argv, tmp_path, capsys):
    path = tmp_path / "heavy_p3.form"
    path.write_text(_HEAVY_P3)
    assert main([argv[0], str(path)] + argv[1:]) == 2
    assert "100000000 terms" in capsys.readouterr().err


def test_check_budget_rejects_gradient_power(tmp_path, capsys):
    path = tmp_path / "heavy_p2.form"
    path.write_text(_HEAVY_P2)
    assert main(["check", str(path)]) == 2
    assert "429981696 terms" in capsys.readouterr().err


def test_element_degree_bound(tmp_path, capsys):
    path = tmp_path / "high_degree.form"
    path.write_text(forms.mass(2, 1).replace('"triangle", 1)', f'"triangle", {MAX_DEGREE + 1})'))
    assert main(["compile", str(path)]) == 2
    assert "maximum" in capsys.readouterr().err


# Each f raises the estimated degree by 4: the rule at that degree needs two
# points per direction more than the bound.
_HIGH_DEGREE = (
    'element = FiniteElement("Lagrange", "triangle", 1)\n'
    'element_f = FiniteElement("Lagrange", "triangle", 4)\n'
    "v = TestFunction(element)\nu = TrialFunction(element)\nf = Function(element_f)\n"
    "a = " + "*".join(["f"] * (MAX_POINTS_PER_DIRECTION // 2)) + "*v*u*dx\n"
)
_TOO_MANY = str(MAX_POINTS_PER_DIRECTION + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "MASS", "--points", _TOO_MANY],
        ["check", "MASS", "--points", _TOO_MANY],
        ["assemble", "MASS", "--points", _TOO_MANY],
        ["compile", "HIGH"],
        ["bench", "HIGH", "-N", "0"],
    ],
)
def test_quadrature_point_budget_rejects(argv, form_files, tmp_path, capsys):
    high = tmp_path / "high.form"
    high.write_text(_HIGH_DEGREE)
    paths = {"MASS": form_files["mass_small"], "HIGH": str(high)}
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "points per direction" in err and len(err.strip().splitlines()) == 1


def test_bench_checks_over_budget_polynomial_at_exact_rule(tmp_path, capsys):
    # Twelve P4 factors: degree 50, 26 points per direction, a tensor kernel
    # far over the term budget.  The check compares the quadrature kernel
    # with one without zero elimination at 27 points per direction, not at
    # the 10 and 16 degrees higher that division forms use.
    path = tmp_path / "f12.form"
    path.write_text(_HIGH_DEGREE.replace("*".join(["f"] * 16), "*".join(["f"] * 12)))
    assert main(["compile", str(path)]) == 0
    capsys.readouterr()
    assert main(["bench", str(path), "-N", "0"]) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert fields[2] == "NA" and float(fields[6]) <= 1e-10


def test_assemble_rejects_runaway_unhoisted_kernel(tmp_path, capsys):
    # Un-hoisted, each of the twelve P4 factors adds a loop of 15 trips
    # around the accumulation: 22,102,548,152,343,750,000 flops per cell.
    path = tmp_path / "f12.form"
    path.write_text(_HIGH_DEGREE.replace("*".join(["f"] * 16), "*".join(["f"] * 12)))
    t0 = time.perf_counter()
    assert main(["assemble", str(path), "--no-hoist", "--mesh-n", "1"]) == 2
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert "22102548152343750000 flops per cell" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_form_file_rejected(kind, tmp_path, capsys):
    path = tmp_path / "form.form"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(forms.mass(2, 1).encode() + b"# \xff\xfe\n")
    for command in ("compile", "check", "bench", "assemble"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["check", "assemble"])
def test_seed_must_be_non_negative(command, form_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, form_files["mass_small"], "--seed", "-1"])
    assert exc.value.code == 2
    assert "expected a non-negative integer" in capsys.readouterr().err


def _gradient_power(cell: str, k: int) -> str:
    """P1 form with dot(grad(f), grad(f)) written out k times."""
    return (
        f'element = FiniteElement("Lagrange", "{cell}", 1)\n'
        "v = TestFunction(element)\nu = TrialFunction(element)\nf = Function(element)\n"
        "a = " + "*".join(["dot(grad(f), grad(f))"] * k) + "*v*u*dx\n"
    )


# The front end lowers these in well under a second, but the quadrature
# kernel would enumerate every assignment of their bound indices:
# 172,186,884 concrete terms for k=7 on a tetrahedron.  assemble rejects
# tetrahedra first, so it gets a triangle form: 2,621,440 terms for k=9.
@pytest.mark.parametrize(
    "argv, cell, k, n_terms",
    [
        (["compile"], "tetrahedron", 7, 172186884),
        (["bench", "-N", "0"], "tetrahedron", 7, 172186884),
        (["assemble"], "triangle", 9, 2621440),
    ],
    ids=["compile", "bench", "assemble"],
)
def test_quadrature_term_budget_rejects(argv, cell, k, n_terms, tmp_path, capsys):
    path = tmp_path / "gradient_power.form"
    path.write_text(_gradient_power(cell, k))
    t0 = time.perf_counter()
    assert main([argv[0], str(path)] + argv[1:]) == 2
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert f"{n_terms} concrete terms" in err and len(err.strip().splitlines()) == 1


_P6_POWER = forms.mass(2, 6, 6, 6)  # six P6 coefficients times v*u, all P6
# Each bound, through every command that reaches it.  Under check, the tensor
# term budget comes before the quadrature kernel of any form that has a
# tensor kernel, so the concrete-term bound needs a division form there.
_BOUND_CASES = {
    "compile-points": (["compile", "MASS", "--points", _TOO_MANY], MAX_POINTS_PER_DIRECTION),
    "check-points": (["check", "MASS", "--points", _TOO_MANY], MAX_POINTS_PER_DIRECTION),
    "assemble-points": (["assemble", "MASS", "--points", _TOO_MANY], MAX_POINTS_PER_DIRECTION),
    "bench-points": (["bench", "HIGH", "-N", "0"], MAX_POINTS_PER_DIRECTION),
    "check-cells": (["check", "MASS", "--cells", "100001"], harness.MAX_CHECK_CELLS),
    "assemble-entries": (["assemble", "MASS", "--mesh-n", "100000"], harness.ASSEMBLY_ENTRY_BUDGET),
    "assemble-flops": (["assemble", "P6", "--no-hoist"], harness.INTERPRET_FLOP_BUDGET),
    "compile-tensor-terms": (["compile", "P6", "-r", "tensor"], DEFAULT_TERM_BUDGET),
    "check-tensor-terms": (["check", "P6"], DEFAULT_TERM_BUDGET),
    "assemble-tensor-terms": (["assemble", "P6", "-r", "tensor"], DEFAULT_TERM_BUDGET),
    "compile-concrete-terms": (["compile", "GRAD_TET"], MAX_CONCRETE_TERMS),
    "check-concrete-terms": (["check", "GRAD_DIV"], MAX_CONCRETE_TERMS),
    "bench-concrete-terms": (["bench", "GRAD_TET", "-N", "0"], MAX_CONCRETE_TERMS),
    "assemble-concrete-terms": (["assemble", "GRAD_TRI"], MAX_CONCRETE_TERMS),
}


@pytest.mark.parametrize("case", sorted(_BOUND_CASES))
def test_every_bound_rejects_with_its_value_and_limit(case, form_files, tmp_path, capsys):
    sources = {
        "HIGH": _HIGH_DEGREE,
        "P6": _P6_POWER,
        "GRAD_TET": _gradient_power("tetrahedron", 7),
        "GRAD_TRI": _gradient_power("triangle", 9),
        "GRAD_DIV": _gradient_power("triangle", 9).replace("*dx", "/f*dx"),
    }
    paths = {"MASS": form_files["mass_small"]}
    for name, source in sources.items():
        paths[name] = str(tmp_path / f"{name}.form")
        Path(paths[name]).write_text(source)
    argv, limit = _BOUND_CASES[case]
    assert main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("rejected: ")
    value, bound = map(int, re.findall(r"\d+", err[0]))
    assert bound == limit < value


# One call per size bound, each over its limit.
_BOUND_CALLS = {
    "points": lambda c: simplex_rule_by_points(TRIANGLE, 33),
    "check_cells": lambda c: harness.cross_check(c(forms.mass(2, 1)), n_cells=100_001),
    "entries": lambda c: harness.check_assembly(c(forms.mass(2, 2)), TRIANGLE, 10**6),
    "flops": lambda c: harness.assemble(
        c(_P6_POWER),
        harness.quadrature_kernel(c(_P6_POWER), hoisting=False),
        harness.unit_square_mesh(1),
    ),
    "tensor_terms": lambda c: harness.tensor_kernel(c(forms.elasticity(2, 2)), term_budget=10),
    "concrete_terms": lambda c: harness.quadrature_kernel(c(_gradient_power("tetrahedron", 7))),
}


@pytest.mark.parametrize("bound", sorted(_BOUND_CALLS))
def test_budget_exceeded_carries_its_value_and_limit(bound, compile_cached):
    with pytest.raises(BudgetExceeded) as info:
        _BOUND_CALLS[bound](compile_cached)
    exc = info.value
    assert isinstance(exc, MemoryError) and exc.value > exc.limit
    assert re.findall(r"\d+", str(exc)) == [str(exc.value), str(exc.limit)]


def _broad_handlers_and_memory_errors(tree: ast.Module, allowed: set) -> list[int]:
    """Lines that raise MemoryError, or catch Exception, BaseException or
    MemoryError outside the nodes in ``allowed``."""
    broad = {"Exception", "BaseException", "MemoryError"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "MemoryError":
                lines.append(node.lineno)
        if isinstance(node, ast.ExceptHandler) and id(node) not in allowed:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {getattr(t, "id", getattr(t, "attr", "BaseException")) for t in types}
            if names & broad:
                lines.append(node.lineno)
    return lines


def test_refusals_take_one_path():
    # every bound raises BudgetExceeded through check_budget, and cli.main
    # alone turns refusals and failed allocations into exit 2
    found = {}
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert len(paths) > 5
    for path in paths:
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "cli.py":
            (main_def,) = [n for n in tree.body if getattr(n, "name", None) == "main"]
            allowed = {id(n) for n in ast.walk(main_def)}
        if lines := _broad_handlers_and_memory_errors(tree, allowed):
            found[path.name] = lines
    assert found == {}
