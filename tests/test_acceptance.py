"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Tolerances are pinned here and nowhere else:
  cross-representation agreement   1e-10 (relative infinity norm)
  element mass matrix exactness    1e-14
  global matrix identities         1e-12
  optimisation-toggle agreement    1e-13
  division self-consistency        1e-8
  flop bands                       factor 2 around the reference counts
"""

import time
from pathlib import Path

import numpy as np
import pytest

from formc import forms, harness, tensorrep
from formc.cli import main as cli_main
from formc.kernel import (
    AccumA,
    AssignScalar,
    Loop,
    affine_map,
    affine_map_batch,
    count_flops,
    emit_source,
    interpret,
    interpret_batch,
)
from reference_walk import walk

CROSS_TOL = 1e-10
ELEMENT_TOL = 1e-14
GLOBAL_TOL = 1e-12
TOGGLE_TOL = 1e-13
DIVISION_TOL = 1e-8
SUITE_TIME_LIMIT = 300.0  # seconds

GOLDEN = Path(__file__).resolve().parent / "golden"


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _suite_forms():
    out = []
    for dim in (2, 3):
        for q in (1, 2, 3, 4):
            out.append((f"mass_{dim}d_q{q}", forms.mass(dim, q)))
    for dim in (2, 3):
        for q in (1, 2, 3):
            out.append((f"wl_{dim}d_q{q}", forms.weighted_laplacian(dim, q)))
    for dim in (2, 3):
        for q in (1, 2, 3):
            out.append((f"elasticity_{dim}d_q{q}", forms.elasticity(dim, q)))
    for p in (0, 1, 2, 3):
        for nf in (1, 2, 3):
            out.append((f"premult_p{p}_nf{nf}", forms.mass(2, 2, n_f=nf, p=p)))
    return out


@pytest.fixture(scope="module")
def suite():
    """Compile + cross-check the whole suite once; reused by criteria 1 and 7."""
    t0 = time.perf_counter()
    entries = []
    for name, source in _suite_forms():
        cf = harness.compile_source(source, name)
        kq = harness.quadrature_kernel(cf)
        kt = harness.tensor_kernel(cf)
        geo = affine_map_batch(harness.random_cells(cf.cell, 100, seed=100))
        w = harness.random_coefficients(cf, 100, seed=101)
        Aq = interpret_batch(kq, geo, w)
        At = interpret_batch(kt, geo, w)
        diff = harness.relative_max_difference(Aq, At)
        entries.append({"name": name, "cf": cf, "kq": kq, "kt": kt, "diff": diff})
    elapsed = time.perf_counter() - t0
    return {"entries": entries, "elapsed": elapsed}


def test_criterion_1_cross_representation(suite):
    worst = max(e["diff"] for e in suite["entries"])
    worst_name = max(suite["entries"], key=lambda e: e["diff"])["name"]
    ok = worst <= CROSS_TOL and suite["elapsed"] <= SUITE_TIME_LIMIT
    _report(
        1,
        ok,
        f"{len(suite['entries'])} forms x 100 cells agree to {worst:.2e}"
        f" (worst: {worst_name}, tolerance {CROSS_TOL:g});"
        f" suite ran in {suite['elapsed']:.1f}s (limit {SUITE_TIME_LIMIT:.0f}s)",
    )


def test_criterion_2_figure_structure():
    cf = harness.compile_source(forms.weighted_laplacian(2, 1), "weighted_laplacian_2d_q1")
    k = harness.quadrature_kernel(cf)
    text = emit_source(k)
    golden = (GOLDEN / "weighted_laplacian_2d_q1_quadrature.c").read_text()
    checks = {
        "golden file": text == golden,
        "single integration point": k.meta["n_points"] == 1,
        "weight one half": "W0 = 0.5;" in text and ("W0", 0.5) in k.const_scalars,
        "two nzc maps of length 2": sorted(
            tuple(t) for n, t in k.tables.items() if n.startswith("nzc")
        )
        == [(0, 1), (0, 2)],
        "six geometry constants": [
            s.name for s in k.statements if isinstance(s, AssignScalar)
        ]
        == [f"G{i}" for i in range(6)],
    }

    def accums(stmts):
        for s in stmts:
            if isinstance(s, Loop):
                yield from accums(s.body)
            elif isinstance(s, AccumA):
                yield s

    from formc.kernel import _expr_ops

    inner = list(accums(k.statements))
    checks["three-operation accumulation"] = all(
        1 + _expr_ops(s.expr) == 3 for s in inner
    ) and len(inner) == 4
    ok = all(checks.values())
    _report(2, ok, "; ".join(f"{name}={'yes' if v else 'NO'}" for name, v in checks.items()))


def test_criterion_3_exactness():
    exact = np.full((3, 3), 1 / 24) + np.eye(3) / 24
    cf = harness.compile_source(forms.mass(2, 1), "mass")
    geo = affine_map([[0, 0], [1, 0], [0, 1]])
    errs = []
    for k in (harness.quadrature_kernel(cf), harness.tensor_kernel(cf)):
        A = interpret(k, geo, [])
        errs.append(np.abs(A.reshape(3, 3) - exact).max())
    mesh = harness.unit_square_mesh(4)
    M, _ = harness.assemble(cf, harness.quadrature_kernel(cf), mesh)
    mass_sum_err = abs(M.total() - 1.0)
    cfp = harness.compile_source(forms.poisson(2, 1), "poisson")
    P, _ = harness.assemble(cfp, harness.quadrature_kernel(cfp), mesh)
    row_err = np.abs(P.row_sums()).max()
    ok = max(errs) <= ELEMENT_TOL and mass_sum_err <= GLOBAL_TOL and row_err <= GLOBAL_TOL
    _report(
        3,
        ok,
        f"element mass error {max(errs):.1e} (tol {ELEMENT_TOL:g});"
        f" global mass sum error {mass_sum_err:.1e}, Poisson row sums {row_err:.1e}"
        f" (tol {GLOBAL_TOL:g})",
    )


def test_criterion_4_flop_bands():
    reference_flops = {1: 10, 2: 25, 3: 89, 4: 214}
    reference_ratio = {1: 11.30, 2: 39.28, 3: 54.12, 4: 78.98}
    details = []
    ok = True
    for q in (1, 2, 3, 4):
        cf = harness.compile_source(forms.mass(2, q, n_f=1, p=0), f"mass_q{q}")
        ft = count_flops(harness.tensor_kernel(cf))
        fq = count_flops(harness.quadrature_kernel(cf))
        ratio = fq / ft
        flop_ok = 0.5 <= ft / reference_flops[q] <= 2.0
        ratio_ok = 0.5 <= ratio / reference_ratio[q] <= 2.0
        # the plain mass matrix stays inside the same bands
        cfp = harness.compile_source(forms.mass(2, q), f"plain_q{q}")
        ftp = count_flops(harness.tensor_kernel(cfp))
        fqp = count_flops(harness.quadrature_kernel(cfp))
        plain_ok = (
            0.5 <= ftp / reference_flops[q] <= 2.0
            and 0.5 <= (fqp / ftp) / reference_ratio[q] <= 2.0
        )
        ok = ok and flop_ok and ratio_ok and plain_ok
        details.append(f"q={q}: t={ft} (ref {reference_flops[q]}), q/t={ratio:.2f} (ref {reference_ratio[q]})")
    _report(4, ok, "; ".join(details) + "; all within factor 2")


@pytest.fixture(scope="module")
def quick_trends():
    return harness.trend_suite(quick=True, n_cells=10)


def test_criterion_5_trend_reversal(quick_trends):
    ratios = {}
    for cell, report, error in quick_trends:
        assert error is None, f"{cell.label()} failed: {error}"
        ratios[(cell.family, cell.p, cell.q, cell.n_f)] = report.ratio
    mass_p0 = [v for (fam, p, q, nf), v in ratios.items() if fam == "mass" and p == 0]
    heavy = [
        v for (fam, p, q, nf), v in ratios.items() if fam == "mass" and p >= 2 and nf == 4
    ]
    el_small = ratios[("elasticity", 1, 1, 1)]
    el_large = ratios[("elasticity", 1, 4, 1)]
    ok = (
        all(v > 5 for v in mass_p0)
        and all(v < 0.2 for v in heavy)
        and el_small < 1.0
        and el_large > 1.0
    )
    _report(
        5,
        ok,
        f"mass p=0 rows q/t in [{min(mass_p0):.1f}, {max(mass_p0):.1f}] (all > 5);"
        f" mass p>=2, nf=4 in [{min(heavy):.3f}, {max(heavy):.3f}] (all < 0.2);"
        f" elasticity q/t {el_small:.2f} -> {el_large:.2f} crosses 1",
    )


TOGGLE_FORMS = [
    ("mass22", forms.mass(2, 2)),
    ("wl21", forms.weighted_laplacian(2, 1)),
    ("mass_premult33", forms.mass(2, 2, n_f=2, p=3)),
    ("elasticity21", forms.elasticity(2, 1)),
    ("masspre0", forms.mass(2, 1, n_f=1, p=0)),
]


@pytest.fixture(scope="module")
def toggle_kernels():
    out = []
    for name, source in TOGGLE_FORMS:
        cf = harness.compile_source(source, name)
        out.append(
            (
                cf,
                {
                    "full": harness.quadrature_kernel(cf),
                    "no-zeros": harness.quadrature_kernel(cf, zero_elimination=False),
                    "no-hoist": harness.quadrature_kernel(cf, hoisting=False),
                },
            )
        )
    return out


def test_criterion_6_optimisation_soundness(toggle_kernels):
    worst = 0.0
    monotone = True
    for cf, variants in toggle_kernels:
        geo = affine_map_batch(harness.random_cells(cf.cell, 20, 55))
        w = harness.random_coefficients(cf, 20, 56)
        base = interpret_batch(variants["full"], geo, w)
        flops = count_flops(variants["full"])
        for label in ("no-zeros", "no-hoist"):
            A = interpret_batch(variants[label], geo, w)
            worst = max(worst, harness.relative_max_difference(A, base))
            monotone = monotone and count_flops(variants[label]) >= flops

    # the zero-column maps shrink the inner loops from three to two
    cf = harness.compile_source(forms.weighted_laplacian(2, 1), "wl")
    k = harness.quadrature_kernel(cf)

    def extents(stmts):
        for s in stmts:
            if isinstance(s, Loop):
                if s.var in ("i", "j"):
                    yield s.extent
                yield from extents(s.body)

    shrunk = set(extents(k.statements)) == {2}
    k_off = harness.quadrature_kernel(cf, zero_elimination=False)
    unshrunk = set(extents(k_off.statements)) == {3}
    ok = worst <= TOGGLE_TOL and monotone and shrunk and unshrunk
    _report(
        6,
        ok,
        f"toggled kernels agree to {worst:.1e} (tol {TOGGLE_TOL:g});"
        f" flops never decrease: {monotone}; inner loops 3 -> 2: {shrunk and unshrunk}",
    )


def test_criterion_7_static_dynamic_flops(suite, toggle_kernels):
    checked = 0
    ok = True
    geo = affine_map(np.array([[0.2, 0.1], [1.4, 0.3], [0.4, 1.2]]))
    geo3 = affine_map(np.array([[0, 0, 0], [1.1, 0, 0], [0, 1.2, 0], [0, 0.1, 0.9]]))
    for e in suite["entries"]:
        cf = e["cf"]
        g = geo if cf.cell.dim == 2 else geo3
        w = [np.full(elem.space_dim, 1.1) for _, elem in cf.typed.coefficients]
        for k in (e["kq"], e["kt"]):
            ok = ok and walk(k, g, w)[1] == count_flops(k)
            checked += 1
    for cf, variants in toggle_kernels:
        w = [np.full(elem.space_dim, 1.1) for _, elem in cf.typed.coefficients]
        for k in variants.values():
            ok = ok and walk(k, geo, w)[1] == count_flops(k)
            checked += 1
    _report(7, ok, f"operations of the reference walk match count_flops exactly on {checked} kernels")


def test_criterion_8_division_asymmetry(capsys):
    form_path = Path(__file__).resolve().parent.parent / "forms" / "pressure_equation_2d.form"
    source = form_path.read_text()
    cf = harness.compile_source(source, "pressure_equation_2d")
    with pytest.raises(tensorrep.UnsupportedDivision):
        harness.tensor_kernel(cf)
    chk = harness.cross_check(cf, n_cells=100, seed=0)
    self_ok = chk.mode == "quadrature-two-degrees" and chk.max_relative_difference <= DIVISION_TOL

    rc_tensor = cli_main(["compile", str(form_path), "-r", "tensor"])
    rc_quad = cli_main(["compile", str(form_path), "-r", "quadrature"])
    capsys.readouterr()
    report = harness.compare(source, "pressure", n_cells=10)
    fields = report.csv_row().split(",")
    marked = fields[2] == "NA" and report.tensor_error is not None
    ok = self_ok and rc_tensor == 2 and rc_quad == 0 and marked
    _report(
        8,
        ok,
        f"quadrature self-consistency {chk.max_relative_difference:.2e}"
        f" (tol {DIVISION_TOL:g}); tensor rejected with exit code {rc_tensor};"
        f" report marks tensor columns NA",
    )
