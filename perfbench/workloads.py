"""The benchmark's workloads and the reference checks on their outputs.

Each workload has a ``setup(seed)`` that builds every input, an ``ops(state)``
that lists the operations of one pass, and a ``record(state)`` of exact
counts and digests taken after the timed passes.  The runner sets the
workload up afresh before every pass and gives each state the same
``first`` dict, in which checks keep what the first pass produced.  The
seed changes only the random cells, coefficient values and check data;
forms and amounts of work are fixed.  Operations look formc's functions up
at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from formc import forms, harness, kernel

from runner import Op, percentile

FORMS_DIR = Path(__file__).resolve().parent.parent / "forms"
BATCH = 256  # cells per interpreter call
INVARIANT_TOL = 1e-12  # relative: element-tensor sums and row sums
CROSS_TOL = 1e-10  # quadrature against tensor (acceptance criterion 1)
COMPILE_CHECK_FLOPS = 100_000  # interpret compile-mix kernels up to this size

# Exact properties of the element tensor of a form on any affine cell:
# "volume": with unit coefficients, its entries sum to the cell volume;
# "rowsum": its rows sum to zero, since grad(u) vanishes for constant u.
FILE_INVARIANT = {
    "elasticity_3d_q3": "rowsum",
    "mass_2d_q2": "volume",
    "mass_premultiplied_2d": "volume",
    "pressure_equation_2d": "volume",  # unit coefficients reduce it to a mass form
    "weighted_laplacian_3d_q3": "rowsum",
}

# The execute workloads check the forms with an exact invariant (their
# coefficient-free or gradient structure makes it hold for any coefficients).
EXECUTE_INVARIANT = {
    "mass_2d_q2": "volume",
    "weighted_laplacian_3d_q3": "rowsum",
    "elasticity_3d_q3": "rowsum",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def cell_volumes(vertices: np.ndarray) -> np.ndarray:
    """|det J| / d! of (B, d+1, d) simplex vertices."""
    edges = vertices[:, 1:, :] - vertices[:, :1, :]
    d = vertices.shape[2]
    return np.abs(np.linalg.det(edges)) / math.factorial(d)


def invariant_error(A: np.ndarray, shape: tuple, invariant: str, vertices: np.ndarray) -> float:
    """Largest relative violation of ``invariant`` over a (B, n) batch of tensors."""
    A = A.reshape(A.shape[0], shape[0], -1)
    if invariant == "volume":
        vol = cell_volumes(vertices)
        return float(np.max(np.abs(A.sum(axis=(1, 2)) - vol) / vol))
    rows = np.abs(A.sum(axis=2)).max(axis=1)
    return float(np.max(rows / np.abs(A).max(axis=(1, 2))))


def kernel_record(k) -> dict:
    text = kernel.emit_source(k)
    return {
        "flops": kernel.count_flops(k),
        "bytes": len(text.encode()),
        "terms": k.meta.get("n_terms"),
        "emit_sha256": sha256(text),
        "json_sha256": sha256(kernel.kernel_to_json(k)),
    }


def same_as_first(st, label: str, row: dict) -> str | None:
    first = st.first.setdefault(label, row)
    return None if row == first else f"exact counts differ from the first pass: {row} != {first}"


def warm_elements(dim: int, max_degree: int) -> None:
    """Fill formc's element caches for degrees 0..max_degree on one cell."""
    for p in range(max_degree + 1):
        cf = harness.compile_source(forms.mass(dim, 1, 1, p), "warm")
        harness.quadrature_kernel(cf)


def form_files() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(FORMS_DIR.glob("*.form"))}


# ---------------------------------------------------------------------------


class Sweep:
    """harness.compare on the quick trend cells but the four largest: the paper's crossover.

    mass-2d-p3-q{2,3,4}-nf4 and mass-2d-p2-q4-nf4 are left out: together
    they take about 22 of the 24 s of the full sweep, in four single
    operations of 1-14 s, which a run could not repeat often enough.  The
    crossover is checked at the largest cell kept.
    """

    name = "sweep"
    min_passes = 3
    LEFT_OUT = {"mass-2d-p2-q4-nf4", "mass-2d-p3-q2-nf4", "mass-2d-p3-q3-nf4", "mass-2d-p3-q4-nf4"}
    CROSSOVER = {"mass-2d-p0-q1-nf1": 1, "mass-2d-p3-q1-nf4": -1}  # sign of ratio - 1

    def setup(self, seed: int):
        warm_elements(2, 4)
        cells = [(c.label(), c.source()) for c in harness.quick_trend_cells()]
        return SimpleNamespace(seed=seed, cells=[c for c in cells if c[0] not in self.LEFT_OUT])

    def ops(self, st) -> list[Op]:
        return [Op(label, self._op(st, src, label), self._check(st, label)) for label, src in st.cells]

    @staticmethod
    def _op(st, src, label):
        return lambda: harness.compare(
            src, label, n_cells=20, seed=st.seed, term_budget=harness.DEFAULT_TERM_BUDGET
        )

    def _check(self, st, label):
        def check(r):
            tol = 1e-8 if r.check_mode == "quadrature-two-degrees" else 1e-10
            if not r.max_difference <= tol:
                return f"max_difference {r.max_difference:.3g} > {tol:g}"
            side = self.CROSSOVER.get(label)
            if side and not (r.ratio is not None and (r.ratio - 1) * side > 0):
                return f"crossover broken: flops_q/flops_t = {r.ratio}"
            row = {
                "flops_q": r.flops_q,
                "flops_t": r.flops_t,
                "bytes_q": r.bytes_q,
                "bytes_t": r.bytes_t,
                "n_points": r.n_points,
                "check_mode": r.check_mode,
                "tensor_error": r.tensor_error,
            }
            return same_as_first(st, label, row)

        return check

    def record(self, st) -> dict:
        return dict(st.first)

    @staticmethod
    def totals(record: dict) -> tuple[int, int]:
        rows = [r for r in record.values() if "flops_q" in r]
        flops = sum(r["flops_q"] + (r["flops_t"] or 0) for r in rows)
        return flops, sum(r["bytes_q"] + (r["bytes_t"] or 0) for r in rows)

    def named(self, record: dict, pass_s: float, ledger, samples) -> dict:
        rows = [r for r in record.values() if "flops_q" in r]
        return {
            "sweep_s": (pass_s, "s"),
            "flops_q": (sum(r["flops_q"] for r in rows), "count"),
            "flops_t": (sum(r["flops_t"] or 0 for r in rows), "count"),
            "code_bytes": (self.totals(record)[1], "count"),
        }


def gradf2(dim: int) -> str:
    cell = {2: "triangle", 3: "tetrahedron"}[dim]
    return (
        f'element = FiniteElement("Lagrange", "{cell}", 2)\n'
        "v = TestFunction(element)\n"
        "u = TrialFunction(element)\n"
        "f = Function(element)\n"
        "a = dot(grad(f), grad(f))*dot(grad(f), grad(f))*dot(grad(v), grad(u))*dx\n"
    )


def compile_mix() -> list[tuple[str, str, str]]:
    """(label, source, invariant) for the 27 forms of the compile workload."""
    mix = [(stem, src, FILE_INVARIANT[stem]) for stem, src in form_files().items()]
    mix += [(f"gradf2_{d}d", gradf2(d), "rowsum") for d in (2, 3)]
    mix += [(f"elasticity_3d_q{q}_p3_nf2", forms.elasticity(3, q, 2, 3), "rowsum") for q in (1, 2, 3)]
    mix += [
        (f"vector_poisson_div_2d_q{q}_p{p}_nf2", forms.vector_poisson_div(q, 2, p, 2), "rowsum")
        for p in (1, 2, 3)
        for q in (1, 2, 3, 4)
    ]
    mix.append(("vector_poisson_div_3d_q2_p2_nf2", forms.vector_poisson_div(2, 2, 2, 3), "rowsum"))
    mix.append(("vector_poisson_div_3d_q1_p1_nf3", forms.vector_poisson_div(1, 3, 1, 3), "rowsum"))
    mix += [(f"mass_3d_q{q}_p3_nf2", forms.mass(3, q, 2, 3), "volume") for q in (1, 2, 3)]
    return mix


class Compile:
    """compile_source -> quadrature_kernel -> count_flops -> emit_source (formc compile --emit)."""

    name = "compile"
    min_passes = 3  # with the warm-up pass 108 samples, so that ten lie beyond p90

    def setup(self, seed: int):
        warm_elements(2, 4)
        warm_elements(3, 3)
        return SimpleNamespace(seed=seed, mix=compile_mix(), kernels={}, checked=set())

    def ops(self, st) -> list[Op]:
        return [Op(label, self._op(src, label), self._check(st, label, inv)) for label, src, inv in st.mix]

    @staticmethod
    def _op(src, label):
        def op():
            cf = harness.compile_source(src, label)
            k = harness.quadrature_kernel(cf)
            return cf, k, kernel.count_flops(k), kernel.emit_source(k)

        return op

    @staticmethod
    def _check(st, label, invariant):
        def check(out):
            cf, k, flops, text = out
            st.kernels[label] = k
            row = {
                "flops": flops,
                "bytes": len(text.encode()),
                "emit_sha256": sha256(text),
                "n_points": k.meta["n_points"],
            }
            problem = same_as_first(st, label, row)
            if problem or label in st.checked or flops > COMPILE_CHECK_FLOPS:
                return problem
            st.checked.add(label)
            seed = st.seed + len(st.checked)
            verts = harness.random_cells(cf.cell, 1, seed)
            rng = np.random.default_rng(seed)
            w = [
                np.ones((1, n)) if invariant == "volume" else rng.uniform(0.5, 1.5, (1, n))
                for n in k.coef_sizes
            ]
            A = kernel.interpret_batch(k, kernel.affine_map_batch(verts), w)
            err = invariant_error(A, k.shape, invariant, verts)
            return None if err <= INVARIANT_TOL else f"{invariant} invariant off by {err:.3g}"

        return check

    def record(self, st) -> dict:
        rec = {}
        for label, row in st.first.items():
            rec[label] = dict(row, json_sha256=sha256(kernel.kernel_to_json(st.kernels[label])))
        return rec

    @staticmethod
    def totals(record: dict) -> tuple[int, int]:
        rows = [r for r in record.values() if "flops" in r]
        return sum(r["flops"] for r in rows), sum(r["bytes"] for r in rows)

    @staticmethod
    def named(record: dict, pass_s: float, ledger, samples) -> dict:
        return {
            "compile_p50_ms": (percentile(samples, 0.5) * 1e3, "ms"),
            "compile_p90_ms": (percentile(samples, 0.9) * 1e3, "ms"),
        }


class Execute:
    """kernel.interpret_batch on seeded 256-cell batches for eight kernels of forms/*.form.

    CALLS fixes the interpreter calls per kernel and pass, so that no kernel
    takes more than about a third of a pass at the seed commit.  Both
    kernels of a form run on the same cells and coefficients.  The
    quadrature kernel of elasticity_3d_q3 is left out: one call takes about
    5.5 s, which a run could not repeat.
    """

    name = "execute"
    min_passes = 3
    CALLS = {
        "weighted_laplacian_3d_q3.q": 1,
        "pressure_equation_2d.q": 9,
        "mass_premultiplied_2d.q": 30,
        "mass_2d_q2.q": 110,
        "elasticity_3d_q3.t": 11,
        "weighted_laplacian_3d_q3.t": 30,
        "mass_premultiplied_2d.t": 220,
        "mass_2d_q2.t": 1100,
    }

    def setup(self, seed: int):
        inputs = {}
        for i, (stem, src) in enumerate(form_files().items()):
            cf = harness.compile_source(src, stem)
            verts = harness.random_cells(cf.cell, BATCH, seed + 10 * i)
            w = harness.random_coefficients(cf, BATCH, seed + 10 * i + 1)
            inputs[stem] = (cf, verts, kernel.affine_map_batch(verts), w)
        items = []
        for tag in self.CALLS:
            stem, rep = tag.split(".")
            cf, verts, geo, w = inputs[stem]
            k = harness.quadrature_kernel(cf) if rep == "q" else harness.tensor_kernel(cf)
            items.append((tag, k, verts, geo, w))
        return SimpleNamespace(seed=seed, items=items)

    def ops(self, st) -> list[Op]:
        ops = []
        for tag, k, verts, geo, w in st.items:
            op = Op(tag, self._op(k, geo, w), self._check(st, tag, k, verts))
            ops += [op] * self.CALLS[tag]
        return ops

    @staticmethod
    def _op(k, geo, w):
        return lambda: kernel.interpret_batch(k, geo, w)

    @staticmethod
    def _check(st, tag, k, verts):
        stem, rep = tag.split(".")
        other = f"{stem}.{'t' if rep == 'q' else 'q'}"

        def check(A):
            reference = st.first.setdefault(tag, A)
            if reference is not A:
                return None if np.array_equal(A, reference) else "repeated batches differ"
            invariant = EXECUTE_INVARIANT.get(stem)
            if invariant:
                err = invariant_error(A, k.shape, invariant, verts)
                if err > INVARIANT_TOL:
                    return f"{invariant} invariant off by {err:.3g}"
            if other in st.first:
                diff = relative_difference(A, st.first[other])
                if diff > CROSS_TOL:
                    return f"{other} differs by {diff:.3g}"
            return None

        return check

    def record(self, st) -> dict:
        return {
            tag: dict(kernel_record(k), cells=self.CALLS[tag] * BATCH) for tag, k, _, _, _ in st.items
        }

    @staticmethod
    def totals(record: dict) -> tuple[int, int]:
        return (
            sum(r["flops"] * r["cells"] for r in record.values()),
            sum(r["bytes"] for r in record.values()),
        )

    @staticmethod
    def named(record: dict, pass_s: float, ledger, samples) -> dict:
        return {
            "execute_q_s": (ledger.best_pass(lambda tag: tag.endswith(".q")), "s"),
            "execute_t_s": (ledger.best_pass(lambda tag: tag.endswith(".t")), "s"),
        }


class Assemble:
    """harness.assemble of {mass, weighted Laplacian, elasticity} x {P1, P2, P3}
    on the 2048-cell unit_square_mesh(32), with tensor kernels."""

    name = "assemble"
    min_passes = 3
    MESH = 32
    LADDER = [(family, p) for family in ("mass", "weighted_laplacian", "elasticity") for p in (1, 2, 3)]

    def setup(self, seed: int):
        warm_elements(2, 3)
        mesh = harness.unit_square_mesh(self.MESH)
        items = []
        for family, p in self.LADDER:
            label = f"{family}_p{p}"
            cf = harness.compile_source(getattr(forms, family)(2, p), label)
            items.append((label, family, cf, harness.tensor_kernel(cf)))
        return SimpleNamespace(seed=seed, mesh=mesh, items=items)

    def ops(self, st) -> list[Op]:
        return [
            Op(label, self._op(st, cf, k, st.seed + i), self._check(st, label, family))
            for i, (label, family, cf, k) in enumerate(st.items)
        ]

    @staticmethod
    def _op(st, cf, k, seed):
        return lambda: harness.assemble(cf, k, st.mesh, seed=seed)

    @staticmethod
    def _check(st, label, family):
        def check(out):
            A, _ = out
            if family == "mass":
                err = abs(float(A.data.sum()) - 1.0)
                if err > 1e-12:
                    return f"mass matrix sums to 1 + {err:.3g}"
            else:
                rows = np.repeat(np.arange(A.n_rows), np.diff(A.indptr))
                sums = np.bincount(rows, weights=A.data, minlength=A.n_rows)
                err = float(np.abs(sums).max() / np.abs(A.data).max())
                if err > 1e-12:
                    return f"row sums reach {err:.3g} of max|A|"
            return same_as_first(st, label, {"nnz": int(A.indptr[-1]), "n_rows": A.n_rows})

        return check

    def record(self, st) -> dict:
        return {
            label: dict(kernel_record(k), **st.first.get(label, {}), cells=st.mesh.n_cells)
            for label, _, _, k in st.items
        }

    @staticmethod
    def totals(record: dict) -> tuple[int, int]:
        return (
            sum(r["flops"] * r["cells"] for r in record.values()),
            sum(r["bytes"] for r in record.values()),
        )

    @staticmethod
    def named(record: dict, pass_s: float, ledger, samples) -> dict:
        return {"assemble_s": (pass_s, "s")}


WORKLOADS = {w.name: w for w in (Sweep(), Compile(), Execute(), Assemble())}

# Interpreter tags ("<form>.<q|t>") that get per-form rate metrics.
RATE_TAGS = list(Execute.CALLS)
