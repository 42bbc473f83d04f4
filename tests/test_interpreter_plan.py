"""The interpreter's plans: built on a kernel's first call, kept on it, reused.

A planned kernel must give the bits a kernel interpreted once, with nothing
planned before, gives: across batch sizes whose nests slice differently,
from several threads at once, and with plans over the memory bound left
unkept.  The grouped contraction must give the bits of one product
``coeffs[s0:s1] @ G[slots[s0:s1]]`` per entry.
"""

import copy
import sys
import threading
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest

from formc import harness
from formc import kernel as kernel_module
from formc.kernel import (
    AccumA,
    AssignScalar,
    BinOp,
    CoefRef,
    Contract,
    DetRef,
    GeometryTensor,
    IxConst,
    IxLin,
    IxVar,
    KernelIR,
    Loop,
    TableRef,
    affine_map_batch,
    interpret_batch,
)
from formc.tensorrep import UnsupportedDivision
from reference_walk import walk

FORMS_DIR = Path(__file__).resolve().parent.parent / "forms"
STEMS = sorted(p.stem for p in FORMS_DIR.glob("*.form"))
# Mixed order: a batch meets the plans that batches of other sizes kept.
BATCHES = (256, 0, 3, 257, 1)
THREAD_BATCHES = (257, 0, 3, 1)


def _inputs(k: KernelIR, n: int, seed: int):
    cell = harness.reference_cell("triangle" if k.dim == 2 else "tetrahedron")
    verts = harness.random_cells(cell, n, seed) if n else np.zeros((0, k.dim + 1, k.dim))
    rng = np.random.default_rng(seed + 1)
    return affine_map_batch(verts), [rng.uniform(0.5, 1.5, (n, size)) for size in k.coef_sizes]


def _non_static_kernel() -> KernelIR:
    """Two nests inside a loop over k whose indices read k: a scatter plan
    kept for one trip of k would scatter the next trip to the wrong entries."""
    tables = {"T": np.array([[1e16, 1.0, -3.0], [0.5, -1e16, 2.0], [1.0, 0.25, 1e16]])}

    def accum(v, expr):
        return AccumA(IxLin(((1, IxVar(v)), (1, IxVar("k")))), expr)

    body = (
        Loop("i", 3, (accum("i", BinOp("*", TableRef("T", (IxVar("k"), IxVar("i"))), DetRef())),)),
        Loop("j", 2, (accum("j", CoefRef(0, IxVar("j"))), accum("j", DetRef()))),
    )
    return KernelIR("non_static", "quadrature", (5,), 2, (2,), (), tables, (Loop("k", 3, body),))


def _kernels(name: str, compile_cached):
    if name == "non_static_index":
        return [_non_static_kernel()]
    cf = compile_cached((FORMS_DIR / f"{name}.form").read_text(), name)
    kernels = [harness.quadrature_kernel(cf)]  # built here, so nothing is planned yet
    try:
        kernels.append(harness.tensor_kernel(cf))
    except UnsupportedDivision:
        pass
    return kernels


def _stores(steps):
    """The dicts of plans kept by the nests and contractions of planned steps."""
    for runner, arg in steps:
        if runner is kernel_module._exec_points:
            yield from _stores(arg[3])
        elif runner in (kernel_module._exec_nest, kernel_module._contract) and arg[-1] is not None:
            yield arg[-1]


@pytest.mark.parametrize("name", [*STEMS, "non_static_index"])
def test_plans_are_reused_across_batch_sizes_and_threads(name, compile_cached):
    for k in _kernels(name, compile_cached):
        pristine = copy.deepcopy(k)
        inputs = {n: _inputs(k, n, seed) for seed, n in enumerate(BATCHES)}
        once = {n: interpret_batch(copy.deepcopy(pristine), *inputs[n]).tobytes() for n in inputs}
        for n in BATCHES:
            assert interpret_batch(k, *inputs[n]).tobytes() == once[n], (k.name, n)
        if name == "non_static_index":
            for n in BATCHES:
                assert once[n] == walk(k, *inputs[n])[0].tobytes()
            assert k._plan.kept == 0

        # threads that plan one kernel at once, batches in opposite orders
        shared, alone = copy.deepcopy(pristine), copy.deepcopy(pristine)
        results: list = [[], []]

        def work(t):
            for n in THREAD_BATCHES if t == 0 else THREAD_BATCHES[::-1]:
                results[t].append((n, interpret_batch(shared, *inputs[n]).tobytes()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for rows in results:
            assert len(rows) == len(THREAD_BATCHES) and all(A == once[n] for n, A in rows)
        for n in THREAD_BATCHES:
            interpret_batch(alone, *inputs[n])
        # no plan counted twice or lost: the bytes kept are those of one thread
        assert shared._plan.kept == alone._plan.kept <= kernel_module._PLAN_BYTES


@pytest.mark.parametrize("stem", ["mass_premultiplied_2d", "pressure_equation_2d"])
def test_plans_over_the_memory_bound_are_not_kept(stem, compile_cached, monkeypatch):
    bound = kernel_module._PLAN_BYTES
    for k in _kernels(stem, compile_cached):
        monkeypatch.setattr(kernel_module, "_PLAN_BYTES", bound)
        geo, w = _inputs(k, 257, 4)
        planned = copy.deepcopy(k)
        expected = interpret_batch(planned, geo, w).tobytes()
        kept = planned._plan.kept
        assert kept > 0 and sum(map(len, _stores(planned._plan.steps))) > 0
        # one byte short of all plans: some are left out
        monkeypatch.setattr(kernel_module, "_PLAN_BYTES", kept - 1)
        short = copy.deepcopy(k)
        assert interpret_batch(short, geo, w).tobytes() == expected
        assert short._plan.kept < kept
        # no room at all: every nest and contraction runs unplanned, same bits
        monkeypatch.setattr(kernel_module, "_PLAN_BYTES", 0)
        for _ in range(2):
            assert interpret_batch(k, geo, w).tobytes() == expected
        assert k._plan.kept == 0 and not any(_stores(k._plan.steps))


# Grouped contraction against one product per entry.

N_ROWS = 12  # geometry rows, one per dof of the one coefficient
N_CELLS = 64


def _contract() -> Contract:
    """Empty entries, unique and repeated term counts, and a group of 2-term
    entries larger than one chunk (half ``_BLOCK_BYTES``) of a 64-cell batch."""
    rng = np.random.default_rng(8)
    lengths = [0, 3, 3, 1, 0, 5, 3, 2, 7, 1, 0, 12, 4] + [2] * 1500
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    coeffs = rng.standard_normal(indptr[-1]) * 10.0 ** rng.integers(-8, 9, indptr[-1])
    slots = rng.integers(0, N_ROWS, indptr[-1]).astype(np.int32)
    return Contract(N_ROWS, indptr, coeffs, slots)


def _per_entry(contract: Contract, G: np.ndarray) -> np.ndarray:
    A = np.zeros((len(contract.indptr) - 1, G.shape[1]))
    for e, (s0, s1) in enumerate(pairwise(contract.indptr.tolist())):
        if s1 > s0:
            A[e] = contract.coeffs[s0:s1] @ G[contract.slots[s0:s1]]
    return A.T


@pytest.mark.parametrize("geometry_tensor", [True, False])
def test_grouped_contraction_matches_one_product_per_entry(geometry_tensor):
    contract = _contract()
    assert 1500 > kernel_module._BLOCK_BYTES // (16 * 2 * N_CELLS)  # entries per chunk
    if geometry_tensor:  # G[a] = det * w[0][a]
        reads = np.arange(N_ROWS)[:, None]
        head = (GeometryTensor(0, (0,), reads, (None,)),)
    else:  # slots read the scalars G{k} = det * w[0][k]
        head = tuple(
            AssignScalar(f"G{a}", BinOp("*", DetRef(), CoefRef(0, IxConst(a))))
            for a in range(N_ROWS)
        )
    shape = (len(contract.indptr) - 1,)
    k = KernelIR("grouped", "tensor", shape, 2, (N_ROWS,), (), {}, (*head, contract))
    for n in (N_CELLS, 1, 0, N_CELLS):
        geo, w = _inputs(k, n, n)
        G = geo.det[None, :] * w[0].T
        assert interpret_batch(k, geo, w).tobytes() == _per_entry(contract, G).tobytes()
