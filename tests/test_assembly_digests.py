"""Bit-identity of dofmaps and assembled CSR matrices.

Each case is reduced to the SHA-256 of its ``cell_dofs``, ``indptr``,
``indices`` and ``data`` arrays on ``unit_square_mesh(8)``, assembled in
mesh order and in a fixed permuted cell order.  The recorded values in
``golden/assembly_digests.json`` pin the global numbering, the sparsity
pattern and the order in which each entry sums its cell contributions.
After an intended change of the numbering or the assembly, rewrite the
file with::

    PYTHONPATH=src python tests/test_assembly_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from formc import forms, harness
from formc.elements import TRIANGLE, FiniteElement

DIGESTS = Path(__file__).resolve().parent / "golden" / "assembly_digests.json"
MESH_N = 8

MATRIX_CASES = {
    f"{family}_p{q}": (family, q)
    for family in ("mass", "weighted_laplacian", "elasticity", "poisson")
    for q in (1, 2, 3)
}
DOFMAP_CASES = {
    "dg0": FiniteElement("Discontinuous Lagrange", TRIANGLE, 0),
    "dg2": FiniteElement("Discontinuous Lagrange", TRIANGLE, 2),
    "vector_p2": FiniteElement("Lagrange", TRIANGLE, 2, 2),
}
ORDERS = ("mesh", "permuted")


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _cell_order(mesh, order: str):
    if order == "mesh":
        return None
    return np.random.default_rng(0).permutation(mesh.n_cells)


def matrix_digest(name: str, order: str) -> dict:
    family, q = MATRIX_CASES[name]
    cf = harness.compile_source(getattr(forms, family)(2, q), name)
    mesh = harness.unit_square_mesh(MESH_N)
    matrix, _ = harness.assemble(
        cf, harness.quadrature_kernel(cf), mesh, cell_order=_cell_order(mesh, order)
    )
    dofmap = harness.build_dofmap(mesh, cf.typed.test_element)
    return {
        "cell_dofs": _sha(dofmap.cell_dofs),
        "indptr": _sha(matrix.indptr),
        "indices": _sha(matrix.indices),
        "data": _sha(matrix.data),
    }


def dofmap_digest(name: str) -> list:
    dofmap = harness.build_dofmap(harness.unit_square_mesh(MESH_N), DOFMAP_CASES[name])
    return [_sha(dofmap.cell_dofs), dofmap.n_global]


def compute_digests() -> dict:
    return {
        "matrices": {
            f"{name}/{order}": matrix_digest(name, order)
            for name in MATRIX_CASES
            for order in ORDERS
        },
        "dofmaps": {name: dofmap_digest(name) for name in DOFMAP_CASES},
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_case_set_is_fixed(recorded):
    assert sorted(recorded["matrices"]) == sorted(
        f"{name}/{order}" for name in MATRIX_CASES for order in ORDERS
    )
    assert sorted(recorded["dofmaps"]) == sorted(DOFMAP_CASES)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", sorted(MATRIX_CASES))
def test_matrix_bit_identical(name, order, recorded):
    assert matrix_digest(name, order) == recorded["matrices"][f"{name}/{order}"]


@pytest.mark.parametrize("name", sorted(DOFMAP_CASES))
def test_dofmap_bit_identical(name, recorded):
    assert dofmap_digest(name) == recorded["dofmaps"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_assembly_digests.py --write")
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
