"""Bit-identity of reference tensors.

Each monomial group (the monomials sharing one basis structure) of the
repository forms, of the quick trend cells, and of forms whose test/trial
pairs carry derivatives, vector components or two spaces is reduced to the
SHA-256 of its ``reference_tensor`` values, shape and dtype.  The recorded
values in ``golden/reference_digests.json`` pin the order in which the
reference integrals are summed, including the P2/P3 four-coefficient shapes
of the sweep, and the mirroring of test/trial pairs.  Groups that divide by
a coefficient have no reference tensor and are left out.  After an intended
change of the reference tensors, rewrite the file with::

    PYTHONPATH=src python tests/test_reference_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from formc import forms, harness
from formc.tensorrep import reference_tensor

ROOT = Path(__file__).resolve().parent
DIGESTS = ROOT / "golden" / "reference_digests.json"
FORMS_DIR = ROOT.parent / "forms"

# The quick cell whose single compare call takes over a second.
SLOW_CELLS = {"mass-2d-p3-q4-nf4"}

# Test/trial pairs with derivatives, vector components and mixed spaces.
_P3_TRIANGLE = 'element = FiniteElement("Lagrange", "triangle", 3)\n'
_PAIRS = {
    "elasticity_2d_q2_p1_nf1": forms.elasticity(2, 2, 1, 1),
    "elasticity_3d_q2_p2_nf1": forms.elasticity(3, 2, 1, 2),
    "vector_poisson_div_2d_q2_p2_nf1": forms.vector_poisson_div(2, 1, 2, 2),
    "weighted_biharmonic_2d_q3": _P3_TRIANGLE
    + "v = TestFunction(element)\nu = TrialFunction(element)\nf = Function(element)\n"
    "a = f*div(grad(v))*div(grad(u))*dx\n",
    "advection_2d_q3": _P3_TRIANGLE
    + "v = TestFunction(element)\nu = TrialFunction(element)\nf = Function(element)\n"
    "a = dot(grad(f), grad(v))*u*dx\n",
    "mixed_div_2d_p2_p1": 'V = VectorElement("Lagrange", "triangle", 2)\n'
    'Q = FiniteElement("Lagrange", "triangle", 1)\n'
    "v = TestFunction(V)\nu = TrialFunction(Q)\na = div(v)*u*dx\n",
}


def sources() -> dict:
    out = {p.stem: p.read_text() for p in sorted(FORMS_DIR.glob("*.form"))}
    out.update(
        {c.label(): c.source() for c in harness.quick_trend_cells() if c.label() not in SLOW_CELLS}
    )
    out.update(_PAIRS)
    return out


def form_digests(name: str) -> dict:
    """Group k (in order of first appearance) -> [values SHA-256, shape]."""
    cf = harness.compile_source(sources()[name], name)
    by_sig: dict = {}
    for m in cf.monomials.monomials:
        by_sig.setdefault(m.signature(), []).append(m)
    out = {}
    for k, group in enumerate(by_sig.values()):
        if group[0].denominators:
            continue
        values = reference_tensor(group, cf.typed).values
        sha = hashlib.sha256(values.tobytes() + str(values.dtype).encode()).hexdigest()
        out[str(k)] = [sha, list(values.shape)]
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_form_set_is_fixed(recorded):
    assert sorted(recorded) == sorted(sources())


@pytest.mark.parametrize("name", sorted(sources()))
def test_reference_tensors_bit_identical(name, recorded):
    assert form_digests(name) == recorded[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_reference_digests.py --write")
    digests = {name: form_digests(name) for name in sources()}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
