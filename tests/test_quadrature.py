import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from formc.elements import TETRAHEDRON, TRIANGLE
from formc.quadrature import (
    gauss_jacobi_1d,
    rule_for_form,
    simplex_rule,
    simplex_rule_by_points,
)

RULE_DIGESTS = Path(__file__).resolve().parent / "golden" / "rule_digests.json"


def moment(cell, exps):
    """Exact simplex moment: integral of prod x_i^e_i = prod e_i! / (sum e + d)!"""
    num = 1
    for e in exps:
        num *= math.factorial(e)
    return num / math.factorial(sum(exps) + cell.dim)


def test_gauss_legendre_basics():
    x, w = gauss_jacobi_1d(1, 0)
    assert np.allclose(x, [0.5]) and np.allclose(w, [1.0])
    x, w = gauss_jacobi_1d(2, 0)
    assert np.allclose(sorted(x), [0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)])
    assert np.allclose(w, [0.5, 0.5])
    # degree-3 exactness: integral of x^3 = 1/4
    assert abs((w * x**3).sum() - 0.25) < 1e-15


@pytest.mark.parametrize("alpha", [1, 2])
def test_gauss_jacobi_moment_equations(alpha):
    # n-point rules must match the first 2n moments of (1-x)^alpha
    for n in (1, 2, 3, 5):
        x, w = gauss_jacobi_1d(n, alpha)
        assert (w > 0).all()
        for k in range(2 * n):
            exact = math.factorial(k) * math.factorial(alpha) / math.factorial(k + alpha + 1)
            assert abs((w * x**k).sum() - exact) < 1e-14


def test_one_point_jacobi():
    x, w = gauss_jacobi_1d(1, 1)
    assert np.allclose(x, [1 / 3]) and np.allclose(w, [0.5])


def test_gauss_jacobi_argument_errors():
    with pytest.raises(ValueError):
        gauss_jacobi_1d(0, 0)
    with pytest.raises(ValueError):
        gauss_jacobi_1d(2, 3)


def test_simplex_rule_examples():
    r = simplex_rule(TRIANGLE, 1)
    assert r.n_points == 1 and np.isclose(r.weights[0], 0.5)
    assert np.allclose(r.points, [[1 / 3, 1 / 3]])
    assert simplex_rule(TETRAHEDRON, 2).n_points == 8
    r9 = simplex_rule(TRIANGLE, 4)
    assert r9.n_points == 9
    val = (r9.weights * r9.points[:, 0] ** 2 * r9.points[:, 1] ** 2).sum()
    assert abs(val - 1 / 180) < 1e-14


@pytest.mark.parametrize("cell", [TRIANGLE, TETRAHEDRON])
def test_weight_sums_and_positivity(cell):
    for degree in range(9):
        r = simplex_rule(cell, degree)
        assert (r.weights > 0).all()
        assert abs(r.weights.sum() - cell.volume) < 1e-12


@pytest.mark.parametrize("cell", [TRIANGLE, TETRAHEDRON])
def test_exactness_sweep(cell):
    rng = np.random.default_rng(17)
    for degree in range(9):
        r = simplex_rule(cell, degree)
        for _ in range(30):
            exps = []
            left = degree
            for _ in range(cell.dim):
                e = int(rng.integers(0, left + 1))
                exps.append(e)
                left -= e
            val = r.weights.copy()
            for j, e in enumerate(exps):
                val = val * r.points[:, j] ** e
            exact = moment(cell, exps)
            assert abs(val.sum() - exact) <= 1e-12 * abs(exact)


def test_points_per_direction_rule():
    ms = [simplex_rule(TRIANGLE, p).points_per_direction for p in range(9)]
    assert ms == [1, 1, 2, 2, 3, 3, 4, 4, 5]
    assert all(a <= b for a, b in zip(ms, ms[1:]))
    assert simplex_rule(TRIANGLE, 2).points_per_direction == 2


def test_rule_for_form_override():
    assert rule_for_form(TRIANGLE, 1).n_points == 1
    assert rule_for_form(TRIANGLE, 4, points_override=1).n_points == 1
    assert rule_for_form(TRIANGLE, 0).points_per_direction == 1
    assert simplex_rule_by_points(TETRAHEDRON, 3).n_points == 27


def test_rules_are_built_once_and_read_only():
    for cell in (TRIANGLE, TETRAHEDRON):
        r = simplex_rule_by_points(cell, 3)
        assert simplex_rule(cell, 5) is r and rule_for_form(cell, 0, points_override=3) is r
        for a in (r.points, r.weights):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def rule_digests() -> dict:
    """SHA-256 of the points and weights bytes of every m = 1..15 rule on both cells."""
    out = {}
    for cell in (TRIANGLE, TETRAHEDRON):
        for m in range(1, 16):
            r = simplex_rule_by_points(cell, m)
            digest = hashlib.sha256(r.points.tobytes() + r.weights.tobytes()).hexdigest()
            out[f"{cell.name}-{m}"] = digest
    return out


def test_rules_bit_identical():
    assert rule_digests() == json.loads(RULE_DIGESTS.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_quadrature.py --write")
    RULE_DIGESTS.write_text(json.dumps(rule_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RULE_DIGESTS}")
