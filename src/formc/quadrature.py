"""Gauss-Legendre-Jacobi quadrature collapsed onto reference simplices.

One-dimensional rules are computed by Golub-Welsch on the Jacobi recurrence
(symmetric tridiagonal eigenproblem) for the weight (1-x)^alpha on [0, 1].
Simplex rules are Duffy-collapsed tensor products with the collapse Jacobian
absorbed into the Jacobi weights, so an m-point-per-direction rule is exact
for total degree 2m - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsl import check_budget
from .elements import ReferenceCell

# Checking a P1 form takes about 3 s at 32^3 points on a tetrahedron and 30 s
# at 64^3; the repository's forms and trend cells need at most 12 points per
# direction, its tests 15.
MAX_POINTS_PER_DIRECTION = 32


class NonConvergence(RuntimeError):
    """Eigen-solve for the quadrature nodes failed to converge."""


@dataclass(eq=False)
class QuadratureRule:
    cell: ReferenceCell
    points: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,)
    degree: int  # exactness: integrates total degree <= degree
    points_per_direction: int

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def gauss_jacobi_1d(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [0, 1] for the weight (1 - x)^alpha.

    Exact for polynomials of degree <= 2n - 1 against the weight.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if alpha not in (0, 1, 2):
        raise ValueError("alpha must be 0, 1 or 2")
    # Monic Jacobi (alpha, 0) recurrence on [-1, 1].
    kk = np.arange(1, n, dtype=float)
    diag = np.empty(n)
    diag[0] = -alpha / (alpha + 2.0)
    diag[1:] = -(alpha * alpha) / ((2 * kk + alpha) * (2 * kk + alpha + 2))
    b = (4 * kk * kk * (kk + alpha) ** 2) / (
        (2 * kk + alpha) ** 2 * (2 * kk + alpha + 1) * (2 * kk + alpha - 1)
    )
    off = np.sqrt(b)
    J = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    try:
        vals, vecs = np.linalg.eigh(J)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK converges here
        raise NonConvergence(f"eigen-solve failed for n={n}, alpha={alpha}") from exc
    mu0 = 2.0 ** (alpha + 1) / (alpha + 1)  # total weight mass on [-1, 1]
    w = mu0 * vecs[0, :] ** 2
    x = 0.5 * (vals + 1.0)
    return x, w / 2.0 ** (alpha + 1)


def simplex_rule_by_points(cell: ReferenceCell, m: int) -> QuadratureRule:
    """Collapsed product rule with m points per direction (m^dim total).

    Raises BudgetExceeded, before anything is allocated, beyond
    ``MAX_POINTS_PER_DIRECTION``.
    """
    if m < 1:
        raise ValueError("need at least one point per direction")
    check_budget(
        m, MAX_POINTS_PER_DIRECTION, "quadrature rule needs {} points per direction, more than {}"
    )
    d = cell.dim
    rules = [gauss_jacobi_1d(m, d - 1 - k) for k in range(d)]
    xs = np.meshgrid(*(x for x, _ in rules), indexing="ij")
    ws = np.meshgrid(*(w for _, w in rules), indexing="ij")
    # x_k*(1 - x_0)*...*(1 - x_{k-1}), multiplied left to right
    pts = [math.prod([x] + [1.0 - p for p in xs[:k]]).ravel() for k, x in enumerate(xs)]
    return QuadratureRule(cell, np.stack(pts, axis=1), math.prod(ws).ravel(), 2 * m - 1, m)


def simplex_rule(cell: ReferenceCell, degree: int) -> QuadratureRule:
    """Rule exact for all polynomials of total degree <= degree."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    m = degree // 2 + 1
    return simplex_rule_by_points(cell, m)


def rule_for_form(
    cell: ReferenceCell, estimated_degree: int, points_override: int | None = None
) -> QuadratureRule:
    """Rule at the estimated form degree, unless an explicit m is requested."""
    if points_override is not None:
        return simplex_rule_by_points(cell, points_override)
    return simplex_rule(cell, estimated_degree)
