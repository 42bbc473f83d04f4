"""Reference Lagrange elements on simplices: lattice nodes and basis tabulation.

The nodal basis is obtained by inverting the generalized Vandermonde matrix
of the monomial basis at the equispaced lattice nodes.  Lattice coordinates
are rationals, so the inversion is carried out in exact rational arithmetic
and the nodal coefficients are converted to floats only afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np


class InvalidElement(ValueError):
    """Element parameters violate a family/degree/cell constraint."""


class SingularVandermonde(RuntimeError):
    """Nodal Vandermonde matrix is singular (broken node enumeration)."""


@dataclass(frozen=True)
class ReferenceCell:
    """Unit simplex: origin plus unit vectors as vertices."""

    name: str
    dim: int

    @property
    def vertices(self) -> np.ndarray:
        v = np.zeros((self.dim + 1, self.dim))
        for i in range(self.dim):
            v[i + 1, i] = 1.0
        return v

    @property
    def volume(self) -> float:
        return 1.0 / math.factorial(self.dim)

    def __repr__(self) -> str:
        return self.name


TRIANGLE = ReferenceCell("triangle", 2)
TETRAHEDRON = ReferenceCell("tetrahedron", 3)
_CELLS = {"triangle": TRIANGLE, "tetrahedron": TETRAHEDRON}

LAGRANGE = "Lagrange"
DISCONTINUOUS_LAGRANGE = "Discontinuous Lagrange"

# Degree 6 keeps the exact nodal inversion under 2 s on the tetrahedron and
# the cross-check of a P6 triangle form 400 times inside its tolerance; at
# degree 9 the ill-conditioned monomial basis nearly fails it.
MAX_DEGREE = 6


def reference_cell(name: str) -> ReferenceCell:
    try:
        return _CELLS[name]
    except KeyError:
        raise InvalidElement(f"unknown cell {name!r}; expected triangle or tetrahedron")


@dataclass(frozen=True)
class FiniteElement:
    """Scalar or vector Lagrange element on a simplex.

    ``value_dim`` is 1 for scalar elements and the cell dimension for vector
    elements (built as component-major blocks of the scalar basis).
    """

    family: str
    cell: ReferenceCell
    degree: int
    value_dim: int = 1

    def __post_init__(self) -> None:
        if self.family not in (LAGRANGE, DISCONTINUOUS_LAGRANGE):
            raise InvalidElement(f"unknown family {self.family!r}")
        if self.family == LAGRANGE and self.degree < 1:
            raise InvalidElement("continuous Lagrange requires degree >= 1")
        if self.degree < 0:
            raise InvalidElement("degree must be non-negative")
        if self.degree > MAX_DEGREE:
            raise InvalidElement(f"degree {self.degree} is above the maximum of {MAX_DEGREE}")
        if self.value_dim not in (1, self.cell.dim):
            raise InvalidElement(
                f"value dimension {self.value_dim} does not match cell {self.cell.name}"
            )

    @property
    def is_vector(self) -> bool:
        return self.value_dim > 1

    @property
    def n_scalar(self) -> int:
        """Dimension of the scalar polynomial space P_degree."""
        d = self.cell.dim
        return math.comb(self.degree + d, d)

    @property
    def space_dim(self) -> int:
        return self.value_dim * self.n_scalar

    def component_dofs(self, component: int) -> np.ndarray:
        """Element dofs carrying ``component``: its block of the scalar basis."""
        if not 0 <= component < self.value_dim:
            raise ValueError(f"{self!r} has no component {component}")
        return component * self.n_scalar + np.arange(self.n_scalar)

    def sort_key(self) -> tuple:
        return (self.cell.name, self.degree, self.value_dim, self.family)

    def __repr__(self) -> str:
        tag = "V" if self.is_vector else ""
        fam = "DG" if self.family == DISCONTINUOUS_LAGRANGE else "P"
        return f"{tag}{fam}{self.degree}({self.cell.name})"


@dataclass(frozen=True)
class LatticeSite:
    """One lattice node tagged with the cell entity that owns it."""

    kind: str  # "vertex" | "edge" | "face" | "interior"
    entity: tuple  # vertex id, edge pair, face triple, or ()
    slot: int  # position along/inside the entity
    bary: tuple  # barycentric multi-index, sums to the degree


def lattice_sites(cell: ReferenceCell, degree: int) -> tuple[LatticeSite, ...]:
    """Principal lattice nodes in canonical order.

    Vertices come first (cell vertex order), then edge nodes (edges in
    lexicographic vertex-pair order, parameter increasing towards the higher
    local vertex), then face nodes (tetrahedra) and interior nodes in
    ascending lexicographic order of their barycentric multi-index.
    """
    d = cell.dim
    if degree == 0:
        return (LatticeSite("interior", (), 0, (0,) * (d + 1)),)
    sites: list[LatticeSite] = []
    for i in range(d + 1):
        bary = [0] * (d + 1)
        bary[i] = degree
        sites.append(LatticeSite("vertex", (i,), 0, tuple(bary)))
    for i, j in combinations(range(d + 1), 2):
        for t in range(1, degree):
            bary = [0] * (d + 1)
            bary[i] = degree - t
            bary[j] = t
            sites.append(LatticeSite("edge", (i, j), t - 1, tuple(bary)))
    if d == 3:
        for face in combinations(range(4), 3):
            for slot, (bi, bj, bk) in enumerate(_multiindices(3, degree, 1)):
                bary = [0, 0, 0, 0]
                bary[face[0]], bary[face[1]], bary[face[2]] = bi, bj, bk
                sites.append(LatticeSite("face", face, slot, tuple(bary)))
    for slot, bary in enumerate(_multiindices(d + 1, degree, 1)):
        sites.append(LatticeSite("interior", (), slot, bary))
    return tuple(sites)


def _multiindices(n: int, total: int, least: int = 0):
    """n-tuples of integers >= ``least`` that sum to ``total``, ascending lex."""
    if n == 1:
        if total >= least:
            yield (total,)
        return
    for first in range(least, total - least * (n - 1) + 1):
        for rest in _multiindices(n - 1, total - first, least):
            yield (first,) + rest


def _site_point(cell: ReferenceCell, degree: int, site: LatticeSite) -> tuple:
    d = cell.dim
    if degree == 0:
        return tuple(Fraction(1, d + 1) for _ in range(d))
    return tuple(Fraction(site.bary[j + 1], degree) for j in range(d))


def lattice_points(cell: ReferenceCell, degree: int) -> np.ndarray:
    """Equispaced principal lattice; count is C(degree + d, d)."""
    sites = lattice_sites(cell, degree)
    return np.array(
        [[float(x) for x in _site_point(cell, degree, s)] for s in sites]
    ).reshape(len(sites), cell.dim)


@lru_cache(maxsize=None)
def monomial_exponents(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of the monomial basis, graded lexicographic order."""
    return tuple(e for total in range(degree + 1) for e in _multiindices(dim, total))


def _fraction_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan inverse; raises SingularVandermonde on zero pivot."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularVandermonde("Vandermonde matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def _nodal_coefficients(cell_name: str, degree: int) -> np.ndarray:
    """Monomial coefficients of the nodal basis: basis_i = sum_m C[m, i] x^e_m."""
    cell = reference_cell(cell_name)
    exps = monomial_exponents(cell.dim, degree)
    sites = lattice_sites(cell, degree)
    V = []
    for s in sites:
        pt = _site_point(cell, degree, s)
        V.append([math.prod(pt[j] ** e[j] for j in range(cell.dim)) for e in exps])
    C = _fraction_inverse(V)
    return np.array([[float(x) for x in row] for row in C])


def _monomial_table(points: np.ndarray, exps, alpha: tuple[int, ...]) -> np.ndarray:
    """D^alpha of each monomial at each point, shape (npts, nmono)."""
    npts = points.shape[0]
    out = np.empty((npts, len(exps)))
    for m, e in enumerate(exps):
        e2 = list(e)
        coef = 1
        for a in alpha:
            if e2[a] == 0:
                coef = 0
                break
            coef *= e2[a]
            e2[a] -= 1
        if coef == 0:
            out[:, m] = 0.0
            continue
        col = np.full(npts, float(coef))
        for jdim, ee in enumerate(e2):
            if ee:
                col = col * points[:, jdim] ** ee
        out[:, m] = col
    return out


def _deriv_multiindices(dim: int, order: int) -> list[tuple[int, ...]]:
    alphas: list[tuple[int, ...]] = [()]
    if order >= 1:
        alphas += [(a,) for a in range(dim)]
    if order >= 2:
        alphas += [(a, b) for a in range(dim) for b in range(a, dim)]
    return alphas


@dataclass(eq=False)
class TabulatedBasis:
    """Scalar-basis tables at a fixed point set, plus vector block expansion.

    ``scalar_tables`` maps a sorted derivative multi-index (length 0..2) to
    an (npts, n_scalar) array.  Vector elements expose full-width tables via
    :meth:`table`, with zero blocks for the off components.
    """

    element: FiniteElement
    points: np.ndarray
    scalar_tables: dict

    @property
    def values(self) -> np.ndarray:
        return self.scalar_tables[()]

    @property
    def derivs(self) -> np.ndarray:
        """First derivatives, shape (npts, n_scalar, dim)."""
        d = self.element.cell.dim
        return np.stack([self.scalar_tables[(a,)] for a in range(d)], axis=-1)

    def table(self, component: int, alpha: tuple[int, ...]) -> np.ndarray:
        """Full-width component table (npts, space_dim) for D^alpha."""
        base = self.scalar_tables[tuple(sorted(alpha))]
        dofs = self.element.component_dofs(component)
        if not self.element.is_vector:
            return base
        full = np.zeros((base.shape[0], self.element.space_dim))
        full[:, dofs] = base
        return full


def tabulate(element: FiniteElement, points, nderiv: int = 1) -> TabulatedBasis:
    """Tabulate basis values and reference derivatives up to order ``nderiv``.

    Points must lie in the closed reference simplex.  Vector elements are
    block-diagonal copies of the scalar basis; only the scalar tables are
    stored and blocks are materialised on access.
    """
    if nderiv not in (0, 1, 2):
        raise ValueError("derivative order must be 0, 1 or 2")
    cell = element.cell
    pts = np.asarray(points, dtype=float).reshape(-1, cell.dim)
    C = _nodal_coefficients(cell.name, element.degree)
    exps = monomial_exponents(cell.dim, element.degree)
    tables = {
        alpha: _monomial_table(pts, exps, alpha) @ C
        for alpha in _deriv_multiindices(cell.dim, nderiv)
    }
    return TabulatedBasis(element, pts, tables)
