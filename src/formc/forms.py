"""Builders for the benchmark form sources.

All forms are generated as source text and compiled through the full
front end, so the DSL is the single entry point.  The families follow the
benchmark pattern: a base bilinear form over a degree-q space, premultiplied
by n_f coefficient functions of degree p (p = 0 uses piecewise constants).
"""

from __future__ import annotations

_CELL = {2: "triangle", 3: "tetrahedron"}


def _coef_element_line(dim: int, p: int) -> str:
    family = "Lagrange" if p >= 1 else "Discontinuous Lagrange"
    return f'element_f = FiniteElement("{family}", "{_CELL[dim]}", {p})'


def _premultiplier(n_f: int) -> tuple[str, str]:
    decls = "\n".join(f"f{k} = Function(element_f)" for k in range(n_f))
    factor = "".join(f"f{k}*" for k in range(n_f))
    return decls, factor


def mass(dim: int, q: int, n_f: int = 0, p: int = 1) -> str:
    """Mass matrix, optionally premultiplied by n_f functions of degree p."""
    lines = [f'element = FiniteElement("Lagrange", "{_CELL[dim]}", {q})']
    if n_f:
        lines.append(_coef_element_line(dim, p))
    lines += ["v = TestFunction(element)", "u = TrialFunction(element)"]
    if n_f:
        decls, factor = _premultiplier(n_f)
        lines += [decls, f"a = {factor}dot(v, u)*dx"]
    else:
        lines.append("a = dot(v, u)*dx")
    return "\n".join(lines) + "\n"


def weighted_laplacian(dim: int, q: int) -> str:
    """w grad(v).grad(u) with all functions in the same degree-q space."""
    return (
        f'element = FiniteElement("Lagrange", "{_CELL[dim]}", {q})\n'
        "v = TestFunction(element)\n"
        "u = TrialFunction(element)\n"
        "w = Function(element)\n"
        "a = w*dot(grad(v), grad(u))*dx\n"
    )


def poisson(dim: int, q: int) -> str:
    return (
        f'element = FiniteElement("Lagrange", "{_CELL[dim]}", {q})\n'
        "v = TestFunction(element)\n"
        "u = TrialFunction(element)\n"
        "a = dot(grad(v), grad(u))*dx\n"
    )


def elasticity(dim: int, q: int, n_f: int = 0, p: int = 1) -> str:
    """Symmetric-gradient inner product on a vector space, premultiplied."""
    lines = [f'element = VectorElement("Lagrange", "{_CELL[dim]}", {q})']
    if n_f:
        lines.append(_coef_element_line(dim, p))
    lines += ["v = TestFunction(element)", "u = TrialFunction(element)"]
    factor = ""
    if n_f:
        decls, factor = _premultiplier(n_f)
        lines.append(decls)
    lines += [
        "epsv = grad(v) + transp(grad(v))",
        "epsu = grad(u) + transp(grad(u))",
        f"a = {factor}0.25*dot(epsv, epsu)*dx",
    ]
    return "\n".join(lines) + "\n"


def vector_poisson_div(q: int, n_f: int = 1, p: int = 1, dim: int = 2) -> str:
    """Vector Poisson premultiplied by divergences of vector coefficients."""
    lines = [
        f'element = VectorElement("Lagrange", "{_CELL[dim]}", {q})',
        f'element_f = VectorElement("Lagrange", "{_CELL[dim]}", {p})',
        "v = TestFunction(element)",
        "u = TrialFunction(element)",
    ]
    lines += [f"f{k} = Function(element_f)" for k in range(n_f)]
    factor = "".join(f"div(f{k})*" for k in range(n_f))
    lines.append(f"a = {factor}dot(grad(v), grad(u))*dx")
    return "\n".join(lines) + "\n"

