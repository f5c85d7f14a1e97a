"""Panel-based Gauss-Legendre quadrature with geometric grading.

The integrands in this package are smooth except for algebraic
singularities at panel endpoints (kernel tails like |v-u|^{-1-gamma},
reservoir rates like u^{-gamma}).  Fixed-order Gauss-Legendre on panels
that shrink geometrically toward the singular point resolves those to
near machine precision without adaptive machinery.
"""

from __future__ import annotations

import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def panel_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to the interval [a, b]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def integrate_panels(f, edges: np.ndarray, n: int = 16) -> float:
    """Integrate f over consecutive panels given by ``edges`` (sorted)."""
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = panel_nodes(a, b, n)
        total += float(np.dot(w, f(x)))
    return total


def geometric_edges(a: float, b: float) -> np.ndarray:
    """Panel edges doubling away from a up to b (a > 0)."""
    edges = [a]
    while edges[-1] * 2.0 < b:
        edges.append(edges[-1] * 2.0)
    edges.append(b)
    return np.array(edges)
