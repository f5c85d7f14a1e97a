"""Panel-based Gauss-Legendre quadrature with geometric grading.

The integrands in this package are smooth except for algebraic
singularities at panel endpoints (kernel tails like |v-u|^{-1-gamma},
reservoir rates like u^{-gamma}).  Fixed-order Gauss-Legendre on panels
that shrink geometrically toward the singular point resolves those to
near machine precision without adaptive machinery.
Edges are 1-D (one integral) or 2-D (one integral per row, rows padded
with zero-width panels, whose zero weights add exactly 0).
"""

from __future__ import annotations

import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def panel_nodes(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights of every panel between consecutive
    ``edges``, shaped edges.shape[:-1] + (panels, n)."""
    x, w = gauss_legendre(n)
    edges = np.asarray(edges, dtype=float)
    a = edges[..., :-1, None]
    half = 0.5 * (edges[..., 1:, None] - a)
    return a + half * (x + 1.0), half * w


def integrate_panels(f, edges: np.ndarray, n: int = 16):
    """Integrate f over consecutive panels given by ``edges`` (sorted).

    f is called once, on the nodes of every panel: a 1-D array for 1-D
    edges, one row of nodes per integral for 2-D edges.  Returns a float,
    or one value per row.
    """
    nodes, weights = panel_nodes(edges, n)
    vals = np.reshape(f(nodes.reshape(nodes.shape[:-2] + (-1,))), nodes.shape)
    total = np.sum(weights * vals, axis=(-2, -1))
    return float(total) if total.ndim == 0 else total


def geometric_edges(a, b) -> np.ndarray:
    """Panel edges doubling away from a up to b (a > 0).

    Array a, b give one row per pair, each padded at b to the longest
    ladder."""
    a, b = (v[..., None] for v in np.broadcast_arrays(a, b))
    doublings = int(np.max(np.ceil(np.log2(b / a)), initial=0.0))
    ladder = a * 2.0 ** np.arange(1, doublings + 1)
    inside = ladder < b
    ladder = np.where(inside, ladder, b)[..., :inside.sum(-1).max(initial=0)]
    return np.concatenate([a, ladder, b], axis=-1)
