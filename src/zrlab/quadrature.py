"""Panel-based Gauss-Legendre quadrature with geometric grading.

The integrands in this package are smooth except for algebraic
singularities at panel endpoints (kernel tails like |v-u|^{-1-gamma},
reservoir rates like u^{-gamma}).  Fixed-order Gauss-Legendre on panels
that shrink geometrically toward the singular point resolves those to
near machine precision without adaptive machinery.
Edges are 1-D (one integral) or 2-D (one integral per row).  In 2-D,
panels of zero width (the padding of ``geometric_edges`` rows) get no
nodes, so the integrand never sees them, and each row is summed as its
own 1-D integral is.
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


def _row_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sum of each row's ``counts[i]`` terms, the rows laid out one
    after another in ``terms``; rows of one length are summed together by
    np.sum along their last axis, which sums each as np.sum sums it alone."""
    sums = np.zeros(len(counts))
    starts = np.cumsum(counts) - counts
    for length in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == length)
        sums[rows] = np.sum(terms[starts[rows, None] + np.arange(length)],
                            axis=1)
    return sums


def integrate_panels(f, edges: np.ndarray, n: int = 16):
    """Integrate f over consecutive panels given by ``edges`` (sorted).

    For 1-D edges f is called once, as f(t), on the nodes of every panel,
    and the result is a float.  For 2-D edges (one integral per row) it is
    called once as f(t, row): the nodes of the panels of positive width,
    flattened row by row, and each node's row index; the result holds one
    value per row, 0.0 for a row of zero-width panels only.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim == 1:
        nodes, weights = panel_nodes(edges, n)
        return float(np.sum(weights * np.reshape(f(nodes.ravel()),
                                                 nodes.shape)))
    lo, hi = edges[:, :-1], edges[:, 1:]
    row, panel = np.nonzero(hi > lo)
    nodes, weights = panel_nodes(
        np.stack([lo[row, panel], hi[row, panel]], axis=-1), n)
    t = nodes.ravel()
    terms = weights.ravel() * np.reshape(f(t, np.repeat(row, n)), t.shape)
    return _row_sums(terms, n * np.bincount(row, minlength=len(edges)))


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
