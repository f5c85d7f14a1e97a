import numpy as np

from zrlab.quadrature import geometric_edges, integrate_panels


def test_integrate_panels_one_call_on_every_node():
    calls = []

    def f(u):
        calls.append(u.shape)
        return u ** -0.5

    edges = np.concatenate([[0.0], 2.0 ** np.arange(-100, 1)])
    val = integrate_panels(f, edges, n=16)
    assert calls == [(101 * 16,)]
    assert isinstance(val, float)
    assert abs(val - 2.0) < 1e-14


def test_integrate_panels_rows():
    # one integral per row of 2-D edges; f sees every row's nodes, flattened
    # row by row, and each node's row index
    edges = np.array([np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5)])
    scale = np.array([1.0, 3.0])
    calls = []

    def f(u, row):
        calls.append((u.shape, row.tolist()))
        return scale[row] * u ** 2

    got = integrate_panels(f, edges, n=4)
    assert calls == [((32,), [0] * 16 + [1] * 16)]
    assert got.shape == (2,)
    assert np.allclose(got, [1.0 / 3.0, 8.0], rtol=1e-14, atol=0.0)


def test_ragged_rows_skip_zero_width_panels_and_equal_their_1d_integrals():
    # rows of geometric_edges padded at b: no node of a zero-width panel
    # reaches f, and each row sums as its own 1-D integral does, bit for bit
    a = np.array([1e-3, 0.1, 0.5, 2e-4, 0.3])
    b = np.array([0.7, 0.7, 0.5, 0.9, 0.31])
    rows = geometric_edges(a, b)
    seen = []

    def f(t, row):
        seen.append((t, row))
        return np.cos(t) * (1.0 + row) * t ** -0.5

    got = integrate_panels(f, rows, n=7)
    (t, row), = seen
    assert np.all(np.diff(row) >= 0)
    for i in range(len(a)):
        inside = t[row == i]
        assert np.all((inside > a[i]) & (inside < b[i]))
        lo, hi = rows[i, :-1], rows[i, 1:]
        assert len(inside) == 7 * np.count_nonzero(hi > lo)
        single = geometric_edges(a[i], b[i])
        assert single[-2] < single[-1] or len(single) == 2
        assert got[i] == integrate_panels(
            lambda u: np.cos(u) * (1.0 + i) * u ** -0.5, single, n=7)
    assert got[2] == 0.0


def test_geometric_edges_rows_padded_at_b():
    single = geometric_edges(1e-3, 0.7)
    assert np.all(single[1:-1] == 1e-3 * 2.0 ** np.arange(1, 10))
    assert single[0] == 1e-3 and single[-1] == 0.7
    rows = geometric_edges(np.array([1e-3, 0.1, 0.5]), np.array([0.7, 0.7, 0.5]))
    assert rows.shape == (3, len(single))
    assert np.all(rows[0] == single)
    assert np.all(rows[1] == [0.1, 0.2, 0.4] + [0.7] * (len(single) - 3))
    assert np.all(rows[2] == 0.5)
    # the zero-width padding panels add nothing
    vals = integrate_panels(lambda t, row: np.cos(t), rows)
    assert vals[0] == integrate_panels(np.cos, single)
    assert vals[2] == 0.0
