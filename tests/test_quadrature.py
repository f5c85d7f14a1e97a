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
    # one integral per row of 2-D edges; f sees one row of nodes per integral
    edges = np.array([np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5)])
    scale = np.array([[1.0], [3.0]])
    calls = []

    def f(u):
        calls.append(u.shape)
        return scale * u ** 2

    got = integrate_panels(f, edges, n=4)
    assert calls == [(2, 16)]
    assert got.shape == (2,)
    assert np.allclose(got, [1.0 / 3.0, 8.0], rtol=1e-14, atol=0.0)


def test_geometric_edges_rows_padded_at_b():
    single = geometric_edges(1e-3, 0.7)
    assert np.all(single[1:-1] == 1e-3 * 2.0 ** np.arange(1, 10))
    assert single[0] == 1e-3 and single[-1] == 0.7
    rows = geometric_edges(np.array([1e-3, 0.1, 0.5]), np.array([0.7, 0.7, 0.5]))
    assert rows.shape == (3, len(single))
    assert np.all(rows[0] == single)
    assert np.all(rows[1] == [0.1, 0.2, 0.4] + [0.7] * (len(single) - 3))
    assert np.all(rows[2] == 0.5)
    # the zero-width padding panels add exactly 0
    vals = integrate_panels(np.cos, rows)
    assert vals[0] == integrate_panels(np.cos, single)
    assert vals[2] == 0.0
