import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from zrlab.errors import DomainError
from zrlab import kernel as K

GAMMAS = (0.25, 0.5, 1.0, 1.5, 1.9)


# -- zeta and tail sums ------------------------------------------------------

def test_zeta_basel():
    assert abs(K.riemann_zeta(2.0) - math.pi ** 2 / 6.0) < 1e-12


def test_zeta_apery_against_independent_oracles():
    # two independent implementations: mpmath and a direct 1e7-term sum
    direct = float(np.sum(np.arange(1, 10_000_001, dtype=float) ** -3.0))
    assert abs(K.riemann_zeta(3.0) - float(mpmath.zeta(3))) < 1e-12
    assert abs(K.riemann_zeta(3.0) - direct) < 1e-8


def test_zeta_correctly_rounded():
    for s in (2.0, 3.0):
        assert K.riemann_zeta(s) == float(mpmath.zeta(s))


def test_zeta_large_s_monotone_to_one():
    vals = [K.riemann_zeta(s) for s in (5.0, 10.0, 20.0, 40.0)]
    assert all(v > 1.0 for v in vals)
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
    assert abs(vals[-1] - 1.0) < 1e-12


def test_zeta_domain():
    for s in (1.0, 0.5, -2.0):
        with pytest.raises(DomainError):
            K.riemann_zeta(s)


def _tails(m, s):
    """T[1..m] = sum_{k>=j} k^(-s), j = 1..m: the reservoir rates at c = 1."""
    kp = K.KernelParams.create(s - 1.0, "paper_literal")
    return K.reservoir_rates(kp, m + 1).left


def test_tail_sum_full_series_is_zeta():
    for gamma in (0.5, 1.5):
        s = 1.0 + gamma
        for m in (1, 64, 4096):
            assert abs(_tails(m, s)[0] - K.riemann_zeta(s)) < 1e-13


def test_tail_sum_first_term_removed():
    assert abs(_tails(2, 2.0)[1] - (math.pi ** 2 / 6.0 - 1.0)) < 1e-12


def test_tail_sum_against_hurwitz():
    for m, s in ((3, 1.3), (17, 2.5), (101, 1.01 + 1e-9), (1000, 2.9)):
        assert abs(_tails(m, s)[m - 1] - scipy_zeta(s, m)) < 1e-12


def test_tail_sum_large_m_integral_sandwich():
    # 10^5, not 10^6: the tails to m are summed from an anchor at 10 m
    m = 10 ** 5
    val = _tails(m, 2.0)[m - 1]
    assert 1.0 / m < val < 1.0 / (m - 1)       # integral bounds
    assert abs(val - 1e-5) < 0.01e-5


def test_tail_sum_domain():
    # s = 1 + gamma > 1 and a tail index m >= 1 (a lattice N >= 2)
    with pytest.raises(DomainError):
        K.KernelParams.create(0.0, "paper_literal")
    with pytest.raises(DomainError):
        K.reservoir_rates(K.KernelParams.create(1.0, "paper_literal"), 1)


# -- kernel params / jump probabilities -------------------------------------

def test_kernel_params_domain():
    for gamma in (0.0, 2.0, -0.5, 2.5):
        with pytest.raises(DomainError):
            K.KernelParams.create(gamma)
    with pytest.raises(DomainError):
        K.KernelParams(gamma=1.0, c_gamma=1.0, normalization_mode="bogus")


def test_paper_literal_mode():
    kp = K.KernelParams.create(1.5, "paper_literal")
    assert kp.c_gamma == 1.0
    # in-range mass plus both tails is the whole kernel mass 2 zeta(2.5)
    rr = K.reservoir_rates(kp, 64)
    total = rr.in_range_mass() + rr.left + rr.right
    assert np.max(np.abs(total - 2.0 * K.riemann_zeta(2.5))) < 1e-12


def test_jump_prob_zero_and_unit():
    kp = K.KernelParams.create(1.2)
    assert K.jump_prob(kp, 0) == 0.0
    assert K.jump_prob(kp, 1) == kp.c_gamma
    assert K.jump_prob(kp, -1) == kp.c_gamma


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6))
@settings(max_examples=40)
def test_jump_prob_symmetry(z):
    kp = K.KernelParams.create(0.75)
    assert K.jump_prob(kp, z) == K.jump_prob(kp, -z)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_normalization(gamma):
    kp = K.KernelParams.create(gamma)
    total = 2.0 * kp.c_gamma * K.riemann_zeta(1.0 + gamma)
    assert abs(total - 1.0) < 1e-10


def test_first_moment_half():
    kp = K.KernelParams.create(1.5)
    assert abs(K.first_moment_half(kp)
               - kp.c_gamma * K.riemann_zeta(1.5)) < 1e-13
    lit = K.KernelParams.create(1.5, "paper_literal")
    assert abs(K.first_moment_half(lit) - K.riemann_zeta(1.5)) < 1e-13
    with pytest.raises(DomainError):
        K.first_moment_half(K.KernelParams.create(0.9))


def test_first_moment_diverges_toward_one():
    vals = [K.first_moment_half(K.KernelParams.create(g))
            for g in (1.2, 1.1, 1.05, 1.01)]
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))


# -- reservoir rates ---------------------------------------------------------

def test_reservoir_left_edge_is_half():
    for gamma in (0.5, 1.5):
        rr = K.reservoir_rates(K.KernelParams.create(gamma), 64)
        assert abs(rr.left[0] - 0.5) < 1e-12


@pytest.mark.parametrize("N", (7, 97, 256))
def test_reservoir_reflection_bit_exact(N):
    rr = K.reservoir_rates(K.KernelParams.create(1.3), N)
    for x in range(1, N):
        assert rr.right[N - x - 1] == rr.left[x - 1]


def test_reservoir_monotone_positive():
    rr = K.reservoir_rates(K.KernelParams.create(0.8), 128)
    assert np.all(rr.left > 0.0) and np.all(rr.right > 0.0)
    assert np.all(np.diff(rr.left) < 0.0)
    assert np.all(np.diff(rr.right) > 0.0)


def test_reservoir_matches_scalar_tail_sum():
    kp = K.KernelParams.create(1.5)
    rr = K.reservoir_rates(kp, 200)
    for x in (1, 7, 100, 199):
        assert abs(rr.left[x - 1] - kp.c_gamma * scipy_zeta(2.5, x)) < 1e-12


@pytest.mark.parametrize("gamma,u", [(0.5, 0.5), (1.5, 0.3)])
def test_reservoir_scaling_limit(gamma, u):
    kp = K.KernelParams.create(gamma)
    target = K.continuum_rate(kp, u, "left")
    errors = []
    for N in (256, 512, 1024, 2048):
        rr = K.reservoir_rates(kp, N)
        errors.append(abs(N ** gamma * rr.left[int(u * N) - 1] - target))
    assert all(b < a for a, b in zip(errors[:-1], errors[1:]))
    assert errors[-1] < 5e-3


def test_reservoir_in_range_mass_complement():
    kp = K.KernelParams.create(1.5)
    N = 64
    rr = K.reservoir_rates(kp, N)
    in_range = rr.in_range_mass()
    # direct row sum oracle
    for x in (1, 13, 32, 63):
        direct = sum(K.jump_prob(kp, y - x) for y in range(1, N))
        assert abs(in_range[x - 1] - direct) < 1e-12


# -- continuum rates and potentials ------------------------------------------

def test_continuum_rate_symmetry_and_value():
    kp = K.KernelParams.create(1.0)
    assert (K.continuum_rate(kp, 0.5, "left")
            == K.continuum_rate(kp, 0.5, "right"))
    assert abs(K.continuum_rate(kp, 0.5, "left") - 6.0 / math.pi ** 2) < 1e-12


def test_continuum_rate_divergence_and_domain():
    kp = K.KernelParams.create(0.7)
    assert (K.continuum_rate(kp, 1e-6, "left")
            > K.continuum_rate(kp, 1e-3, "left") * 100)
    for u in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            K.continuum_rate(kp, u, "left")
    with pytest.raises(DomainError):
        K.continuum_rate(kp, 0.5, "up")


def test_v_potentials_midpoint_and_flat():
    kp = K.KernelParams.create(1.1)
    v = K.v_potentials(kp, 0.5, 0.3, 0.7)
    assert abs(v.weighted / v.total - 0.5) < 1e-14
    v2 = K.v_potentials(kp, 0.37, 0.4, 0.4)
    assert abs(v2.weighted / v2.total - 0.4) < 1e-14


def test_v_potentials_quarter_point_closed_form():
    kp = K.KernelParams.create(0.5)
    v = K.v_potentials(kp, 0.25, 0.2, 0.8)
    rm = kp.c_gamma / 0.5 * 0.25 ** -0.5
    rp = kp.c_gamma / 0.5 * 0.75 ** -0.5
    assert abs(v.weighted - (0.2 * rm + 0.8 * rp)) < 1e-13
    assert abs(v.total - (rm + rp)) < 1e-13


@given(st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=40)
def test_v_potentials_ratio_bounds(u, a_t, b_t):
    # either order of the tilde densities: alpha > beta reflects the profile
    kp = K.KernelParams.create(1.4)
    v = K.v_potentials(kp, u, a_t, b_t)
    ratio = v.weighted / v.total
    assert min(a_t, b_t) - 1e-12 <= ratio <= max(a_t, b_t) + 1e-12


def test_v_potentials_domain():
    kp = K.KernelParams.create(1.4)
    us = np.array([0.1, 0.5, 0.9])
    v = K.v_potentials(kp, us, 0.8, 0.2)
    for i, u in enumerate(us):
        assert v.weighted[i] == K.v_potentials(kp, float(u), 0.8, 0.2).weighted
    for a_t, b_t in ((0.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.2)):
        with pytest.raises(DomainError):
            K.v_potentials(kp, 0.5, a_t, b_t)


# -- fractional Laplacians ----------------------------------------------------

def test_discrete_laplacian_constant_and_linear():
    kp = K.KernelParams.create(1.5)
    N = 128
    assert K.discrete_frac_laplacian(kp, lambda u: 0 * u + 3.0, 17, N) == 0.0
    assert abs(K.discrete_frac_laplacian(kp, lambda u: u, N // 2, N)) < 1e-16


def _exact_regional_poly(u, gamma, coeffs):
    """L(sum c_k u^k)(u) via exact term integrals (independent oracle)."""
    a, b = u, 1.0 - u

    def even_moment(p):  # int of t^p over the symmetric fold
        return (a ** (p + 1 - gamma) + b ** (p + 1 - gamma)) / (p + 1 - gamma)

    def odd_moment(p):
        if abs(gamma - (p + 1)) < 1e-14:
            return math.log(b / a)
        return (b ** (p + 1 - gamma) - a ** (p + 1 - gamma)) / (p + 1 - gamma)

    # expand G(u+t)-G(u) in powers of t
    total = 0.0
    for k, c in enumerate(coeffs):
        for j in range(1, k + 1):
            binom = math.comb(k, j) * u ** (k - j)
            moment = odd_moment(j - 1) if j % 2 == 1 else even_moment(j - 1)
            total += c * binom * moment
    return total


@pytest.mark.parametrize("gamma", (0.3, 1.0, 1.5, 1.9))
@pytest.mark.parametrize("u", (0.21, 0.5, 0.83, "all"))
def test_regional_laplacian_polynomial_accuracy(gamma, u):
    kp = K.KernelParams.create(gamma)
    coeffs = (0.3, -1.2, 0.7, 0.4)   # cubic
    us = np.array([0.21, 0.5, 0.83]) if u == "all" else u
    got = K.regional_frac_laplacian(
        kp, lambda v: coeffs[0] + coeffs[1] * v + coeffs[2] * v ** 2
        + coeffs[3] * v ** 3, us)
    expected = kp.c_gamma * np.array(
        [_exact_regional_poly(v, gamma, coeffs) for v in np.ravel(us)])
    assert np.shape(got) == np.shape(us)
    assert np.max(np.abs(np.ravel(got) - expected)) < 1e-8


def test_regional_laplacian_trivial_cases():
    kp = K.KernelParams.create(1.5)
    assert abs(K.regional_frac_laplacian(
        kp, lambda v: np.full_like(v, 2.0), 0.4)) < 1e-12
    assert abs(K.regional_frac_laplacian(kp, lambda v: v, 0.5)) < 1e-10
    with pytest.raises(DomainError):
        K.regional_frac_laplacian(kp, lambda v: v, 0.0)
    with pytest.raises(DomainError):
        K.regional_frac_laplacian(kp, lambda v: v, np.array([0.5, 1.0]))


@pytest.mark.parametrize("gamma", (0.5, 1.5))
def test_regional_laplacian_array_equals_scalar_calls(gamma):
    kp = K.KernelParams.create(gamma)
    G = lambda v: np.sin(3.0 * v) + v ** 2
    us = np.array([1e-12, 1e-3, 0.21, 0.5, 0.83, 1.0 - 1e-9])
    scalar = np.array([K.regional_frac_laplacian(kp, G, float(u)) for u in us])
    assert all(isinstance(K.regional_frac_laplacian(kp, G, float(u)), float)
               for u in us[:2])
    for arg in (us, us.reshape(2, 3)):
        got = K.regional_frac_laplacian(kp, G, arg)
        assert got.shape == arg.shape
        assert np.array_equal(got.ravel(), scalar)


def test_vectorized_flattens_and_reshapes():
    kp = K.KernelParams.create(1.5)

    def one_dim_only(u):            # written for 1-D input
        out = np.zeros(len(u))
        for i in range(len(u)):
            out[i] = u[i] ** 2
        return out

    assert K.vectorized(one_dim_only)(np.ones((2, 3))).shape == (2, 3)
    us = np.array([0.1, 0.5, 0.9])
    assert np.array_equal(K.regional_frac_laplacian(kp, one_dim_only, us),
                          K.regional_frac_laplacian(kp, lambda u: u ** 2, us))
    scalar_only = lambda u: math.sin(u) + u * u
    ref = K.regional_frac_laplacian(kp, lambda u: np.sin(u) + u * u, us)
    assert np.max(np.abs(K.regional_frac_laplacian(kp, scalar_only, us)
                         - ref)) < 1e-12


def test_vectorized_raises_what_g_raises():
    with pytest.raises(ZeroDivisionError):
        K.vectorized(lambda u: 1 / 0)


def test_discrete_matches_regional_at_scale():
    # convergence rate is N^-(2-gamma): at gamma=1.5 the raw gap at N=2^14
    # is ~8.5e-3, and halving it per fourfold N confirms the rate
    kp = K.KernelParams.create(1.5)
    reg = K.regional_frac_laplacian(kp, lambda u: u ** 2, 0.5)
    gaps = {N: abs(N ** 1.5 * K.discrete_frac_laplacian(
        kp, lambda u: u ** 2, N // 2, N) - reg) for N in (2 ** 12, 2 ** 14)}
    assert gaps[2 ** 14] < 1e-2
    ratio = gaps[2 ** 14] / gaps[2 ** 12]
    assert abs(ratio - 0.5) < 0.1


def test_discrete_to_regional_error_decreases():
    kp = K.KernelParams.create(1.2)
    G = lambda u: np.sin(2.0 * u) + u ** 2
    reg = K.regional_frac_laplacian(kp, G, 0.5)
    errs = [abs(N ** 1.2 * K.discrete_frac_laplacian(kp, G, N // 2, N) - reg)
            for N in (1024, 2048, 4096, 8192)]
    assert all(b < a for a, b in zip(errs[:-1], errs[1:]))
