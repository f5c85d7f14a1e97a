import math

import numpy as np
import pytest

from zrlab import cli
from zrlab.errors import DomainError
from zrlab import hydrostatic as H
from zrlab import ldp as L
from zrlab.traffic import assemble, solve_direct

from conftest import make_params


@pytest.fixture(scope="module")
def neumann_profile(thermo_identity):
    params = make_params(0.5, 1.0, 2, alpha=0.5, beta=1.5)
    regime = H.classify_regime(0.5, 1.0)
    return H.rho_closed_form(params, regime, thermo_identity)


def m_bar_callable(profile):
    return lambda u: np.interp(np.asarray(u, dtype=float), profile.grid,
                               profile.m)


def test_log_mgf_zero_function(thermo_identity, solved_256):
    _, prof = solved_256
    assert L.log_mgf_scaled(prof, thermo_identity, lambda u: 0.0 * u) == 0.0


def test_log_mgf_identity_closed_form(thermo_identity, solved_256):
    # g(k)=k: log Z(e^G phi) - log Z(phi) = phi (e^G - 1)
    _, prof = solved_256
    G = lambda u: np.sin(2.0 * np.asarray(u, dtype=float))
    got = L.log_mgf_scaled(prof, thermo_identity, G)
    N = prof.system.N
    xs = np.arange(1, N, dtype=float) / N
    expected = float(np.sum(prof.values * (np.exp(G(xs)) - 1.0))) / N
    assert abs(got - expected) < 1e-12


def test_finite_phi_star_rejected(thermo_indicator, solved_256,
                                  neumann_profile):
    _, prof = solved_256
    G = lambda u: 0.1 * np.asarray(u, dtype=float)
    with pytest.raises(DomainError):
        L.log_mgf_scaled(prof, thermo_indicator, G)
    with pytest.raises(DomainError):
        L.lambda_limit(neumann_profile, thermo_indicator, G)
    with pytest.raises(DomainError):
        L.rate_function(lambda u: 0.5 + 0.0 * np.asarray(u, float),
                        neumann_profile, thermo_indicator)


def test_lambda_limit_trivial_and_closed_form(thermo_identity,
                                              neumann_profile):
    assert L.lambda_limit(neumann_profile, thermo_identity,
                          lambda u: 0.0 * u) == 0.0
    # constant profile, identity g: Lambda(G) = phi int (e^G - 1)
    G = lambda u: np.asarray(u, dtype=float)
    got = L.lambda_limit(neumann_profile, thermo_identity, G)
    phi_const = neumann_profile.phi_sum * 0.5
    assert abs(got - phi_const * (math.e - 2.0)) < 1e-10


def test_lambda_monotone_in_G(thermo_identity, neumann_profile):
    g1 = L.lambda_limit(neumann_profile, thermo_identity,
                        lambda u: np.asarray(u, float))
    g2 = L.lambda_limit(neumann_profile, thermo_identity,
                        lambda u: np.asarray(u, float) + 0.3)
    assert g2 > g1


def test_lambda_of_one_finite(thermo_identity, neumann_profile):
    val = L.lambda_limit(neumann_profile, thermo_identity,
                         lambda u: np.ones_like(np.asarray(u, float)))
    assert np.isfinite(val)
    assert abs(val - (math.e - 1.0)) < 1e-10   # phi_const = 1 here


def test_lambda_limit_error_estimate(thermo_identity, neumann_profile):
    val, err = L.lambda_limit_with_error(neumann_profile, thermo_identity,
                                         lambda u: np.sin(np.pi * u))
    assert err < 1e-8


def test_rate_function_vanishes_at_typical(thermo_identity, neumann_profile):
    val = L.rate_function(m_bar_callable(neumann_profile), neumann_profile,
                          thermo_identity)
    assert abs(val) < 1e-8


def test_rate_function_positive_regression(thermo_identity, neumann_profile):
    pert = lambda u: m_bar_callable(neumann_profile)(u) + 0.1
    val = L.rate_function(pert, neumann_profile, thermo_identity)
    assert val > 0.0
    assert val == pytest.approx(0.0048411977847, rel=1e-6)


def test_rate_function_positive_at_perturbations(thermo_identity,
                                                 neumann_profile):
    base = m_bar_callable(neumann_profile)
    rng = np.random.default_rng(11)
    for _ in range(10):
        amp = rng.uniform(0.05, 0.3)
        k = rng.integers(1, 6)
        pert = lambda u, amp=amp, k=k: base(u) * (
            1.0 + amp * np.sin(k * np.pi * np.asarray(u, float)))
        assert L.rate_function(pert, neumann_profile,
                               thermo_identity) > 1e-6


def test_rate_function_domain(thermo_identity, neumann_profile):
    with pytest.raises(DomainError):
        L.rate_function(lambda u: 0.0 * np.asarray(u, float) - 0.1,
                        neumann_profile, thermo_identity)


def test_fenchel_young(thermo_identity, neumann_profile):
    rng = np.random.default_rng(3)
    base = m_bar_callable(neumann_profile)
    for _ in range(20):
        coef = rng.normal(scale=0.7, size=4)
        G = lambda u, c=coef: (c[0] + c[1] * np.asarray(u, float)
                               + c[2] * np.asarray(u, float) ** 2
                               + c[3] * np.asarray(u, float) ** 3)
        amp = rng.uniform(-0.4, 0.4)
        pi = lambda u, a=amp: base(u) * (1.0 + a * np.sin(
            3.0 * np.asarray(u, float)))
        lhs = (L.rate_function(pi, neumann_profile, thermo_identity)
               + L.lambda_limit(neumann_profile, thermo_identity, G))
        rhs = L.continuum_pairing(pi, neumann_profile, G)
        assert lhs >= rhs - 1e-9


@pytest.mark.parametrize("gamma,theta", [(1.5, 0.0), (1.5, 0.2), (1.5, 0.5)],
                         ids=["ReactionDiffusion", "Dirichlet", "Robin"])
def test_fenchel_equality_at_the_tilted_density(thermo_identity, gamma,
                                                theta):
    # I(pi_G) = <pi_G, G> - Lambda(G) at pi_G = tilted_density(G), with
    # Lambda on rate_function's quadrature (level 1); the level-2 Lambda
    # misses it for G = u (negative control)
    params = make_params(gamma, theta, 2048, alpha=0.5, beta=1.5)
    cont = H.rho_extrapolated(params, H.classify_regime(gamma, theta),
                              (512, 1024, 2048), thermo_identity)
    for label, G in cli._LDP_BASIS:
        pi = L.tilted_density(cont, thermo_identity, G)
        rate = L.rate_function(pi, cont, thermo_identity)
        pairing = L.continuum_pairing(pi, cont, G)
        gap = abs(rate - (pairing - L.lambda_limit(cont, thermo_identity, G)))
        assert gap < cli.FENCHEL_TOL
        if label == "u":
            level2 = L.lambda_limit(cont, thermo_identity, G, level=2)
            assert abs(rate - (pairing - level2)) > 100 * cli.FENCHEL_TOL


def test_gateaux_trivial_cases(thermo_identity, neumann_profile):
    assert L.gateaux_derivative(neumann_profile, thermo_identity,
                                lambda u: np.sin(u), lambda u: 0.0 * u) == 0.0
    # G = 0: derivative is the pairing with the density profile itself
    got = L.gateaux_derivative(neumann_profile, thermo_identity,
                               lambda u: 0.0 * np.asarray(u, float),
                               lambda u: np.asarray(u, float))
    m_const = thermo_identity.mean_density(neumann_profile.phi_sum * 0.5)
    assert abs(got - m_const * 0.5) < 1e-10


def test_gateaux_matches_finite_difference(thermo_identity, neumann_profile):
    G = lambda u: np.sin(np.pi * np.asarray(u, float))
    Hf = lambda u: np.asarray(u, float) ** 2
    got = L.gateaux_derivative(neumann_profile, thermo_identity, G, Hf)
    t = 1e-5
    plus = L.lambda_limit(neumann_profile, thermo_identity,
                          lambda u: G(u) + t * Hf(u))
    minus = L.lambda_limit(neumann_profile, thermo_identity,
                           lambda u: G(u) - t * Hf(u))
    fd = (plus - minus) / (2.0 * t)
    assert abs(got - fd) < 1e-6 * abs(fd)


def test_convergence_reaction_diffusion(rd_profile, thermo_identity):
    # the module-scale convergence check at gamma=1.5, theta=0
    G = lambda u: np.asarray(u, dtype=float)
    lam = L.lambda_limit(rd_profile, thermo_identity, G)
    gaps = []
    for N in (256, 512, 1024):
        prof = solve_direct(assemble(make_params(1.5, 0.0, N),
                                     thermo_identity))
        gaps.append(abs(L.log_mgf_scaled(prof, thermo_identity, G) - lam))
    assert gaps[2] < gaps[1] < gaps[0]
