"""Large-deviation functionals of the empirical density in the NESS:
the scaled log moment generating function, its macroscopic limit, the
rate function (non-equilibrium free energy) and the Gateaux derivative.

All of these require an unbounded fugacity range (phi* = +inf); rate
functions with a finite radius are rejected up front.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError
from .hydrostatic import ContinuumProfile
from .kernel import vectorized
from .quadrature import integrate_panels
from .thermo import ThermoTables
from .traffic import FugacityProfile


def _require_unbounded(thermo: ThermoTables, what: str) -> None:
    if not math.isinf(thermo.phi_star):
        raise DomainError(
            f"{what} requires an unbounded fugacity range (phi* = +inf); "
            f"this rate function has phi* = {thermo.phi_star:g}")


def _quad_edges(level: int = 1) -> np.ndarray:
    ends = np.geomspace(1e-10, 0.1, 12 * level)
    mid = np.linspace(0.1, 0.9, 16 * level + 1)
    return np.concatenate([[0.0], ends, mid[1:-1], 1.0 - ends[::-1], [1.0]])


def log_mgf_scaled(profile: FugacityProfile, thermo: ThermoTables,
                   G: Callable) -> float:
    """Lambda_N(G)/N = (1/N) sum_x log[ Z(e^G(x/N) phi_N(x)) / Z(phi_N(x)) ]."""
    _require_unbounded(thermo, "the scaled log-MGF")
    gv = vectorized(G)
    N = profile.system.N
    g_lat = gv(np.arange(1, N, dtype=float) / N)
    phis = profile.values
    return float(np.sum(thermo.log_partition(np.exp(g_lat) * phis)
                        - thermo.log_partition(phis))) / N


def lambda_limit(m_bar: ContinuumProfile, thermo: ThermoTables, G: Callable,
                 level: int = 1) -> float:
    """Lambda(G) = int log[ Z(e^G(u) Phi(m(u))) / Z(Phi(m(u))) ] du.

    Phi(m(u)) is (phi_alpha+phi_beta) rho(u) by construction of m.
    """
    _require_unbounded(thermo, "the limiting log-MGF")
    gv = vectorized(G)
    phi_sum = m_bar.phi_sum

    def integrand(us):
        phis = phi_sum * m_bar.evaluate(us)
        return (thermo.log_partition(np.exp(gv(us)) * phis)
                - thermo.log_partition(phis))

    return integrate_panels(integrand, _quad_edges(level), n=8)


def lambda_limit_with_error(m_bar: ContinuumProfile, thermo: ThermoTables,
                            G: Callable) -> tuple[float, float]:
    """Value plus a quadrature error estimate from one grid refinement."""
    v1 = lambda_limit(m_bar, thermo, G, level=1)
    v2 = lambda_limit(m_bar, thermo, G, level=2)
    return v2, abs(v2 - v1)


def rate_function(pi: Callable, m_bar: ContinuumProfile,
                  thermo: ThermoTables) -> float:
    """Lambda*(pi) = int [ pi log(Phi(pi)/Phi(m)) - log(Z(Phi(pi))/Z(Phi(m))) ] du.

    ``pi`` is a density profile, a callable on [0,1] (applied to arrays
    through ``kernel.vectorized``) whose values stay inside [0, m*).
    """
    _require_unbounded(thermo, "the rate function")
    pi_at = vectorized(pi)
    phi_sum = m_bar.phi_sum

    def integrand(us):
        pis = np.asarray(pi_at(us), dtype=float)
        phi_m = phi_sum * m_bar.evaluate(us)
        phi_p = thermo.fugacity(pis)
        ent = np.zeros_like(pis)
        occupied = pis != 0.0
        ent[occupied] = pis[occupied] * (np.log(phi_p[occupied])
                                         - np.log(phi_m[occupied]))
        return ent - (thermo.log_partition(phi_p)
                      - thermo.log_partition(phi_m))

    return integrate_panels(integrand, _quad_edges(), n=8)


def tilted_density(m_bar: ContinuumProfile, thermo: ThermoTables,
                   G: Callable) -> Callable:
    """u -> R(e^G(u) Phi(m(u))), the typical density under the tilt G: the
    profile at which the rate function meets the Legendre transform of
    ``lambda_limit``, I(pi_G) = <pi_G, G> - Lambda(G)."""
    gv = vectorized(G)
    return lambda u: thermo.mean_density_array(
        np.exp(gv(u)) * m_bar.phi_sum * m_bar.evaluate(u))


def continuum_pairing(pi: Callable, m_bar: ContinuumProfile,
                      G: Callable) -> float:
    """<pi, G> = int pi(u) G(u) du on the same quadrature grid as
    ``rate_function``; ``m_bar`` only keeps the two signatures alike."""
    pi_at = vectorized(pi)
    gv = vectorized(G)

    def integrand(us):
        return np.asarray(pi_at(us), dtype=float) * gv(us)

    return integrate_panels(integrand, _quad_edges(), n=8)


def gateaux_derivative(m_bar: ContinuumProfile, thermo: ThermoTables,
                       G: Callable, H: Callable) -> float:
    """d/dt Lambda(G + tH) at t=0: int R(e^G(u) Phi(m(u))) H(u) du.

    The integrand uses R(e^G Phi(m)) for consistency with Lambda itself;
    tests pin it against central finite differences of lambda_limit.
    """
    _require_unbounded(thermo, "the Gateaux derivative")
    gv = vectorized(G)
    hv = vectorized(H)
    phi_sum = m_bar.phi_sum

    def integrand(us):
        phis = phi_sum * m_bar.evaluate(us)
        return thermo.mean_density(np.exp(gv(us)) * phis) * hv(us)

    return integrate_panels(integrand, _quad_edges(), n=8)
