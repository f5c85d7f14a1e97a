import pytest

from zrlab.hydrostatic import DiscreteProfileFamily, classify_regime, rho_extrapolated
from zrlab.thermo import RateFunction, ThermoTables
from zrlab.traffic import ModelParams, assemble, solve_direct, solve_lattices


@pytest.fixture(scope="session")
def thermo_identity():
    return ThermoTables.create(RateFunction.identity())


@pytest.fixture(scope="session")
def thermo_indicator():
    return ThermoTables.create(RateFunction.indicator())


@pytest.fixture(scope="session")
def thermo_figure3():
    return ThermoTables.create(RateFunction.figure3())


def make_params(gamma, theta, N, alpha=0.4, beta=1.6, kappa=1.0,
                rate=None, **kw):
    return ModelParams(gamma=gamma, theta=theta, kappa=kappa, alpha=alpha,
                       beta=beta, N=N, rate=rate or RateFunction.identity(),
                       **kw)


@pytest.fixture(scope="session")
def solved_256(thermo_identity):
    """gamma=1.5, theta=0 reference solve at N=256."""
    params = make_params(1.5, 0.0, 256)
    system = assemble(params, thermo_identity)
    return system, solve_direct(system)


@pytest.fixture(scope="session")
def rd_profile(thermo_identity):
    """Extrapolated reaction-diffusion profile, gamma=1.5, theta=0."""
    base = make_params(1.5, 0.0, 2)
    regime = classify_regime(1.5, 0.0)
    return rho_extrapolated(base, regime, (1024, 2048, 4096),
                            thermo_identity)


@pytest.fixture(scope="session")
def rd_family(thermo_identity):
    base = make_params(1.5, 0.0, 2)
    return DiscreteProfileFamily(
        solve_lattices(base, (1024, 2048, 4096), thermo_identity))
