import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zrlab.errors import DomainError
from zrlab.thermo import RateFunction, ThermoTables, read_rate_table

ALL_KINDS = ("identity", "indicator", "figure3")


def tables_for(kind):
    return ThermoTables.create(RateFunction(kind=kind))


# -- partition function -------------------------------------------------------

def test_partition_identity_is_exponential(thermo_identity):
    # g(k)=k gives the Poisson structure Z = e^phi
    for phi in (0.0, 0.3, 1.0, 4.7):
        assert abs(thermo_identity.partition_function(phi)
                   - math.exp(phi)) < 1e-12 * math.exp(phi)


def test_partition_indicator_is_geometric(thermo_indicator):
    assert abs(thermo_indicator.partition_function(0.5) - 2.0) < 1e-12
    for phi in (0.1, 0.9):
        assert abs(thermo_indicator.partition_function(phi)
                   - 1.0 / (1.0 - phi)) < 1e-11


def test_partition_at_zero_for_any_g():
    for kind in ALL_KINDS:
        assert tables_for(kind).partition_function(0.0) == 1.0


def test_partition_rejects_beyond_radius(thermo_indicator, thermo_figure3):
    for thermo in (thermo_indicator, thermo_figure3):
        for phi in (1.0, 1.5):
            with pytest.raises(DomainError):
                thermo.partition_function(phi)
    with pytest.raises(DomainError):
        thermo_indicator.partition_function(-0.1)


def test_figure3_radius_estimate(thermo_figure3):
    # g -> 1 from above, so liminf over the scan window sits just above 1
    assert 1.0 <= thermo_figure3.phi_star < 1.001
    assert thermo_figure3.phi_max() < 1.0


def test_figure3_rate_tends_to_one():
    g = RateFunction.figure3().values(100000)
    assert g[0] == 64.0
    assert abs(g[-1] - 1.0) < 1e-3
    assert np.all(g > 1.0)


# -- mean density and derivative ----------------------------------------------

def test_mean_density_closed_forms(thermo_identity, thermo_indicator):
    assert abs(thermo_identity.mean_density(0.7) - 0.7) < 1e-13
    assert abs(thermo_indicator.mean_density(0.5) - 1.0) < 1e-12
    assert thermo_identity.mean_density(0.0) == 0.0


@pytest.mark.parametrize("kind,phi", [("identity", 0.9), ("indicator", 0.4),
                                      ("figure3", 0.6)])
def test_derivative_matches_central_difference(kind, phi):
    # R'(phi) = Var(xi)/phi, the slope of fugacity's Newton step, from the
    # occupation marginal
    thermo = tables_for(kind)
    h = 1e-5
    fd = (thermo.mean_density(phi + h) - thermo.mean_density(phi - h)) / (2 * h)
    ks = np.arange(400)
    pmf = thermo.occupation_pmf(phi, ks)
    mean = float(ks @ pmf)
    var = float((ks - mean) ** 2 @ pmf)
    assert abs(var / phi - fd) < 1e-6


# -- fugacity (inverse map) -----------------------------------------------------

def test_fugacity_trivial_and_closed_form(thermo_identity, thermo_indicator):
    assert thermo_identity.fugacity(0.0) == 0.0
    assert abs(thermo_indicator.fugacity(1.0) - 0.5) < 1e-12


def test_fugacity_round_trip(thermo_identity):
    phi = 0.3
    assert abs(thermo_identity.fugacity(
        thermo_identity.mean_density(phi)) - phi) < 1e-10


def test_fugacity_domain_errors(thermo_figure3):
    with pytest.raises(DomainError):
        thermo_figure3.fugacity(-0.1)
    with pytest.raises(DomainError):
        thermo_figure3.fugacity(thermo_figure3.m_star + 0.01)
    # the figure-3 density ceiling is tiny: 0.2 is far outside
    with pytest.raises(DomainError):
        thermo_figure3.fugacity(0.2)


def test_monotonicity_on_grid():
    for kind in ALL_KINDS:
        thermo = tables_for(kind)
        hi = 3.0 if math.isinf(thermo.phi_star) else thermo.phi_max()
        phis = np.linspace(0.0, hi * 0.999, 100)
        vals = thermo.mean_density_array(phis)
        assert np.all(np.diff(vals) > 0.0)


def test_round_trip_on_grid():
    for kind in ALL_KINDS:
        thermo = tables_for(kind)
        hi = 2.0 if math.isinf(thermo.phi_star) else 0.9 * thermo.phi_max()
        phis = np.linspace(0.01, hi, 20)
        worst = max(abs(thermo.fugacity(thermo.mean_density(float(p))) - p)
                    for p in phis)
        assert worst < 1e-10


# -- stationary marginal pmf ----------------------------------------------------

def test_pmf_zero_count_is_inverse_partition(thermo_identity):
    phi = 0.8
    assert abs(thermo_identity.occupation_pmf(phi, 0)
               - 1.0 / thermo_identity.partition_function(phi)) < 1e-14


def test_pmf_poisson_value(thermo_identity):
    assert abs(thermo_identity.occupation_pmf(1.0, 1) - math.exp(-1)) < 1e-13


def test_pmf_normalization_and_mean(thermo_identity, thermo_figure3):
    ks = np.arange(0, 300)
    for thermo, phi in ((thermo_identity, 1.5), (thermo_figure3, 0.7)):
        pmf = thermo.occupation_pmf(phi, ks)
        assert abs(pmf.sum() - 1.0) < 1e-8
        assert abs(float(ks @ pmf) - thermo.mean_density(phi)) < 1e-10


# -- rate function table files --------------------------------------------------

def test_rate_table_constant_tail(tmp_path):
    path = tmp_path / "rate.txt"
    path.write_text("# g(k) for k = 1..3\n1 0.5\n2 1.0\n3 1.25\n\n"
                    "tail: constant 1.25\n")
    rate = read_rate_table(path)
    assert rate == RateFunction.from_table([0.5, 1.0, 1.25], tail="constant",
                                           tail_value=1.25)
    assert rate.values(5).tolist() == [0.5, 1.0, 1.25, 1.25, 1.25]


def test_rate_table_identity_tail(tmp_path):
    path = tmp_path / "rate.txt"
    path.write_text("1 2.0\n2 2.5\ntail: identity\n")
    rate = read_rate_table(path)
    assert rate.values(5).tolist() == [2.0, 2.5, 3.0, 4.0, 5.0]
    assert math.isinf(rate.radius_estimate())


def test_rate_table_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1.0\n")
    with pytest.raises(DomainError):
        read_rate_table(bad)              # missing tail rule
    bad.write_text("1 1.0\n3 2.0\ntail: identity\n")
    with pytest.raises(DomainError):
        read_rate_table(bad)              # gap in k
    bad.write_text("1 1.0\ntail: constant\n")
    with pytest.raises(DomainError):
        read_rate_table(bad)              # constant tail without value


@pytest.mark.parametrize("table", (
    "1 1.0\n1000000000000 2.0\ntail: identity\n",
    "0 0.5\n1 1.0\ntail: identity\n",
    "-1 0.5\n1 1.0\n2 2.0\ntail: identity\n",
    "2 1.0\n3 2.0\ntail: identity\n"), ids=["huge_k", "k0", "negative_k",
                                            "no_k1"])
def test_rate_table_coverage_refusals(tmp_path, table):
    # keys outside 1..K, or a gap up to a huge k, which must be refused
    # without a list as long as k
    path = tmp_path / "rate.txt"
    path.write_text(table)
    with pytest.raises(DomainError, match="without gaps"):
        read_rate_table(path)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, 0.0))
def test_table_rate_refuses_nonfinite_or_nonpositive_values(tmp_path, bad):
    with pytest.raises(DomainError, match=rf"g\(2\) = {bad}"):
        RateFunction.from_table([0.5, bad, 1.25])
    with pytest.raises(DomainError, match=rf"tail value {bad}"):
        RateFunction.from_table([0.5, 1.0], tail="constant", tail_value=bad)
    path = tmp_path / "rate.txt"
    path.write_text(f"1 0.5\n2 {bad}\n3 1.25\ntail: constant 1.25\n")
    with pytest.raises(DomainError, match=rf"g\(2\) = {bad}"):
        read_rate_table(path)
    path.write_text(f"1 0.5\n2 1.0\ntail: constant {bad}\n")
    with pytest.raises(DomainError, match=rf"tail value {bad}"):
        read_rate_table(path)


def test_table_rate_matches_indicator():
    table = ThermoTables.create(
        RateFunction.from_table([1.0], tail="constant", tail_value=1.0))
    ind = ThermoTables.create(RateFunction.indicator())
    for phi in (0.2, 0.7):
        assert abs(table.partition_function(phi)
                   - ind.partition_function(phi)) < 1e-13


def test_rate_validation():
    with pytest.raises(DomainError):
        RateFunction(kind="table", table=(0.0, 1.0))
    with pytest.raises(DomainError):
        RateFunction(kind="mystery")
    with pytest.raises(DomainError):
        RateFunction(kind="table", table=(1.0,), tail="bogus")
    assert RateFunction.identity().g(0) == 0.0


@given(st.lists(st.floats(min_value=0.3, max_value=5.0), min_size=1,
                max_size=8),
       st.floats(min_value=0.3, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_table_rate_properties(values, tail_value):
    thermo = ThermoTables.create(
        RateFunction.from_table(values, tail="constant",
                                tail_value=tail_value))
    hi = 0.9 * thermo.phi_max()
    phis = np.linspace(0.0, hi, 12)
    dens = thermo.mean_density_array(phis)
    assert np.all(np.diff(dens) > -1e-15)
    mid = float(dens[len(dens) // 2])
    if 0.0 < mid < thermo.m_star:
        assert abs(thermo.mean_density(thermo.fugacity(mid)) - mid) < 1e-11


# -- array evaluation -----------------------------------------------------------

def _mixed_phis(thermo):
    """phi = 0, a tiny, a mid-range and a near-radius value: elements that
    need very different numbers of series terms."""
    top = 60.0 if math.isinf(thermo.phi_star) else thermo.phi_max()
    return np.array([0.0, 1e-12, 0.5 * top, top])


def _indicator_twin():
    return ThermoTables.create(
        RateFunction.from_table([1.0], tail="constant", tail_value=1.0))


@pytest.mark.parametrize("kind", ["identity", "indicator", "table", "figure3"])
def test_mixed_array_equals_elementwise(kind):
    thermo = _indicator_twin() if kind == "table" else tables_for(kind)
    phis = _mixed_phis(thermo)
    for name in ("log_partition", "partition_function", "mean_density"):
        evaluate = getattr(thermo, name)
        whole = evaluate(phis)
        assert isinstance(whole, np.ndarray) and whole.shape == phis.shape
        one_by_one = [evaluate(float(p)) for p in phis]
        assert all(type(v) is float for v in one_by_one)
        assert whole.tobytes() == np.array(one_by_one).tobytes()
    assert thermo.mean_density(phis.reshape(2, 2)).shape == (2, 2)


@pytest.mark.parametrize("kind", ["identity", "indicator", "table"])
def test_mixed_array_closed_forms(kind):
    thermo = _indicator_twin() if kind == "table" else tables_for(kind)
    phis = _mixed_phis(thermo)
    if kind == "identity":
        log_z, dens = phis, phis
    else:
        log_z, dens = -np.log1p(-phis), phis / (1.0 - phis)
    scale = np.maximum(np.abs(dens), 1e-300)
    assert np.all(np.abs(thermo.log_partition(phis) - log_z)
                  <= 1e-13 * np.maximum(log_z, 1e-300))
    assert np.all(np.abs(thermo.mean_density(phis) - dens) <= 1e-12 * scale)


def test_mean_density_array_sums_in_small_blocks():
    # 32768 sites at the fugacities of a large figure-3 solve: the weights
    # are summed in blocks of SERIES_BLOCK entries, so the working memory
    # stays a few MiB however many sites one call evaluates
    thermo = tables_for("figure3")
    phis = np.linspace(0.2, 0.8, 32768)
    tracemalloc.start()
    try:
        thermo.mean_density_array(phis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_fugacity_array(thermo_indicator):
    ms = np.array([0.0, 1e-12, 1.0, 500.0])
    phis = thermo_indicator.fugacity(ms)
    assert phis[0] == 0.0
    assert np.all(np.abs(phis - ms / (1.0 + ms)) < 1e-12)
    one_by_one = [thermo_indicator.fugacity(float(m)) for m in ms]
    assert phis.tobytes() == np.array(one_by_one).tobytes()
    with pytest.raises(DomainError):
        thermo_indicator.fugacity(np.array([0.5, thermo_indicator.m_star]))
    with pytest.raises(DomainError):
        thermo_indicator.fugacity(np.array([0.5, -1e-9]))


def test_figure3_density_against_mpmath(thermo_figure3):
    mp = pytest.importorskip("mpmath")
    phi = 0.794
    with mp.workdps(40):
        x = mp.mpf(phi)
        # g(1)...g(k) = prod (1 + 3/j)^3 = binomial(k + 3, 3)^3
        terms = [x ** k / mp.binomial(k + 3, 3) ** 3 for k in range(2000)]
        ref = mp.fsum(k * t for k, t in enumerate(terms)) / mp.fsum(terms)
        err = abs((thermo_figure3.mean_density(phi) - ref) / ref)
    assert err < 1e-15


def test_fugacity_without_upper_bracket():
    # g(1) = 1e12 with an identity tail: phi* = inf, and R' ~ 1e-11 at
    # phi = 1, so an uncapped Newton step from below the root would jump
    # to phi ~ 1e11, beyond any series the evaluator can sum
    thermo = ThermoTables.create(
        RateFunction.from_table([1e12], tail="identity"))
    ms = np.array([1e-9, 0.5, 5.0, 50.0])
    assert np.all(np.abs(thermo.mean_density(thermo.fugacity(ms)) - ms)
                  < 1e-12)
