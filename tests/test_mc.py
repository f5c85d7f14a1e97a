import dataclasses
import hashlib
import math
import multiprocessing
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zrlab.errors import DomainError
from zrlab import mc
from zrlab.hydrostatic import tilde_densities
from zrlab.kernel import jump_prob, reservoir_rates
from zrlab.thermo import RateFunction, ThermoTables
from zrlab.traffic import assemble, solve_direct

from conftest import make_params


def tables_for(params, thermo):
    return mc.build_event_tables(assemble(params, thermo))


# -- configurations and tables -------------------------------------------------

def test_zr_configuration_invariants(thermo_identity):
    params = make_params(1.2, 0.0, 8)
    tables = tables_for(params, thermo_identity)
    est = mc.simulate_zero_range(tables, 0.0, 20.0, seed=1,
                                 init=np.array([1, 0, 4, 0, 0, 2.0, 0]))
    assert est.event_count > 0
    for init in ([-3, 0, 0, 0, 0, 0, 0],        # negative count
                 [1, 0, 0, 0, 0, 0, 0.5],       # non-integer count
                 [1, 0, 0, 0, 0, 0, np.nan],
                 [0] * 12, [0] * 6):            # wrong length for 7 sites
        with pytest.raises(DomainError):
            mc.simulate_zero_range(tables, 0.0, 20.0, seed=1,
                                   init=np.array(init))
    with pytest.raises(DomainError):    # batches would start before t = 0
        mc.simulate_zero_range(tables, -50.0, 20.0, seed=1)
    with pytest.raises(DomainError):    # NaN site rates
        tables_for(make_params(1.2, 0.0, 8, kappa=math.nan), thermo_identity)
    with pytest.raises(DomainError):    # kappa N^(-theta) overflows to inf
        tables_for(make_params(1.5, -1.0, 8, kappa=1e308), thermo_identity)
    for t_burn, t_sample in ((0.0, math.nan), (0.0, math.inf),
                             (math.nan, 20.0), (math.inf, 20.0)):
        with pytest.raises(DomainError):    # the run would never end
            mc.simulate_zero_range(tables, t_burn, t_sample, seed=1)
    # kappa = 0 from an empty lattice: no site can fire, the state holds
    conservative = make_params(1.2, 0.0, 8, kappa=0.0)
    est = mc.simulate_zero_range(tables_for(conservative, thermo_identity),
                                 0.0, 20.0, seed=1)
    assert est.event_count == 0
    for arr in (est.mean_counts, est.se_counts, est.mean_g, est.se_g):
        assert np.array_equal(arr, np.zeros(7))


def test_exclusion_configuration_validation(thermo_identity):
    params = make_params(1.2, 0.0, 8)
    tables = tables_for(params, thermo_identity)
    est = mc.simulate_exclusion(tables, 0.0, 20.0, seed=1,
                                init=np.array([0, 1, 1, 0, 0, 1, 0]))
    assert est.event_count > 0
    for init in ([0, 2, 0, 0, 0, 0, 0],         # not an occupancy
                 [0, -1, 0, 0, 0, 0, 0],
                 [0, 0.5, 0, 0, 0, 0, 0],
                 [0, 1] * 6):                   # wrong length for 7 sites
        with pytest.raises(DomainError):
            mc.simulate_exclusion(tables, 0.0, 20.0, seed=1,
                                  init=np.array(init))


def assert_destinations_follow_rows(tables, kernel, N):
    # the sampler against each site's dense row of in-range jump weights:
    # a draw at the midpoint of y's interval lands on y, for every y != x,
    # and q_x is the row's total
    ys = np.arange(1, N, dtype=float)
    q = tables.in_range_mass()
    for x in range(1, N):
        row = np.cumsum(np.asarray(jump_prob(kernel, ys - x)))
        assert q[x - 1] == pytest.approx(row[-1], rel=1e-14, abs=0.0)
        lo = np.concatenate(([0.0], row[:-1]))
        for y in range(1, N):
            if y != x:
                mid = 0.5 * (lo[y - 1] + row[y - 1])
                assert tables.destination(x - 1, mid) == y - 1, (x, y)


def test_event_tables_conservative_limit(thermo_identity):
    params = make_params(1.2, 0.0, 32, kappa=0.0)
    system = assemble(params, thermo_identity)
    tables = mc.build_event_tables(system)
    assert np.all(system.rhs == 0.0)                 # no births
    assert np.all(system.dominance_margin() == 0.0)  # no deaths
    assert min(tables.in_range_mass()) > 0.0
    assert_destinations_follow_rows(tables, params.kernel_params(), 32)


def test_event_tables_destination_weights(thermo_identity):
    params = make_params(1.0, 0.0, 256)
    tables = tables_for(params, thermo_identity)
    kernel = params.kernel_params()
    # weight of the nearest destination, and the empty self-jump
    assert tables.cum[0] == 0.0
    assert abs(tables.cum[1] - tables.cum[0] - jump_prob(kernel, 1)) < 1e-15
    # destination mass equals the in-range kernel mass (direct-sum oracle)
    x = 128
    direct = sum(jump_prob(kernel, y - x) for y in range(1, 256))
    assert abs(tables.in_range_mass()[x - 1] - direct) < 1e-12
    assert_destinations_follow_rows(tables, kernel, 256)


@settings(max_examples=25, deadline=None)
@given(gamma=st.floats(0.1, 1.95), theta=st.floats(-1.5, 1.5),
       kappa=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
       N=st.integers(2, 64), indicator=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_event_tables_read_the_generator(gamma, theta, kappa, N, indicator,
                                         seed):
    # the tables and the chains' site rates, against the generator's rates
    # computed directly from the kernel and the reservoir rates
    rate = RateFunction.indicator() if indicator else RateFunction.identity()
    params = make_params(gamma, theta, N, kappa=kappa, rate=rate)
    thermo = ThermoTables.create(rate)
    tables = tables_for(params, thermo)
    kernel = params.kernel_params()
    assert_destinations_follow_rows(tables, kernel, N)

    rr = reservoir_rates(kernel, N)
    scale = kappa * float(N) ** (-theta)
    phi_a, phi_b = thermo.fugacity(0.4), thermo.fugacity(1.6)
    q = np.array(tables.in_range_mass())
    counts = np.random.default_rng(seed).poisson(2.0, size=N - 1)
    g = np.concatenate([[0.0], rate.values(int(counts.max()) + 1)])[counts]
    expected = (g * (q + scale * (rr.right + rr.left))
                + scale * (phi_b * rr.right + phi_a * rr.left))
    chain = mc._zero_range_chain(tables, counts, 0, 0.0)
    got = np.array([chain.site_rate(x) for x in range(N - 1)])
    assert np.allclose(got, expected, rtol=1e-14, atol=0.0)

    a_t, b_t = tilde_densities(phi_a, phi_b)
    eta = counts % 2
    flips = np.where(eta == 1,
                     rr.left * (1.0 - a_t) + rr.right * (1.0 - b_t),
                     rr.left * a_t + rr.right * b_t)
    chain = mc._exclusion_chain(tables, eta)
    got = np.array([chain.site_rate(x) for x in range(N - 1)])
    assert np.allclose(got, 0.5 * q + scale * flips, rtol=1e-14, atol=0.0)


def test_event_tables_large_lattice(thermo_identity, monkeypatch):
    # the tables are one kernel row, so no lattice size is refused; a
    # short exclusion run from alternating occupancies keeps them in {0, 1}
    N = 65536
    params = make_params(1.0, 0.0, N)
    tables = tables_for(params, thermo_identity)
    assert len(tables.cum) == N - 1
    chains = []
    build = mc._exclusion_chain
    monkeypatch.setattr(mc, "_exclusion_chain",
                        lambda *args: chains.append(build(*args)) or chains[0])
    est = mc.simulate_exclusion(tables, 0.0, 0.05, seed=1,
                                init=np.arange(N - 1) % 2)
    assert est.event_count > 0
    assert set(chains[0].state) == {0, 1}
    assert np.all((est.mean_counts >= 0.0) & (est.mean_counts <= 1.0))


def test_fenwick_tree(monkeypatch):
    # the event loop's rate tree: its total, its inline descent to the
    # first site whose rate prefix sum exceeds u * total, and the rate
    # update a move calls; scripted uniforms alternate a zero holding time
    # with the site draw target / total, and the chain records each site
    rng = np.random.default_rng(0)
    vals = rng.uniform(0.1, 2.0, size=37)
    rates = vals.tolist()
    assert abs(mc._fenwick(rates)[0] - vals.sum()) < 1e-12
    cum = np.cumsum(vals)
    targets = [0.0, 0.5, cum[-1] * 0.999, cum[10] - 1e-9, cum[10] + 1e-9]
    expected = [int(np.searchsorted(cum, target, side="right"))
                for target in targets]
    draws = [u for target in targets for u in (0.0, target / cum[-1])]
    vals[5] = 3.0
    cum = np.cumsum(vals)
    for target in (cum[4] + 1e-9, cum[5] - 1e-9):
        expected.append(int(np.searchsorted(cum, target, side="right")))
        draws += [0.0, target / cum[-1]]
    draws.append(0.5)                   # a holding time past the window

    fired = []

    def move(x, t, uniform, set_rate):
        fired.append(x)
        if len(fired) == len(targets):
            set_rate(5, 3.0)

    chain = mc._Chain(state=[0] * 37, acc=[[0.0] * 37],
                      site_rate=rates.__getitem__,
                      accrue=lambda x, upto: None, move=move)
    monkeypatch.setattr(mc, "_uniforms", lambda seed: iter(draws).__next__)
    est = mc._run_chain(chain, 0.0, 1e-3, seed=0, time_scale=1.0)
    assert fired == expected
    assert est.event_count == len(expected)


# -- brute-force oracle ----------------------------------------------------------

def test_two_site_chain_matches_product_measure(thermo_identity):
    params = make_params(1.2, 0.0, 3, alpha=0.6, beta=1.4)
    pi, prod, tv, leak = mc.exact_stationary_distribution(
        params, thermo_identity, kmax=30)
    assert leak < 1e-10
    assert tv < 1e-6
    # marginal-by-marginal comparison
    joint = pi.reshape(31, 31)
    prod_j = prod.reshape(31, 31)
    assert np.max(np.abs(joint.sum(axis=1) - prod_j.sum(axis=1))) < 1e-6
    assert np.max(np.abs(joint.sum(axis=0) - prod_j.sum(axis=0))) < 1e-6


def test_state_space_guard(thermo_identity):
    with pytest.raises(DomainError):
        mc.exact_stationary_distribution(make_params(1.2, 0.0, 6),
                                         thermo_identity, kmax=40)


def test_state_space_guard_bounds_the_generator_memory(thermo_identity,
                                                      monkeypatch):
    # N = 4, kmax = 40 has S = 41^3 = 68,921 states, a 38 GB dense
    # generator: refused before anything of that size is allocated.  The
    # oracle may not even assemble, so a guard that came too late could
    # never reach the allocation here
    def too_late(*args):
        raise AssertionError("assembled before the state space was refused")

    monkeypatch.setattr(mc, "assemble", too_late)
    params = make_params(1.2, 0.0, 4)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="GiB"):
            mc.exact_stationary_distribution(params, thermo_identity,
                                             kmax=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- zero-range simulator ----------------------------------------------------------

def test_zr_reproducible(thermo_identity):
    params = make_params(1.2, 0.0, 24)
    tables = tables_for(params, thermo_identity)
    a = mc.simulate_zero_range(tables, 50.0, 400.0, seed=42)
    b = mc.simulate_zero_range(tables, 50.0, 400.0, seed=42)
    assert a.event_count == b.event_count
    assert np.array_equal(a.mean_counts, b.mean_counts)
    assert np.array_equal(a.se_counts, b.se_counts)
    c = mc.simulate_zero_range(tables, 50.0, 400.0, seed=43)
    assert not np.array_equal(a.mean_counts, c.mean_counts)


@pytest.mark.parametrize("chain, from_init, events, digest", [
    ("zr", False, 9881,
     "1c43ccaadb60b2a0d9120893802f521a5a5627cae9df12e5458e57ad25a6e3f7"),
    ("ex", False, 5178,
     "3427048084c19716a4eab76ca15001ce313409007012013cf4a725411b2f81aa"),
    ("zr", True, 11383,
     "8dfe87ec6067f204998a7acb3f8ebb84ac8782e6d9c4c1c1bb89d71c03eb36f8"),
    ("ex", True, 5135,
     "c7ed926e8289cb0829683ddc5f5b0fa2f88878af943871dbc846f7e1e3210fdb"),
])
def test_chains_bit_identical_at_fixed_seed(thermo_identity, chain, from_init,
                                            events, digest):
    # event counts and estimate bytes recorded with the numpy-scalar event
    # loop; a faster loop must draw, add and divide in the same order.  The
    # estimate bytes were re-recorded when c_gamma moved by an ulp (zeta read
    # off the reservoir tails); the event counts did not move
    params = make_params(1.2, 0.0, 24)
    tables = tables_for(params, thermo_identity)
    if chain == "zr":
        init = np.arange(23) % 4 if from_init else None
        est = mc.simulate_zero_range(tables, 50.0, 400.0, seed=3,
                                     init=init)
    else:
        init = np.arange(23) % 2 if from_init else None
        est = mc.simulate_exclusion(tables, 50.0, 400.0, seed=3,
                                    init=init)
    h = hashlib.sha256()
    for arr in (est.mean_counts, est.se_counts, est.mean_g, est.se_g):
        if arr is not None:
            h.update(arr.tobytes())
    assert est.event_count == events
    assert h.hexdigest() == digest


def test_zr_equilibrium_mean_g(thermo_identity):
    params = make_params(1.0, 0.0, 16, alpha=0.8, beta=0.8)
    tables = tables_for(params, thermo_identity)
    est = mc.simulate_zero_range(tables, 300.0, 3000.0, seed=7)
    phi_eq = thermo_identity.fugacity(0.8)
    z = np.abs(est.mean_g - phi_eq) / est.se_g
    assert np.all(z < 4.0)
    z_xi = np.abs(est.mean_counts - 0.8) / est.se_counts
    assert np.all(z_xi < 4.0)


def test_zr_equilibrium_pmf_bins(thermo_identity):
    # replica-based z-test per occupation bin, restricted to bins whose
    # stationary mass is visible at this budget
    params = make_params(1.0, 0.0, 16, alpha=0.8, beta=0.8)
    tables = tables_for(params, thermo_identity)
    hists = [mc.simulate_zero_range(tables, 300.0, 3000.0,
                                    seed=100 + s,
                                    track_histogram=12).histogram
             for s in range(8)]
    stack = np.array(hists)
    mean = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
    ks = np.arange(0, 13)
    pmf = thermo_identity.occupation_pmf(thermo_identity.fugacity(0.8), ks)
    visible = pmf > 1e-3
    z = (mean[:, :13][:, visible] - pmf[visible]) / (se[:, :13][:, visible]
                                                     + 1e-300)
    assert np.abs(z).max() < 4.0


def test_zr_matches_traffic_solution(thermo_identity):
    params = make_params(1.2, 0.0, 64)
    tables = tables_for(params, thermo_identity)
    system = assemble(params, thermo_identity)
    prof = solve_direct(system)
    est = mc.simulate_zero_range(tables, 500.0, 6000.0, seed=1)
    z_g = np.abs(est.mean_g - prof.values) / est.se_g
    assert (z_g < 4.0).mean() >= 0.95
    dens = thermo_identity.mean_density_array(prof.values)
    z_xi = np.abs(est.mean_counts - dens) / est.se_counts
    assert (z_xi < 4.0).mean() >= 0.95


def test_histogram_rows_normalized(thermo_identity):
    params = make_params(1.2, 0.0, 16)
    tables = tables_for(params, thermo_identity)
    est = mc.simulate_zero_range(tables, 100.0, 1000.0, seed=3,
                                 track_histogram=10)
    assert np.allclose(est.histogram.sum(axis=1), 1.0, atol=1e-12)


def test_histogram_excludes_burn_in(thermo_identity):
    # a lattice started at 30 per site drains during the burn-in; counts
    # above 12 have stationary mass ~1e-12, so the overflow bin must stay
    # empty once the burn-in is cut
    params = make_params(1.0, 0.0, 16, alpha=0.8, beta=0.8)
    tables = tables_for(params, thermo_identity)
    est = mc.simulate_zero_range(tables, 300.0, 300.0, seed=3,
                                 init=np.full(15, 30), track_histogram=12)
    assert np.allclose(est.histogram.sum(axis=1), 1.0, atol=1e-12)
    assert est.histogram[:, -1].max() < 1e-6


# -- exclusion simulator -------------------------------------------------------------

def test_exclusion_equilibrium_bernoulli(thermo_identity):
    params = make_params(1.0, 0.0, 32, alpha=0.7, beta=0.7)
    tables = tables_for(params, thermo_identity)
    est = mc.simulate_exclusion(tables, 200.0, 3000.0, seed=9)
    system = tables.system
    assert abs(system.phi_alpha / (system.phi_alpha + system.phi_beta)
               - 0.5) < 1e-12
    z = np.abs(est.mean_counts - 0.5) / est.se_counts
    assert np.all(z < 4.0)


def test_exclusion_occupation_bounds(thermo_identity):
    params = make_params(1.2, 0.0, 24)
    tables = tables_for(params, thermo_identity)
    est = mc.simulate_exclusion(tables, 100.0, 1500.0, seed=4)
    assert np.all(est.mean_counts >= 0.0)
    assert np.all(est.mean_counts <= 1.0)


def test_exclusion_matches_mapped_profile(thermo_identity):
    params = make_params(1.2, 0.0, 64)
    tables = tables_for(params, thermo_identity)
    system = assemble(params, thermo_identity)
    prof = solve_direct(system)
    est = mc.simulate_exclusion(tables, 500.0, 8000.0, seed=2)
    s = prof.phi_alpha + prof.phi_beta
    z = np.abs(s * est.mean_counts - prof.values) / (s * est.se_counts)
    assert (z < 4.0).mean() >= 0.95


@pytest.mark.xfail(strict=True, reason=(
    "known defect: both chains accrue from t=0, so batch 0 integrates the "
    "burn-in too but is divided by one batch length; discarding it needs "
    "replica standard errors (ROADMAP item 9)"))
def test_burn_in_excluded_from_estimates(thermo_identity):
    # a long burn-in must not raise the time-averaged occupancy above 1
    params = make_params(1.0, 0.0, 16, alpha=0.8, beta=0.8)
    tables = tables_for(params, thermo_identity)
    est = mc.simulate_exclusion(tables, 3000.0, 1000.0, seed=7)
    assert np.all(est.mean_counts <= 1.0)


# -- pairing and mapping --------------------------------------------------------------

def test_pairing_long_run_matches_hydrostatic_mean(thermo_identity):
    # Neumann regime: m_bar is constant, so <pi, G> -> m_bar * int G.
    # Boundary rates scale with N^-theta = 1/128 here, so filling an empty
    # lattice would take ~1e4 time units; start from a product draw instead.
    params = make_params(1.5, 1.0, 128)
    tables = tables_for(params, thermo_identity)
    init = np.random.default_rng(0).poisson(1.0, size=127)
    est = mc.simulate_zero_range(tables, 300.0, 3000.0, seed=21,
                                 init=init)
    G = lambda u: np.sin(np.pi * np.asarray(u, dtype=float))
    xs = np.arange(1, 128, dtype=float) / 128.0
    pairing = float(np.mean(G(xs) * est.mean_counts))
    m_bar = thermo_identity.mean_density(
        0.5 * (tables.system.phi_alpha + tables.system.phi_beta))
    target = m_bar * 2.0 / np.pi
    se = float(np.mean(np.abs(G(xs)) * est.se_counts))
    assert abs(pairing - target) < 4.0 * se + 0.02


def test_mapping_check_passes(thermo_identity):
    params = make_params(1.2, 0.0, 64)
    prof = solve_direct(assemble(params, thermo_identity))
    report = mc.mapping_check(params, prof, seeds=(1, 2), t_burn=500.0,
                              t_sample=6000.0, thermo=thermo_identity)
    assert report.passed
    assert "PASS" in report.summary()


def test_mapping_check_negative_control(thermo_identity):
    params = make_params(1.2, 0.0, 64)
    prof = solve_direct(assemble(params, thermo_identity))
    corrupted = tables_for(make_params(1.2, 0.0, 64, alpha=1.6, beta=0.4),
                           thermo_identity)
    report = mc.mapping_check(params, prof, seeds=(1, 2), t_burn=500.0,
                              t_sample=6000.0, thermo=thermo_identity,
                              tables_ex=corrupted)
    assert not report.passed


def test_mapping_check_refuses_a_profile_of_another_model(
        thermo_identity, thermo_figure3, monkeypatch):
    # the chains read the profile's own system: params of another model,
    # or tables of another rate, are refused before either chain runs,
    # not reported as a FAIL
    def never(*args, **kw):
        raise AssertionError("a chain ran")

    monkeypatch.setattr(mc, "simulate_zero_range", never)
    monkeypatch.setattr(mc, "simulate_exclusion", never)
    other = make_params(1.2, 0.5, 16, alpha=1.2, beta=0.3)
    prof = solve_direct(assemble(other, thermo_identity))
    for params in (make_params(1.2, 0.0, 16, alpha=1.2, beta=0.3),
                   make_params(1.2, 0.5, 32, alpha=1.2, beta=0.3)):
        with pytest.raises(DomainError, match="another model"):
            mc.mapping_check(params, prof, seeds=(1, 2), t_burn=50.0,
                             t_sample=300.0, thermo=thermo_identity)
    with pytest.raises(DomainError, match="do not match"):
        mc.mapping_check(other, prof, seeds=(1, 2), t_burn=50.0,
                         t_sample=300.0, thermo=thermo_figure3)


def _assert_same_estimate(a, b):
    for field in dataclasses.fields(mc.SimEstimate):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape,
                                                       y.tobytes()), field.name
        else:
            assert (type(x), x) == (type(y), y), field.name


@pytest.mark.parametrize("control", [False, True],
                         ids=["mapping", "negative-control"])
def test_mapping_check_estimates_are_in_process_calls(thermo_identity,
                                                      control):
    # the exclusion chain runs in a forked worker: both estimates must be
    # those of direct calls in this process, field by field, bit for bit
    params = make_params(1.2, 0.0, 24)
    prof = solve_direct(assemble(params, thermo_identity))
    tables = tables_for(params, thermo_identity)
    tables_ex = (tables_for(make_params(1.2, 0.0, 24, alpha=1.6, beta=0.4),
                            thermo_identity) if control else None)
    report = mc.mapping_check(params, prof, seeds=(3, 4), t_burn=50.0,
                              t_sample=400.0, thermo=thermo_identity,
                              tables_ex=tables_ex)
    _assert_same_estimate(report.est_zr, mc.simulate_zero_range(
        tables, 50.0, 400.0, seed=3))
    _assert_same_estimate(report.est_ex, mc.simulate_exclusion(
        tables_ex or tables, 50.0, 400.0, seed=4))


def _mapping_estimates_n8():
    thermo = ThermoTables.create(RateFunction.identity())
    params = make_params(1.2, 0.0, 8)
    prof = solve_direct(assemble(params, thermo))
    report = mc.mapping_check(params, prof, seeds=(5, 6), t_burn=20.0,
                              t_sample=100.0, thermo=thermo)
    return report.est_zr, report.est_ex


def test_mapping_check_runs_inside_a_pool_worker():
    # a daemonic Pool worker may start no child: both chains run in it,
    # with the estimates of a mapping check in this process
    with multiprocessing.get_context("fork").Pool(1) as pool:
        in_worker = pool.apply_async(_mapping_estimates_n8).get(timeout=60)
        pool.close()
        pool.join()
    for got, want in zip(in_worker, _mapping_estimates_n8()):
        _assert_same_estimate(got, want)
    _assert_no_child_left()


def _mapping_check_small(thermo):
    params = make_params(1.2, 0.0, 16)
    prof = solve_direct(assemble(params, thermo))
    return mc.mapping_check(params, prof, seeds=(1, 2), t_burn=50.0,
                            t_sample=300.0, thermo=thermo)


def _assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _refuse(*args, **kw):
    raise DomainError("refused inside the chain")


def test_mapping_check_reraises_the_workers_error(thermo_identity,
                                                   monkeypatch):
    # the forked worker runs the patched exclusion chain
    monkeypatch.setattr(mc, "simulate_exclusion", _refuse)
    with pytest.raises(DomainError, match="^refused inside the chain$") as exc:
        _mapping_check_small(thermo_identity)
    assert "in the worker process" in str(exc.value.__cause__)
    _assert_no_child_left()


def test_mapping_check_raises_when_the_worker_dies(thermo_identity,
                                                   monkeypatch):
    monkeypatch.setattr(mc, "simulate_exclusion", lambda *a, **k: os._exit(3))
    with pytest.raises(ChildProcessError, match="exit code 3 and no result"):
        _mapping_check_small(thermo_identity)
    _assert_no_child_left()


@pytest.mark.parametrize("stop", [DomainError, KeyboardInterrupt],
                         ids=["error", "interrupt"])
def test_mapping_check_kills_the_worker_when_its_own_chain_stops(
        thermo_identity, monkeypatch, stop):
    # the worker would sleep for a minute: it must be killed, not awaited
    def stopped(*args, **kw):
        raise stop()

    monkeypatch.setattr(mc, "simulate_exclusion",
                        lambda *a, **k: time.sleep(60))
    monkeypatch.setattr(mc, "simulate_zero_range", stopped)
    start = time.perf_counter()
    with pytest.raises(stop):
        _mapping_check_small(thermo_identity)
    assert time.perf_counter() - start < 30.0
    _assert_no_child_left()


def test_worker_result_larger_than_the_pipe_buffer():
    # the worker blocks in its write until the parent reads: reaping it
    # before reading would wait forever
    big = np.arange(1 << 20, dtype=float)
    with mc._forked(lambda: big) as result:
        assert result().tobytes() == big.tobytes()
    _assert_no_child_left()


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.hook = lambda: None


def test_worker_outcome_that_cannot_be_pickled():
    # the child fails while sending: the parent sees a child that ended
    # without a result, and no child is left
    def task():
        raise _Unpicklable()

    with pytest.raises(ChildProcessError, match="exit code 1 and no result"):
        with mc._forked(task) as result:
            result()
    _assert_no_child_left()


def test_estimate_csv(tmp_path, thermo_identity):
    params = make_params(1.2, 0.0, 16)
    tables = tables_for(params, thermo_identity)
    prof = solve_direct(assemble(params, thermo_identity))
    est = mc.simulate_zero_range(tables, 50.0, 500.0, seed=1)
    path = tmp_path / "est.csv"
    mc.write_estimate_csv(est, prof, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed = 1"
    cols = [l for l in lines if not l.startswith("#")]
    assert cols[0] == "x,mean_xi,se_xi,mean_g,se_g,exact_phi,z_score"
    assert len(cols) == 16


def test_estimate_csv_z_scores_are_the_mapping_checks(tmp_path,
                                                      thermo_identity):
    params = make_params(1.2, 0.0, 16)
    prof = solve_direct(assemble(params, thermo_identity))
    report = mc.mapping_check(params, prof, seeds=(1, 2), t_burn=50.0,
                              t_sample=300.0, thermo=thermo_identity)
    for est, z in ((report.est_zr, report.z_g), (report.est_ex, report.z_eta)):
        path = tmp_path / "est.csv"
        mc.write_estimate_csv(est, prof, path)
        rows = [l for l in path.read_text().splitlines()
                if not l.startswith(("#", "x,"))]
        column = np.array([float(l.split(",")[-1]) for l in rows])
        assert column.tobytes() == z.tobytes()
