import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zrlab.errors import DomainError
from zrlab import current as C
from zrlab import hydrostatic as H
from zrlab import traffic
from zrlab.kernel import KernelParams
from zrlab.quadrature import integrate_panels
from zrlab.traffic import assemble, solve_direct, solve_lattices

from conftest import make_params

EPS = float(np.finfo(float).eps)


def test_bond_independence(solved_256):
    system, prof = solved_256
    report = C.current_report(prof, system)
    assert report.relative_spread() < 1e-10


def test_current_zero_at_equilibrium(thermo_identity):
    params = make_params(1.5, 0.0, 128, alpha=0.7, beta=0.7)
    system = assemble(params, thermo_identity)
    prof = solve_direct(system)
    assert np.max(np.abs(C.bond_currents(prof, system))) < 1e-13


def test_current_sign_regression(thermo_identity):
    # alpha < beta drives net flow toward the left; pinned value from the
    # dense solve at gamma=1.5, theta=0, kappa=1, N=1024
    params = make_params(1.5, 0.0, 1024)
    system = assemble(params, thermo_identity)
    prof = solve_direct(system)
    w1 = C.bond_currents(prof, system)[0]
    assert w1 < 0.0
    assert w1 == pytest.approx(-0.029527470327, rel=1e-6)


def test_current_antisymmetric_under_swap(thermo_identity):
    fwd = make_params(1.2, -0.3, 128, alpha=0.4, beta=1.6)
    rev = make_params(1.2, -0.3, 128, alpha=1.6, beta=0.4)
    s_f = assemble(fwd, thermo_identity)
    s_r = assemble(rev, thermo_identity)
    w_f = C.bond_currents(solve_direct(s_f), s_f)
    w_r = C.bond_currents(solve_direct(s_r), s_r)
    assert np.max(np.abs(w_f + w_r)) < 1e-12 * np.max(np.abs(w_f))


def test_exclusion_proportionality(solved_256):
    system, prof = solved_256
    w_zr = C.bond_currents(prof, system)
    w_ex = C.exclusion_bond_currents(prof, system)
    s = prof.phi_alpha + prof.phi_beta
    assert np.max(np.abs(w_zr - s * w_ex)) < 1e-12 * np.max(np.abs(w_zr))


def _exact_bond_currents(dens, bc_left, bc_right, system):
    """W_x = sum_{y<x<=z} p(z-y) (d_y - d_z) over the sites y, z in 1..N-1,
    plus kappa N^-theta [sum_{z>=x} r^-(z) (bc_left - d_z)
    - sum_{y<x} r^+(y) (bc_right - d_y)], in 40-digit arithmetic from
    p(k) = c k^-(1+gamma) and r^-(z) = sum_{k>=z} p(k) = c zeta(1+gamma, z),
    r^+(y) = r^-(N-y)."""
    params, N = system.params, system.N
    with mpmath.workdps(40):
        s = mpmath.mpf(params.gamma) + 1
        c = mpmath.mpf(params.kernel_params().c_gamma)
        scale = mpmath.mpf(params.kappa) * mpmath.mpf(N) ** -mpmath.mpf(
            params.theta)
        d = [None] + [mpmath.mpf(v) for v in dens]          # d[1..N-1]
        a, b = mpmath.mpf(bc_left), mpmath.mpf(bc_right)
        jump = [None] + [c * mpmath.mpf(k) ** -s for k in range(1, N)]
        rate = [None] * (N - 1) + [c * mpmath.zeta(s, N - 1)]
        for k in range(N - 2, 0, -1):
            rate[k] = rate[k + 1] + jump[k]
        # flow[y][x] = sum_{z>=x} p(z-y) (d_y - d_z), for y < x <= N
        flow = [None] * N
        for y in range(1, N):
            flow[y] = [mpmath.mpf(0)] * (N + 1)
            for x in range(N - 1, y, -1):
                flow[y][x] = flow[y][x + 1] + jump[x - y] * (d[y] - d[x])
        out = []
        for x in range(1, N + 1):
            bulk = mpmath.fsum(flow[y][x] for y in range(1, x))
            res = (mpmath.fsum(rate[z] * (a - d[z]) for z in range(x, N))
                   - mpmath.fsum(rate[N - y] * (b - d[y])
                                 for y in range(1, x)))
            out.append(float(bulk + scale * res))
    return np.array(out)


@given(st.floats(min_value=0.1, max_value=1.95),
       st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=0.1, max_value=3.0),
       st.integers(min_value=2, max_value=64))
@example(1.5, 0.0, 1.0, 2)
@example(0.5, -0.5, 2.0, 3)
@settings(max_examples=25, deadline=None)
def test_bond_currents_match_exact_sum(thermo_identity, gamma, theta, kappa,
                                       N):
    # the FFT evaluator against the defining double sum, for the
    # zero-range profile and for the exclusion image of it, on the data the
    # evaluator reads: the deviation psi and the reservoir levels -+g
    system = assemble(make_params(gamma, theta, N, kappa=kappa),
                      thermo_identity)
    prof = solve_direct(system)
    phi_sum = prof.phi_alpha + prof.phi_beta
    g = 0.5 * (prof.phi_beta - prof.phi_alpha)
    for got, data in (
            (C.bond_currents(prof, system), (prof.deviation, -g, g)),
            (C.exclusion_bond_currents(prof, system),
             (prof.deviation / phi_sum, -g / phi_sum, g / phi_sum))):
        ref = _exact_bond_currents(*data, system)
        assert got.shape == (N,)
        assert np.max(np.abs(got - ref)) <= 64 * EPS * np.max(np.abs(ref))


def test_bond_independence_at_16384(thermo_identity):
    # the O(N) per-bond prefix sums spread 1.26e-9 here; the solve's
    # residual is at the rounding floor, so the spread is the evaluator's
    prof, = solve_lattices(make_params(1.5, 0.0, 2), (16384,),
                           thermo_identity)
    assert C.current_report(prof, prof.system).relative_spread() < 1e-10


def test_bond_independence_gamma_19_at_4096(thermo_identity):
    # 1.15e-10 while the rows' in-range mass and the reservoir rates came
    # from two tail-sum evaluators, so the rows of D - P leaked mass
    prof, = solve_lattices(make_params(1.9, 1.0, 2), (4096,),
                           thermo_identity)
    assert C.current_report(prof, prof.system).relative_spread() < 1e-10


@pytest.mark.parametrize("theta,N", [(1.0, 2048), (0.5, 4096)])
def test_bond_independence_gamma_19_pinned(thermo_identity, theta, N):
    # 1.29e-10 and 1.08e-10 with the two tail-sum evaluators
    prof, = solve_lattices(make_params(1.9, theta, 2), (N,),
                           thermo_identity)
    assert C.current_report(prof, prof.system).relative_spread() < 1e-10


# -- rescalings ---------------------------------------------------------------

def test_scaling_B_branches():
    assert C.scaling_B(16, 0.0, 1.5) == 16.0 ** -0.5
    assert C.scaling_B(16, -1.0, 0.5) == 16.0 ** 1.5
    assert C.scaling_B(16, 2.0, 1.5) == 16.0 ** -0.5
    with pytest.raises(DomainError):
        C.scaling_B(1, 0.0, 1.5)


def test_h_theta_midpoint_and_antisymmetry():
    kp = KernelParams.create(1.5)
    for theta in (-1.0, 0.0, 0.5):
        assert C.h_theta_fn(0.5, 1.5, theta, 1.0, kp) == 0.0
    with pytest.raises(DomainError):
        C.h_theta_fn(0.0, 1.5, 0.0, 1.0, kp)


@given(st.floats(min_value=1e-3, max_value=0.5))
@settings(max_examples=30)
def test_h_theta_odd(u):
    kp = KernelParams.create(1.4)
    a = C.h_theta_fn(u, 1.4, 0.0, 2.0, kp)
    b = C.h_theta_fn(1.0 - u, 1.4, 0.0, 2.0, kp)
    assert abs(a + b) < 1e-12 * max(1.0, abs(a))


def test_h_theta_closed_value():
    # at theta=0 both indicator branches are active
    kp = KernelParams.create(1.5)
    got = C.h_theta_fn(0.25, 1.5, 0.0, 1.0, kp)
    expected = kp.c_gamma * (1.0 / 1.5 - 2.0) * (0.75 ** -0.5 - 0.25 ** -0.5)
    assert abs(got - expected) < 1e-13
    # gamma = 1 logarithmic branch
    kp1 = KernelParams.create(1.0)
    got1 = C.h_theta_fn(0.25, 1.0, 0.5, 1.0, kp1)
    assert abs(got1 - kp1.c_gamma * (math.log(0.75) - math.log(0.25))) < 1e-13
    assert C.h_theta_fn(0.25, 1.0, -0.5, 1.0, kp1) == 0.0


@pytest.mark.parametrize("gamma,theta", ((1.4, 0.0), (0.5, -0.5), (1.0, 0.5),
                                         (1.0, -0.5)))
def test_h_theta_array_equals_scalar_calls(gamma, theta):
    kp = KernelParams.create(gamma)
    us = np.array([[1e-12, 0.2, 0.5], [0.7, 0.9, 1.0 - 1e-9]])
    got = C.h_theta_fn(us, gamma, theta, 2.0, kp)
    assert got.shape == us.shape
    assert np.array_equal(got, [[C.h_theta_fn(float(u), gamma, theta, 2.0, kp)
                                 for u in row] for row in us])
    with pytest.raises(DomainError):
        C.h_theta_fn(np.array([0.5, 1.0]), gamma, theta, 2.0, kp)


@pytest.mark.parametrize("gamma", (0.5, 1.0, 1.5, 1.9))
def test_h_theta_integrable(gamma):
    kp = KernelParams.create(gamma)
    edges = np.concatenate([np.geomspace(1e-10, 0.5, 40),
                            1.0 - np.geomspace(0.5, 1e-10, 40)[1:]])
    val = integrate_panels(
        lambda us: np.array([abs(C.h_theta_fn(float(u), gamma, 0.0, 1.0, kp))
                             for u in us]), edges, n=8)
    assert np.isfinite(val) and val < 100.0


def test_fick_constant_values():
    kp = KernelParams.create(0.5)
    assert C.fick_constant(0.2, 0.8, 0.5, 1.0, 1.0, kp) == 0.0
    assert C.fick_constant(0.5, 0.5, 0.5, -1.0, 1.0, kp) == 0.0
    got = C.fick_constant(0.2, 0.8, 0.5, -1.0, 2.0, kp)
    assert abs(got - kp.c_gamma * 2.0 * (-0.6) / (0.5 * 1.5)) < 1e-14


def test_gamma_one_h_constant_consistency():
    # at gamma=1, theta<0 the h-part vanishes and C alone carries the limit
    kp = KernelParams.create(1.0)
    a_t, b_t = 0.25, 0.75
    closed = C.closed_form_limit_zr(a_t, b_t, 1.0, 1.0, kp)
    const = C.fick_constant(a_t, b_t, 1.0, -1.0, 1.0, kp)
    assert abs(closed - const) < 1e-12


# -- macroscopic limits ----------------------------------------------------------

def test_fick_limit_theta_negative(thermo_identity):
    params = make_params(0.5, -0.5, 64)
    kp = KernelParams.create(0.5)
    reg = H.classify_regime(0.5, -0.5)
    prof = H.rho_closed_form(params, reg, thermo_identity)
    fl = C.fick_limit(prof, params)
    assert fl.spread < 1e-6
    assert abs(fl.mean - fl.closed_form) < 1e-6 * abs(fl.closed_form)
    # cross-check against the h-weighted form
    hw = C.h_weighted_limit(prof, 0.5, -0.5, 1.0, kp) * prof.phi_sum
    assert abs(hw - fl.closed_form) < 1e-5 * abs(fl.closed_form)


def test_fick_limit_equilibrium_zero(thermo_identity):
    for theta in (-0.5, 0.3):
        params = make_params(0.5, theta, 64, alpha=0.7, beta=0.7)
        reg = H.classify_regime(0.5, theta)
        prof = H.rho_closed_form(params, reg, thermo_identity)
        fl = C.fick_limit(prof, params)
        assert np.max(np.abs(fl.values)) < 1e-10


def test_fick_limit_theta_zero_u_independent(rd_profile, thermo_identity):
    params = make_params(1.5, 0.0, 1024)
    fl = C.fick_limit(rd_profile, params)
    assert fl.spread < 1e-3
    assert fl.closed_form is None


def test_fick_sweep_matches_closed_form(thermo_identity):
    base = make_params(0.5, -0.5, 2)
    sweep = C.fick_sweep(base, (512, 1024, 2048), thermo_identity)
    assert sweep.rel_err < 0.02
    assert sweep.closed_form < 0.0       # alpha < beta drives negative flow


def test_fick_sweep_equilibrium_rows_zero(thermo_identity):
    base = make_params(0.5, -0.5, 2, alpha=0.7, beta=0.7)
    sweep = C.fick_sweep(base, (64, 128, 256), thermo_identity)
    assert np.max(np.abs(sweep.rescaled)) < 1e-12
    assert abs(sweep.extrapolated) < 1e-12


def test_fick_sweep_neumann_vanishes(thermo_identity):
    # gamma=0.5, theta=1: rescaled current tends to zero
    base = make_params(0.5, 1.0, 2)
    sweep = C.fick_sweep(base, (128, 256, 512, 1024), thermo_identity)
    mags = np.abs(sweep.rescaled)
    assert np.all(np.diff(mags) < 0.0)
    assert mags[-1] < 0.02
    assert abs(sweep.extrapolated) < mags[0]


@pytest.mark.parametrize("theta,fallback", ((0.2, True), (0.5, False)),
                         ids=["Dirichlet", "Robin"])
def test_fick_sweep_reports_fallback(thermo_identity, theta, fallback):
    # the Dirichlet rescaled current's steps grow with N at desk sizes
    # (5.4e-3, then 6.3e-3), so no decaying power law fits and the fit
    # falls back to the largest N's value
    sweep = C.fick_sweep(make_params(1.5, theta, 2), (512, 1024, 2048),
                         thermo_identity)
    assert sweep.fallback is fallback
    assert bool(sweep.extrapolated == sweep.rescaled[-1]) is fallback


@pytest.mark.parametrize("Ns", ((1024, 512, 256), (256, 1024, 512)))
def test_fick_sweep_refuses_unordered_sizes(thermo_identity, Ns):
    with pytest.raises(DomainError, match="strictly increasing"):
        C.fick_sweep(make_params(1.5, 0.0, 2), Ns, thermo_identity)


@pytest.mark.parametrize("Ns", ((1024, 512, 256), (256, 512)))
@pytest.mark.parametrize("limit", ["fick_sweep", "rho_extrapolated"])
def test_N_list_the_fit_refuses_is_never_solved(thermo_identity, monkeypatch,
                                                limit, Ns):
    # the list is checked by the fit's own rule before any lattice is
    # solved, and refused with the error the fit itself raises
    solves = []
    monkeypatch.setattr(traffic, "solve_iterative",
                        lambda system: solves.append(system.N))
    base = make_params(1.5, 0.0, 2)
    with pytest.raises(DomainError) as fit:
        H._fit_power_limit([0.0] * len(Ns), Ns)
    with pytest.raises(DomainError) as refused:
        if limit == "fick_sweep":
            C.fick_sweep(base, Ns, thermo_identity)
        else:
            H.rho_extrapolated(base, H.classify_regime(1.5, 0.0), Ns,
                               thermo_identity)
    assert str(refused.value) == str(fit.value)
    assert solves == []


def test_fick_sweep_refuses_lattices_of_another_model_or_N_list(
        thermo_identity):
    solved = solve_lattices(make_params(1.5, 0.0, 2), (256, 512, 1024),
                            thermo_identity)
    for params, Ns in ((make_params(1.5, -0.5, 2), (256, 512, 1024)),
                       (make_params(1.5, 0.0, 2), (1024, 2048, 4096))):
        with pytest.raises(DomainError, match="not the model's"):
            C.fick_sweep(params, Ns, thermo_identity, lattices=solved)


def test_fick_sweep_error_with_four_sizes_is_the_move_of_the_limit(
        thermo_identity):
    # the same rule as the extrapolated profiles: how far the limit moves
    # when the largest N is dropped
    base = make_params(1.5, 0.0, 2)
    Ns = (512, 1024, 2048, 4096)
    solved = solve_lattices(base, Ns, thermo_identity)
    sweep = C.fick_sweep(base, Ns, thermo_identity, lattices=solved)
    three = C.fick_sweep(base, Ns[:3], thermo_identity, lattices=solved[:3])
    move = abs(sweep.extrapolated - three.extrapolated)
    assert sweep.err_estimate == max(move, 1e-16)
    assert sweep.err_estimate < 1e-3


def test_sweep_csv(tmp_path, thermo_identity):
    base = make_params(0.5, -0.5, 2)
    sweep = C.fick_sweep(base, (64, 128, 256), thermo_identity)
    path = tmp_path / "sweep.csv"
    sweep.to_csv(path, header_lines=["# demo = 1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo = 1"
    assert lines[1].startswith("N,B_N,current,rescaled")
    assert len(lines) == 5


def test_sweep_csv_writes_the_rescaling(tmp_path, thermo_identity):
    # B_N is the rescaling itself, also where the current is exactly 0
    base = make_params(0.5, -0.5, 2, alpha=0.7, beta=0.7)
    sweep = C.fick_sweep(base, (64, 128, 256), thermo_identity)
    sweep.currents[0] = sweep.rescaled[0] = 0.0   # an exactly zero row
    path = tmp_path / "sweep.csv"
    sweep.to_csv(path, header_lines=[])
    rows = [l.split(",") for l in path.read_text().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [
        C.scaling_B(N, -0.5, 0.5) for N in (64, 128, 256)]
