import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zrlab.errors import DomainError
from zrlab import hydrostatic as H
from zrlab.kernel import KernelParams, first_moment_half
from zrlab.thermo import RateFunction
from zrlab.traffic import ModelParams, assemble, solve_direct, solve_lattices

from conftest import make_params


# -- regime classification ----------------------------------------------------

@pytest.mark.parametrize("gamma,theta,tag", [
    (1.5, -1.0, H.EXPLICIT_RATIO),
    (0.5, -0.01, H.EXPLICIT_RATIO),
    (0.7, 0.0, H.REACTION_DIFFUSION),
    (1.5, 0.0, H.REACTION_DIFFUSION),
    (1.5, 0.25, H.DIRICHLET),
    (1.5, 0.5, H.ROBIN),
    (1.5, 0.6, H.NEUMANN),
    (0.5, 0.1, H.NEUMANN),
    (1.0, 0.5, H.NEUMANN),     # gamma = 1 belongs to the gamma <= 1 branch
    (1.9, 1.9 - 1.0, H.ROBIN),
    # decimal pairs on the Robin line miss fl(gamma - 1) by about 1 ulp
    (1.9, 0.9, H.ROBIN),
    (1.2, 0.2, H.ROBIN),
    (1.3, 0.3, H.ROBIN),
    (1.1, 0.1, H.ROBIN),
    (1.4, 0.4, H.ROBIN),
    (1.6, 0.6, H.ROBIN),
    (1.7, 0.7, H.ROBIN),
    (1.2, 0.19, H.DIRICHLET),
    (1.9, 0.91, H.NEUMANN),
    (1.3, 0.0, H.REACTION_DIFFUSION),
])
def test_classify_regime(gamma, theta, tag):
    assert H.classify_regime(gamma, theta).tag == tag


def test_classify_kappa_hat():
    assert H.classify_regime(0.7, 0.0, kappa=2.5).kappa_hat == 2.5
    kp = KernelParams.create(1.5)
    robin = H.classify_regime(1.5, 0.5, kappa=2.0, kernel=kp)
    assert abs(robin.kappa_hat - 2.0 * first_moment_half(kp)) < 1e-13
    assert H.classify_regime(1.5, 2.0).kappa_hat == 0.0


def test_classify_rejects_excluded_point():
    with pytest.raises(DomainError):
        H.classify_regime(1.0, 0.0)
    with pytest.raises(DomainError):
        H.classify_regime(2.0, 0.5)


def test_tilde_densities():
    a, b = H.tilde_densities(0.3, 0.9)
    assert abs(a + b - 1.0) < 1e-15
    assert abs(a - 0.25) < 1e-15


# -- closed-form profiles -------------------------------------------------------

def test_rho_explicit_neumann_constant():
    reg = H.classify_regime(0.5, 1.0)
    val = H.rho_explicit(0.123, reg, 0.2, 0.8, 0.5)
    assert val == 0.5


def test_rho_explicit_ratio_values():
    reg = H.classify_regime(1.5, -1.0)
    assert abs(H.rho_explicit(0.5, reg, 0.2, 0.8, 1.5) - 0.5) < 1e-14
    assert abs(H.rho_explicit(0.3, reg, 0.4, 0.4, 1.5) - 0.4) < 1e-14
    # near-boundary limits are the tilde densities
    assert abs(H.rho_explicit(1e-9, reg, 0.2, 0.8, 1.5) - 0.2) < 1e-9
    assert abs(H.rho_explicit(1.0 - 1e-9, reg, 0.2, 0.8, 1.5) - 0.8) < 1e-9


def test_rho_explicit_wrong_regime():
    with pytest.raises(DomainError):
        H.rho_explicit(0.5, H.classify_regime(1.5, 0.0), 0.2, 0.8, 1.5)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=50)
def test_rho_explicit_range_and_symmetry(u):
    reg = H.Regime(H.EXPLICIT_RATIO, 1.0)
    v = H.rho_explicit(u, reg, 0.2, 0.8, 1.3)
    w = H.rho_explicit(1.0 - u, reg, 0.2, 0.8, 1.3)
    assert 0.2 - 1e-12 <= v <= 0.8 + 1e-12
    assert abs(v + w - 1.0) < 1e-12


# -- power-law extrapolation core ------------------------------------------------

def test_fit_power_limit_recovers_exact_law():
    edge_ps = (0.2, 0.2 + 1e-9, 2.0 - 1e-9, 2.0)
    for Ns, ps in (((100, 200, 400), (0.5, 1.0, 1.7) + edge_ps),
                   ((100, 300, 400), (0.5, 1.0, 1.7) + edge_ps),
                   ((512, 1000, 1500), (0.7, 1.3) + edge_ps),
                   # d1/d2 > 1 needs p > 1.36 on this list
                   ((1000, 1500, 4000), (1.4, 1.7) + edge_ps[2:])):
        for p in ps:
            vals = [0.37 + 2.1 * n ** -p for n in Ns]
            c0, err, warn = H._fit_power_limit(vals, Ns)
            assert not warn
            assert abs(c0 - 0.37) < 1e-10


def test_fit_power_limit_fallbacks():
    c0, err, warn = H._fit_power_limit([0.5, 0.52, 0.51], (10, 20, 40))
    assert warn and c0 == 0.51
    c0, err, warn = H._fit_power_limit([0.4, 0.4, 0.4], (10, 20, 40))
    assert not warn and c0 == 0.4 and err < 1e-12
    assert type(c0) is float and type(err) is float and type(warn) is bool


def test_fit_power_limit_array_equals_scalar_calls():
    Ns = (100, 200, 400, 800)
    cols = [[0.4, 0.4, 0.4, 0.4],                       # flat
            [0.5, 0.52, 0.51, 0.515],                   # non-monotone
            [0.37 + 2.1 * n ** -0.8 for n in Ns],       # bisection
            [0.2 + 1e3 * n ** -3.0 for n in Ns],        # p clamped at 2
            [0.6 - 0.5 * n ** -0.1 for n in Ns]]        # p clamped at 0.2
    vals = np.array(cols).T                             # (N, points)
    c0, err, warn = H._fit_power_limit(vals, Ns)
    for j, col in enumerate(cols):
        assert (c0[j], err[j], warn[j]) == H._fit_power_limit(col, Ns)
    assert list(warn) == [False, True, False, False, False]


def _fit_power_limit_reference(vals, scales):
    """The fit with the exponent found by 60 bisection steps, recomputing
    mismatch(lo) at every step; returns (c0, err, warn) and the elements
    whose p it bisected for (neither flat nor a fallback, nor clamped to
    an end of the range)."""
    v1, v2, v3 = (np.asarray(v, dtype=float) for v in vals[-3:])
    s1, s2, s3 = (np.asarray(s, dtype=float) for s in scales[-3:])
    d1, d2 = v1 - v2, v2 - v3
    tiny = 1e-13 * np.maximum(1.0, np.abs(v3))
    flat = (np.abs(d1) < tiny) & (np.abs(d2) < tiny)
    warn = ~flat & ((d1 * d2 <= 0.0) | (np.abs(d2) >= np.abs(d1)))

    def mismatch(p):
        return (d1 / d2) - (s1 ** -p - s2 ** -p) / (s2 ** -p - s3 ** -p)

    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = np.full(v3.shape, 0.2), np.full(v3.shape, 2.0)
        m_lo, m_hi = mismatch(lo), mismatch(hi)
        for _ in range(60):
            p = 0.5 * (lo + hi)
            left = mismatch(lo) * mismatch(p) <= 0.0
            lo, hi = np.where(left, lo, p), np.where(left, p, hi)
        clamped = m_lo * m_hi > 0.0
        p = np.where(clamped, np.where(np.abs(m_lo) < np.abs(m_hi), 0.2, 2.0),
                     0.5 * (lo + hi))
        c1 = d2 / (s2 ** -p - s3 ** -p)
        c0 = v3 - c1 * s3 ** -p
    value = np.where(flat | warn, v3, c0)
    err = np.where(flat, np.abs(d2),
                   np.where(warn, np.maximum(np.abs(d1), np.abs(d2)),
                            np.abs(c0 - v3)))
    return value, err, warn, ~(flat | warn | clamped)


def test_fit_power_limit_newton_agrees_with_the_bisection_reference(
        monkeypatch):
    # same fallbacks and clamps, bit for bit; where the reference bisects,
    # Newton's c0 and err lie within ``bound`` (relative) of it
    solved = []
    newton = H._exponent_by_newton
    monkeypatch.setattr(H, "_exponent_by_newton",
                        lambda r, a, b: solved.append(r) or newton(r, a, b))
    for Ns, bound in (((512, 1024, 2048), 1e-13),
                      ((100, 300, 400), 5e-13),
                      ((1000, 1500, 4000), 5e-13)):
        rng = np.random.default_rng(7)
        n = 4000
        p = rng.uniform(0.05, 3.0, n)
        laws = [0.4 + rng.normal(0.0, 1.0, n) * N ** -p for N in Ns]
        noise = [law + rng.normal(0.0, 1e-3, n) for law in laws]
        vals = np.concatenate([laws, noise, rng.uniform(0.0, 1.0, (3, n))],
                              axis=1)
        vals[:, :50] = 0.3                              # flat columns
        solved.clear()
        c0, err, warn = H._fit_power_limit(vals, Ns)
        ref_c0, ref_err, ref_warn, bisected = _fit_power_limit_reference(
            vals, Ns)
        assert warn.tobytes() == ref_warn.tobytes()
        # Newton solves for exactly the elements the reference bisects for
        d1, d2 = (vals[i][bisected] - vals[i + 1][bisected] for i in (0, 1))
        (ratios,) = solved
        assert ratios.tobytes() == (d1 / d2).tobytes()
        assert np.count_nonzero(bisected) > 400
        assert c0[~bisected].tobytes() == ref_c0[~bisected].tobytes()
        assert err[~bisected].tobytes() == ref_err[~bisected].tobytes()
        for got, want in ((c0, ref_c0), (err, ref_err)):
            gap = np.abs(got[bisected] - want[bisected])
            assert np.all(gap <= bound * np.abs(want[bisected]))


def test_fit_power_limit_newton_no_less_accurate_than_the_bisection():
    # exact laws rounded to floats; the oracle solves the fit through those
    # floats in 50-digit arithmetic
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    Ns = (512, 1024, 2048)
    m = 60
    ps = np.concatenate([rng.uniform(0.2, 2.0, m - 4),
                         [0.2 + 1e-6, 0.2 + 1e-3, 1.999, 2.0 - 1e-9]])
    c0s, c1s = rng.uniform(-1.0, 1.0, m), rng.normal(0.0, 1.0, m)
    with mp.workdps(50):
        vals = np.array([[float(mp.mpf(c0s[j]) + mp.mpf(c1s[j])
                                * mp.mpf(N) ** -mp.mpf(ps[j]))
                          for j in range(m)] for N in Ns])
        oracle = []
        s1, s2, s3 = (mp.mpf(N) for N in Ns)
        for j in range(m):
            v1, v2, v3 = (mp.mpf(v) for v in vals[:, j])
            ratio = (v1 - v2) / (v2 - v3)
            p = mp.findroot(lambda q: (s1 ** -q - s2 ** -q)
                            / (s2 ** -q - s3 ** -q) - ratio,
                            (mp.mpf("0.2"), mp.mpf(2)), solver="anderson")
            oracle.append(float(v3 - (v2 - v3) / (s2 ** -p - s3 ** -p)
                                * s3 ** -p))
    newton, _, warn = H._fit_power_limit(vals, Ns)
    bisection, _, _, bisected = _fit_power_limit_reference(vals, Ns)
    assert not warn.any() and bisected.all()
    newton_gap = np.max(np.abs(newton - oracle))
    assert newton_gap <= np.max(np.abs(bisection - oracle))
    assert newton_gap < 1e-15


def test_default_grid_contains_exact_midpoint():
    grid = H.default_grid()
    assert len(grid) == 257
    assert grid[128] == 0.5
    assert np.max(np.abs(grid + grid[::-1] - 1.0)) < 1e-15


# -- extrapolated profiles --------------------------------------------------------

def test_rho_closed_form_checks_the_boundary_data(thermo_identity,
                                                  thermo_indicator):
    # the checks assemble makes: tables of the model's rate, and reservoir
    # densities inside (0, m*)
    regime = H.classify_regime(1.5, -1.0)
    with pytest.raises(DomainError, match="do not match"):
        H.rho_closed_form(make_params(1.5, -1.0, 2), regime,
                          thermo_indicator)
    with pytest.raises(DomainError, match="reservoir density"):
        H.rho_closed_form(make_params(1.5, -1.0, 2, alpha=0.0), regime,
                          thermo_identity)


def test_extrapolated_requires_enough_sizes(thermo_identity):
    base = make_params(1.5, 0.0, 2)
    reg = H.classify_regime(1.5, 0.0)
    for Ns, match in (((), "at least 3"), ((64, 128), "at least 3"),
                      ((128, 64, 256), "strictly increasing"),
                      ((64, 128, 128), "strictly increasing")):
        with pytest.raises(DomainError, match=match):
            H.rho_extrapolated(base, reg, Ns, thermo_identity)
    family = H.DiscreteProfileFamily(
        solve_lattices(base, (64, 128), thermo_identity))
    with pytest.raises(DomainError, match="at least 3"):
        family.rho_array(0.5)
    with pytest.raises(DomainError):
        H.rho_extrapolated(make_params(1.5, -1.0, 2),
                           H.classify_regime(1.5, -1.0), (64, 128, 256),
                           thermo_identity)


def test_rd_profile_basics(rd_profile):
    assert rd_profile.provenance == "extrapolated"
    assert rd_profile.rho[128] == pytest.approx(0.5, abs=1e-10)
    assert np.all(rd_profile.rho >= rd_profile.alpha_tilde - 1e-9)
    assert np.all(rd_profile.rho <= rd_profile.beta_tilde + 1e-9)
    sym = np.max(np.abs(rd_profile.rho + rd_profile.rho[::-1] - 1.0))
    assert sym < 10.0 * max(1e-9, rd_profile.err_estimate.max())
    assert np.all(rd_profile.err_estimate >= 0.0)


def test_extrapolated_refuses_lattices_of_another_model_or_N_list(
        thermo_identity):
    base = make_params(1.5, 0.0, 2)
    reg = H.classify_regime(1.5, 0.0)
    solved = solve_lattices(base, (64, 128, 256), thermo_identity)
    prof = H.rho_extrapolated(base, reg, (64, 128, 256), thermo_identity,
                              lattices=solved)
    assert prof.provenance == "extrapolated"
    for params, Ns in ((make_params(1.2, 0.0, 2), (64, 128, 256)),
                       (make_params(1.2, 0.0, 2), (7,)),
                       (make_params(1.5, 0.0, 2, alpha=0.5), (64, 128, 256)),
                       (base, (128, 256, 512)),
                       (base, (64, 128, 256, 512)),
                       (base, (128, 256))):
        with pytest.raises(DomainError, match="not the model's"):
            H.rho_extrapolated(params, reg, Ns, thermo_identity,
                               lattices=solved)


def test_rd_point_stability_between_sequences(thermo_identity, rd_family):
    fine = H.DiscreteProfileFamily(solve_lattices(
        make_params(1.5, 0.0, 2), (2048, 4096, 8192), thermo_identity))
    v1, _, _ = rd_family.rho_array(0.25)
    v2, _, _ = fine.rho_array(0.25)
    assert abs(v1 - v2) < 1e-3


def _profile_by_provenance(provenance, thermo, tmp_path):
    if provenance == "closed_form":
        return H.rho_closed_form(make_params(1.5, -1.0, 2),
                                 H.classify_regime(1.5, -1.0), thermo)
    prof = H.rho_extrapolated(make_params(1.5, 0.0, 2),
                              H.classify_regime(1.5, 0.0), (128, 256, 512),
                              thermo)
    if provenance == "csv":
        H.write_continuum_csv(prof, tmp_path / "cont.csv")
        prof = H.read_continuum_csv(tmp_path / "cont.csv")
    return prof


@pytest.mark.parametrize("provenance", ("closed_form", "extrapolated", "csv"))
def test_rho_at_shape_contract(provenance, thermo_identity, tmp_path):
    rho = _profile_by_provenance(provenance, thermo_identity,
                                 tmp_path).evaluate
    assert type(rho(0.3)) is float
    us = np.array([[0.0, 0.1, 0.3], [0.5, 0.77, 1.0]])
    got = rho(us)
    assert got.shape == us.shape
    assert rho(us[0]).shape == (3,)
    assert np.array_equal(got, [[rho(float(u)) for u in row] for row in us])


def test_flat_boundaries_give_constant(thermo_identity):
    base = make_params(1.5, 0.0, 2, alpha=0.9, beta=0.9)
    prof = H.rho_extrapolated(base, H.classify_regime(1.5, 0.0),
                              (128, 256, 512), thermo_identity)
    assert np.max(np.abs(prof.rho - 0.5)) < 1e-12   # tilde densities are 1/2


def test_dirichlet_edge_limits(thermo_identity):
    base = make_params(1.5, 0.25, 2)
    prof = H.rho_extrapolated(base, H.classify_regime(1.5, 0.25),
                              (512, 1024, 2048), thermo_identity)
    r0, r1 = prof.boundary_values()
    assert abs(r0 - prof.alpha_tilde) < 0.02
    assert abs(r1 - prof.beta_tilde) < 0.02


def test_m_profile_consistency_and_roundtrip(rd_profile, thermo_identity,
                                             tmp_path):
    recomputed = thermo_identity.mean_density_array(
        rd_profile.phi_sum * rd_profile.rho)
    assert np.max(np.abs(recomputed - rd_profile.m)) < 1e-13
    path = tmp_path / "cont.csv"
    H.write_continuum_csv(rd_profile, path)
    back = H.read_continuum_csv(path)
    assert back.regime.tag == rd_profile.regime.tag
    assert np.max(np.abs(back.rho - rd_profile.rho)) == 0.0
    re_m = thermo_identity.mean_density_array(back.phi_sum * back.rho)
    assert np.max(np.abs(re_m - back.m)) < 1e-13


@pytest.mark.parametrize("gamma,theta", [
    (1.5, -1.0), (1.5, 0.0), (1.5, 0.25), (1.5, 0.5), (1.5, 0.8)])
def test_continuum_csv_reads_back_the_profile(gamma, theta, thermo_identity,
                                              tmp_path):
    regime = H.classify_regime(gamma, theta)
    base = make_params(gamma, theta, 2)
    if regime.tag in H.EXTRAPOLATED_REGIMES:
        prof = H.rho_extrapolated(base, regime, (128, 256, 512),
                                  thermo_identity)
    else:
        prof = H.rho_closed_form(base, regime, thermo_identity)
    H.write_continuum_csv(prof, tmp_path / "cont.csv")
    back = H.read_continuum_csv(tmp_path / "cont.csv")
    for name in ("grid", "rho", "m", "err_estimate", "warn"):
        assert np.array_equal(getattr(back, name), getattr(prof, name)), name
    for profile in (prof, back):
        assert np.array_equal(profile.evaluate(profile.grid), prof.rho)
    (r0, r1), (b0, b1) = prof.boundary_values(), back.boundary_values()
    assert b0 == r0
    assert abs(b1 - r1) <= np.spacing(r1)   # PCHIP at its last knot


def test_continuum_csv_without_edges_refused(rd_profile, tmp_path):
    # a file in the format before the edge values and the fallback column
    path = tmp_path / "cont.csv"
    H.write_continuum_csv(rd_profile, path)
    lines = path.read_text().splitlines()
    no_edges = [l for l in lines if not l.startswith("# rho_boundary")]
    no_fallback = [l if l.startswith("#") else l.rpartition(",")[0]
                   for l in lines]
    for kept in (no_edges, no_fallback):
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(DomainError):
            H.read_continuum_csv(path)



def test_continuum_csv_without_rows_or_with_a_repeated_row_refused(
        rd_profile, tmp_path):
    path = tmp_path / "cont.csv"
    H.write_continuum_csv(rd_profile, path)
    lines = path.read_text().splitlines()
    header = [l for l in lines if l.startswith(("#", "u,"))]
    rows = lines[len(header):]
    for kept in (header, header + rows[:5] + rows[4:]):
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(DomainError):
            H.read_continuum_csv(path)


# -- the PCHIP interpolant -----------------------------------------------------


def _pchip_cases():
    rng = np.random.default_rng(7)
    for trial in range(240):
        n = 2 + trial % 30
        x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
        kind = trial % 3
        if kind == 0:                           # monotone
            y = np.cumsum(rng.uniform(0.0, 1.0, n))
        elif kind == 1:                         # oscillating
            y = rng.standard_normal(n)
        else:                                   # flat segments
            y = np.round(rng.standard_normal(n))
        yield x, y


@pytest.mark.parametrize("extrapolate", (False, True))
def test_pchip_equals_scipys_bit_for_bit(extrapolate):
    # pchip clamps, so it matches the reference under either of its
    # extrapolate settings on the nodes' range and at the clamped points
    from scipy.interpolate import PchipInterpolator
    rng = np.random.default_rng(11)
    for x, y in _pchip_cases():
        ref = PchipInterpolator(x, y, extrapolate=extrapolate)
        mine = H.pchip(x, y)
        inside = np.concatenate((rng.uniform(x[0], x[-1], 100), x))
        assert mine(inside).tobytes() == ref(inside).tobytes()
        for u in (float(x[0]), float(x[-1]), 0.5 * float(x[0] + x[-1])):
            got = mine(u)
            assert type(got) is float
            assert np.float64(got).tobytes() == ref(u).tobytes()
        # outside the nodes: the end values; NaN stays NaN
        left = rng.uniform(x[0] - 1.0, x[0], 20)
        right = rng.uniform(x[-1], x[-1] + 1.0, 20)
        outside = np.concatenate((left, [-np.inf], right, [np.inf]))
        ends = np.repeat(ref(np.array([x[0], x[-1]])), 21)
        assert mine(outside).tobytes() == ends.tobytes()
        assert np.isnan(mine(np.nan))
        got = mine(np.array([np.nan, x[0]]))
        assert np.isnan(got[0]) and got[1] == ref(x[0])


@pytest.mark.parametrize("x, y", (
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),     # repeated node
    ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0]),               # not increasing
    ([0.0, np.nan, 1.0], [0.0, 1.0, 2.0]),
    ([0.0, 1.0, np.inf], [0.0, 1.0, 2.0]),
    ([0.0, 1.0, 2.0], [0.0, np.nan, 2.0]),
    ([0.0], [1.0]),                                   # one point
    ([0.0, 1.0, 2.0], [0.0, 1.0]),                    # lengths differ
))
def test_pchip_refuses_a_bad_grid(x, y):
    with pytest.raises(DomainError):
        H.pchip(x, y)


# -- weak formulations -------------------------------------------------------------

SMOOTH_BASIS = (
    lambda u: np.ones_like(np.asarray(u, dtype=float)),
    lambda u: np.asarray(u, dtype=float),
    lambda u: np.sin(np.pi * np.asarray(u, dtype=float)),
)


def test_neumann_weak_form_constant_profile(thermo_identity):
    params = make_params(1.5, 0.8, 2)
    reg = H.classify_regime(1.5, 0.8)
    prof = H.rho_closed_form(params, reg, thermo_identity)
    kp = KernelParams.create(1.5)
    for G in SMOOTH_BASIS:
        assert H.weak_form_residual(prof, G, reg, kp) < 1e-6


def test_robin_weak_form_of_read_back_profile(thermo_figure3, tmp_path):
    # acceptance-08's smooth basis on the figure-3 Robin profile as the CLI
    # writes it; the boundary term reads rho(0) and rho(1) off the file
    kernel = KernelParams.create(1.5)
    regime = H.classify_regime(1.5, 0.5, 1.0, kernel)
    base = ModelParams.from_fugacities(1.5, 0.5, 1.0, 0.2, 0.8, 2,
                                       RateFunction.figure3(),
                                       thermo=thermo_figure3)
    prof = H.rho_extrapolated(base, regime, (512, 1024, 2048),
                              thermo_figure3)
    H.write_continuum_csv(prof, tmp_path / "cont.csv")
    back = H.read_continuum_csv(tmp_path / "cont.csv")
    basis = SMOOTH_BASIS + (
        lambda u: np.asarray(u, dtype=float) ** 2,
        lambda u: np.cos(2.0 * np.pi * np.asarray(u, dtype=float)))
    assert max(H.weak_form_residual(back, G, regime, kernel)
               for G in basis) < 5e-3


def test_rd_weak_form_of_the_reflected_boundary_data(thermo_identity):
    # alpha > beta reflects the profile: its residual against G is the
    # alpha < beta residual against G(1 - u), reaction term included
    G = H.compact_bump(modulation=lambda u: np.asarray(u, dtype=float) ** 2)
    regime = H.classify_regime(1.5, 0.0)
    kernel = KernelParams.create(1.5)
    residuals = []
    for (alpha, beta), test_fn in (((1.6, 0.4), G),
                                   ((0.4, 1.6), lambda u: G(1.0 - u))):
        prof = H.rho_extrapolated(
            make_params(1.5, 0.0, 2, alpha=alpha, beta=beta), regime,
            (512, 1024, 2048), thermo_identity)
        residuals.append(H.weak_form_residual(prof, test_fn, regime, kernel))
    assert residuals[0] == pytest.approx(residuals[1], abs=1e-10)


def test_rd_weak_form_residual(rd_profile):
    kp = KernelParams.create(1.5)
    reg = H.classify_regime(1.5, 0.0)
    basis = [H.compact_bump(), H.compact_bump(modulation=lambda u: 2 * u - 1)]
    for G in basis:
        assert H.weak_form_residual(rd_profile, G, reg, kp) < 5e-3


def test_weak_form_support_mismatch(rd_profile):
    kp = KernelParams.create(1.5)
    reg = H.classify_regime(1.5, 0.0)
    with pytest.raises(DomainError):
        H.weak_form_residual(rd_profile, lambda u: np.asarray(u, float),
                             reg, kp)


def test_explicit_ratio_reaction_balance(thermo_identity):
    # V0 = V1 rho kills the reaction term identically for the theta<0 profile
    params = make_params(1.5, -1.0, 2)
    reg = H.classify_regime(1.5, -1.0)
    prof = H.rho_closed_form(params, reg, thermo_identity)
    kp = KernelParams.create(1.5)
    val = H._reaction_pairing(prof.evaluate, H.compact_bump(), kp,
                              prof.alpha_tilde, prof.beta_tilde)
    assert abs(val) < 1e-12


def test_regime_continuity_toward_theta_zero(thermo_identity):
    # Dirichlet profiles approach the reaction-diffusion profile as theta -> 0+
    Nseq = (512, 1024, 2048)
    interior = np.linspace(0.2, 0.8, 13)
    rd = H.rho_extrapolated(make_params(1.5, 0.0, 2),
                            H.classify_regime(1.5, 0.0), Nseq,
                            thermo_identity, grid=interior)
    gaps = []
    for theta in (0.3, 0.15, 0.05):
        prof = H.rho_extrapolated(make_params(1.5, theta, 2),
                                  H.classify_regime(1.5, theta), Nseq,
                                  thermo_identity, grid=interior)
        gaps.append(float(np.max(np.abs(prof.rho - rd.rho))))
    assert gaps[2] < gaps[1] < gaps[0]


# -- hydrostatic averages -----------------------------------------------------------

def test_hydrostatic_average_flat_case(thermo_identity):
    params = make_params(1.5, 0.0, 256, alpha=0.9, beta=0.9)
    prof = solve_direct(assemble(params, thermo_identity))
    cont = H.rho_extrapolated(make_params(1.5, 0.0, 2, alpha=0.9, beta=0.9),
                              H.classify_regime(1.5, 0.0), (128, 256, 512),
                              thermo_identity)
    disc, contv, gap = H.hydrostatic_average(
        prof, cont, lambda u: np.ones_like(u), lambda phi, u: phi)
    assert gap < 1e-9


def test_hydrostatic_average_gap_shrinks(rd_profile, thermo_identity):
    G = lambda u: np.sin(np.pi * np.asarray(u, dtype=float))
    F = lambda phi, u: phi
    gaps = []
    for N in (256, 512, 1024):
        prof = solve_direct(assemble(make_params(1.5, 0.0, N),
                                     thermo_identity))
        gaps.append(H.hydrostatic_average(prof, rd_profile, G, F)[2])
    assert gaps[2] < gaps[1] < gaps[0]


def test_hydrostatic_mean_of_density(rd_profile, thermo_identity):
    # the hydrostatic limit statement with F(phi, u) = R(phi)
    params = make_params(1.5, 0.0, 1024)
    prof = solve_direct(assemble(params, thermo_identity))
    F = lambda phi, u: thermo_identity.mean_density_array(np.asarray(phi))
    disc, cont, gap = H.hydrostatic_average(
        prof, rd_profile, lambda u: np.ones_like(u), F)
    # identity g: mean density integrates to (alpha+beta)/2 = 1 by symmetry
    assert abs(disc - 1.0) < 1e-6
    assert gap < 1e-3
