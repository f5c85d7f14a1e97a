import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from zrlab.current import current_report
from zrlab.errors import ConvergenceError, DomainError
from zrlab.kernel import riemann_zeta
from zrlab import traffic
from zrlab.thermo import RateFunction, ThermoTables
from zrlab.traffic import (EPS, ModelParams, assemble, fast_len, residual,
                           solve_direct, solve_iterative, solve_lattices,
                           write_profile_csv)

from conftest import make_params


def test_model_params_validation(thermo_identity):
    with pytest.raises(DomainError):
        make_params(2.5, 0.0, 64)
    with pytest.raises(DomainError):
        make_params(1.0, 0.0, 1)
    with pytest.raises(DomainError):
        make_params(1.0, 0.0, 64, kappa=-1.0)
    for theta, kappa in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                         (0.0, math.inf)):
        with pytest.raises(DomainError):
            make_params(1.0, theta, 64, kappa=kappa)
    with pytest.raises(DomainError):
        make_params(1.0, 0.0, 64, alpha=-0.5).boundary_fugacities(
            thermo_identity)
    # alpha > beta is allowed (bounds use the sorted pair)
    make_params(1.0, 0.0, 64, alpha=1.6, beta=0.4).boundary_fugacities(
        thermo_identity)


def test_assemble_refuses_tables_of_another_rate(thermo_identity,
                                                 thermo_indicator):
    # the indicator tables would turn alpha = 0.4, beta = 1.6 into the
    # fugacities 0.2857, 0.6154 instead of the identity rate's 0.4, 1.6
    params = make_params(1.5, 0.0, 64)
    with pytest.raises(DomainError, match="do not match"):
        assemble(params, thermo_indicator)
    system = assemble(params, thermo_identity)
    assert (system.phi_alpha, system.phi_beta) == pytest.approx((0.4, 1.6))


def test_kappa_zero_assembled_but_not_solved(thermo_identity):
    # kappa = 0 is the simulator's conservative limit: no reservoir input,
    # and no stationary profile for either solver to find
    system = assemble(make_params(1.0, 0.0, 32, kappa=0.0), thermo_identity)
    assert np.all(system.rhs == 0.0)
    nan = assemble(make_params(1.0, 0.0, 32, kappa=math.nan), thermo_identity)
    for solve in (solve_direct, solve_iterative):
        for refused in (system, nan):
            with pytest.raises(DomainError, match="needs kappa > 0"):
                solve(refused)


def test_time_scale():
    assert make_params(1.5, 0.5, 16).time_scale() == 16.0 ** 1.5
    assert make_params(1.5, -0.5, 16).time_scale() == 16.0


def test_dominance_margin_positive(thermo_identity):
    # diag minus the dense off-diagonal row sums of P is positive on every
    # row, and it is the reservoir margin dominance_margin() reports
    for gamma, theta in ((1.5, 0.0), (0.5, -1.0), (1.9, 1.0), (0.3, 0.5),
                         (1.0, 2.0)):
        system = assemble(make_params(gamma, theta, 256), thermo_identity)
        P = scipy.linalg.toeplitz(system.kernel_row)
        np.fill_diagonal(P, 0.0)
        excess = system.diag - P.sum(axis=1)
        assert np.all(excess > 0.0)
        assert np.max(np.abs(excess - system.dominance_margin())
                      / system.diag) < 1e-14


def test_hand_solved_two_site_system(thermo_identity):
    # N=3, gamma=1, theta=0, kappa=1, identity g: two unknowns by hand
    params = make_params(1.0, 0.0, 3, alpha=0.5, beta=1.5)
    system = assemble(params, thermo_identity)
    c = 1.0 / (2.0 * riemann_zeta(2.0))
    z2 = riemann_zeta(2.0)
    left1, left2 = c * z2, c * (z2 - 1.0)
    rhs1 = 1.5 * left2 + 0.5 * left1
    rhs2 = 1.5 * left1 + 0.5 * left2
    # diag = in-range mass + (l+r) = total kernel mass = 1 at theta=0, kappa=1
    assert np.allclose(system.diag, 1.0, atol=1e-14)
    assert np.allclose(system.rhs, [rhs1, rhs2], atol=1e-14)
    # 2x2 elimination: [[1,-c],[-c,1]] phi = rhs
    det = 1.0 - c * c
    expected = np.array([(rhs1 + c * rhs2) / det, (rhs2 + c * rhs1) / det])
    for solve in (solve_direct, solve_iterative):
        prof = solve(system)
        assert np.allclose(prof.values, expected, atol=1e-14)


def test_direct_residual_bounds_symmetry(thermo_identity):
    for gamma, theta in ((0.5, -1.0), (1.5, 0.0), (1.9, 1.0)):
        params = make_params(gamma, theta, 256)
        system = assemble(params, thermo_identity)
        prof = solve_direct(system)
        scale = max(1.0, float(np.max(np.abs(system.rhs))))
        assert prof.residual_norm < 1e-11 * scale
        assert prof.within_bounds()
        assert prof.symmetry_gap() < 1e-10
        # N even: midpoint value follows from the symmetry identity
        assert abs(prof.phi_at(128)
                   - 0.5 * (prof.phi_alpha + prof.phi_beta)) < 1e-10


def test_constant_solution_when_boundaries_match(thermo_identity):
    params = make_params(1.2, 0.7, 128, alpha=0.7, beta=0.7)
    prof = solve_direct(assemble(params, thermo_identity))
    assert np.max(np.abs(prof.values - prof.phi_alpha)) < 1e-12


def test_stationarity_witness(solved_256):
    # residual of the assembled system IS E[L_N xi(x)] = 0 reconstructed
    system, prof = solved_256
    assert residual(system, prof.values) < 1e-11


def test_iterative_matches_direct(thermo_identity):
    params = make_params(1.5, 0.0, 512)
    system = assemble(params, thermo_identity)
    d = solve_direct(system)
    it = solve_iterative(system)
    assert np.max(np.abs(d.values - it.values)) < 1e-9


def test_iterative_constant_case_immediate(thermo_identity):
    params = make_params(1.5, 0.0, 128, alpha=0.9, beta=0.9)
    system = assemble(params, thermo_identity)
    prof = solve_iterative(system)
    # linear initial guess equals the constant solution: <= 2 iterations
    assert len(prof.cg_history) <= 2
    assert prof.residual_norm < 1e-12


def test_iterative_error_energy_norm_monotone(thermo_identity):
    # CG hands the preconditioner every residual it works with; the error
    # e = A^-1 r of each has the energy norm ||e||_A = sqrt(r^T A^-1 r)
    for gamma, theta, N in ((1.2, -0.5, 128), (1.5, 0.0, 256),
                            (1.9, 1.0, 512)):
        system = assemble(make_params(gamma, theta, N), thermo_identity)
        residuals = []
        preconditioner = system.preconditioner

        def recording():
            apply = preconditioner()

            def recorded(r):
                residuals.append(r.copy())
                return apply(r)

            return recorded

        system.preconditioner = recording
        solve_iterative(system)
        A = scipy.linalg.toeplitz(-system.kernel_row)
        A[np.arange(N - 1), np.arange(N - 1)] += system.diag
        errors = scipy.linalg.solve(A, np.array(residuals).T, assume_a="pos")
        energies = np.sqrt(np.einsum("ij,ij->j", np.array(residuals).T,
                                     errors))
        # strictly decreasing until the rounding floor
        significant = energies[:-1] > 1e-12
        assert significant.any()
        assert np.all(np.diff(energies)[significant] < 0.0), (gamma, theta)


def test_iterative_nonconvergence_reports_history(thermo_identity,
                                                  monkeypatch):
    params = make_params(1.5, 0.0, 256)
    system = assemble(params, thermo_identity)
    monkeypatch.setattr(traffic, "MAX_CG_ITERATIONS", 3)
    with pytest.raises(ConvergenceError) as err:
        solve_iterative(system)
    assert err.value.history is not None
    assert len(err.value.history) >= 3


@pytest.mark.parametrize("theta,kappa,N", [
    (6.0, 1.0, 512), (8.0, 1.0, 64), (0.0, 1e-18, 512), (0.0, 1e-18, 1024),
    (0.0, 1e-18, 2048)])
def test_margin_lost_in_rounding_solves(theta, kappa, N, thermo_identity):
    # kappa N^-theta below half an ulp of the kernel's row mass rounds the
    # reflective spectrum's mu_0 to 0; the deviation w is antisymmetric and
    # does not excite that mode, so both solvers answer and the answer
    # passes the maximum principle, reflection symmetry and bond
    # independence
    system = assemble(make_params(1.5, theta, N, kappa=kappa),
                      thermo_identity)
    assert system.reflective_spectrum().min() <= 0.0
    for solve in (solve_direct, solve_iterative):
        prof = solve(system)
        assert prof.within_bounds()
        assert prof.symmetry_gap() <= 1e-12
        assert current_report(prof, system).relative_spread() < 1e-10


def _mp_deviation(system, dps=30):
    """w solving (q + c - P) w = g (r^+ - r^-) in ``dps``-digit arithmetic
    from the float data q (in-range mass), p, r^-+ and kappa N^-theta, with
    the margin c = kappa N^-theta (r^+ + r^-) kept apart from q; then its
    antisymmetric part.  The float q = 2 T_1 - T_x - T_(N-x) is
    persymmetric only to an ulp, and against a small c that ulp lends the
    exact solution a symmetric part (3.7e-13 of max |w| at (1.2, 3, 64),
    3.3e-12 at (0.8, 3, 64)) that psi, antisymmetric by construction, does
    not carry."""
    n = system.N - 1
    rr = system.rates
    with mpmath.workdps(dps):
        scale = mpmath.mpf(system.params.boundary_scale())
        g = (mpmath.mpf(system.phi_beta) - mpmath.mpf(system.phi_alpha)) / 2
        left = [mpmath.mpf(v) for v in rr.left]
        right = [mpmath.mpf(v) for v in rr.right]
        q = [mpmath.mpf(v) for v in rr.in_range_mass()]
        p = [mpmath.mpf(v) for v in system.kernel_row]
        A = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                A[i, j] = -p[abs(i - j)]
            A[i, i] += q[i] + scale * (left[i] + right[i])
        b = mpmath.matrix([g * (right[i] - left[i]) for i in range(n)])
        w = mpmath.lu_solve(A, b)
        return np.array([float((w[i] - w[n - 1 - i]) / 2) for i in range(n)])


@pytest.mark.parametrize("gamma,theta,kappa", [
    (1.5, 8.0, 1.0), (1.2, 3.0, 1.0), (1.9, 1.0, 1.0), (0.5, -1.0, 1.0),
    (1.5, 0.0, 1e-18)])
def test_deviation_matches_extended_precision(gamma, theta, kappa,
                                              thermo_identity):
    # the float-assembled system's w, solved in 30 digits with the margin
    # kept apart, against both solvers' w = psi / (kappa N^-theta): 3.3e-15
    # at (1.5, 8) and 9.9e-15 at (1.9, 1) (iterative), numpy 2.4.6, x86-64
    system = assemble(make_params(gamma, theta, 64, kappa=kappa),
                      thermo_identity)
    ref = _mp_deviation(system)
    scale = system.params.boundary_scale()
    for solve in (solve_direct, solve_iterative):
        w = solve(system).deviation / scale
        assert np.max(np.abs(w - ref)) <= 2e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("gamma", (0.3, 0.8, 1.2, 1.5, 1.9))
@pytest.mark.parametrize("theta", (-2.0, -1.5, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0,
                                   3.0, 5.0))
def test_invariants_over_the_regime_map(gamma, theta, thermo_identity):
    # every regime, deep into the Neumann side, with reservoirs weak to
    # strong: the iterative solve converges and keeps the maximum
    # principle, reflection symmetry and bond independence
    for kappa, N in itertools.product((1e-3, 1.0, 1e3), (64, 512, 2048)):
        system = assemble(make_params(gamma, theta, N, kappa=kappa),
                          thermo_identity)
        prof = solve_iterative(system)
        assert prof.within_bounds(), (kappa, N)
        assert prof.symmetry_gap() <= 1e-12, (kappa, N)
        assert current_report(prof, system).relative_spread() < 1e-10, (
            kappa, N)


def test_residual_cases(thermo_identity):
    params = make_params(1.5, 0.0, 64)
    system = assemble(params, thermo_identity)
    prof = solve_direct(system)
    assert residual(system, prof.values) < 1e-13
    bumped = prof.values.copy()
    bumped[10] += 1e-3
    margin = system.dominance_margin()[10]
    assert residual(system, bumped) >= margin * 1e-3 * 0.999
    zero = np.zeros_like(prof.values)
    assert residual(system, zero) == pytest.approx(
        float(np.max(np.abs(system.rhs))))
    with pytest.raises(DomainError):
        residual(system, np.zeros(10))


def test_density_profile(thermo_identity, thermo_figure3):
    flat = make_params(1.5, 0.0, 64, alpha=0.7, beta=0.7)
    prof = solve_direct(assemble(flat, thermo_identity))
    dens = thermo_identity.mean_density_array(prof.values)
    assert np.max(np.abs(dens - 0.7)) < 1e-12

    # figure-3 rate with fugacity boundary data: midpoint density identity
    params = ModelParams.from_fugacities(1.5, 0.0, 1.0, 0.2, 0.8, 64,
                                         RateFunction.figure3(),
                                         thermo=thermo_figure3)
    prof3 = solve_direct(assemble(params, thermo_figure3))
    dens3 = thermo_figure3.mean_density_array(prof3.values)
    assert abs(dens3[31] - thermo_figure3.mean_density(0.5)) < 1e-10

    # monotone in x for alpha < beta at theta = 0 (observed regression)
    mono = make_params(1.5, 0.0, 128)
    densm = thermo_identity.mean_density_array(
        solve_direct(assemble(mono, thermo_identity)).values)
    assert np.all(np.diff(densm) > 0.0)


@given(st.floats(min_value=0.3, max_value=1.95),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.25, max_value=4.0),
       st.integers(min_value=2, max_value=400))
@settings(max_examples=20, deadline=None)
def test_bounds_and_symmetry_property(gamma, theta, kappa, N):
    thermo = ThermoTables.create(RateFunction.identity())
    system = assemble(make_params(gamma, theta, N, kappa=kappa), thermo)
    # both cores of the preconditioner are positive definite
    assert system.preconditioner_spectrum().min() > 0.0
    assert system.reflective_spectrum().min() > 0.0
    a_norm = float(np.max(2.0 * system.diag - system.dominance_margin()))
    profiles = [solve(system) for solve in (solve_direct, solve_iterative)]
    for prof in profiles:
        assert prof.within_bounds(slack=1e-13)
        assert prof.symmetry_gap() < 1e-11
        # backward error: a few roundings of eps (||A|| ||phi|| + ||R||)
        floor = EPS * (a_norm * float(np.max(np.abs(prof.values)))
                       + float(np.max(np.abs(system.rhs))))
        assert prof.residual_norm <= 8.0 * floor
        assert current_report(prof, system).relative_spread() < 1e-10
    direct, iterative = profiles
    # the solver's own stopping measure: the same, row-weighted by f
    f = system.weight()
    weighted_floor = EPS * (
        float(np.max(f * (2.0 * system.diag - system.dominance_margin())))
        * float(np.max(np.abs(iterative.values)))
        + float(np.max(f * np.abs(system.rhs))))
    r = system.matvec(iterative.values) - system.rhs
    assert float(np.max(f * np.abs(r))) <= 8.0 * weighted_floor
    assert np.max(np.abs(iterative.values - direct.values)) < 1e-9


def _dense_dct(m: int) -> np.ndarray:
    """The orthonormal DCT-II of length m as a matrix Q."""
    return scipy.fft.dct(np.eye(m), norm="ortho", axis=0)


@pytest.mark.parametrize("N", (2, 3, 16, 17, 45, 64, 65, 100, 126, 257))
def test_preconditioner_is_spd(N, thermo_identity):
    # M^-1 = W [core^-1]_n W + diag((1 - f^2) / D) is SPD at padded and
    # unpadded lengths, odd and even.  The reflective core (gamma > 1,
    # kappa N^-theta <= 1) is checked against Q^T diag(1 / mu) Q built
    # densely at every length, a principal block where m = fast_len(n) > n
    # (N = 45, 100); the circulant where n = N - 1 is itself a fast length,
    # T. Chan's length-n inverse.  kappa = 4 at theta = 0 turns the Jacobi
    # blend on (kappa N^-theta > 1), as theta = -1 does
    n = N - 1
    cases = [(*gt, 1.0) for gt in itertools.product((0.3, 1.8),
                                                    (-1.0, 0.0, 1.0))]
    cases += [(gamma, 0.0, 4.0) for gamma in (0.3, 1.8)]
    for gamma, theta, kappa in cases:
        system = assemble(make_params(gamma, theta, N, kappa=kappa),
                          thermo_identity)
        precondition = system.preconditioner()
        M_inv = np.column_stack([precondition(e) for e in np.eye(n)])
        scale = float(np.max(np.abs(M_inv)))
        assert np.max(np.abs(M_inv - M_inv.T)) <= 8.0 * EPS * scale
        assert np.linalg.eigvalsh(M_inv).min() > 0.0
        d = system.diag[n // 2]
        f = system.weight()
        w = f * np.sqrt(d / system.diag)
        if gamma > 1.0 and kappa * N ** -theta <= 1.0:
            mu = system.reflective_spectrum()
            assert mu.min() > 0.0
            Q = _dense_dct(len(mu))
            core = ((Q.T / mu) @ Q)[:n, :n]
        elif scipy.fft.next_fast_len(n, real=True) == n:
            t = system.kernel_row
            k = np.arange(n)
            c = ((n - k) * t + k * np.concatenate(([0.0], t[:0:-1]))) / n
            core = np.linalg.inv(d * np.eye(n) - scipy.linalg.circulant(c))
        else:
            continue
        M_inv_ref = (w[:, None] * core * w
                     + np.diag((1.0 - f * f) / system.diag))
        assert np.max(np.abs(M_inv - M_inv_ref)) <= 1e-13 * scale


@pytest.mark.parametrize("n", (1, 2, 5, 16, 45, 64, 99, 125, 256))
def test_reflective_spectrum_diagonalises_the_folded_kernel(
        n, thermo_identity):
    # mu are the eigenvalues of (lambda_0 + margin_mid) I - K for the
    # Toeplitz-plus-Hankel K of the zero-padded kernel row, and Q, the
    # orthonormal DCT-II, holds its eigenvectors
    system = assemble(make_params(1.5, 0.5, n + 1), thermo_identity)
    mu = system.reflective_spectrum()
    m = len(mu)
    assert m == fast_len(n)
    t = np.concatenate((system.kernel_row, np.zeros(2 * m)))
    i = np.arange(m)
    K = (t[np.abs(i[:, None] - i)] + t[i[:, None] + i + 1]
         + t[np.abs(2 * m - 1 - i[:, None] - i)])
    top = K.sum(axis=1)
    assert np.max(np.abs(top - top[0])) <= 1e-14 * top[0]
    core = (top[0] + system.dominance_margin()[n // 2]) * np.eye(m) - K
    Q = _dense_dct(m)
    assert np.max(np.abs(Q @ core @ Q.T - np.diag(mu))) <= 1e-14 * mu.max()


@pytest.mark.parametrize("m", (5, 6, 7, 15, 16, 45, 63, 64))
def test_fused_reflection_equals_the_dense_dct(m):
    # one permuted rfft / irfft pair against Q^T diag(s) Q, on the full
    # length and on principal blocks (the zero-padded lattice)
    rng = np.random.default_rng(m)
    s = rng.uniform(0.5, 3.0, m)
    Q = _dense_dct(m)
    dense = (Q.T * s) @ Q
    for n in sorted({m, m - 1, m - 4, (m + 1) // 2}):
        apply = traffic._padded_reflection(s, n)
        fused = np.column_stack([apply(e) for e in np.eye(n)])
        assert np.max(np.abs(fused - dense[:n, :n])) <= 5e-15 * s.max()


@pytest.mark.parametrize("gamma", (0.5, 1.5))
@pytest.mark.parametrize("theta, kappa, N", (
    (0.0, 1.0, 64), (0.0, 1.0, 4096), (0.2, 1.0, 64), (0.2, 1.0, 4096),
    (1.0, 1.0, 64), (1.0, 1.0, 4096), (-0.5, 0.01, 64)))
def test_preconditioner_unblended_where_reservoirs_are_weak(
        gamma, theta, kappa, N, thermo_identity):
    # kappa N^-theta <= 1: the weight is exactly 1 and the preconditioner is
    # the Jacobi-scaled core bit for bit, as the Jacobi term is exactly
    # zero: T. Chan's circulant at gamma <= 1 and the reflective core,
    # evens-then-odds-reversed through one FFT pair, at gamma > 1.  At
    # (1.5, 0, 4096) D is flat only to an ulp, and min(1, d / D) would fall
    # below 1 on thousands of sites
    system = assemble(make_params(gamma, theta, N, kappa=kappa),
                      thermo_identity)
    assert np.all(system.weight() == 1.0)
    n = N - 1
    L = fast_len(n)
    s_inv = np.sqrt(system.diag[n // 2] / system.diag)
    precondition = system.preconditioner()
    if gamma > 1.0:
        inverse = 1.0 / system.reflective_spectrum()
        h = L // 2 + 1
        b = np.concatenate((inverse[:1], inverse[:0:-1]))
        alpha = 0.5 * (inverse + b)[:h]
        beta = 0.5 * (inverse - b)[:h] * np.exp(1j * np.pi * np.arange(h) / L)

        def core(u):
            x = np.concatenate((u, np.zeros(L - n)))
            V = np.fft.rfft(np.concatenate((x[0::2], x[1::2][::-1])))
            out = np.fft.irfft(alpha * V + beta * V.conj(), n=L)
            y = np.empty(L)
            y[0::2] = out[:(L + 1) // 2]
            y[1::2] = out[::-1][:L // 2]
            return y[:n]
    else:
        spectrum = 1.0 / system.preconditioner_spectrum()

        def core(u):
            return np.fft.irfft(np.fft.rfft(u, n=L) * spectrum, n=L)[:n]
    rng = np.random.default_rng(N)
    for _ in range(3):
        v = rng.standard_normal(n)
        assert np.array_equal(precondition(v), s_inv * core(s_inv * v))


def test_fast_len_is_scipys():
    assert all(fast_len(n) == scipy.fft.next_fast_len(n, real=True)
               for n in range(1, 2 ** 17 + 1))


@pytest.mark.parametrize("dtype", (np.float64, np.longdouble))
@pytest.mark.parametrize("n", (100, 1023, 4097, 8191, 65536))
def test_numpy_fft_equals_scipys(dtype, n):
    # the solver's transforms, in both precisions it runs them in: numpy
    # keeps long double (it cast to double before numpy 2) and rounds as
    # scipy does
    v = np.random.default_rng(n).standard_normal(n).astype(dtype)
    L = fast_len(2 * n - 1)
    f = np.fft.rfft(v, n=L)
    assert f.dtype == scipy.fft.rfft(v, n=L).dtype == np.result_type(
        dtype, np.complex64)
    assert np.array_equal(f, scipy.fft.rfft(v, n=L))
    back = np.fft.irfft(f, n=L)
    assert back.dtype == dtype
    assert np.array_equal(back, scipy.fft.irfft(f, n=L))


def test_circulant_row_sum_below_middle_mass(thermo_identity):
    # the bound behind the preconditioner's positivity holds without the
    # reservoir margin, at every padded length of small lattices
    for gamma, N in itertools.product((0.05, 1.0, 1.95), range(2, 130)):
        system = assemble(make_params(gamma, 1.0, N), thermo_identity)
        d = system.diag[(N - 1) // 2]
        margin = system.dominance_margin()[(N - 1) // 2]
        assert system.preconditioner_spectrum().min() - margin > -4 * EPS * d


@pytest.mark.parametrize("rate, theta, recorded", (("identity", 0.5, 31),
                                                   ("figure3", -1.0, 44)))
def test_cg_work_at_prime_length(rate, theta, recorded):
    # N - 1 = 8191 is prime, the length the preconditioner is padded from;
    # the theta = 0.5 count was recorded with the padded reflective core
    # and the floor-level restart break (numpy 2.4.6, x86-64; 50 with the
    # unpadded length-(N - 1) circulant), the theta = -1 count with the
    # padded circulant blended into Jacobi and the weighted floor
    rate = getattr(RateFunction, rate)()
    thermo = ThermoTables.create(rate)
    params = ModelParams.from_fugacities(1.5, theta, 1.0, 0.2, 0.8, 8192,
                                         rate, thermo=thermo)
    prof = solve_iterative(assemble(params, thermo))
    assert len(prof.cg_history) <= 1.05 * recorded


def _refined_reference(system):
    """Dense LU refined with long-double residuals: the float-assembled
    system's solution, in long double."""
    n = system.N - 1
    idx = np.arange(n)
    A = -system.kernel_row[np.abs(idx[:, None] - idx)]
    A[idx, idx] += system.diag
    lu = scipy.linalg.lu_factor(A)
    ref = scipy.linalg.lu_solve(lu, system.rhs).astype(np.longdouble)
    for _ in range(3):
        r = system.rhs - A.astype(np.longdouble) @ ref
        ref += scipy.linalg.lu_solve(lu, r.astype(float))
    return ref


def _fugacity_system(gamma, theta, rate, N):
    rate = getattr(RateFunction, rate)()
    thermo = ThermoTables.create(rate)
    return assemble(ModelParams.from_fugacities(gamma, theta, 1.0, 0.2, 0.8,
                                                N, rate, thermo=thermo),
                    thermo)


@pytest.mark.parametrize("gamma, rate", ((1.5, "figure3"), (1.9, "identity")))
def test_forward_error_at_negative_theta(gamma, rate):
    # against dense LU refined with long-double residuals, max_x of
    # |phi - phi_ref| / phi_ref; the Jacobi-scaled circulant and the
    # unweighted floor left 4.5e-14 (figure3) and 9.1e-14 (identity)
    system = _fugacity_system(gamma, -1.0, rate, 1024)
    ref = _refined_reference(system)
    phi = solve_iterative(system).values
    assert float(np.max(np.abs(phi - ref) / ref)) < 2e-14


@pytest.mark.parametrize("gamma, theta", ((1.8, 0.0), (1.5, 0.5)))
def test_forward_error_at_nonnegative_theta(gamma, theta):
    # the same measure, against the reference made reflection-symmetric as
    # the solvers' profiles are: at theta >= 0 the float-assembled system
    # breaks the identity by ~1e-12 along its near-null direction, which
    # the unsymmetrized reference carries.  The circulant left 2.1e-14 at
    # (1.8, 0); the reflective core 1.5e-14 and 1.6e-15
    system = _fugacity_system(gamma, theta, "identity", 1024)
    ref = _refined_reference(system)
    ref = 0.5 * (ref + (np.longdouble(system.phi_alpha) + system.phi_beta)
                 - ref[::-1])
    phi = solve_iterative(system).values
    assert float(np.max(np.abs(phi - ref) / ref)) < 2e-14


@pytest.mark.parametrize("gamma, theta, N", (
    (0.5, -0.5, 1024), (0.5, 0.0, 1024), (1.5, 0.0, 256), (1.9, 0.0, 1024),
    (1.5, -0.5, 1024)))
def test_no_restart_repeats_a_residual(gamma, theta, N, thermo_identity):
    # a sweep whose restart residual is already at the floor takes no CG
    # step, so the solve stops there instead of recomputing the same
    # long-double residual at the same iterate
    system = assemble(make_params(gamma, theta, N), thermo_identity)
    restarts = []
    matvec = system.matvec

    def recording(v):
        if v.dtype == np.longdouble:
            restarts.append(v.astype(float))
        return matvec(v)

    system.matvec = recording
    history = solve_iterative(system).cg_history
    assert len(restarts) >= 2
    assert not any(np.array_equal(a, b)
                   for a, b in zip(restarts, restarts[1:]))
    assert np.all(np.diff(history) != 0.0)


@pytest.mark.parametrize("gamma, theta, Ns", (
    (1.5, 0.0, (1024, 2048, 4096)), (1.5, 0.5, (512, 1024, 2048)),
    (0.5, -0.5, (1024, 2048, 4096)), (1.9, 1.0, (2048, 1024, 4096))))
def test_each_lattice_solves_its_own_system_only(gamma, theta, Ns,
                                                 thermo_identity):
    # a lattice's profile is that of its system alone, bit for bit: the
    # other sizes of the N list, and their order, do not enter it
    base = make_params(gamma, theta, 2)
    listed = solve_lattices(base, Ns, thermo_identity)
    assert [profile.system.N for profile in listed] == list(Ns)
    for N, profile in zip(Ns, listed):
        alone = solve_iterative(assemble(dataclasses.replace(base, N=N),
                                         thermo_identity))
        assert np.array_equal(profile.values, alone.values)


def test_profile_csv(tmp_path, solved_256, thermo_identity):
    _, prof = solved_256
    path = tmp_path / "profile.csv"
    write_profile_csv(prof, thermo_identity, path)
    lines = path.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("gamma = 1.5" in l for l in header)
    cols = [l for l in lines if not l.startswith("#")]
    assert cols[0] == "x,x_over_N,phi,m"
    assert len(cols) == 256  # header row + 255 sites
    first = cols[1].split(",")
    assert first[0] == "1"
    assert float(first[2]) == prof.phi_at(1)
