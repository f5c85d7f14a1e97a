"""Continuum density profiles of the five (gamma, theta) regimes, with
convergence diagnostics for the discrete profile and weak-form residuals
of the limiting boundary-value problems.

Only two regimes have closed forms (the ratio V0/V1 for strong coupling,
a constant for vanishing coupling).  The reaction-diffusion, Dirichlet
and Robin profiles are produced by Richardson-extrapolating the exact
microscopic solution in N; the weak-form functionals then provide the
independent PDE-side verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .kernel import (KernelParams, first_moment_half,
                     regional_frac_laplacian, v_potentials, vectorized)
from .quadrature import integrate_panels
from .table import header_lines, read_table, write_table
from .thermo import ThermoTables
from .traffic import FugacityProfile, ModelParams, solve_lattices
from .traffic import solve_direct  # noqa: F401  (re-export)

EXPLICIT_RATIO = "ExplicitRatio"
REACTION_DIFFUSION = "ReactionDiffusion"
DIRICHLET = "Dirichlet"
ROBIN = "Robin"
NEUMANN = "Neumann"

EXTRAPOLATED_REGIMES = (REACTION_DIFFUSION, DIRICHLET, ROBIN)
BUMP_SUPPORT = (0.05, 0.95)     # where compact_bump is nonzero

# Decimal inputs on the Robin line miss it in binary floating point by about
# one ulp (fl(1.2) - 1 != fl(0.2)); |theta - (gamma - 1)| up to this counts
# as the tie.
ROBIN_TIE_TOL = 1e-12


@dataclass(frozen=True)
class Regime:
    tag: str
    kappa_hat: float


def classify_regime(gamma: float, theta: float, kappa: float = 1.0,
                    kernel: Optional[KernelParams] = None) -> Regime:
    """Map (gamma, theta) to the limiting boundary-value problem.

    Boundary ties: theta = 0 is an exact float comparison; theta = gamma - 1
    holds up to ROBIN_TIE_TOL on both sides, so the decimal pairs a user
    types on the Robin line land on it.  gamma = 1 belongs to the
    gamma <= 1 branch, so any theta > 0 there is Neumann, while
    (theta = 0, gamma = 1) is refused (the limit theorems exclude that
    point).
    """
    if not 0.0 < gamma < 2.0:
        raise DomainError(f"gamma must lie in (0,2), got {gamma}")
    if theta < 0.0:
        return Regime(EXPLICIT_RATIO, kappa)
    if theta == 0.0:
        if gamma == 1.0:
            raise DomainError(
                "the point theta=0, gamma=1 is outside the treated regimes")
        return Regime(REACTION_DIFFUSION, kappa)
    if gamma <= 1.0:
        return Regime(NEUMANN, 0.0)
    gap = theta - (gamma - 1.0)
    if gap < -ROBIN_TIE_TOL:
        return Regime(DIRICHLET, 0.0)
    if gap <= ROBIN_TIE_TOL:
        kernel = kernel or KernelParams.create(gamma)
        return Regime(ROBIN, kappa * first_moment_half(kernel))
    return Regime(NEUMANN, 0.0)


def tilde_densities(phi_alpha: float, phi_beta: float) -> tuple[float, float]:
    """Exclusion-side boundary densities; they always sum to 1."""
    s = phi_alpha + phi_beta
    return phi_alpha / s, phi_beta / s


def rho_explicit(u, regime: Regime, alpha_tilde: float, beta_tilde: float,
                 gamma: float):
    """Closed-form profiles: V0/V1 (ExplicitRatio) or the constant mean
    (Neumann).  The normalization constant cancels in both."""
    u_arr = np.asarray(u, dtype=float)
    if regime.tag == NEUMANN:
        out = np.full_like(u_arr, 0.5 * (alpha_tilde + beta_tilde))
    elif regime.tag == EXPLICIT_RATIO:
        out = np.empty_like(u_arr)
        lo = u_arr <= 0.5
        t = (u_arr[lo] / (1.0 - u_arr[lo])) ** gamma
        out[lo] = (alpha_tilde + beta_tilde * t) / (1.0 + t)
        s = ((1.0 - u_arr[~lo]) / u_arr[~lo]) ** gamma
        out[~lo] = (alpha_tilde * s + beta_tilde) / (s + 1.0)
    else:
        raise DomainError(f"no closed form for regime {regime.tag}")
    return float(out) if out.ndim == 0 else out


def _require_fit_scales(scales: Sequence) -> None:
    """A fit's scales (lattice sizes): three or more, strictly increasing."""
    if len(scales) < 3:
        raise DomainError(f"need at least 3 lattice sizes, got {len(scales)}")
    if any(b <= a for a, b in zip(scales[:-1], scales[1:])):
        raise DomainError(f"N must be strictly increasing, got {list(scales)}")


def lattices_for(params: ModelParams, N_values: Sequence[int],
                 thermo: ThermoTables,
                 lattices: Optional[list[FugacityProfile]]
                 ) -> list[FugacityProfile]:
    """The lattices of a Richardson fit: ``lattices``, refused unless they
    are ``params`` solved at each N of ``N_values`` in that order; when
    None, solved once the fit's rule accepts ``N_values``."""
    if lattices is None:
        _require_fit_scales(N_values)
        return solve_lattices(params, N_values, thermo)
    if [p.system.params for p in lattices] != [
            replace(params, N=int(N)) for N in N_values]:
        raise DomainError(f"lattices at N = {[p.system.N for p in lattices]}"
                          f" are not the model's at N = {list(N_values)}")
    return lattices


P_RANGE = (0.2, 2.0)    # the exponents a Richardson fit may take


def _exponent_by_newton(ratio: np.ndarray, a: float, b: float) -> np.ndarray:
    """The p in ``P_RANGE`` with f(p) = expm1(p a) / -expm1(-p b) = ratio,
    for a 1-D array of ratios that each have one there (f increases in
    p).  Newton on ln f(p) = ln(ratio) starts from ln(ratio) / ((a + b)/2),
    the root when a = b, and bisects the bracket where a step leaves it.
    Each element stops on its own, so a ratio's p does not depend on the
    other elements of the array."""
    target = np.log(ratio)
    p = np.clip(target / (0.5 * (a + b)), *P_RANGE)
    lo, hi = np.full_like(p, P_RANGE[0]), np.full_like(p, P_RANGE[1])
    out = np.empty_like(p)
    active = np.arange(len(p))
    for _ in range(60):         # a cap only: a few steps reach rounding
        g = (np.log(np.expm1(p * a)) - np.log(-np.expm1(-p * b))) - target
        step = g / (a / -np.expm1(-p * a) - b / np.expm1(p * b))
        lo, hi = np.where(g < 0.0, p, lo), np.where(g > 0.0, p, hi)
        new = p - step
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        # after a step this small the next would move p below an ulp
        done = np.abs(new - p) <= 1e-12 * p
        out[active[done]] = new[done]
        active, p, lo, hi, target = (v[~done] for v in (active, new, lo, hi,
                                                         target))
        if not len(active):
            break
    out[active] = p
    return out


def _fit_power_limit(vals: Sequence, scales: Sequence):
    """Extrapolate v_i = c0 + c1 * s_i^(-p) to s -> inf through the last
    three values, free p clamped, at scales ``_require_fit_scales``
    accepts.  Each value is a float or an array (one fit per element, each
    the fit of that element alone).  Returns (c0, err, warn) shaped like
    the values; warn marks a fallback to the last value.  err is how far c0
    moves when the largest scale is dropped, or with three values
    |c0 - v_last| (the larger last step on a fallback, the last if flat).

    With a = ln(s2/s1) and b = ln(s3/s2), p solves
    d1/d2 = f(p) = expm1(p a) / -expm1(-p b) (``_exponent_by_newton``);
    where f - d1/d2 keeps its sign on ``P_RANGE``, p is the end where
    |f - d1/d2| is smaller.
    """
    _require_fit_scales(scales)
    v1, v2, v3 = (np.asarray(v, dtype=float) for v in vals[-3:])
    s1, s2, s3 = (np.asarray(s, dtype=float) for s in scales[-3:])
    d1, d2 = v1 - v2, v2 - v3
    tiny = 1e-13 * np.maximum(1.0, np.abs(v3))
    flat = (np.abs(d1) < tiny) & (np.abs(d2) < tiny)
    warn = ~flat & ((d1 * d2 <= 0.0) | (np.abs(d2) >= np.abs(d1)))
    a, b = math.log(s2 / s1), math.log(s3 / s2)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d1 / d2
        m_lo, m_hi = (ratio - np.expm1(q * a) / -np.expm1(-q * b)
                      for q in P_RANGE)
        # where the mismatch keeps its sign on the range: the closer end
        no_root = m_lo * m_hi > 0.0
        p = np.where(np.abs(m_lo) < np.abs(m_hi), *P_RANGE)
        solve = np.flatnonzero(~(flat | warn | no_root))
        p.reshape(-1)[solve] = _exponent_by_newton(ratio.reshape(-1)[solve],
                                                   a, b)
        c1 = d2 / (s2 ** -p - s3 ** -p)
        c0 = v3 - c1 * s3 ** -p
    value = np.where(flat | warn, v3, c0)
    err = np.where(flat, np.abs(d2),
                   np.where(warn, np.maximum(np.abs(d1), np.abs(d2)),
                            np.abs(c0 - v3)))
    if len(vals) >= 4:
        prev, _, _ = _fit_power_limit(vals[-4:-1], scales[-4:-1])
        err = np.maximum(np.abs(value - prev), 1e-16)
    if value.ndim == 0:
        return float(value), float(err), bool(warn)
    return value, err, warn


class DiscreteProfileFamily:
    """The profiles ``traffic.solve_lattices`` returns across increasing
    N; rho(u) Richardson-extrapolates phi_N(uN) /
    (phi_alpha + phi_beta) with ``_fit_power_limit``."""

    def __init__(self, profiles: Sequence[FugacityProfile]):
        self.profiles = list(profiles)

    def rho_array(self, us):
        """(rho, err, warn) at every point of ``us``, shaped like ``us``.

        The lattice ratio interpolates linearly between adjacent sites:
        floor(uN) alone carries an O(1/N) jitter of pseudo-random sign
        (u - floor(uN)/N), the same order as the convergence term itself,
        which destabilizes the extrapolation in N; interpolating between
        the two neighbouring sites removes the jitter at O(1/N^2) cost.
        u = 0 and u = 1 read the edge sites alone.
        """
        vals, Ns = [], [prof.system.N for prof in self.profiles]
        for N, prof in zip(Ns, self.profiles):
            pos = np.asarray(us, dtype=float) * N
            x0 = np.clip(np.floor(pos), 1, N - 2).astype(int)
            w = np.clip(pos - x0, 0.0, 1.0)
            phi_sum = prof.phi_alpha + prof.phi_beta
            vals.append(((1.0 - w) * prof.values[x0 - 1]
                         + w * prof.values[x0]) / phi_sum)
        return _fit_power_limit(vals, Ns)


def default_grid(n: int = 257) -> np.ndarray:
    """Uniform interior grid; endpoints excluded (profiles may be
    non-differentiable there)."""
    return np.linspace(1.0 / 256.0, 255.0 / 256.0, n)


def _pchip_end_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point slope, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y) -> Callable:
    """The monotone piecewise-cubic Hermite interpolant of y at the nodes x
    (Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5, 1984; ends by
    Moler, Numerical Computing with MATLAB, 2004).

    The result maps u to a float for a float and to an array of u's shape
    otherwise.  u is clamped to [x[0], x[-1]] first, so the end values
    extend outward (to +-inf included); NaN stays NaN.  Every operation and
    its order follow the reference PCHIP that the tests compare against bit
    for bit, so the profiles and currents built on it keep their last
    digits."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or len(x) < 2 or y.shape != x.shape:
        raise DomainError(f"pchip needs x and y of one length >= 2, got "
                          f"shapes {x.shape} and {y.shape}")
    h = x[1:] - x[:-1]
    if not (np.isfinite(x).all() and np.isfinite(y).all() and (h > 0).all()):
        raise DomainError("pchip needs finite values at finite, strictly "
                          "increasing nodes")
    m = (y[1:] - y[:-1]) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        # interior: weighted harmonic mean of the adjacent secants, 0 at
        # a sign change or a flat secant
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = ((np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0)
                | (m[:-1] == 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(flat, 0.0,
                         1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d = np.concatenate(([_pchip_end_slope(h[0], h[1], m[0], m[1])], d,
                            [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]))
    t = (d[:-1] + d[1:] - 2 * m) / h
    # per interval: c0 s^3 + c1 s^2 + c2 s + c3, s = u - x[i]; the sum
    # starts from 0.0, as the reference's does (it turns y = -0.0 to +0.0)
    coef = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], 0.0 + y[:-1]), 1)

    def evaluate(u):
        u = np.clip(np.asarray(u, dtype=float), x[0], x[-1])
        i = np.clip(np.searchsorted(x, u, side="right") - 1, 0, len(h) - 1)
        c0, c1, c2, c3 = np.moveaxis(coef[i], -1, 0)
        s = u - x[i]
        s2 = s * s
        out = ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)
        return float(out) if out.ndim == 0 else out

    return evaluate


@dataclass
class ContinuumProfile:
    """Macroscopic profile rho(u) and the density profile m(u) built from it.

    ``evaluate`` is rho on all of [0, 1], ends included: a float for a
    float, an array of the same shape for an array.  On the grid it
    gives ``rho``."""

    grid: np.ndarray
    rho: np.ndarray
    m: np.ndarray
    regime: Regime
    provenance: str                    # closed_form | extrapolated
    err_estimate: np.ndarray
    warn: np.ndarray                   # the fit fell back at this point
    alpha_tilde: float
    beta_tilde: float
    phi_sum: float
    evaluate: Callable = field(repr=False)

    def boundary_values(self) -> tuple[float, float]:
        """rho(0), rho(1)."""
        r0, r1 = self.evaluate(np.array([0.0, 1.0]))
        return float(r0), float(r1)


def _continuum_from_values(grid, rho, err, warn, regime, provenance,
                           a_t, b_t, phi_sum, thermo, evaluate):
    phis = np.clip(phi_sum * rho, 0.0, None)
    m = thermo.mean_density_array(phis)
    return ContinuumProfile(grid=grid, rho=rho, m=m, regime=regime,
                            provenance=provenance, err_estimate=err,
                            warn=warn, alpha_tilde=a_t, beta_tilde=b_t,
                            phi_sum=phi_sum, evaluate=evaluate)


def rho_closed_form(params: ModelParams, regime: Regime,
                    thermo: ThermoTables,
                    grid: Optional[np.ndarray] = None) -> ContinuumProfile:
    grid = default_grid() if grid is None else grid
    phi_a, phi_b = params.boundary_fugacities(thermo)
    a_t, b_t = tilde_densities(phi_a, phi_b)
    rho = rho_explicit(grid, regime, a_t, b_t, params.gamma)
    return _continuum_from_values(
        grid, rho, np.zeros_like(grid), np.zeros(len(grid), dtype=bool),
        regime, "closed_form", a_t, b_t, phi_a + phi_b, thermo,
        lambda u: rho_explicit(u, regime, a_t, b_t, params.gamma))


def rho_extrapolated(params_base: ModelParams, regime: Regime,
                     N_sequence: Sequence[int], thermo: ThermoTables,
                     grid: Optional[np.ndarray] = None,
                     lattices: Optional[list[FugacityProfile]] = None
                     ) -> ContinuumProfile:
    """Large-N limit of phi_N / (phi_alpha + phi_beta) on the grid, from
    the lattices ``lattices_for`` gives (solved here when None)."""
    if regime.tag not in EXTRAPOLATED_REGIMES:
        raise DomainError(
            f"regime {regime.tag} has a closed form; use rho_closed_form")
    grid = default_grid() if grid is None else grid
    family = DiscreteProfileFamily(
        lattices_for(params_base, N_sequence, thermo, lattices))
    rho, err, warn = family.rho_array(grid)
    last = family.profiles[-1]
    a_t, b_t = tilde_densities(last.phi_alpha, last.phi_beta)
    return _continuum_from_values(grid, rho, err, warn, regime,
                                  "extrapolated", a_t, b_t,
                                  last.phi_alpha + last.phi_beta, thermo,
                                  lambda us: family.rho_array(us)[0])


# -- weak formulations ----------------------------------------------------

def compact_bump(modulation: Optional[Callable] = None) -> Callable:
    """Smooth test function supported in [a, b] = ``BUMP_SUPPORT``
    (exp(-1/((u-a)(b-u))), normalized to peak 1, optionally modulated)."""
    a, b = BUMP_SUPPORT
    peak = math.exp(-1.0 / ((0.5 * (b - a)) ** 2))

    def G(u):
        u_arr = np.asarray(u, dtype=float)
        inside = (u_arr > a) & (u_arr < b)
        out = np.zeros_like(u_arr)
        prod = (u_arr[inside] - a) * (b - u_arr[inside])
        out[inside] = np.exp(-1.0 / prod) / peak
        if modulation is not None:
            out = out * modulation(u_arr)
        return out

    return G


def _laplacian_pairing(rho_at: Callable, G: Callable, kernel: KernelParams,
                       level: int = 1) -> float:
    """<rho, L G> over [0,1]; endpoint panels follow the u^(1-gamma)
    growth of L G via exponential substitution."""
    gam = kernel.gamma
    n_nodes = 8 + 2 * level

    def integrand(us):
        return rho_at(us) * regional_frac_laplacian(kernel, G, us)

    a = 0.25
    total = integrate_panels(integrand, np.linspace(a, 1.0 - a, 4 * level + 1),
                             n=n_nodes)
    # Exponential substitution u = a e^(-y) toward 0 (row 0) and
    # u = 1 - a e^(-y) toward 1 (row 1).  The span is capped so u stays
    # representably inside (0,1); the remaining sliver [0, t0) is added
    # analytically from the leading u^(1-gamma) growth of L G.
    y_span = math.log(a / 1e-13)
    edges = np.linspace(0.0, y_span, int(math.ceil(y_span / 3.0)) + 1)
    origin, sign = np.array([0.0, 1.0]), np.array([1.0, -1.0])

    def sub(y, row):
        t = a * np.exp(-y)
        return integrand(origin[row] + sign[row] * t) * t

    ends = integrate_panels(sub, np.stack([edges, edges]), n=n_nodes)
    t0 = a * math.exp(-y_span)
    sliver = integrand(np.array([t0, 1.0 - t0])) * t0 / (2.0 - gam)
    return float(total + ends[0] + sliver[0] + ends[1] + sliver[1])


def _reaction_pairing(rho_at: Callable, G: Callable, kernel: KernelParams,
                      a_t: float, b_t: float, level: int = 1) -> float:
    """<G, V0> - <rho, G V1>, for test functions vanishing at the ends."""
    gv = vectorized(G)

    def integrand(us):
        g = gv(us)
        out = np.zeros_like(us)
        idx = g != 0.0
        if np.any(idx):
            u = us[idx]
            v0, v1 = v_potentials(kernel, u, a_t, b_t)
            out[idx] = g[idx] * (v0 - rho_at(u) * v1)
        return out

    edges = np.linspace(0.0, 1.0, 32 * level + 1)
    return integrate_panels(integrand, edges, n=6 + 2 * level)


def weak_form_residual(profile: ContinuumProfile, G: Callable, regime: Regime,
                       kernel: KernelParams, level: int = 1) -> float:
    """|F(rho, G)| for the regime's weak formulation.

    RD/Dirichlet require test functions supported inside (0,1); Robin and
    Neumann accept arbitrary smooth G and add/omit the boundary term.
    ``level`` refines the quadrature (panels and nodes).
    """
    if regime.tag in (REACTION_DIFFUSION, DIRICHLET):
        gv = vectorized(G)
        ends = gv(np.array([0.0, 1.0]))
        if np.max(np.abs(ends)) > 1e-12:
            raise DomainError(
                f"{regime.tag} weak form needs test functions supported "
                "inside (0,1)")
    pairing = _laplacian_pairing(profile.evaluate, G, kernel, level)
    if regime.tag == DIRICHLET or regime.tag == NEUMANN:
        return abs(pairing)
    if regime.tag == REACTION_DIFFUSION:
        reaction = _reaction_pairing(profile.evaluate, G, kernel,
                                     profile.alpha_tilde, profile.beta_tilde,
                                     level)
        return abs(pairing + regime.kappa_hat * reaction)
    if regime.tag == ROBIN:
        # Boundary term enters with +kappa_hat: the stationarity identity
        # 0 = <rho, L G> + kappa_hat [G(0)(a~-rho(0)) + G(1)(b~-rho(1))]
        # fixes the sign (the Robin functional is sometimes quoted with the
        # opposite one, which no profile satisfies).
        gv = vectorized(G)
        r0, r1 = profile.boundary_values()
        g0 = float(gv(np.array([0.0]))[0])
        g1 = float(gv(np.array([1.0]))[0])
        boundary = (g0 * (profile.alpha_tilde - r0)
                    + g1 * (profile.beta_tilde - r1))
        return abs(pairing + regime.kappa_hat * boundary)
    raise DomainError(f"no weak form for regime {regime.tag}")


def hydrostatic_average(discrete: FugacityProfile, continuum: ContinuumProfile,
                        G: Callable, F: Callable) -> tuple[float, float, float]:
    """Discrete average (1/#Lambda_N) sum G(x/N) F(phi_N(x), x/N), its
    continuum counterpart int G(u) F(phi_sum rho(u), u) du, and their gap.

    F must be Lipschitz in its first argument on the fugacity range.
    """
    gv = vectorized(G)
    N = discrete.system.N
    xs = np.arange(1, N, dtype=float) / N
    disc = float(np.mean(gv(xs) * F(discrete.values, xs)))

    def integrand(us):
        return gv(us) * F(continuum.phi_sum * continuum.evaluate(us), us)

    edges = np.concatenate([
        np.geomspace(1e-12, 0.1, 24), np.linspace(0.1, 0.9, 33)[1:],
        1.0 - np.geomspace(0.1, 1e-12, 24)[1:]])
    cont = integrate_panels(integrand, np.concatenate([[0.0], edges, [1.0]]),
                            n=10)
    return disc, cont, abs(disc - cont)


# -- serialization ---------------------------------------------------------

_CSV_COLUMNS = ["u", "rho", "m", "err_estimate", "fallback"]


def write_continuum_csv(profile: ContinuumProfile, path) -> None:
    """The grid values plus what the grid cannot carry: rho at both ends
    and the points where the fit fell back, so the file reads back as the
    same profile."""
    r0, r1 = profile.boundary_values()
    header = {"regime": profile.regime.tag,
              "kappa_hat": profile.regime.kappa_hat,
              "provenance": profile.provenance,
              "alpha_tilde": profile.alpha_tilde,
              "beta_tilde": profile.beta_tilde, "phi_sum": profile.phi_sum,
              "rho_boundary_left": r0, "rho_boundary_right": r1}
    write_table(path, header_lines(header), _CSV_COLUMNS,
                zip(profile.grid.tolist(), profile.rho.tolist(),
                    profile.m.tolist(), profile.err_estimate.tolist(),
                    profile.warn.astype(int).tolist()))


def read_continuum_csv(path) -> ContinuumProfile:
    """The profile ``write_continuum_csv`` wrote; between the grid points
    and the ends, rho is the monotone (PCHIP) interpolant of the values."""
    header, columns, rows = read_table(path)
    if columns != _CSV_COLUMNS or not {
            "rho_boundary_left", "rho_boundary_right"} <= header.keys():
        raise DomainError(
            f"{path} lacks the edge values or the fallback column of a "
            "continuum profile; write it again")
    if not rows:
        raise DomainError(f"{path} has a continuum profile header but no "
                          "grid rows")
    data = np.array([[float(v) for v in row] for row in rows])
    grid, rho = data[:, 0], data[:, 1]
    r0 = float(header["rho_boundary_left"])
    r1 = float(header["rho_boundary_right"])
    evaluate = pchip(np.concatenate([[0.0], grid, [1.0]]),
                     np.concatenate([[r0], rho, [r1]]))
    return ContinuumProfile(
        grid=grid, rho=rho, m=data[:, 2],
        regime=Regime(header["regime"], float(header["kappa_hat"])),
        provenance=header["provenance"], err_estimate=data[:, 3],
        warn=data[:, 4] != 0.0, alpha_tilde=float(header["alpha_tilde"]),
        beta_tilde=float(header["beta_tilde"]),
        phi_sum=float(header["phi_sum"]), evaluate=evaluate)
