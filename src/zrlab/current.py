"""Stationary particle current through every bond and its macroscopic
rescalings (fractional Fick's law).

Under the product stationary state the expected current through x - 1/2
is a linear functional of the fugacity profile; the same evaluator serves
the exclusion process with (density, boundary) = (phi_N/(phi_a+phi_b),
(a~, b~)), which makes the exact proportionality between the two currents
a one-line check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .hydrostatic import (ContinuumProfile, _fit_power_limit, lattices_for,
                          pchip)
from .kernel import KernelParams, continuum_rate
from .quadrature import geometric_edges, integrate_panels, panel_nodes
from .table import write_table
from .thermo import ThermoTables
from .traffic import FugacityProfile, ModelParams, TrafficSystem, fast_len


def _bond_currents_generic(d: np.ndarray, a: float, b: float,
                           system: TrafficSystem) -> np.ndarray:
    """E[W_x] for every bond x = 1..N, given site means ``d`` and
    reservoir levels ``a``, ``b``, in O(N log N).

    W_x = sum_{y<x<=z} p(z-y) (d_y - d_z) over the pairs with at least one
    end in 1..N-1; a pair with one end in a reservoir (d = a at y <= 0, b
    at z >= N) has weight kappa N^-theta.  With the kernel tail sums T[k] =
    sum_{j>=k} p(j), which are the reservoir rates (left[k-1] = T[k],
    right[y-1] = T[N-y]), the in-range part is

        sum_{y<x} d_y (T[x-y] - T[N-y]) - sum_{z>=x} d_z (T[z-x+1] - T[z]):

    one convolution and one correlation of d with T by real FFTs, plus
    cumulative sums.  T decays like k^-gamma, so the FFT rounds against
    bounded operands, not against the growing prefix sums of p.  W
    vanishes on constant data, so the callers pass the deviation from the
    midpoint level, d = psi and levels -+g, g = (phi_b - phi_a) / 2: psi
    is rounded once, in the solve, and not again in a subtraction here.
    """
    N = system.N
    tails, right = system.rates.left, system.rates.right
    scale = system.params.boundary_scale()
    L = fast_len(2 * N - 3)  # linear, not circular
    d_f = np.fft.rfft(d, n=L)
    t_f = np.fft.rfft(tails, n=L)
    # [x-2] for x = 2..N: sum_{y<x} d_y T[x-y]
    conv = np.fft.irfft(d_f * t_f, n=L)[:N - 1]
    # [x-1] for x = 1..N-1: sum_{z>=x} d_z T[z-x+1]
    corr = np.fft.irfft(d_f * np.conj(t_f), n=L)[:N - 1]
    # the y < x terms with T[N-y] and the z >= x terms with T[z], bulk
    # and reservoir together
    prefix = np.cumsum(right * ((scale - 1.0) * d - scale * b))
    suffix = np.cumsum((tails * ((1.0 - scale) * d + scale * a))[::-1])[::-1]
    W = np.zeros(N)
    W[1:] += conv + prefix
    W[:-1] += suffix - corr
    return W


def bond_currents(profile: FugacityProfile,
                  system: TrafficSystem) -> np.ndarray:
    """Zero-range expected currents E[W_x], x = 1..N."""
    g = 0.5 * (profile.phi_beta - profile.phi_alpha)
    return _bond_currents_generic(profile.deviation, -g, g, system)


def exclusion_bond_currents(profile: FugacityProfile,
                            system: TrafficSystem) -> np.ndarray:
    """Exclusion currents of the mapped profile psi / S, levels -+g / S."""
    S = profile.phi_alpha + profile.phi_beta
    g = 0.5 * (profile.phi_beta - profile.phi_alpha) / S
    return _bond_currents_generic(profile.deviation / S, -g, g, system)


@dataclass
class CurrentReport:
    per_x: np.ndarray            # E[W_x], x = 1..N
    rescaled: float              # E[W_1] / B_N(theta)
    gross_flux: Optional[float] = None  # sum R_N, set at equilibrium only

    def relative_spread(self) -> float:
        """The bond-to-bond range of W over |mean W|.  At equilibrium
        (phi_alpha = phi_beta) W vanishes exactly, so max |W| is measured
        against the gross boundary flux instead."""
        if self.gross_flux is not None:
            return float(np.max(np.abs(self.per_x)) / self.gross_flux)
        mean = float(np.mean(self.per_x))
        return float((self.per_x.max() - self.per_x.min()) / abs(mean))


def current_report(profile: FugacityProfile,
                   system: TrafficSystem) -> CurrentReport:
    per_x = bond_currents(profile, system)
    B = scaling_B(system.N, system.params.theta, system.params.gamma)
    gross = (float(system.rhs.sum())
             if profile.phi_alpha == profile.phi_beta else None)
    return CurrentReport(per_x=per_x, rescaled=float(per_x[0]) / B,
                         gross_flux=gross)


def scaling_B(N: int, theta: float, gamma: float) -> float:
    """Fick rescaling B_N: N^(1-gamma) for theta >= 0, N^(1-theta-gamma) else."""
    if N < 2:
        raise DomainError(f"N must be >= 2, got {N}")
    if theta >= 0.0:
        return float(N) ** (1.0 - gamma)
    return float(N) ** (1.0 - theta - gamma)


def h_theta_fn(u, gamma: float, theta: float, kappa: float,
               kernel: KernelParams):
    """Weight h_theta(u) pairing the density profile in the current limit;
    a float for a float, an array of the same shape for an array.

    At theta = 0 both indicator branches are active (the theta = 0 limit
    carries both the bulk and the reservoir contribution).
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr > 0.0) & (u_arr < 1.0)):
        raise DomainError(f"h_theta undefined at u={u}")
    c = kernel.c_gamma
    if gamma == 1.0:
        h = (c * (np.log(1.0 - u_arr) - np.log(u_arr)) if theta >= 0.0
             else np.zeros_like(u_arr))
    else:
        coef = 0.0
        if theta <= 0.0:
            coef += kappa / gamma
        if theta >= 0.0:
            coef += 1.0 / (1.0 - gamma)
        # np.power, not **: a 0-d operand would take the scalar pow, which
        # can differ from the array loop in the last bit
        h = c * coef * (np.power(1.0 - u_arr, 1.0 - gamma)
                        - np.power(u_arr, 1.0 - gamma))
    return float(h) if h.ndim == 0 else h


def fick_constant(alpha_tilde: float, beta_tilde: float, gamma: float,
                  theta: float, kappa: float, kernel: KernelParams) -> float:
    """Constant offset C(a~, b~, theta); zero for theta > 0."""
    if theta > 0.0:
        return 0.0
    return (kernel.c_gamma * kappa * (alpha_tilde - beta_tilde)
            / (gamma * (2.0 - gamma)))


def closed_form_limit_zr(phi_alpha: float, phi_beta: float, gamma: float,
                         kappa: float, kernel: KernelParams) -> float:
    """theta < 0 limit: kappa c g^-1 (phi_a - phi_b) int dv/(v^g+(1-v)^g)."""
    def integrand(v):
        return 1.0 / (v ** gamma + (1.0 - v) ** gamma)

    val = integrate_panels(integrand, np.linspace(0.0, 1.0, 33), n=12)
    return kappa * kernel.c_gamma / gamma * (phi_alpha - phi_beta) * val


def h_weighted_limit(profile: ContinuumProfile, gamma: float, theta: float,
                     kappa: float, kernel: KernelParams) -> float:
    """int h_theta(u) rho(u) du + C, in exclusion units.

    h_theta ~ u^(1-gamma) at the ends is integrable for gamma in (0,2);
    panels shrink geometrically toward both endpoints.
    """
    def integrand(us):
        return (h_theta_fn(us, gamma, theta, kappa, kernel)
                * profile.evaluate(us))

    edges = np.concatenate([
        np.geomspace(1e-12, 0.2, 30), np.linspace(0.2, 0.8, 13)[1:],
        1.0 - np.geomspace(0.2, 1e-12, 30)[1:]])
    edges = np.concatenate([[0.0], edges, [1.0]])
    val = integrate_panels(integrand, edges, n=12)
    return val + fick_constant(profile.alpha_tilde, profile.beta_tilde,
                               gamma, theta, kappa, kernel)


def _dense_rho(profile: ContinuumProfile) -> Callable:
    """Fast pchip evaluator built from the profile on a dense graded grid."""
    us = np.unique(np.concatenate([
        [0.0], np.geomspace(1e-8, 2e-3, 40),
        np.linspace(2e-3, 1.0 - 2e-3, 2001),
        1.0 - np.geomspace(2e-3, 1e-8, 40), [1.0]]))
    return pchip(us, profile.evaluate(us))


def _double_integral(rho_fast: Callable, u: float, gamma: float,
                     phi_sum: float, kernel: KernelParams) -> float:
    """c int_0^u dv int_u^1 dw (Phi m(v) - Phi m(w)) / (w-v)^(1+gamma).

    Substituting s = u-v, t = w-u and grading panels geometrically toward
    the corner s = t = 0, where the Lipschitz difference tames the kernel;
    the whole (s-nodes x t-nodes) product grid is one contraction.
    """
    s_min, nodes = 1e-12, 6        # innermost edge; nodes per panel
    s, s_w = (q.ravel() for q in panel_nodes(geometric_edges(s_min, u), nodes))
    t, t_w = (q.ravel()
              for q in panel_nodes(geometric_edges(s_min, 1.0 - u), nodes))
    diff = rho_fast(u - s)[:, None] - rho_fast(u + t)[None, :]
    ker = (s[:, None] + t[None, :]) ** (-(1.0 + gamma))
    return kernel.c_gamma * phi_sum * float(s_w @ (diff * ker) @ t_w)


def _reservoir_terms(rho_fast: Callable, u: float, kappa: float,
                     phi_alpha: float, phi_beta: float, phi_sum: float,
                     kernel: KernelParams) -> float:
    """kappa [int_u^1 (phi_a - Phi m(v)) r^-(v) dv
              - int_0^u (phi_b - Phi m(v)) r^+(v) dv]."""
    def left_part(v):
        return ((phi_alpha - phi_sum * rho_fast(v))
                * continuum_rate(kernel, v, "left"))

    def right_part(v):
        return ((phi_beta - phi_sum * rho_fast(v))
                * continuum_rate(kernel, v, "right"))

    lval = integrate_panels(left_part, np.linspace(u, 1.0, 25), n=12)
    rval = integrate_panels(right_part, np.linspace(0.0, u, 25), n=12)
    return kappa * (lval - rval)


@dataclass
class FickLimit:
    values: np.ndarray       # limit evaluated at each u (zero-range units)
    mean: float
    spread: float
    closed_form: Optional[float]    # theta < 0 only


FICK_CUTS = (0.2, 0.35, 0.5, 0.65, 0.8)     # where fick_limit cuts [0, 1]


def fick_limit(profile: ContinuumProfile, params: ModelParams) -> FickLimit:
    """Macroscopic current limit at the cut points ``FICK_CUTS``.

    theta < 0 uses the reservoir integrals (plus the closed form as a
    cross-check); theta = 0 adds the bulk double integral; theta > 0 keeps
    the double integral alone.  The result must be u-independent; the
    spread over the cut points is reported.
    """
    kernel = params.kernel_params()
    gamma, theta, kappa = params.gamma, params.theta, params.kappa
    phi_sum = profile.phi_sum
    phi_a = profile.alpha_tilde * phi_sum
    phi_b = profile.beta_tilde * phi_sum
    rho_fast = _dense_rho(profile)
    vals = []
    for u in FICK_CUTS:
        total = 0.0
        if theta <= 0.0:
            total += _reservoir_terms(rho_fast, u, kappa, phi_a, phi_b,
                                      phi_sum, kernel)
        if theta >= 0.0:
            total += _double_integral(rho_fast, u, gamma, phi_sum, kernel)
        vals.append(total)
    vals = np.array(vals)
    closed = None
    if theta < 0.0:
        closed = closed_form_limit_zr(phi_a, phi_b, gamma, kappa, kernel)
    return FickLimit(values=vals, mean=float(vals.mean()),
                     spread=float(vals.max() - vals.min()),
                     closed_form=closed)


@dataclass
class SweepResult:
    """Observable vs N records with the extrapolated limit."""

    N_values: tuple
    B_values: np.ndarray     # the Fick rescaling B_N of each N
    currents: np.ndarray
    rescaled: np.ndarray
    extrapolated: float
    err_estimate: float
    fallback: bool           # the fit fell back to the largest N's value
    closed_form: Optional[float]
    rel_err: Optional[float]

    def to_csv(self, path, header_lines) -> None:
        cf = "" if self.closed_form is None else float(self.closed_form)
        re_ = "" if self.rel_err is None else float(self.rel_err)
        rows = zip(self.N_values, self.B_values.tolist(),
                   self.currents.tolist(), self.rescaled.tolist())
        write_table(path, header_lines,
                    ("N", "B_N", "current", "rescaled", "extrapolated_limit",
                     "closed_form", "rel_err"),
                    [(*row, float(self.extrapolated), cf, re_)
                     for row in rows])


def fick_sweep(params_base: ModelParams, N_sequence: Sequence[int],
               thermo: ThermoTables,
               lattices: Optional[list[FugacityProfile]] = None
               ) -> SweepResult:
    """Rescaled current E[W_1]/B_N along N_sequence, Richardson limit, and
    the closed-form comparison when theta < 0.

    The lattices are those ``hydrostatic.lattices_for`` gives (solved here
    when None); the limit, its error and the fallback are
    ``_fit_power_limit``'s.
    """
    lattices = lattices_for(params_base, N_sequence, thermo, lattices)
    theta, gamma = params_base.theta, params_base.gamma
    currents = np.array([bond_currents(profile, profile.system)[0]
                         for profile in lattices])
    B_values = np.array([scaling_B(int(N), theta, gamma)
                         for N in N_sequence])
    rescaled_arr = currents / B_values
    limit, err, fallback = _fit_power_limit(rescaled_arr, N_sequence)
    closed = None
    rel = None
    if theta < 0.0:
        profile = lattices[-1]
        closed = closed_form_limit_zr(profile.phi_alpha, profile.phi_beta,
                                      gamma, params_base.kappa,
                                      params_base.kernel_params())
        if closed != 0.0:
            rel = abs(limit - closed) / abs(closed)
    return SweepResult(N_values=tuple(int(n) for n in N_sequence),
                       B_values=B_values, currents=currents,
                       rescaled=rescaled_arr, extrapolated=limit,
                       err_estimate=err, fallback=fallback,
                       closed_form=closed, rel_err=rel)
