"""Site-wise fugacity balance of the boundary-driven dynamics.

The stationary product measure is characterized by the traffic equation
(D_N - P_N) phi_N = R_N, a strictly diagonally dominant symmetric linear
system: P_N is the Toeplitz matrix of in-range jump probabilities, D_N
adds the reservoir coupling kappa N^(-theta)(r^+ + r^-), and R_N carries
the reservoir fugacities.  A dense LU path covers desk-scale N; large N
uses conjugate gradients with an FFT Toeplitz matvec; ``solve`` is the one
place that chooses between them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import scipy.fft
import scipy.linalg

from .errors import ConvergenceError, DomainError
from .kernel import KernelParams, ReservoirRates, jump_prob, reservoir_rates
from .thermo import RateFunction, ThermoTables

# Largest N solved by dense LU; conjugate gradients take every larger N.
LU_LIMIT = 4096


@dataclass(frozen=True)
class ModelParams:
    """Full parameter tuple consumed by every computation.

    alpha, beta are reservoir densities in (0, m*).  When the boundary is
    specified in fugacity variables (phi_alpha/phi_beta), those values are
    used verbatim and alpha, beta hold the corresponding densities.
    """

    gamma: float
    theta: float
    kappa: float
    alpha: float
    beta: float
    N: int
    rate: RateFunction
    normalization_mode: str = "normalized"
    phi_alpha: Optional[float] = None
    phi_beta: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.gamma < 2.0:
            raise DomainError(f"gamma must lie in (0,2), got {self.gamma}")
        if self.kappa < 0.0:
            # kappa = 0 is allowed only for the conservative simulator
            # limit; the stationary solve requires kappa > 0
            raise DomainError(f"kappa must be >= 0, got {self.kappa}")
        if self.N < 2:
            raise DomainError(f"N must be >= 2, got N={self.N}")
        if (self.phi_alpha is None) != (self.phi_beta is None):
            raise DomainError("specify both boundary fugacities or neither")

    @classmethod
    def from_fugacities(cls, gamma, theta, kappa, phi_alpha, phi_beta, N,
                        rate, normalization_mode="normalized",
                        thermo: Optional[ThermoTables] = None):
        """Boundary data given as fugacities; densities filled in via R."""
        thermo = thermo or ThermoTables.create(rate)
        return cls(gamma=gamma, theta=theta, kappa=kappa,
                   alpha=thermo.mean_density(phi_alpha),
                   beta=thermo.mean_density(phi_beta),
                   N=N, rate=rate, normalization_mode=normalization_mode,
                   phi_alpha=phi_alpha, phi_beta=phi_beta)

    def kernel_params(self) -> KernelParams:
        return KernelParams.create(self.gamma, self.normalization_mode)

    def make_thermo(self) -> ThermoTables:
        return ThermoTables.create(self.rate)

    def validate(self, thermo: ThermoTables) -> None:
        if self.phi_alpha is not None:
            for phi in (self.phi_alpha, self.phi_beta):
                if not 0.0 < phi <= thermo.phi_max():
                    raise DomainError(
                        f"boundary fugacity {phi} outside (0, {thermo.phi_max():g}]")
            return
        for dens in (self.alpha, self.beta):
            if not 0.0 < dens < thermo.m_star:
                raise DomainError(
                    f"reservoir density {dens} outside (0, m*={thermo.m_star:g})")

    def boundary_fugacities(self, thermo: ThermoTables) -> tuple[float, float]:
        if self.phi_alpha is not None:
            return self.phi_alpha, self.phi_beta
        return thermo.fugacity(self.alpha), thermo.fugacity(self.beta)

    def boundary_scale(self) -> float:
        """kappa N^(-theta), the prefactor of the reservoir generators."""
        return self.kappa * float(self.N) ** (-self.theta)

    def time_scale(self) -> float:
        """Theta(N) = N^gamma (theta >= 0) or N^(gamma+theta) (theta < 0).

        Stationary observables never depend on it; reported only.
        """
        expo = self.gamma if self.theta >= 0.0 else self.gamma + self.theta
        return float(self.N) ** expo

    def as_dict(self) -> dict:
        d = {
            "gamma": self.gamma, "theta": self.theta, "kappa": self.kappa,
            "alpha": self.alpha, "beta": self.beta, "N": self.N,
            "rate": self.rate.kind, "normalization": self.normalization_mode,
        }
        if self.phi_alpha is not None:
            d["phi_alpha"] = self.phi_alpha
            d["phi_beta"] = self.phi_beta
        return d


class _ToeplitzOperator:
    """Symmetric Toeplitz matvec via circulant embedding and FFT."""

    def __init__(self, first_col: np.ndarray):
        self.n = len(first_col)
        L = scipy.fft.next_fast_len(2 * self.n)
        embed = np.zeros(L)
        embed[:self.n] = first_col
        embed[L - self.n + 1:] = first_col[1:][::-1]
        self._fft = scipy.fft.rfft(embed)
        self._L = L

    def apply(self, v: np.ndarray) -> np.ndarray:
        vf = scipy.fft.rfft(v, n=self._L)
        return scipy.fft.irfft(vf * self._fft, n=self._L)[:self.n]


@dataclass
class TrafficSystem:
    """Assembled linear system (D - P) phi = R on Lambda_N."""

    diag: np.ndarray
    kernel_row: np.ndarray
    rhs: np.ndarray
    N: int
    params: ModelParams
    phi_alpha: float
    phi_beta: float
    rates: ReservoirRates
    _toeplitz: Optional[_ToeplitzOperator] = field(default=None, repr=False)

    def toeplitz_apply(self, v: np.ndarray) -> np.ndarray:
        if self._toeplitz is None:
            self._toeplitz = _ToeplitzOperator(self.kernel_row)
        return self._toeplitz.apply(v)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.diag * v - self.toeplitz_apply(v)

    def dominance_margin(self) -> np.ndarray:
        """diag minus off-diagonal row mass: kappa N^-theta (r^+ + r^-) > 0."""
        return self.params.boundary_scale() * (self.rates.left + self.rates.right)


@dataclass
class FugacityProfile:
    """Solution phi_N of the traffic equation; determines the product NESS."""

    values: np.ndarray
    params: ModelParams
    phi_alpha: float
    phi_beta: float
    residual_norm: float
    method: str
    cg_history: Optional[np.ndarray] = None
    iterates: Optional[list] = None     # CG iterates, when recorded

    def phi_at(self, x: int) -> float:
        return float(self.values[x - 1])

    def symmetry_gap(self) -> float:
        """max_x |phi(x) + phi(N-x) - (phi_alpha + phi_beta)|."""
        s = self.values + self.values[::-1]
        return float(np.max(np.abs(s - (self.phi_alpha + self.phi_beta))))

    def within_bounds(self, slack: float = 0.0) -> bool:
        lo = min(self.phi_alpha, self.phi_beta)
        hi = max(self.phi_alpha, self.phi_beta)
        return bool(self.values.min() >= lo - slack
                    and self.values.max() <= hi + slack)


def assemble(params: ModelParams, thermo: Optional[ThermoTables] = None,
             kernel: Optional[KernelParams] = None) -> TrafficSystem:
    """Build diag, kernel row and right-hand side for the given parameters."""
    if params.kappa <= 0.0:
        raise DomainError("the stationary solve needs kappa > 0 "
                          "(diagonal dominance margin)")
    thermo = thermo or params.make_thermo()
    params.validate(thermo)
    kernel = kernel or params.kernel_params()
    rr = reservoir_rates(kernel, params.N)
    phi_a, phi_b = params.boundary_fugacities(thermo)
    scale = params.boundary_scale()
    in_range = rr.in_range_mass()
    diag = in_range + scale * (rr.left + rr.right)
    rhs = scale * (phi_b * rr.right + phi_a * rr.left)
    kernel_row = np.asarray(jump_prob(kernel, np.arange(0, params.N - 1)))
    return TrafficSystem(diag=diag, kernel_row=kernel_row, rhs=rhs,
                         N=params.N, params=params,
                         phi_alpha=phi_a, phi_beta=phi_b, rates=rr)


def residual(system: TrafficSystem, values: np.ndarray) -> float:
    """Max-norm residual of (D-P) v = R."""
    v = values.values if isinstance(values, FugacityProfile) else values
    if len(v) != system.N - 1:
        raise DomainError("profile length does not match the system")
    return float(np.max(np.abs(system.matvec(v) - system.rhs)))


def _residual_extended(system: TrafficSystem, x: np.ndarray) -> np.ndarray:
    """rhs - (D-P) x with the matvec accumulated in extended precision.

    Feeds iterative refinement: the boundary coupling kappa N^-theta can be
    ~1e-8 at theta ~ 1, so plain double-precision forward error would leave
    the symmetry identity at only ~1e-10.
    """
    n = system.N - 1
    row = system.kernel_row.astype(np.longdouble)
    sym = np.concatenate([row[::-1], row[1:]])          # p(|i-j|) band
    x_ld = x.astype(np.longdouble)
    conv = np.convolve(sym, x_ld)[n - 1:2 * n - 1]
    ax = system.diag.astype(np.longdouble) * x_ld - conv
    return (system.rhs.astype(np.longdouble) - ax).astype(float)


def solve_direct(system: TrafficSystem,
                 cap: int = LU_LIMIT) -> FugacityProfile:
    """Dense LU with partial pivoting plus mixed-precision refinement;
    residual < 1e-11 ||R||_inf and forward error near machine precision."""
    if system.N > cap:
        raise DomainError(
            f"N={system.N} exceeds the direct-solver cap {cap}; "
            "use solve_iterative")
    A = scipy.linalg.toeplitz(-system.kernel_row)
    idx = np.arange(system.N - 1)
    A[idx, idx] += system.diag
    lu, piv = scipy.linalg.lu_factor(A, overwrite_a=True, check_finite=False)
    phi = scipy.linalg.lu_solve((lu, piv), system.rhs, check_finite=False)
    for _ in range(3):
        r = _residual_extended(system, phi)
        if np.max(np.abs(r)) < 1e-18 * max(1.0, float(np.max(np.abs(phi)))):
            break
        phi = phi + scipy.linalg.lu_solve((lu, piv), r, check_finite=False)
    phi = _symmetrize(system, phi)
    res = residual(system, phi)
    return FugacityProfile(values=phi, params=system.params,
                           phi_alpha=system.phi_alpha,
                           phi_beta=system.phi_beta,
                           residual_norm=res, method="direct")


def _symmetrize(system: TrafficSystem, phi: np.ndarray) -> np.ndarray:
    """Restore the exact reflection identity phi(x) + phi(N-x) = phi_a+phi_b.

    The system is persymmetric, so the identity is an exact invariant; the
    float-assembled system violates it by O(eps/margin) along the near-null
    direction, which at theta ~ 1 can reach ~1e-10.  The correction lives
    in that near-null direction and moves the residual by only ~eps.  Both
    halves of the average stay inside [phi_a, phi_b] because the bounds sum
    to phi_a + phi_b.
    """
    return 0.5 * (phi + (system.phi_alpha + system.phi_beta) - phi[::-1])


def _initial_guess(system: TrafficSystem) -> np.ndarray:
    x = np.arange(1, system.N, dtype=float) / system.N
    return system.phi_alpha + (system.phi_beta - system.phi_alpha) * x


def solve_iterative(system: TrafficSystem, tol: Optional[float] = None,
                    max_iter: int = 200_000, x0: Optional[np.ndarray] = None,
                    record_iterates: bool = False) -> FugacityProfile:
    """Conjugate gradients on the SPD matrix D - P (FFT Toeplitz matvec).

    The recorded history holds max-norm residuals per iteration (for
    failure reports); ``record_iterates`` additionally keeps every iterate
    so the monotone decay of the error energy norm can be checked against
    a reference solution.
    """
    b = system.rhs
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(b))))
    x = _initial_guess(system) if x0 is None else x0.astype(float).copy()
    history = []
    iterates = [x.copy()] if record_iterates else None
    iterations = 0
    for _sweep in range(4):
        r = b - system.matvec(x)
        history.append(float(np.max(np.abs(r))))
        if history[-1] < tol:
            break
        p = r.copy()
        rs = float(r @ r)
        while iterations < max_iter:
            Ap = system.matvec(p)
            denom = float(p @ Ap)
            if denom <= 0.0:
                break
            a = rs / denom
            x += a * p
            r -= a * Ap
            iterations += 1
            history.append(float(np.max(np.abs(r))))
            if record_iterates:
                iterates.append(x.copy())
            if history[-1] < tol:
                break
            rs_new = float(r @ r)
            p = r + (rs_new / rs) * p
            rs = rs_new
        # recompute the true residual; restart if the recurrence drifted
        if residual(system, x) < tol:
            break
        if iterations >= max_iter:
            raise ConvergenceError(
                f"conjugate gradients stalled at residual "
                f"{residual(system, x):g} (tol {tol:g})",
                history=np.array(history))
    else:
        raise ConvergenceError(
            f"conjugate gradients did not reach tol={tol:g} after "
            f"{iterations} iterations (last residual {history[-1]:g})",
            history=np.array(history))
    x = _symmetrize(system, x)
    res = residual(system, x)
    return FugacityProfile(values=x, params=system.params,
                           phi_alpha=system.phi_alpha,
                           phi_beta=system.phi_beta,
                           residual_norm=res, method="iterative",
                           cg_history=np.array(history), iterates=iterates)


def solve(system: TrafficSystem,
          tol: Optional[float] = None) -> FugacityProfile:
    """phi_N by dense LU for N <= LU_LIMIT, by conjugate gradients above;
    ``tol`` bounds the max-norm CG residual (default 1e-12 max(1, ||R||))."""
    if system.N <= LU_LIMIT:
        return solve_direct(system)
    return solve_iterative(system, tol=tol)


def solve_lattices(params: ModelParams, N_values: Sequence[int],
                   thermo: Optional[ThermoTables] = None,
                   tol: Optional[float] = None
                   ) -> list[tuple[TrafficSystem, FugacityProfile]]:
    """Assemble and solve each lattice size once; the systems differ from
    ``params`` only in N."""
    thermo = thermo or params.make_thermo()
    kernel = params.kernel_params()
    solved = []
    for N in N_values:
        system = assemble(dataclasses.replace(params, N=int(N)), thermo,
                          kernel)
        solved.append((system, solve(system, tol)))
    return solved


def density_profile(profile: FugacityProfile,
                    thermo: ThermoTables) -> np.ndarray:
    """m_N[x] = R(phi_N[x]) site-wise."""
    return thermo.mean_density_array(profile.values)


def write_profile_csv(profile: FugacityProfile, thermo: ThermoTables,
                      path) -> None:
    """Profile dump: x, x/N, phi, m with a parameter header block."""
    m = density_profile(profile, thermo)
    lines = [f"# {k} = {v}" for k, v in profile.params.as_dict().items()]
    lines.append(f"# phi_alpha = {profile.phi_alpha!r}")
    lines.append(f"# phi_beta = {profile.phi_beta!r}")
    lines.append(f"# residual = {profile.residual_norm!r}")
    lines.append(f"# method = {profile.method}")
    lines.append("x,x_over_N,phi,m")
    N = profile.params.N
    for i, (phi, dens) in enumerate(zip(profile.values, m), start=1):
        lines.append(f"{i},{i / N!r},{float(phi)!r},{float(dens)!r}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")
