"""Site-wise fugacity balance of the boundary-driven dynamics.

The stationary product measure is characterized by the traffic equation
(D_N - P_N) phi_N = R_N, a strictly diagonally dominant symmetric linear
system: P_N is the Toeplitz matrix of in-range jump probabilities, D_N
adds the reservoir coupling c = kappa N^(-theta)(r^+ + r^-), the row sums
of D_N - P_N, and R_N carries the reservoir fugacities.  The system is
persymmetric, so phi_N = (phi_a + phi_b) / 2 + psi, psi antisymmetric.
The solvers find w = psi / (kappa N^(-theta)) from (D_N - P_N) w =
a(phi_b r^+ + phi_a r^-), a(u) = (u - u[::-1]) / 2: phi_N in double
carries psi only to a relative error eps |phi_N| / |psi|, and currents
are sums of differences of psi.  Each lattice is solved by conjugate
gradients with an FFT Toeplitz matvec, under a Jacobi-scaled
preconditioner zero-padded to a fast FFT length; dense LU is kept as the
reference solution.  Where gamma > 1 and kappa N^(-theta) <= 1 its core is
the kernel folded with reflecting ends, which the DCT-II diagonalises (Ng,
Chan & Tang, SIAM J. Sci. Comput. 21, 1999), applied through one real FFT
pair (Makhoul, IEEE Trans. ASSP 28, 1980); elsewhere it is T. Chan's
optimal circulant (SIAM J. Sci. Stat. Comput. 9, 1988).  That choice is
measured, not proven: summed over N = 512-2048 the circulant takes fewer
CG steps at (gamma, theta) = (0.8, 2), (0.5, 0) and (1.5, -0.5), as many
at (1.5, -1) with N = 32768, but more at (1.9, -0.2), N = 4096-16384 (132
against the reflective core's 76).  Where kappa N^(-theta) > 1 the
reservoirs dominate the edge rows, and a weight per site hands the
preconditioner over to Jacobi there and scales the residual and rounding
floor CG stops at.  Each lattice's solve reads its own system only.

``assemble`` also serves kappa = 0, the conservative limit that the Monte
Carlo chains read their rates from (rhs = 0); the system is then singular,
so both solvers refuse kappa <= 0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .kernel import KernelParams, ReservoirRates, jump_prob, reservoir_rates
from .table import header_lines, write_table
from .thermo import RateFunction, ThermoTables

EPS = float(np.finfo(float).eps)
MAX_CG_ITERATIONS = 200_000    # CG steps solve_iterative may spend in all


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
    phi_alpha: Optional[float] = None
    phi_beta: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.gamma < 2.0:
            raise DomainError(f"gamma must lie in (0,2), got {self.gamma}")
        if not math.isfinite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta}")
        if self.kappa < 0.0 or math.isinf(self.kappa):
            # kappa = 0 serves only the conservative chains; the stationary
            # solve refuses it, and NaN, in _deviation_rhs
            raise DomainError(f"kappa must be finite and >= 0, got "
                              f"{self.kappa}")
        if self.N < 2:
            raise DomainError(f"N must be >= 2, got N={self.N}")
        if (self.phi_alpha is None) != (self.phi_beta is None):
            raise DomainError("specify both boundary fugacities or neither")

    @classmethod
    def from_fugacities(cls, gamma, theta, kappa, phi_alpha, phi_beta, N,
                        rate, *, thermo: ThermoTables):
        """Boundary data given as fugacities; densities filled in via R."""
        return cls(gamma=gamma, theta=theta, kappa=kappa,
                   alpha=thermo.mean_density(phi_alpha),
                   beta=thermo.mean_density(phi_beta),
                   N=N, rate=rate, phi_alpha=phi_alpha, phi_beta=phi_beta)

    def kernel_params(self) -> KernelParams:
        return KernelParams.create(self.gamma)

    def boundary_fugacities(self, thermo: ThermoTables) -> tuple[float, float]:
        """(phi_alpha, phi_beta), checked against the tables of the run's
        rate: the one place the boundary data meets the thermodynamics."""
        if thermo.rate != self.rate:
            raise DomainError(f"thermodynamic tables of rate "
                              f"{thermo.rate.kind!r} do not match the model's "
                              f"rate {self.rate.kind!r}")
        if self.phi_alpha is not None:
            for phi in (self.phi_alpha, self.phi_beta):
                if not 0.0 < phi <= thermo.phi_max():
                    raise DomainError(
                        f"boundary fugacity {phi} outside (0, {thermo.phi_max():g}]")
            return self.phi_alpha, self.phi_beta
        for dens in (self.alpha, self.beta):
            if not 0.0 < dens < thermo.m_star:
                raise DomainError(
                    f"reservoir density {dens} outside (0, m*={thermo.m_star:g})")
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
        return {
            "gamma": self.gamma, "theta": self.theta, "kappa": self.kappa,
            "alpha": self.alpha, "beta": self.beta, "N": self.N,
            "rate": self.rate.kind, "phi_alpha": self.phi_alpha,
            "phi_beta": self.phi_beta,
        }


def fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length at which a real FFT is fast."""
    # each 3^b 5^c below the best so far, times the least power of two
    # that lifts it to n
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _padded_circulant(spectrum: np.ndarray,
                      length: int) -> Callable[[np.ndarray], np.ndarray]:
    """v -> the first len(v) entries of C [v; 0], for the circulant C of
    size ``length`` with real-FFT eigenvalues ``spectrum``."""
    return lambda v: np.fft.irfft(np.fft.rfft(v, n=length) * spectrum,
                                  n=length)[:len(v)]


def _padded_reflection(inverse: np.ndarray,
                       n: int) -> Callable[[np.ndarray], np.ndarray]:
    """v -> the first n entries of Q^T diag(inverse) Q [v; 0], Q the
    orthonormal DCT-II of length m = len(inverse), in one real FFT pair.

    Makhoul's DCT (IEEE Trans. ASSP 28, 1980) reads Q x off the FFT V of x
    reordered evens first, odds reversed, as Re(e^(-i pi k / 2m) V_k); his
    inverse transforms e^(i pi k / 2m) (Y_k - i Y_(m-k)) back.  Fused,
    with a_k = inverse_k and b_k = inverse_(m-k) (b_0 = a_0), the spectrum
    in between is (a + b) / 2 V + (a - b) / 2 e^(i pi k / m) conj(V), which
    is Hermitian, so one rfft and one irfft do the whole product."""
    m = len(inverse)
    h = m // 2 + 1
    b = np.concatenate((inverse[:1], inverse[:0:-1]))
    alpha = 0.5 * (inverse + b)[:h]
    beta = 0.5 * (inverse - b)[:h] * np.exp(1j * np.pi * np.arange(h) / m)
    pad = np.zeros(m - n)
    evens = (n + 1) // 2

    def apply(v):
        V = np.fft.rfft(np.concatenate((v[0::2], pad, v[1::2][::-1])))
        out = np.fft.irfft(alpha * V + beta * V.conj(), n=m)
        y = np.empty(n)
        y[0::2] = out[:evens]
        y[1::2] = out[::-1][:n // 2]
        return y

    return apply


@dataclass
class TrafficSystem:
    """Assembled linear system (D - P) phi = R on Lambda_N."""

    diag: np.ndarray
    kernel_row: np.ndarray
    rhs: np.ndarray
    params: ModelParams
    phi_alpha: float
    phi_beta: float
    rates: ReservoirRates
    _toeplitz: dict = field(default_factory=dict, repr=False)
    N = property(lambda self: self.params.N)

    def toeplitz_apply(self, v: np.ndarray) -> np.ndarray:
        """P v in the precision of v (double, or long double)."""
        if v.dtype not in self._toeplitz:
            t = self.kernel_row.astype(v.dtype)
            L = fast_len(2 * len(t) - 1)  # no wrap
            col = np.concatenate((t, np.zeros(L + 1 - 2 * len(t)), t[:0:-1]))
            self._toeplitz[v.dtype] = _padded_circulant(np.fft.rfft(col), L)
        return self._toeplitz[v.dtype](v)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.diag * v - self.toeplitz_apply(v)

    def dominance_margin(self) -> np.ndarray:
        """diag minus off-diagonal row mass: kappa N^-theta (r^+ + r^-) > 0."""
        return self.params.boundary_scale() * (self.rates.left + self.rates.right)

    def preconditioner_spectrum(self) -> np.ndarray:
        """Eigenvalues d - eig(C) of the circulant core dI - C.

        C is T. Chan's optimal circulant of the kernel row p, zero-padded to
        the fast real-FFT length m >= n = N - 1; d is the middle diagonal.
        As C >= 0, its top eigenvalue is its row sum, the average row mass
        2 sum_{k<n} (1 - k/m) p(k) of the padded Toeplitz matrix.  Bounding
        k p(k) = c k^-gamma (nonincreasing) by h p(h), h = n // 2, from below
        for k <= h and from above beyond puts that under the middle site's
        in-range mass if m (H_2h - H_h) <= n - 1 (H harmonic numbers, H_2h -
        H_h < ln 2).  Fast lengths meet it: m = n to n = 6, m <= 15n/13 to
        n = 13, m <= 4n/3 beyond.  The reservoir margin then lifts d above
        it: every eigenvalue is positive."""
        n = self.N - 1
        m = fast_len(n)
        t = np.concatenate((self.kernel_row, np.zeros(m - n)))
        k = np.arange(m)
        c = ((m - k) * t + k * np.concatenate(([0.0], t[:0:-1]))) / m
        return self.diag[n // 2] - np.fft.rfft(c).real

    def weight(self) -> np.ndarray:
        """f = d / (d + e) in (0, 1] per site: the share of the row's
        diagonal D that the circulant's middle diagonal d accounts for.

        D = 2 T_1 + (kappa N^-theta - 1) rho, with 2 T_1 the kernel's whole
        mass and rho = r^+ + r^- smallest at the middle, so where the
        reservoirs outweigh the kernel (kappa N^-theta > 1) D exceeds d by
        e = (kappa N^-theta - 1)(rho - rho_mid), and d + e = D in exact
        arithmetic.  f is built from that excess, not as min(1, d / D),
        whose ulp-level wobble on a flat diagonal would move f off 1: with
        kappa N^-theta <= 1, e = 0 and f is exactly 1 on every site, which
        leaves the preconditioner and CG's norm unweighted bit for bit."""
        rho = self.rates.left + self.rates.right
        mid = (self.N - 1) // 2
        excess = (max(self.params.boundary_scale() - 1.0, 0.0)
                  * np.maximum(rho - rho[mid], 0.0))
        d = self.diag[mid]
        return d / (d + excess)

    def reflective_spectrum(self) -> np.ndarray:
        """Eigenvalues mu_k = lambda_0 + margin_mid - lambda_k of the
        reflective core (lambda_0 + margin_mid) I - K, k < m.

        K is the kernel row p, zero-padded to m = fast_len(n), folded with
        reflecting (Neumann) ends: K = T + H, H[i, j] = p(i + j + 1) +
        p(2m - 1 - i - j), the Toeplitz-plus-Hankel matrix the orthonormal
        DCT-II Q diagonalises exactly (Ng, Chan & Tang, SIAM J. Sci.
        Comput. 21, 1999); its eigenvalues lambda_k are the real spectrum
        of the length-2m even extension of p.  As K >= 0, |lambda_k| <=
        lambda_0, its row sum, so in exact arithmetic every mu_k >=
        margin_mid, the middle site's reservoir margin, > 0.  In floating
        point a margin below half an ulp of lambda_0 is lost in the sum and
        mu_0, the constant mode's eigenvalue, rounds to 0."""
        n = self.N - 1
        m = fast_len(n)
        t = np.concatenate((self.kernel_row, np.zeros(m - n)))
        lam = np.fft.rfft(np.concatenate((t, [0.0], t[:0:-1]))).real[:m]
        return lam[0] + self.dominance_margin()[n // 2] - lam

    def preconditioner(self) -> Callable[[np.ndarray], np.ndarray]:
        """v -> M^-1 v = W [core^-1]_n W v + diag((1 - f^2) / D) v, with
        W = diag(f sqrt(d / D)), d the middle diagonal and f the ``weight``.

        v is zero-padded to the core's fast length m and the product cut to
        its first n entries: a principal block of an SPD inverse.  A
        diagonal congruence of an SPD block plus a non-negative diagonal is
        SPD, so M is.  Where gamma > 1 and kappa N^-theta <= 1 (f = 1), the
        core is the reflective (lambda_0 + margin_mid) I - K of
        ``reflective_spectrum``, applied as Q^T diag(1 / mu) Q: the
        lattice's nearly reflecting ends suit it better than a periodic
        core.  Elsewhere it is dI - C, T. Chan's optimal circulant (his own
        at m = n); where the reservoirs dominate the row (D ~ N^-theta
        u^-gamma at the edges) f falls and M hands over to Jacobi, 1 / D.

        1 / mu is set to 0 where mu rounds to <= 0: on the antisymmetric
        vectors the solvers precondition, M stays SPD without that mode."""
        n = self.N - 1
        if self.params.gamma > 1.0 and self.params.boundary_scale() <= 1.0:
            mu = self.reflective_spectrum()
            core = _padded_reflection(
                np.divide(1.0, mu, out=np.zeros_like(mu), where=mu > 0.0), n)
        else:
            core = _padded_circulant(1.0 / self.preconditioner_spectrum(),
                                     fast_len(n))
        f = self.weight()
        w = f * np.sqrt(self.diag[n // 2] / self.diag)
        jacobi = (1.0 - f * f) / self.diag
        return lambda v: w * core(w * v) + jacobi * v


@dataclass
class FugacityProfile:
    """Solution phi_N of the traffic equation; determines the product NESS.
    Its model, N and fugacities are those of the ``system`` it solves."""

    values: np.ndarray           # phi_N = (phi_a + phi_b) / 2 + psi
    deviation: np.ndarray        # the antisymmetric psi the currents read
    system: TrafficSystem = field(repr=False)
    residual_norm: float
    method: str
    cg_history: Optional[np.ndarray] = None
    phi_alpha = property(lambda self: self.system.phi_alpha)
    phi_beta = property(lambda self: self.system.phi_beta)

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


def assemble(params: ModelParams, thermo: ThermoTables) -> TrafficSystem:
    """Build diag, kernel row and right-hand side for the given parameters
    (kappa = 0 included; see ``_deviation_rhs``)."""
    phi_a, phi_b = params.boundary_fugacities(thermo)
    kernel = params.kernel_params()
    rr = reservoir_rates(kernel, params.N)
    scale = params.boundary_scale()
    in_range = rr.in_range_mass()
    diag = in_range + scale * (rr.left + rr.right)
    rhs = scale * (phi_b * rr.right + phi_a * rr.left)
    kernel_row = np.asarray(jump_prob(kernel, np.arange(0, params.N - 1)))
    return TrafficSystem(diag=diag, kernel_row=kernel_row, rhs=rhs,
                         params=params, phi_alpha=phi_a, phi_beta=phi_b,
                         rates=rr)


def residual(system: TrafficSystem, values: np.ndarray) -> float:
    """Max-norm residual of (D-P) v = R."""
    if len(values) != system.N - 1:
        raise DomainError("profile length does not match the system")
    return float(np.max(np.abs(system.matvec(values) - system.rhs)))


def _antisymmetric(u: np.ndarray) -> np.ndarray:
    """a(u) = (u - u[::-1]) / 2, exactly antisymmetric in floating point."""
    return 0.5 * (u - u[::-1])


def _deviation_rhs(system: TrafficSystem) -> np.ndarray:
    """w's right-hand side a(phi_b r^+ + phi_a r^-), the sum being
    ``assemble``'s rhs before its scale.  Refuses a reservoir scale kappa
    N^(-theta) <= 0, infinite or NaN: without the reservoirs' dominance
    margin the system is singular (mass is conserved) and has no
    stationary profile."""
    scale = system.params.boundary_scale()
    if not 0.0 < scale < math.inf:
        raise DomainError(f"the stationary solve needs kappa > 0 and a "
                          f"finite kappa N^(-theta), got {scale}")
    rr = system.rates
    return _antisymmetric(system.phi_beta * rr.right
                          + system.phi_alpha * rr.left)


def solve_direct(system: TrafficSystem) -> FugacityProfile:
    """Dense LU with partial pivoting, O(N^3): the reference solution that
    tests and the exact-generator check compare against."""
    b = _deviation_rhs(system)
    idx = np.arange(system.N - 1)
    A = -system.kernel_row[np.abs(idx[:, None] - idx)]
    A[idx, idx] += system.diag
    w = np.linalg.solve(A, b)
    return _profile(system, _antisymmetric(w), "direct")


def _profile(system: TrafficSystem, w: np.ndarray, method: str,
             cg_history: Optional[np.ndarray] = None) -> FugacityProfile:
    psi = system.params.boundary_scale() * w
    phi = 0.5 * (system.phi_alpha + system.phi_beta) + psi
    return FugacityProfile(values=phi, deviation=psi, system=system,
                           residual_norm=residual(system, phi),
                           method=method, cg_history=cg_history)


def solve_iterative(system: TrafficSystem) -> FugacityProfile:
    """Preconditioned conjugate gradients on the SPD matrix D - P for w,
    run to the rounding floor from the straight line's deviation over
    max(kappa N^(-theta), 1).  a(.) is applied to each restart residual,
    matvec and preconditioner output: every iterate is antisymmetric.

    Residuals are measured row by row in the preconditioner's ``weight``
    f, max_x f_x |r_x|.  Where the reservoirs dominate, f_x = d / D_x: each
    row's residual is read against its own diagonal, in units of the bulk
    one.  Unweighted, the floor would be set by the edge rows, whose
    diagonal is ~N^-theta larger, and be that much looser than the bulk
    rows need.  Each sweep restarts from the true residual and iterates
    until the recurrence residual is below eps (max f (2D - margin) ||w||
    + max f |b|), the weighted backward error of a correctly rounded
    solution.  Sweeps repeat while they halve the true residual and it is
    above that floor; the best iterate is returned, and
    ``ConvergenceError`` is raised only when ``MAX_CG_ITERATIONS`` are
    spent.  The history holds the weighted residual at each sweep start
    and after each iteration (for failure reports).  Every residual CG
    works with passes through the ``preconditioner``.
    """
    b = _deviation_rhs(system)
    precondition = system.preconditioner()
    f = system.weight()

    def norm(r):
        return float(np.max(f * np.abs(r)))

    a_norm = float(np.max(f * (2.0 * system.diag
                               - system.dominance_margin())))
    b_norm = norm(b)
    line = np.interp(np.arange(1, system.N, dtype=float) / system.N,
                     [0.0, 1.0], [system.phi_alpha, system.phi_beta])
    x = _antisymmetric(line) / max(system.params.boundary_scale(), 1.0)
    history = []
    iterations = 0
    best, best_res, last = x.copy(), math.inf, math.inf
    while True:
        # the restart residual is accumulated in long double: smooth error
        # components barely move a double-precision residual, so without it
        # the forward error stalls near cond(A) eps instead of eps
        r = _antisymmetric(
            (b - system.matvec(x.astype(np.longdouble))).astype(float))
        res = norm(r)
        history.append(res)
        if res < best_res:
            best, best_res = x.copy(), res
        if not res < 0.5 * last:
            break
        last = res
        floor = EPS * (a_norm * float(np.max(np.abs(x))) + b_norm)
        if res <= floor:
            break
        z = _antisymmetric(precondition(r))
        p = z.copy()
        # inner products by numpy's pairwise sum, not BLAS: a threaded ddot
        # sums in an order set by the thread count, and CG carries those
        # last bits into every later iterate and so into the outputs
        rz = float(np.add.reduce(r * z))
        while res > floor:
            if iterations >= MAX_CG_ITERATIONS:
                raise ConvergenceError(
                    f"preconditioned CG spent {MAX_CG_ITERATIONS} "
                    f"iterations at residual {res:g} (floor {floor:g})",
                    history=np.array(history))
            Ap = _antisymmetric(system.matvec(p))
            a = rz / float(np.add.reduce(p * Ap))
            x += a * p
            r -= a * Ap
            iterations += 1
            res = norm(r)
            history.append(res)
            z = _antisymmetric(precondition(r))
            rz_new = float(np.add.reduce(r * z))
            p = z + (rz_new / rz) * p
            rz = rz_new
    return _profile(system, best, "iterative", cg_history=np.array(history))


def solve_lattices(params: ModelParams, N_values: Sequence[int],
                   thermo: ThermoTables) -> list[FugacityProfile]:
    """Assemble and solve each lattice size once; the systems differ from
    ``params`` only in N, and each solve reads its own system only."""
    return [solve_iterative(assemble(dataclasses.replace(params, N=int(N)),
                                     thermo))
            for N in N_values]


def write_profile_csv(profile: FugacityProfile, thermo: ThermoTables,
                      path) -> None:
    """Profile dump: x, x/N, phi, m under a parameter and solve header."""
    header = {**profile.system.params.as_dict(),
              "phi_alpha": profile.phi_alpha, "phi_beta": profile.phi_beta,
              "residual": profile.residual_norm, "method": profile.method}
    m = thermo.mean_density_array(profile.values)
    N = profile.system.N
    x = np.arange(1, N)
    write_table(path, header_lines(header), ("x", "x_over_N", "phi", "m"),
                zip(x.tolist(), (x / N).tolist(), profile.values.tolist(),
                    m.tolist()))
