"""Long-jump kernel p(z) = c_gamma |z|^(-1-gamma) and derived objects.

Holds the power-law jump probabilities, the infinitely-extended reservoir
rate arrays r_N^+/-, their continuum limits r^+/-, the boundary potentials
(V0, V1), and the discrete and regional fractional Laplacians built from
the same kernel.  zeta, hence c_gamma, the reservoir rates and each row's
in-range mass are all read off one evaluator of the tail sums T[k] =
sum_{j>=k} j^(-1-gamma): a row's in-range mass and its reservoir rates
share their rounding, so the rows of D_N - P_N leak no mass between them.

Normalization: the package default makes p a probability (c_gamma =
1/(2 zeta(1+gamma)), so the kernel mass is 1).  The alternative
``paper_literal`` convention fixes c_gamma = 1, under which the half first
moment equals zeta(gamma) exactly.  Every downstream constant is expressed
through the KernelParams instance in use, so consistency checks hold in
either mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .quadrature import geometric_edges, integrate_panels

NORMALIZATION_MODES = ("normalized", "paper_literal")


def _em_tail(M: float, s: float) -> float:
    """Euler-Maclaurin estimate of sum_{k>=M} k^(-s), two derivative terms."""
    return (M ** (1.0 - s) / (s - 1.0)
            + 0.5 * M ** (-s)
            + (s / 12.0) * M ** (-s - 1.0)
            - (s * (s + 1.0) * (s + 2.0) / 720.0) * M ** (-s - 3.0))


@lru_cache(maxsize=None)
def riemann_zeta(s: float) -> float:
    """zeta(s) = T[1] for s > 1, from the tail sums the reservoir rates
    read."""
    if s <= 1.0:
        raise DomainError(f"zeta(s) diverges for s <= 1, got s={s}")
    return float(_tail_array(1, s)[0])


@dataclass(frozen=True)
class KernelParams:
    """Jump-kernel exponent and normalization constant."""

    gamma: float
    c_gamma: float
    normalization_mode: str = "normalized"

    def __post_init__(self):
        if not 0.0 < self.gamma < 2.0:
            raise DomainError(f"gamma must lie in (0,2), got {self.gamma}")
        if self.normalization_mode not in NORMALIZATION_MODES:
            raise DomainError(
                f"unknown normalization mode {self.normalization_mode!r}")

    @classmethod
    def create(cls, gamma: float, mode: str = "normalized") -> "KernelParams":
        if mode == "normalized":
            c = 1.0 / (2.0 * riemann_zeta(1.0 + gamma))
        elif mode == "paper_literal":
            c = 1.0
        else:
            raise DomainError(f"unknown normalization mode {mode!r}")
        return cls(gamma=gamma, c_gamma=c, normalization_mode=mode)


def jump_prob(params: KernelParams, z) -> float | np.ndarray:
    """p(z) = c_gamma |z|^(-1-gamma) for z != 0, p(0) = 0.  Accepts arrays."""
    z_arr = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        p = params.c_gamma * np.abs(z_arr) ** (-(1.0 + params.gamma))
    p = np.where(z_arr == 0.0, 0.0, p)
    if np.isscalar(z) or z_arr.ndim == 0:
        return float(p)
    return p


@dataclass(frozen=True)
class ReservoirRates:
    """Arrays r_N^-(x/N) (left) and r_N^+(x/N) (right) for x = 1..N-1.

    Index convention: left[x-1] = r_N^-(x/N).  The reflection identity
    right[N-x] = left[x] is bit-exact because both read the same tail-sum
    array entry.
    """

    left: np.ndarray
    right: np.ndarray

    def in_range_mass(self) -> np.ndarray:
        """sum_{y in Lambda_N} p(y-x) = 2 c T[1] - c T[x] - c T[N-x]: the
        kernel mass less both tails, all read off the same tail sums."""
        return 2.0 * self.left[0] - self.left - self.right


def _tail_array(n_terms: int, s: float) -> np.ndarray:
    """T[k] = sum_{j>=k} j^(-s) for k = 1..n_terms, via one EM anchor.

    Backward recursion from an Euler-Maclaurin anchor at n_terms + 10^4,
    whose remainder, O(anchor^(-s-5)), sits far below a double ulp of any
    tail; the cumulative sum is carried in extended precision to keep
    absolute error near 1e-15.
    """
    anchor = n_terms + 10_000
    ks = np.arange(1, anchor, dtype=float)
    vals = (ks ** (-s)).astype(np.longdouble)
    suffix = np.cumsum(vals[::-1])[::-1]
    T = (suffix + np.longdouble(_em_tail(float(anchor), s))).astype(float)
    return T[:n_terms]


def reservoir_rates(params: KernelParams, N: int) -> ReservoirRates:
    """Reservoir rate arrays r_N^-, r_N^+ on Lambda_N = {1..N-1}.

    r_N^-(x/N) = sum_{y<=0} p(y-x) = c_gamma T[x] and
    r_N^+(x/N) = c_gamma T[N-x], with T the kernel tail sums.
    """
    if N < 2:
        raise DomainError(f"N must be >= 2, got N={N}")
    s = 1.0 + params.gamma
    T = _tail_array(N - 1, s)
    scaled = params.c_gamma * T
    left = scaled.copy()                       # left[x-1]  = c T[x]
    right = scaled[::-1].copy()                # right[x-1] = c T[N-x]
    return ReservoirRates(left=left, right=right)


def continuum_rate(params: KernelParams, u, side: str):
    """Macroscopic reservoir rate r^-(u) or r^+(u) = c_gamma/gamma *
    dist^-gamma; a float for a float, an array of the same shape for an
    array."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr > 0.0) & (u_arr < 1.0)):
        raise DomainError(f"continuum rate undefined at u={u}")
    dist = (u_arr if side == "left" else (1.0 - u_arr) if side == "right"
            else None)
    if dist is None:
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    # np.power, not **: a 0-d operand would take the scalar pow
    r = params.c_gamma / params.gamma * np.power(dist, -params.gamma)
    return float(r) if r.ndim == 0 else r


class BoundaryPotentials(NamedTuple):
    weighted: float | np.ndarray  # V0 = alpha~ r^- + beta~ r^+
    total: float | np.ndarray     # V1 = r^- + r^+


def v_potentials(params: KernelParams, u, alpha_tilde: float,
                 beta_tilde: float) -> BoundaryPotentials:
    """The pair (V0, V1) entering the reaction term of the limit equations,
    at a float ``u`` or at every point of an array."""
    if not (0.0 < alpha_tilde < 1.0 and 0.0 < beta_tilde < 1.0):
        raise DomainError(f"need alpha~ and beta~ in (0, 1), got "
                          f"({alpha_tilde}, {beta_tilde})")
    rm = continuum_rate(params, u, "left")
    rp = continuum_rate(params, u, "right")
    return BoundaryPotentials(weighted=alpha_tilde * rm + beta_tilde * rp,
                              total=rm + rp)


def first_moment_half(params: KernelParams) -> float:
    """d = sum_{z>=1} z p(z) = c_gamma zeta(gamma); finite only for gamma > 1."""
    if params.gamma <= 1.0:
        raise DomainError(
            f"first moment is infinite for gamma <= 1 (gamma={params.gamma})")
    return params.c_gamma * riemann_zeta(params.gamma)


def vectorized(G: Callable) -> Callable:
    """Return a function mapping float arrays to float arrays of the same
    shape.  G always sees a flat 1-D array; a G that refuses arrays (raises
    TypeError or ValueError on one) is applied element by element."""
    try:
        takes_arrays = np.shape(G(np.array([0.25, 0.75]))) == (2,)
    except (TypeError, ValueError):
        takes_arrays = False
    if not takes_arrays:
        return np.vectorize(G, otypes=[float])
    return lambda v: np.reshape(np.asarray(G(np.ravel(v)), dtype=float),
                                np.shape(v))


def discrete_frac_laplacian(params: KernelParams, G: Callable, x: int,
                            N: int) -> float:
    """(L_N G)(x/N) = sum_{y in Lambda_N} p(y-x) [G(y/N) - G(x/N)]."""
    if not 1 <= x <= N - 1:
        raise DomainError(f"x={x} outside Lambda_N for N={N}")
    gv = vectorized(G)
    y = np.arange(1, N, dtype=float)
    p = jump_prob(params, y - x)
    return float(np.dot(p, gv(y / N) - gv(np.array([x / N]))[0]))


_INNER_CUT = 3e-4  # below this distance the folded difference is modeled analytically
_WINDOW = 1e-3     # half-width of the folded window around u


def regional_frac_laplacian(params: KernelParams, G: Callable, u):
    """Regional fractional Laplacian (L G)(u) on [0,1], principal value.

    The window (u-m, u+m), m = min(_WINDOW, u, 1-u), is folded so the odd
    Taylor part cancels exactly and only the even combination
    G(u+t)+G(u-t)-2G(u) ~ G''(u) t^2 meets the kernel t^(-1-gamma).  To
    avoid float cancellation at tiny t, distances below _INNER_CUT use the
    quadratic model with a 5-point stencil G''; [cut, m] is integrated on
    geometric Gauss-Legendre panels, as is everything outside the window.
    G must be C^2; absolute error <1e-8 at interior points for smooth G,
    degrading to small relative error near the endpoints.

    ``u`` is a float (float out) or an array (same shape out); every point
    is one row of the same panel quadratures.
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr > 0.0) & (u_arr < 1.0)):
        raise DomainError(f"regional Laplacian evaluated at boundary u={u}")
    gam = params.gamma
    gv = vectorized(G)
    x = u_arr.reshape(-1)            # one quadrature row per point
    gu = gv(x)

    m = np.minimum(_WINDOW, np.minimum(x, 1.0 - x))

    # stencil at the nearest safely-interior point (shift is O(h) at worst)
    h = 1e-3
    uc = np.clip(x[:, None], 2.0 * h, 1.0 - 2.0 * h)
    gp = gv(uc + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
    g2 = (-gp[:, 4] + 16.0 * gp[:, 3] - 30.0 * gp[:, 2] + 16.0 * gp[:, 1]
          - gp[:, 0]) / (12.0 * h * h)

    cut = np.where(m <= 2.0 * _INNER_CUT, m, _INNER_CUT)

    def folded(t, row):
        u = x[row]
        return (gv(u + t) + gv(u - t) - 2.0 * gu[row]) * t ** (-(1.0 + gam))

    # a row with cut = m has no panel of positive width and integrates to 0
    inner = (g2 * cut ** (2.0 - gam) / (2.0 - gam)
             + integrate_panels(folded, geometric_edges(cut, m)))

    def outer_part(b: np.ndarray, sign: float) -> np.ndarray:
        # one side of u, distances in [m, b]; nothing where b = m
        def f(t, row):
            return (gv(x[row] + sign * t) - gu[row]) * t ** (-(1.0 + gam))

        return integrate_panels(f, geometric_edges(m, b))

    outer = outer_part(x, -1.0) + outer_part(1.0 - x, +1.0)
    out = (params.c_gamma * (inner + outer)).reshape(u_arr.shape)
    return float(out) if out.ndim == 0 else out
