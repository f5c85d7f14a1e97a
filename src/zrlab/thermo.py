"""Zero-range thermodynamics: rate function g, partition function Z,
mean-density map R and its inverse Phi.

All series are evaluated from one generic code path (log-space weights
phi^k / g(k)!); closed forms for the builtin rate functions exist only in
the tests, as oracles.  Evaluators are pure; the factorial cache grows by
replacement, never in-place mutation, so concurrent readers always see a
consistent array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, DomainError

RATE_KINDS = ("identity", "indicator", "figure3", "table")
MAX_SERIES_TERMS = 1_000_000
FIRST_TERMS = 32           # series terms of the first pass; doubled per retry
TAIL_TOL = 1e-16           # bound on a dropped series tail, relative to its sum
SERIES_BLOCK = 1 << 17     # (sites x terms) entries of one block of weights
NEWTON_STEPS = 220         # iteration cap of the fugacity inversion
PHI_STAR_SCAN = 10_000     # values of g inspected for the radius estimate
WORKING_MARGIN = 0.999     # evaluations require phi <= margin * phi_star


@dataclass(frozen=True)
class RateFunction:
    """Interaction rate g: g(0)=0, g(k)>0 for k>=1.

    kinds: ``identity`` g(k)=k, ``indicator`` g(k)=1_{k>0},
    ``figure3`` g(k)=(1+3/k)^3, ``table`` explicit values for k=1..K with a
    tail rule (``constant c`` or ``identity``) beyond the table.
    """

    kind: str
    table: tuple = ()
    tail: str = "constant"
    tail_value: float = 1.0

    def __post_init__(self):
        if self.kind not in RATE_KINDS:
            raise DomainError(f"unknown rate kind {self.kind!r}")
        if self.kind == "table":
            if len(self.table) == 0:
                raise DomainError("table rate needs at least one value")
            for k, v in enumerate(self.table, start=1):
                if not 0.0 < v < math.inf:
                    raise DomainError(f"rate value g({k}) = {v} must be "
                                      "positive and finite")
            if self.tail not in ("constant", "identity"):
                raise DomainError(f"unknown tail rule {self.tail!r}")
            if (self.tail == "constant"
                    and not 0.0 < self.tail_value < math.inf):
                raise DomainError(f"constant tail value {self.tail_value} "
                                  "must be positive and finite")

    @classmethod
    def identity(cls):
        return cls(kind="identity")

    @classmethod
    def indicator(cls):
        return cls(kind="indicator")

    @classmethod
    def figure3(cls):
        return cls(kind="figure3")

    @classmethod
    def from_table(cls, values, tail="constant", tail_value=None):
        values = tuple(float(v) for v in values)
        if tail == "constant" and tail_value is None:
            tail_value = values[-1]
        return cls(kind="table", table=values, tail=tail,
                   tail_value=float(tail_value) if tail_value is not None else 1.0)

    def values(self, kmax: int) -> np.ndarray:
        """g(1..kmax) as an array."""
        k = np.arange(1, kmax + 1, dtype=float)
        if self.kind == "identity":
            return k
        if self.kind == "indicator":
            return np.ones(kmax)
        if self.kind == "figure3":
            return (1.0 + 3.0 / k) ** 3
        out = np.empty(kmax)
        K = len(self.table)
        upto = min(K, kmax)
        out[:upto] = self.table[:upto]
        if kmax > K:
            if self.tail == "constant":
                out[K:] = self.tail_value
            else:
                out[K:] = k[K:]
        return out

    def g(self, k: int) -> float:
        if k < 0:
            raise DomainError(f"occupation number must be >= 0, got {k}")
        if k == 0:
            return 0.0
        return float(self.values(k)[-1])

    def radius_estimate(self) -> float:
        """phi* = liminf g, estimated over the first PHI_STAR_SCAN values."""
        if self.kind == "identity":
            return math.inf
        if self.kind == "table" and self.tail == "identity":
            return math.inf
        return float(self.values(PHI_STAR_SCAN).min())


def _table_number(kind: type, text: str, line: str):
    """``kind(text)``, a cell of the rate table line ``line``."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"bad rate table line: {line!r}") from None


def read_rate_table(path) -> RateFunction:
    """Parse the plain-text rate table format (k value pairs + tail rule)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"rate table is not UTF-8 text: {exc}") from None
    values = {}
    tail = None
    tail_value = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("tail:"):
            if tail is not None:
                raise DomainError(f"rate table gives a second tail rule: "
                                  f"{line!r}")
            parts = line[len("tail:"):].split()
            if parts == ["identity"]:
                tail = "identity"
            elif len(parts) == 2 and parts[0] == "constant":
                tail = "constant"
                tail_value = _table_number(float, parts[1], line)
            else:
                raise DomainError(f"bad tail rule line: {line!r}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DomainError(f"bad rate table line: {line!r}")
        k = _table_number(int, parts[0], line)
        if k in values:
            raise DomainError(f"rate table lists k = {k} twice")
        values[k] = _table_number(float, parts[1], line)
    if tail is None:
        raise DomainError("rate table missing trailing tail rule")
    if not values:
        raise DomainError("rate table has no entries")
    # distinct int keys: 1..K without a list as long as the largest k
    kmax = max(values)
    if min(values) != 1 or kmax != len(values):
        raise DomainError("rate table must cover k = 1..K without gaps")
    return RateFunction.from_table([values[k] for k in range(1, kmax + 1)],
                                   tail=tail, tail_value=tail_value)


class ThermoTables:
    """Evaluators for Z, R, Phi for one rate function.

    ``phi_star`` is the estimated radius of convergence; ``m_star`` the
    supremum of R over the working range [0, 0.999 phi_star] (the
    attainable density ceiling), +inf when the series is unbounded there.

    Every evaluator takes a scalar or an array: a scalar gives a float, an
    array gives an array of its shape.  Elements are independent, so an
    array evaluation equals the element-by-element one bit for bit.
    """

    def __init__(self, rate: RateFunction):
        self.rate = rate
        self.phi_star = rate.radius_estimate()
        self._log_gfact = np.zeros(1)  # L[k] = log g(k)!, grown on demand
        if math.isinf(self.phi_star):
            self.m_star = math.inf
        else:
            try:
                self.m_star = self.mean_density(self.phi_max())
            except ConvergenceError:
                self.m_star = math.inf

    @classmethod
    def create(cls, rate: RateFunction):
        return cls(rate)

    def phi_max(self) -> float:
        return WORKING_MARGIN * self.phi_star

    def _grow_cache(self, kmax: int) -> None:
        if kmax < len(self._log_gfact):
            return
        g = self.rate.values(kmax)
        L = np.concatenate([[0.0], np.cumsum(np.log(g))])
        self._log_gfact = L  # atomic swap keeps concurrent readers consistent

    def _series(self, phis) -> np.ndarray:
        """Scaled sums (logZ, S1/S0, S2/S0) of the weights phi^k/g(k)!, one
        column per element of the flattened ``phis``: shape (3, n).

        Each element is summed over its first K terms (K = 32, 64, ...)
        in (sites x K) blocks of log weights.  It is done once the dropped
        tail of S2, bounded by continuing its last term geometrically at
        the ratio r = max(phi/g(K), phi/phi*), is below TAIL_TOL S2;
        relative to their sums the tails of S0 and S1 are smaller still.
        The other elements are retried with 2K terms.
        """
        flat = np.asarray(phis, dtype=float).ravel()
        bad = ~((flat >= 0.0) & (flat <= self.phi_max())) | np.isinf(flat)
        if bad.any():
            raise DomainError(
                f"fugacity {flat[bad][0]} outside working range "
                f"[0, {self.phi_max():g}] (phi* = {self.phi_star:g})")
        sums = np.zeros((3, flat.size))
        todo = np.flatnonzero(flat)        # phi = 0 has sums (0, 0, 0)
        K = FIRST_TERMS
        while todo.size:
            self._grow_cache(K)
            rows = max(1, SERIES_BLOCK // K)
            todo = np.concatenate([
                self._sum_block(flat, todo[i:i + rows], K, sums)
                for i in range(0, todo.size, rows)])
            if todo.size and K == MAX_SERIES_TERMS:
                raise ConvergenceError(
                    f"partition series did not converge within "
                    f"{MAX_SERIES_TERMS} terms at phi={flat[todo[0]]} "
                    f"(phi* estimate {self.phi_star:g})")
            K = min(2 * K, MAX_SERIES_TERMS)
        return sums

    def _sum_block(self, flat, idx, K, sums) -> np.ndarray:
        """Sum terms k < K for the elements ``idx`` into ``sums``; returns
        the elements whose tail is not yet negligible."""
        L = self._log_gfact
        lnphi = np.log(flat[idx])
        ks = np.arange(K, dtype=float)
        w = lnphi[:, None] * ks - L[:K]
        rows, peak = np.arange(len(idx)), w.argmax(axis=1)
        top = w[rows, peak]
        w -= top[:, None]
        np.exp(w, out=w)
        w[rows, peak] = 0.0             # S0 = 1 + rest, log S0 = log1p(rest)
        rest = w.sum(axis=1)
        w[rows, peak] = 1.0
        s0 = 1.0 + rest
        s1 = (w * ks).sum(axis=1)
        s2 = (w * (ks * ks)).sum(axis=1)
        # each term past K - 1 is at most r times the one before, so the
        # tail of S2, sum_{n>=1} (K-1+n)^2 r^n w[K-1], is below
        # 2 K^2 w[K-1] / (1-r)^3
        r = np.exp(lnphi - min(L[K] - L[K - 1], math.log(self.phi_star)))
        done = (r < 1.0) & (2.0 * K * K * w[:, -1]
                            <= TAIL_TOL * s2 * (1.0 - r) ** 3)
        ok = idx[done]
        sums[0, ok] = top[done] + np.log1p(rest[done])
        sums[1, ok] = s1[done] / s0[done]
        sums[2, ok] = s2[done] / s0[done]
        return idx[~done]

    # -- public evaluators -------------------------------------------------

    def log_partition(self, phi):
        """log Z(phi)."""
        return _shaped(phi, self._series(phi)[0])

    def partition_function(self, phi):
        """Z(phi) = sum_k phi^k / g(k)!."""
        return _shaped(phi, np.exp(self._series(phi)[0]))

    def mean_density(self, phi):
        """R(phi) = phi Z'(phi)/Z(phi), the mean occupation per site."""
        return _shaped(phi, self._series(phi)[1])

    def fugacity(self, m):
        """Phi(m): the unique phi with R(phi) = m.

        Newton steps on R(phi) - m with R' from the same series, kept
        inside a bracket [lo, hi] of the root and replaced by bisection
        when they leave it (hi starts at phi_max; while it is infinite,
        2 lo stands in for it).  An element stops at phi when
        |R(phi) - m| < 1e-13 or the Newton step no longer moves phi, and at
        the midpoint when its bracket is at most 1e-17 max(1, hi) wide.
        """
        ms = np.asarray(m, dtype=float).ravel()
        bad = ~((ms >= 0.0) & (ms < self.m_star))
        if bad.any():
            raise DomainError(f"density {ms[bad][0]} outside [0, m*) "
                              f"(attainable ceiling m* = {self.m_star:g})")
        phi = np.zeros_like(ms)
        todo = np.flatnonzero(ms)          # Phi(0) = 0
        target = ms[todo]
        lo = np.zeros_like(target)
        hi = np.full_like(target, self.phi_max())
        # R(phi) ~ phi/g(1) near 0; the first guess is at most max(1, m)
        x = np.minimum(target * self.rate.g(1), np.maximum(1.0, target))
        x = np.minimum(x, hi)
        for _ in range(NEWTON_STEPS):
            _, r1, r2 = self._series(x)
            f = r1 - target
            lo = np.where(f < 0.0, x, lo)
            hi = np.where(f < 0.0, hi, x)
            upper = np.where(np.isinf(hi), 2.0 * lo, hi)
            mid = 0.5 * (lo + upper)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = x - f * x / (r2 - r1 * r1)
            hit = (np.abs(f) < 1e-13) | (step == x)
            phi[todo] = np.where(hit, x, mid)
            keep = ~hit & (upper - lo > 1e-17 * np.maximum(1.0, upper))
            if not keep.any():
                break
            x = np.where((step > lo) & (step < upper), step, mid)[keep]
            todo, target, lo, hi = todo[keep], target[keep], lo[keep], hi[keep]
        return _shaped(m, phi)

    def occupation_pmf(self, phi, k):
        """Stationary marginal P(xi(x) = k) = phi^k / (Z(phi) g(k)!),
        broadcast over ``phi`` and ``k``."""
        k_arr = np.asarray(k)
        if np.any(k_arr < 0):
            raise DomainError("occupation numbers must be >= 0")
        self._grow_cache(int(k_arr.max()) + 1)
        phi_arr = np.asarray(phi, dtype=float)
        logZ = self.log_partition(phi_arr)
        with np.errstate(divide="ignore", invalid="ignore"):
            lw = np.where(k_arr == 0, 0.0,
                          k_arr * np.log(phi_arr) - self._log_gfact[k_arr])
        out = np.exp(lw - logZ)
        return float(out) if out.ndim == 0 else out

    def mean_density_array(self, phis) -> np.ndarray:
        """R over an array of site fugacities."""
        return np.asarray(self.mean_density(np.asarray(phis, dtype=float)))


def _shaped(like, values: np.ndarray):
    """``values`` (flat) as a float for a scalar ``like``, else in its shape."""
    if np.ndim(like) == 0:
        return float(values[0])
    return values.reshape(np.shape(like))
