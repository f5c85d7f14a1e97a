"""Continuous-time (Gillespie) simulators for the boundary-driven
zero-range and exclusion dynamics, exact in law.

Event selection walks a Fenwick tree over per-site total rates (O(log N)
per event, at most two sites change rate per event).  Time averages are
accrued lazily per site (value times holding time, flushed on change and
at batch boundaries); standard errors come from batch means.

A brute-force oracle for the whole stack is exact_stationary_distribution,
which builds the truncated generator from the same rate tables and solves
for its stationary vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DomainError
from .kernel import KernelParams, jump_prob, reservoir_rates, vectorized
from .thermo import ThermoTables
from .traffic import FugacityProfile, ModelParams

EVENT_TABLE_CAP = 4096          # dest tables are dense (N-1)^2
COUNT_OVERFLOW_GUARD = 1 << 62


@dataclass
class ZRConfiguration:
    """Occupation numbers xi(x) >= 0 on Lambda_N with a cached total."""

    counts: np.ndarray
    total: int = None

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if np.any(self.counts < 0):
            raise DomainError("occupation numbers must be >= 0")
        if self.total is None:
            self.total = int(self.counts.sum())

    def consistent(self) -> bool:
        return self.total == int(self.counts.sum())


@dataclass
class ExclusionConfiguration:
    occupancy: np.ndarray

    def __post_init__(self):
        self.occupancy = np.asarray(self.occupancy, dtype=np.int8)
        if not np.all((self.occupancy == 0) | (self.occupancy == 1)):
            raise DomainError("occupancies must be 0 or 1")


@dataclass
class EventTables:
    """Static per-site samplers and boundary base rates.

    dest_cdf[x-1] holds the unnormalized cumulative kernel mass over the
    in-range destinations of site x; its last entry equals the in-range
    mass q_x.
    """

    dest_cdf: np.ndarray
    q: np.ndarray
    birth: np.ndarray
    death_base: np.ndarray
    flip_left: np.ndarray
    flip_right: np.ndarray
    params: ModelParams
    phi_alpha: float
    phi_beta: float
    alpha_tilde: float
    beta_tilde: float


def build_event_tables(params: ModelParams,
                       thermo: Optional[ThermoTables] = None,
                       kernel: Optional[KernelParams] = None) -> EventTables:
    """Jump-destination tables and boundary rates from the generator.

    Per-site total rate decomposes as g(xi(x)) (q_x + death_base_x) +
    birth_x for the zero-range chain.
    """
    N = params.N
    if N > EVENT_TABLE_CAP:
        raise DomainError(
            f"N={N} exceeds the event-table cap {EVENT_TABLE_CAP} "
            "(dense destination tables)")
    thermo = thermo or params.make_thermo()
    params.validate(thermo)
    kernel = kernel or params.kernel_params()
    phi_a, phi_b = params.boundary_fugacities(thermo)
    rr = reservoir_rates(kernel, N)
    n = N - 1
    ys = np.arange(1, N, dtype=float)
    dest_cdf = np.empty((n, n))
    for x in range(1, N):
        dest_cdf[x - 1] = np.cumsum(np.asarray(jump_prob(kernel, ys - x)))
    q = dest_cdf[:, -1].copy()
    scale = params.boundary_scale()
    birth = scale * (phi_b * rr.right + phi_a * rr.left)
    death_base = scale * (rr.right + rr.left)
    s = phi_a + phi_b
    return EventTables(dest_cdf=dest_cdf, q=q, birth=birth,
                       death_base=death_base,
                       flip_left=scale * rr.left, flip_right=scale * rr.right,
                       params=params, phi_alpha=phi_a, phi_beta=phi_b,
                       alpha_tilde=phi_a / s, beta_tilde=phi_b / s)


class _Fenwick:
    """Prefix-sum tree over per-site rates with incremental updates."""

    def __init__(self, values):
        self.n = len(values)
        self.vals = [float(v) for v in values]
        self._build()

    def _build(self):
        self.tree = [0.0] * (self.n + 1)
        for i in range(1, self.n + 1):
            self.tree[i] += self.vals[i - 1]
            j = i + (i & -i)
            if j <= self.n:
                self.tree[j] += self.tree[i]
        self.total = sum(self.vals)

    def set(self, i: int, v: float) -> None:
        d = v - self.vals[i]
        if d == 0.0:
            return
        self.vals[i] = v
        self.total += d
        j = i + 1
        while j <= self.n:
            self.tree[j] += d
            j += j & -j

    def find(self, target: float) -> int:
        """Smallest index i with prefix-sum > target."""
        idx = 0
        bit = 1 << (self.n.bit_length() - 1)
        rem = target
        tree = self.tree
        n = self.n
        while bit:
            nxt = idx + bit
            if nxt <= n and tree[nxt] <= rem:
                rem -= tree[nxt]
                idx = nxt
            bit >>= 1
        return min(idx, n - 1)


class _Uniforms:
    """Blocked uniform stream (reproducible for a fixed seed)."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.buf = self.gen.random(65536)
        self.i = 0

    def next(self) -> float:
        if self.i >= self.buf.shape[0]:
            self.buf = self.gen.random(65536)
            self.i = 0
        v = self.buf[self.i]
        self.i += 1
        return v


@dataclass
class SimEstimate:
    """Per-site time-averaged means with batch-means standard errors."""

    mean_counts: np.ndarray          # xi for zero-range, eta for exclusion
    se_counts: np.ndarray
    mean_g: Optional[np.ndarray]     # g(xi); None for exclusion
    se_g: Optional[np.ndarray]
    burn_in_time: float
    sample_time: float
    event_count: int
    seed: int
    n_batches: int
    time_scale: float
    histogram: Optional[np.ndarray] = None   # occupation-time fractions
    burn_auto: bool = False

    def __post_init__(self):
        if self.n_batches < 20:
            raise DomainError("standard errors need at least 20 batches")


def _batch_stats(batches: np.ndarray):
    mean = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / math.sqrt(batches.shape[0])
    return mean, se


def _auto_burn_cut(batches: np.ndarray) -> int:
    """Smallest batch index whose running tail mean sits inside the final
    half's two-sigma band at every site (slowest site governs)."""
    B = batches.shape[0]
    half = batches[B // 2:]
    ref = half.mean(axis=0)
    band = 2.0 * half.std(axis=0, ddof=1) / math.sqrt(half.shape[0])
    band = band + 1e-12
    for b in range(B // 2 + 1):
        tail_mean = batches[b:].mean(axis=0)
        if np.all(np.abs(tail_mean - ref) <= 3.0 * band):
            return b
    return B // 2


def simulate_zero_range(params: ModelParams, tables: EventTables,
                        t_burn: Optional[float], t_sample: float,
                        seed: int, n_batches: int = 25,
                        init: Optional[np.ndarray] = None,
                        track_histogram: int = 0) -> SimEstimate:
    """Time-averaged xi(x) and g(xi(x)) over the sampling window.

    ``t_burn=None`` chooses the burn-in with a running-mean heuristic on
    an extended run.  ``track_histogram=K`` also accrues occupation-time
    fractions for counts 0..K (last bin collects overflow).
    """
    if t_sample <= 0.0:
        raise DomainError("t_sample must be positive")
    auto = t_burn is None
    if auto:
        total_batches = 2 * n_batches
        horizon_burn = 0.0
        horizon_sample = 2.0 * t_sample
    else:
        total_batches = n_batches
        horizon_burn = t_burn
        horizon_sample = t_sample
    N = params.N
    n = N - 1
    rate_fn = params.rate
    g_cache = np.concatenate([[0.0], rate_fn.values(256)])

    def g_of(k: int) -> float:
        nonlocal g_cache
        while k >= len(g_cache):
            g_cache = np.concatenate(
                [[0.0], rate_fn.values(2 * (len(g_cache) + 1))])
        return float(g_cache[k])

    counts = (np.zeros(n, dtype=np.int64) if init is None
              else np.asarray(init, dtype=np.int64).copy())
    q = tables.q
    birth = tables.birth
    death_base = tables.death_base
    site_rate = [g_of(int(counts[x])) * (q[x] + death_base[x]) + birth[x]
                 for x in range(n)]
    fen = _Fenwick(site_rate)
    uni = _Uniforms(seed)

    batch_len = horizon_sample / total_batches
    batch_xi = np.zeros((total_batches, n))
    batch_g = np.zeros((total_batches, n))
    kbins = track_histogram + 2 if track_histogram else 0
    hist = np.zeros((n, kbins)) if track_histogram else None

    t = 0.0
    sample_start = horizon_burn
    t_end = horizon_burn + horizon_sample
    last = np.zeros(n)
    acc_xi = np.zeros(n)
    acc_g = np.zeros(n)
    batch_idx = 0
    next_flush = sample_start + batch_len
    events = 0

    def accrue(x: int, upto: float) -> None:
        dt = upto - last[x]
        if dt > 0.0:
            c = int(counts[x])
            acc_xi[x] += c * dt
            acc_g[x] += g_of(c) * dt
            if hist is not None:
                hist[x, min(c, kbins - 1)] += dt
        last[x] = upto

    def flush_all(upto: float) -> None:
        for x in range(n):
            accrue(x, upto)

    while True:
        total = fen.total
        dt = -math.log(1.0 - uni.next()) / total
        t_new = t + dt
        while t_new >= next_flush and batch_idx < total_batches:
            flush_all(next_flush)
            batch_xi[batch_idx] = acc_xi / batch_len
            batch_g[batch_idx] = acc_g / batch_len
            acc_xi[:] = 0.0
            acc_g[:] = 0.0
            batch_idx += 1
            next_flush = sample_start + (batch_idx + 1) * batch_len
        if batch_idx >= total_batches or t_new >= t_end:
            break
        t = t_new
        x = fen.find(uni.next() * total)
        c = int(counts[x])
        gx = g_of(c)
        gb = gx * q[x]
        gd = gx * death_base[x]
        b = birth[x]
        r = uni.next() * (gb + gd + b)
        if r < gb:
            y = int(np.searchsorted(tables.dest_cdf[x],
                                    uni.next() * q[x], side="right"))
            y = min(y, n - 1)
            accrue(x, t)
            accrue(y, t)
            counts[x] -= 1
            counts[y] += 1
            fen.set(x, g_of(int(counts[x])) * (q[x] + death_base[x]) + birth[x])
            fen.set(y, g_of(int(counts[y])) * (q[y] + death_base[y]) + birth[y])
        elif r < gb + gd:
            accrue(x, t)
            counts[x] -= 1
            fen.set(x, g_of(int(counts[x])) * (q[x] + death_base[x]) + birth[x])
        else:
            accrue(x, t)
            counts[x] += 1
            if counts[x] >= COUNT_OVERFLOW_GUARD:
                raise OverflowError("occupation number overflow guard hit")
            fen.set(x, g_of(int(counts[x])) * (q[x] + death_base[x]) + birth[x])
        events += 1
        if events % 524288 == 0:
            fen._build()      # shed accumulated float drift

    if auto:
        cut = _auto_burn_cut(batch_xi)
        use = min(cut, total_batches - n_batches)
        sel = slice(use, total_batches)
        burn_time = use * batch_len
        nb = total_batches - use
    else:
        sel = slice(0, total_batches)
        burn_time = horizon_burn
        nb = total_batches
    mean_xi, se_xi = _batch_stats(batch_xi[sel])
    mean_g, se_g = _batch_stats(batch_g[sel])
    hist_frac = None
    if hist is not None:
        hist_frac = hist / hist.sum(axis=1, keepdims=True)
    return SimEstimate(mean_counts=mean_xi, se_counts=se_xi,
                       mean_g=mean_g, se_g=se_g,
                       burn_in_time=burn_time,
                       sample_time=nb * batch_len, event_count=events,
                       seed=seed, n_batches=nb,
                       time_scale=params.time_scale(),
                       histogram=hist_frac, burn_auto=auto)


def simulate_exclusion(params: ModelParams, tables: EventTables,
                       t_burn: Optional[float], t_sample: float,
                       seed: int, n_batches: int = 25,
                       init: Optional[np.ndarray] = None) -> SimEstimate:
    """Time-averaged eta(x) for the long-jump exclusion chain.

    Bulk exchanges are attempted per ordered pair at rate p(y-x)/2
    (no-ops between equal occupancies are legal self-loops), so bulk site
    rates are constant and only flips touch the Fenwick tree.
    """
    if t_sample <= 0.0:
        raise DomainError("t_sample must be positive")
    auto = t_burn is None
    if auto:
        total_batches = 2 * n_batches
        horizon_burn = 0.0
        horizon_sample = 2.0 * t_sample
    else:
        total_batches = n_batches
        horizon_burn = t_burn
        horizon_sample = t_sample
    N = params.N
    n = N - 1
    a_t, b_t = tables.alpha_tilde, tables.beta_tilde
    eta = (np.zeros(n, dtype=np.int8) if init is None
           else np.asarray(init, dtype=np.int8).copy())
    fl = tables.flip_left
    fr = tables.flip_right
    half_q = 0.5 * tables.q

    def flip_rate(x: int) -> float:
        if eta[x]:
            return fl[x] * (1.0 - a_t) + fr[x] * (1.0 - b_t)
        return fl[x] * a_t + fr[x] * b_t

    site_rate = [half_q[x] + flip_rate(x) for x in range(n)]
    fen = _Fenwick(site_rate)
    uni = _Uniforms(seed)

    batch_len = horizon_sample / total_batches
    batch_eta = np.zeros((total_batches, n))
    t = 0.0
    sample_start = horizon_burn
    t_end = horizon_burn + horizon_sample
    last = np.zeros(n)
    acc = np.zeros(n)
    batch_idx = 0
    next_flush = sample_start + batch_len
    events = 0

    def accrue(x: int, upto: float) -> None:
        dt = upto - last[x]
        if dt > 0.0:
            acc[x] += float(eta[x]) * dt
        last[x] = upto

    while True:
        total = fen.total
        dt = -math.log(1.0 - uni.next()) / total
        t_new = t + dt
        while t_new >= next_flush and batch_idx < total_batches:
            for x in range(n):
                accrue(x, next_flush)
            batch_eta[batch_idx] = acc / batch_len
            acc[:] = 0.0
            batch_idx += 1
            next_flush = sample_start + (batch_idx + 1) * batch_len
        if batch_idx >= total_batches or t_new >= t_end:
            break
        t = t_new
        x = fen.find(uni.next() * total)
        r = uni.next() * (half_q[x] + flip_rate(x))
        if r < half_q[x]:
            y = int(np.searchsorted(tables.dest_cdf[x],
                                    uni.next() * tables.q[x], side="right"))
            y = min(y, n - 1)
            if eta[x] != eta[y]:
                accrue(x, t)
                accrue(y, t)
                eta[x], eta[y] = eta[y], eta[x]
                fen.set(x, half_q[x] + flip_rate(x))
                fen.set(y, half_q[y] + flip_rate(y))
        else:
            accrue(x, t)
            eta[x] = 1 - eta[x]
            fen.set(x, half_q[x] + flip_rate(x))
        events += 1
        if events % 524288 == 0:
            fen._build()

    if auto:
        cut = _auto_burn_cut(batch_eta)
        use = min(cut, total_batches - n_batches)
        sel = slice(use, total_batches)
        burn_time = use * batch_len
        nb = total_batches - use
    else:
        sel = slice(0, total_batches)
        burn_time = horizon_burn
        nb = total_batches
    mean_eta, se_eta = _batch_stats(batch_eta[sel])
    return SimEstimate(mean_counts=mean_eta, se_counts=se_eta,
                       mean_g=None, se_g=None, burn_in_time=burn_time,
                       sample_time=nb * batch_len, event_count=events,
                       seed=seed, n_batches=nb,
                       time_scale=params.time_scale(), burn_auto=auto)


def empirical_pairing(config: ZRConfiguration, G, N: int) -> float:
    """<pi^N, G> = (1/#Lambda_N) sum_x G(x/N) xi(x)."""
    gv = vectorized(G)
    xs = np.arange(1, N, dtype=float) / N
    return float(np.mean(gv(xs) * config.counts))


# -- brute-force oracle -----------------------------------------------------

def exact_stationary_distribution(params: ModelParams,
                                  thermo: Optional[ThermoTables] = None,
                                  kmax: int = 40):
    """Stationary law of the truncated chain (counts <= kmax) by linear
    algebra, from the same rates the simulator uses.

    Returns (pi, product_pmf, tv_distance, leakage): leakage is the
    product-measure mass outside the truncation box.
    """
    thermo = thermo or params.make_thermo()
    tables = build_event_tables(params, thermo)
    n = params.N - 1
    S = (kmax + 1) ** n
    if S > 250_000:
        raise DomainError(
            f"truncated state space too large ({S} states)")
    g_vals = np.concatenate([[0.0], params.rate.values(kmax + 1)])
    kernel = params.kernel_params()
    p_of = {}
    for x in range(1, params.N):
        for y in range(1, params.N):
            if y != x:
                p_of[(x, y)] = float(jump_prob(kernel, y - x))

    def state_index(c):
        idx = 0
        for v in c:
            idx = idx * (kmax + 1) + v
        return idx

    states = [tuple(int(d) for d in np.unravel_index(i, (kmax + 1,) * n))
              for i in range(S)]
    Q = np.zeros((S, S))
    for i, c in enumerate(states):
        out = 0.0
        for x in range(n):
            cx = c[x]
            gx = g_vals[cx]
            if gx > 0.0:
                for y in range(n):
                    if y == x:
                        continue
                    rate = gx * p_of[(x + 1, y + 1)]
                    if c[y] < kmax:
                        tgt = list(c)
                        tgt[x] -= 1
                        tgt[y] += 1
                        Q[i, state_index(tgt)] += rate
                        out += rate
                    # moves beyond the cap are impossible inside the box;
                    # their product-measure mass is the reported leakage
                drate = gx * tables.death_base[x]
                tgt = list(c)
                tgt[x] -= 1
                Q[i, state_index(tgt)] += drate
                out += drate
            if c[x] < kmax:
                tgt = list(c)
                tgt[x] += 1
                Q[i, state_index(tgt)] += tables.birth[x]
                out += tables.birth[x]
        Q[i, i] = -out
    A = Q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)

    from .traffic import assemble, solve_direct
    profile = solve_direct(assemble(params, thermo))
    ks = np.arange(0, kmax + 1)
    marginals = [thermo.occupation_pmf(profile.phi_at(x + 1), ks)
                 for x in range(n)]
    prod = marginals[0]
    for marg in marginals[1:]:
        prod = np.multiply.outer(prod, marg)
    prod = prod.reshape(-1)
    leakage = 1.0 - float(prod.sum())
    tv = 0.5 * float(np.abs(pi - prod).sum()) + 0.5 * leakage
    return pi, prod, tv, leakage


# -- static-mapping check ---------------------------------------------------

@dataclass
class MappingReport:
    z_eta: np.ndarray       # (phi_a+phi_b) E[eta(x)] vs phi_N(x)
    z_g: np.ndarray         # E[g(xi(x))] vs phi_N(x)
    z_cross: np.ndarray     # exclusion vs zero-range estimates
    fraction_ok: float
    passed: bool
    est_zr: SimEstimate
    est_ex: SimEstimate

    @property
    def events_zr(self) -> int:
        return self.est_zr.event_count

    @property
    def events_ex(self) -> int:
        return self.est_ex.event_count

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}: {self.fraction_ok:.1%} of sites within 3 sigma "
                f"(zr events {self.events_zr}, ex events {self.events_ex})")


def mapping_check(params: ModelParams, profile: FugacityProfile,
                  seeds: tuple = (1234, 5678),
                  t_burn: float = 50.0, t_sample: float = 500.0,
                  thermo: Optional[ThermoTables] = None,
                  tables_ex: Optional[EventTables] = None) -> MappingReport:
    """Statistical verification of the static zero-range/exclusion mapping:
    (phi_a+phi_b) E[eta(x)] = E[g(xi(x))] = phi_N(x) site by site.

    ``tables_ex`` overrides the exclusion-side rates (negative-control
    hook for tests); pass requires >= 95% of sites within 3 sigma on all
    three comparisons.  The report carries both chains' estimates.
    """
    thermo = thermo or params.make_thermo()
    tables = build_event_tables(params, thermo)
    est_zr = simulate_zero_range(params, tables, t_burn, t_sample, seeds[0])
    est_ex = simulate_exclusion(params, tables_ex or tables, t_burn,
                                t_sample, seeds[1])
    phi = profile.values
    s = tables.phi_alpha + tables.phi_beta
    z_eta = (s * est_ex.mean_counts - phi) / (s * est_ex.se_counts + 1e-300)
    z_g = (est_zr.mean_g - phi) / (est_zr.se_g + 1e-300)
    se_cross = np.sqrt((s * est_ex.se_counts) ** 2 + est_zr.se_g ** 2)
    z_cross = (s * est_ex.mean_counts - est_zr.mean_g) / (se_cross + 1e-300)
    ok = ((np.abs(z_eta) < 3.0) & (np.abs(z_g) < 3.0)
          & (np.abs(z_cross) < 3.0))
    frac = float(ok.mean())
    return MappingReport(z_eta=z_eta, z_g=z_g, z_cross=z_cross,
                         fraction_ok=frac, passed=frac >= 0.95,
                         est_zr=est_zr, est_ex=est_ex)


def write_estimate_csv(est: SimEstimate, profile: FugacityProfile,
                       path) -> None:
    """Estimate dump with z-scores against the exact fugacity profile."""
    lines = [
        f"# seed = {est.seed}",
        f"# t_burn = {est.burn_in_time!r}",
        f"# t_sample = {est.sample_time!r}",
        f"# event_count = {est.event_count}",
        f"# time_scale = {est.time_scale!r}",
        "x,mean_xi,se_xi,mean_g,se_g,exact_phi,z_score",
    ]
    phi = profile.values
    for x in range(len(est.mean_counts)):
        if est.mean_g is None:
            mg, sg = "", ""
            z = (est.mean_counts[x] * (profile.phi_alpha + profile.phi_beta)
                 - phi[x]) / ((profile.phi_alpha + profile.phi_beta)
                              * est.se_counts[x] + 1e-300)
        else:
            mg, sg = repr(float(est.mean_g[x])), repr(float(est.se_g[x]))
            z = (est.mean_g[x] - phi[x]) / (est.se_g[x] + 1e-300)
        lines.append(f"{x + 1},{float(est.mean_counts[x])!r},{float(est.se_counts[x])!r},"
                     f"{mg},{sg},{float(phi[x])!r},{float(z)!r}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")
