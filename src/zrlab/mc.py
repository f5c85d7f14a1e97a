"""Continuous-time (Gillespie) simulators for the boundary-driven
zero-range and exclusion dynamics, exact in law.

One event loop (``_run_chain``) drives both chains.  It draws the
exponential holding time, selects the firing site by walking a Fenwick
tree over per-site total rates (O(log N) per event, at most two sites
change rate per event), flushes batch means and cuts the burn-in.  Each
model (``_zero_range_chain``, ``_exclusion_chain``) brings only its state,
its site rate, its accrual of observables and its move: the branch and
destination draws and the state and tree updates of a fired site.  Time
averages are accrued lazily per site (value times holding time, flushed on
change and at batch boundaries); standard errors come from batch means.

Every rate is read off the assembled ``TrafficSystem``, the one owner of
the generator's rates: the kernel row gives the jump destinations, the
right-hand side the births, the dominance margin the death base and the
reservoir rates the exclusion flips.  kappa = 0 (the conservative limit)
is valid here; only the stationary solve refuses it.

A brute-force oracle for the whole stack is exact_stationary_distribution,
which builds the truncated generator from the same system and solves for
its stationary vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import DomainError
from .hydrostatic import tilde_densities
from .kernel import vectorized
from .thermo import ThermoTables
from .traffic import (FugacityProfile, ModelParams, TrafficSystem, assemble,
                      solve_direct)

EVENT_TABLE_CAP = 4096          # dest tables are dense (N-1)^2
COUNT_OVERFLOW_GUARD = 1 << 62
N_BATCHES = 25                  # batch means per sampling window


@dataclass
class EventTables:
    """Jump-destination samplers over an assembled traffic system.

    dest_cdf[x-1] holds the unnormalized cumulative kernel mass over the
    in-range destinations of site x; its last column is the in-range mass
    q_x.  Every other rate is read off ``system``.
    """

    system: TrafficSystem
    dest_cdf: np.ndarray


def build_event_tables(system: TrafficSystem) -> EventTables:
    """Destination tables: row x of the Toeplitz matrix of in-range jump
    probabilities p(y-x), cumulated along the row.

    The zero-range site rate is g(xi(x)) (q_x + death_base_x) + birth_x,
    with birth = ``system.rhs`` and death_base =
    ``system.dominance_margin()``.
    """
    N = system.N
    if math.isnan(system.params.kappa):     # NaN rates never end a run
        raise DomainError("the chains need kappa >= 0, got NaN")
    if N > EVENT_TABLE_CAP:
        raise DomainError(
            f"N={N} exceeds the event-table cap {EVENT_TABLE_CAP} "
            "(dense destination tables)")
    dest_cdf = scipy.linalg.toeplitz(system.kernel_row)
    np.cumsum(dest_cdf, axis=1, out=dest_cdf)
    return EventTables(system=system, dest_cdf=dest_cdf)


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
    time_scale: float
    histogram: Optional[np.ndarray] = None   # occupation-time fractions


def _batch_stats(batches: np.ndarray):
    mean = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / math.sqrt(batches.shape[0])
    return mean, se


@dataclass
class _Chain:
    """What one model brings to the event loop (see ``_run_chain``).

    ``site_rate(x)`` is site x's total rate in the current ``state``.
    ``acc`` is the (observables x sites) time-integral accumulator that
    ``accrue(x, upto)`` adds site x's values into up to time ``upto``
    (row 0 is the occupation, row 1, if any, g of it);
    ``move(x, t, uniform, fen)`` fires site x at time t: it draws its own
    branch and destination from ``uniform()``, accrues the sites it
    changes, updates the state and resets their rates in ``fen``.
    """

    state: np.ndarray
    acc: np.ndarray
    site_rate: Callable[[int], float]
    accrue: Callable[[int, float], None]
    move: Callable[[int, float, Callable[[], float], _Fenwick], None]
    hist: Optional[np.ndarray] = None    # (sites x bins) occupation times


def _initial_state(init, n: int, dtype, occupancy: bool) -> np.ndarray:
    """A copy of ``init`` as the chain's state (empty lattice for None);
    refuses a wrong length, and counts that are not integers >= 0 (or,
    for ``occupancy``, not in {0, 1})."""
    if init is None:
        return np.zeros(n, dtype=dtype)
    arr = np.asarray(init)
    if arr.shape != (n,):
        raise DomainError(
            f"init must hold the N-1 = {n} site values, got shape {arr.shape}")
    if occupancy:
        if not np.all((arr == 0) | (arr == 1)):
            raise DomainError("exclusion occupancies must be 0 or 1")
    elif not (np.all(np.isfinite(arr)) and np.all(arr >= 0)
              and np.all(arr == np.floor(arr))):
        raise DomainError("occupation numbers must be integers >= 0")
    return arr.astype(dtype)


def _run_chain(chain: _Chain, t_burn: float, t_sample: float,
               seed: int, time_scale: float) -> SimEstimate:
    """Gillespie's direct method for either chain.

    Draws the exponential holding time and the firing site (Fenwick
    descent), hands the site to ``chain.move``, flushes per-site time
    integrals into N_BATCHES batch means over [t_burn, t_burn + t_sample]
    and sheds the tree's float drift every 524288 events.
    """
    if not 0.0 < t_sample < math.inf:
        raise DomainError(f"t_sample must be positive and finite, got "
                          f"{t_sample}")
    if not 0.0 <= t_burn < math.inf:
        raise DomainError(f"t_burn must be finite and >= 0, got {t_burn}")
    n = len(chain.state)
    acc, accrue, move = chain.acc, chain.accrue, chain.move
    fen = _Fenwick([chain.site_rate(x) for x in range(n)])
    uniform = _Uniforms(seed).next

    batch_len = t_sample / N_BATCHES
    batches = np.zeros((acc.shape[0], N_BATCHES, n))
    t = 0.0
    t_end = t_burn + t_sample
    batch_idx = 0
    next_flush = t_burn + batch_len
    events = 0
    while True:
        total = fen.total
        dt = -math.log(1.0 - uniform()) / total
        t_new = t + dt
        while t_new >= next_flush and batch_idx < N_BATCHES:
            for x in range(n):
                accrue(x, next_flush)
            batches[:, batch_idx] = acc / batch_len
            acc[:] = 0.0
            batch_idx += 1
            next_flush = t_burn + (batch_idx + 1) * batch_len
        if batch_idx >= N_BATCHES or t_new >= t_end:
            break
        t = t_new
        move(fen.find(uniform() * total), t, uniform, fen)
        events += 1
        if events % 524288 == 0:
            fen._build()      # shed accumulated float drift

    means = [_batch_stats(b) for b in batches]
    mean_g, se_g = means[1] if len(means) > 1 else (None, None)
    hist_frac = None
    if chain.hist is not None:
        hist_frac = chain.hist / chain.hist.sum(axis=1, keepdims=True)
    return SimEstimate(mean_counts=means[0][0], se_counts=means[0][1],
                       mean_g=mean_g, se_g=se_g, burn_in_time=t_burn,
                       sample_time=N_BATCHES * batch_len, event_count=events,
                       seed=seed, time_scale=time_scale, histogram=hist_frac)


def _zero_range_chain(params: ModelParams, tables: EventTables,
                      counts: np.ndarray, track_histogram: int) -> _Chain:
    """Observables xi(x) and g(xi(x)); site x fires at
    g(xi(x)) (q_x + death_base_x) + birth_x and then jumps, dies or gives
    birth in proportion to those three terms."""
    n = len(counts)
    rate_fn = params.rate
    g_cache = np.concatenate([[0.0], rate_fn.values(256)])

    def g_of(k: int) -> float:
        nonlocal g_cache
        while k >= len(g_cache):
            g_cache = np.concatenate(
                [[0.0], rate_fn.values(2 * (len(g_cache) + 1))])
        return float(g_cache[k])

    system, dest_cdf = tables.system, tables.dest_cdf
    q, birth = dest_cdf[:, -1], system.rhs
    death_base = system.dominance_margin()
    out = q + death_base
    acc = np.zeros((2, n))
    acc_xi, acc_g = acc
    last = np.zeros(n)
    kbins = track_histogram + 2 if track_histogram else 0
    hist = np.zeros((n, kbins)) if track_histogram else None

    def site_rate(x: int) -> float:
        return g_of(int(counts[x])) * out[x] + birth[x]

    def accrue(x: int, upto: float) -> None:
        dt = upto - last[x]
        if dt > 0.0:
            c = int(counts[x])
            acc_xi[x] += c * dt
            acc_g[x] += g_of(c) * dt
            if hist is not None:
                hist[x, min(c, kbins - 1)] += dt
        last[x] = upto

    # rates are inlined below: one Python call fewer per tree update
    def move(x: int, t: float, uniform, fen: _Fenwick) -> None:
        gx = g_of(int(counts[x]))
        gb = gx * q[x]
        gd = gx * death_base[x]
        r = uniform() * (gb + gd + birth[x])
        accrue(x, t)
        if r < gb:
            y = int(np.searchsorted(dest_cdf[x], uniform() * q[x],
                                    side="right"))
            y = min(y, n - 1)
            accrue(y, t)
            counts[x] -= 1
            counts[y] += 1
            fen.set(x, g_of(int(counts[x])) * out[x] + birth[x])
            fen.set(y, g_of(int(counts[y])) * out[y] + birth[y])
            return
        if r < gb + gd:
            counts[x] -= 1
        else:
            counts[x] += 1
            if counts[x] >= COUNT_OVERFLOW_GUARD:
                raise OverflowError("occupation number overflow guard hit")
        fen.set(x, g_of(int(counts[x])) * out[x] + birth[x])

    return _Chain(state=counts, acc=acc, site_rate=site_rate, accrue=accrue,
                  move=move, hist=hist)


def _exclusion_chain(tables: EventTables, eta: np.ndarray) -> _Chain:
    """Observable eta(x).  Bulk exchanges are attempted per ordered pair at
    rate p(y-x)/2 (no-ops between equal occupancies are legal self-loops),
    so bulk site rates are constant and only flips change a site's rate."""
    n = len(eta)
    system, dest_cdf = tables.system, tables.dest_cdf
    a_t, b_t = tilde_densities(system.phi_alpha, system.phi_beta)
    scale = system.params.boundary_scale()
    fl, fr = scale * system.rates.left, scale * system.rates.right
    q = dest_cdf[:, -1]
    half_q = 0.5 * q
    acc = np.zeros((1, n))
    acc_eta = acc[0]
    last = np.zeros(n)

    def site_rate(x: int) -> float:
        if eta[x]:
            return half_q[x] + (fl[x] * (1.0 - a_t) + fr[x] * (1.0 - b_t))
        return half_q[x] + (fl[x] * a_t + fr[x] * b_t)

    def accrue(x: int, upto: float) -> None:
        dt = upto - last[x]
        if dt > 0.0:
            acc_eta[x] += float(eta[x]) * dt
        last[x] = upto

    def move(x: int, t: float, uniform, fen: _Fenwick) -> None:
        r = uniform() * site_rate(x)
        if r < half_q[x]:
            y = int(np.searchsorted(dest_cdf[x], uniform() * q[x],
                                    side="right"))
            y = min(y, n - 1)
            if eta[x] != eta[y]:
                accrue(x, t)
                accrue(y, t)
                eta[x], eta[y] = eta[y], eta[x]
                fen.set(x, site_rate(x))
                fen.set(y, site_rate(y))
        else:
            accrue(x, t)
            eta[x] = 1 - eta[x]
            fen.set(x, site_rate(x))

    return _Chain(state=eta, acc=acc, site_rate=site_rate, accrue=accrue,
                  move=move)


def simulate_zero_range(params: ModelParams, tables: EventTables,
                        t_burn: float, t_sample: float, seed: int,
                        init: Optional[np.ndarray] = None,
                        track_histogram: int = 0) -> SimEstimate:
    """Time-averaged xi(x) and g(xi(x)) over the sampling window.

    ``track_histogram=K`` also accrues occupation-time fractions for
    counts 0..K (last bin collects overflow).  ``init`` is the starting
    configuration (N-1 integers >= 0; empty by default).
    """
    counts = _initial_state(init, params.N - 1, np.int64, occupancy=False)
    return _run_chain(_zero_range_chain(params, tables, counts,
                                        track_histogram),
                      t_burn, t_sample, seed, params.time_scale())


def simulate_exclusion(params: ModelParams, tables: EventTables,
                       t_burn: float, t_sample: float, seed: int,
                       init: Optional[np.ndarray] = None) -> SimEstimate:
    """Time-averaged eta(x) for the long-jump exclusion chain.

    ``init`` is the starting configuration (N-1 occupancies in {0, 1};
    empty by default).
    """
    eta = _initial_state(init, params.N - 1, np.int8, occupancy=True)
    return _run_chain(_exclusion_chain(tables, eta), t_burn, t_sample, seed,
                      params.time_scale())


def empirical_pairing(counts: np.ndarray, G, N: int) -> float:
    """<pi^N, G> = (1/#Lambda_N) sum_x G(x/N) xi(x)."""
    gv = vectorized(G)
    xs = np.arange(1, N, dtype=float) / N
    return float(np.mean(gv(xs) * np.asarray(counts)))


# -- brute-force oracle -----------------------------------------------------

def exact_stationary_distribution(params: ModelParams,
                                  thermo: Optional[ThermoTables] = None,
                                  kmax: int = 40):
    """Stationary law of the truncated chain (counts <= kmax) by linear
    algebra, from the assembled system the simulator reads its rates off.

    Returns (pi, product_pmf, tv_distance, leakage): leakage is the
    product-measure mass outside the truncation box.
    """
    thermo = thermo or params.make_thermo()
    system = assemble(params, thermo)
    n = params.N - 1
    S = (kmax + 1) ** n
    if S > 250_000:
        raise DomainError(
            f"truncated state space too large ({S} states)")
    g_vals = np.concatenate([[0.0], params.rate.values(kmax + 1)])
    p, birth = system.kernel_row, system.rhs
    death_base = system.dominance_margin()

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
                    rate = gx * p[abs(x - y)]
                    if c[y] < kmax:
                        tgt = list(c)
                        tgt[x] -= 1
                        tgt[y] += 1
                        Q[i, state_index(tgt)] += rate
                        out += rate
                    # moves beyond the cap are impossible inside the box;
                    # their product-measure mass is the reported leakage
                drate = gx * death_base[x]
                tgt = list(c)
                tgt[x] -= 1
                Q[i, state_index(tgt)] += drate
                out += drate
            if c[x] < kmax:
                tgt = list(c)
                tgt[x] += 1
                Q[i, state_index(tgt)] += birth[x]
                out += birth[x]
        Q[i, i] = -out
    A = Q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)

    profile = solve_direct(system)
    ks = np.arange(0, kmax + 1)
    marginals = thermo.occupation_pmf(profile.values[:, None], ks)
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
    system = assemble(params, thermo)
    tables = build_event_tables(system)
    est_zr = simulate_zero_range(params, tables, t_burn, t_sample, seeds[0])
    est_ex = simulate_exclusion(params, tables_ex or tables, t_burn,
                                t_sample, seeds[1])
    phi = profile.values
    s = system.phi_alpha + system.phi_beta
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
