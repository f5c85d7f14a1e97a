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

The loop runs on Python scalars: states, rates, the tree and the
accumulators are lists and the uniforms are Python floats, because in an
interpreted loop arithmetic on numpy scalars costs several times that on
floats, and that overhead, spread over every line, was the loop's cost.
Jump destinations bisect one cumulative kernel row (``EventTables``), so
the tables cost O(N) for any N.  Draws and float operations run in a
fixed order, so estimates at a fixed seed are pinned bit for bit by the
tests.

Every rate is read off the assembled ``TrafficSystem``, the one owner of
the generator's rates: the kernel row gives the jump destinations, the
right-hand side the births, the dominance margin the death base and the
reservoir rates the exclusion flips.  kappa = 0 (the conservative limit)
is valid here; only the stationary solve refuses it.

A brute-force oracle for the whole stack is exact_stationary_distribution,
which builds the truncated generator from the same system and solves for
its stationary vector.

The static-mapping check (``mapping_check``) runs its two chains at the
same time in two processes: the exclusion chain in a child forked through
multiprocessing's fork context, the zero-range chain in the caller.  Only
the child's outcome is pickled, and multiprocessing is imported at the
first mapping check, not with the package.  Each chain reads its own
seed's stream, so the estimates are those of two calls in one process,
bit for bit; the speed-up needs a second CPU.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .hydrostatic import tilde_densities
from .table import header_lines, write_table
from .thermo import ThermoTables
from .traffic import (FugacityProfile, ModelParams, TrafficSystem, assemble,
                      solve_direct)

N_BATCHES = 25                  # batch means per sampling window
ORACLE_BYTES = 1 << 30          # the exact oracle's dense generator, at most


@dataclass
class EventTables:
    """An assembled traffic system plus its cumulative kernel row
    ``cum[k]`` = p(1) + ... + p(k), ``cum[0]`` = 0, over the n = N - 1
    sites.  Every rate, N, g and the time scale are read off ``system``."""

    system: TrafficSystem
    cum: list

    def in_range_mass(self) -> list:
        """q_x = cum[x] + cum[n-1-x] for every site x."""
        return [a + b for a, b in zip(self.cum, reversed(self.cum))]

    def destination(self, x: int, r: float) -> int:
        """The site a jump from x lands on, for r uniform on [0, q_x): the
        sites in row order, far left first; past q_x by rounding, the last."""
        cum = self.cum
        cx = cum[x]
        if r < cx:
            return x - bisect_left(cum, cx - r)
        return min(x + bisect_right(cum, r - cx), len(cum) - 1)


def build_event_tables(system: TrafficSystem) -> EventTables:
    """O(N) tables for any N.  The zero-range site rate is
    g(xi(x)) (q_x + death_base_x) + birth_x, with birth = ``system.rhs`` and
    death_base = ``system.dominance_margin()``."""
    scale = system.params.boundary_scale()
    if not 0.0 <= scale < math.inf:     # NaN or inf rates never end a run
        raise DomainError(f"the chains need a reservoir scale kappa "
                          f"N^(-theta) >= 0 and finite, got {scale}")
    return EventTables(system, np.cumsum(system.kernel_row).tolist())


def _fenwick(rates: list) -> list:
    """Prefix-sum tree over per-site rates (1-based); slot 0 holds their
    total.  ``_run_chain`` descends it inline and updates it in place."""
    n = len(rates)
    tree = [0.0] * (n + 1)
    for i in range(1, n + 1):
        tree[i] += rates[i - 1]
        j = i + (i & -i)
        if j <= n:
            tree[j] += tree[i]
    tree[0] = sum(rates)
    return tree


def _uniforms(seed) -> Callable[[], float]:
    """The uniform stream of ``default_rng(seed)`` read as Python floats
    (reproducible for a fixed seed).  The generator fills blocks draw by
    draw, so the block length does not change the stream; 4096 keeps the
    block's Python floats near 0.1 MB."""
    gen = np.random.default_rng(seed)
    return itertools.chain.from_iterable(
        iter(lambda: gen.random(4096).tolist(), None)).__next__


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

    ``site_rate(x)`` is site x's total rate in the current ``state`` (a
    list of ints).  ``acc`` holds one list per observable (row 0 the
    occupation, row 1, if any, g of it) of per-site time integrals that
    ``accrue(x, upto)`` adds site x's values into up to time ``upto``;
    ``move(x, t, uniform, set_rate)`` fires site x at time t: it draws its
    own branch and destination from ``uniform()``, accrues the sites it
    changes, updates the state and hands their new rates to ``set_rate``.
    """

    state: list
    acc: list
    site_rate: Callable[[int], float]
    accrue: Callable[[int, float], None]
    move: Callable[[int, float, Callable[[], float],
                    Callable[[int, float], None]], None]
    hist: Optional[list] = None     # (sites x bins) occupation times


def _initial_state(init, n: int, occupancy: bool) -> list:
    """``init`` as the chain's state, a list of ints (empty lattice for
    None); refuses a wrong length, and counts that are not integers >= 0
    (or, for ``occupancy``, not in {0, 1})."""
    if init is None:
        return [0] * n
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
    return arr.astype(np.int64).tolist()


def _run_chain(chain: _Chain, t_burn: float, t_sample: float,
               seed: int, time_scale: float) -> SimEstimate:
    """Gillespie's direct method for either chain.

    Draws the exponential holding time and the firing site (Fenwick
    descent), hands the site to ``chain.move``, flushes per-site time
    integrals into N_BATCHES batch means over [t_burn, t_burn + t_sample]
    and sheds the tree's float drift every 524288 events.  A state no site
    can leave (total rate 0: an empty lattice with kappa = 0) holds until
    the end, with no event.
    """
    if not 0.0 < t_sample < math.inf:
        raise DomainError(f"t_sample must be positive and finite, got "
                          f"{t_sample}")
    if not 0.0 <= t_burn < math.inf:
        raise DomainError(f"t_burn must be finite and >= 0, got {t_burn}")
    n = len(chain.state)
    acc, accrue, move = chain.acc, chain.accrue, chain.move
    rates = [chain.site_rate(x) for x in range(n)]
    tree = _fenwick(rates)
    top = 1 << (n.bit_length() - 1)

    def set_rate(x: int, v: float) -> None:
        d = v - rates[x]
        if d == 0.0:
            return
        rates[x] = v
        tree[0] += d
        j = x + 1
        while j <= n:
            tree[j] += d
            j += j & -j

    uniform = _uniforms(seed)
    batch_len = t_sample / N_BATCHES
    batches = np.zeros((len(acc), N_BATCHES, n))
    t = 0.0
    t_end = t_burn + t_sample
    batch_idx = 0
    next_flush = t_burn + batch_len
    events = 0
    while True:
        total = tree[0]
        dt = -math.log(1.0 - uniform()) / total if total > 0.0 else math.inf
        t_new = t + dt
        while t_new >= next_flush and batch_idx < N_BATCHES:
            for x in range(n):
                accrue(x, next_flush)
            batches[:, batch_idx] = np.array(acc) / batch_len
            for row in acc:
                row[:] = [0.0] * n
            batch_idx += 1
            next_flush = t_burn + (batch_idx + 1) * batch_len
        if batch_idx >= N_BATCHES or t_new >= t_end:
            break
        t = t_new
        # descend to the first site whose rate prefix sum exceeds u * total
        rem = uniform() * total
        x = 0
        bit = top
        while bit:
            nxt = x + bit
            if nxt <= n and tree[nxt] <= rem:
                rem -= tree[nxt]
                x = nxt
            bit >>= 1
        move(x if x < n else n - 1, t, uniform, set_rate)
        events += 1
        if events % 524288 == 0:
            tree[:] = _fenwick(rates)       # shed accumulated float drift

    means = [_batch_stats(b) for b in batches]
    mean_g, se_g = means[1] if len(means) > 1 else (None, None)
    hist_frac = None
    if chain.hist is not None:
        hist = np.array(chain.hist)
        hist_frac = hist / hist.sum(axis=1, keepdims=True)
    return SimEstimate(mean_counts=means[0][0], se_counts=means[0][1],
                       mean_g=mean_g, se_g=se_g, burn_in_time=t_burn,
                       sample_time=N_BATCHES * batch_len, event_count=events,
                       seed=seed, time_scale=time_scale, histogram=hist_frac)


def _zero_range_chain(tables: EventTables, counts: list,
                      track_histogram: int, t_burn: float) -> _Chain:
    """Observables xi(x) and g(xi(x)); site x fires at
    g(xi(x)) (q_x + death_base_x) + birth_x and then jumps, dies or gives
    birth in proportion to those three terms.  The histogram, if tracked,
    covers the occupation times after ``t_burn``."""
    n = len(counts)
    rate_fn = tables.system.params.rate
    g_cache = [0.0] + rate_fn.values(256).tolist()

    def g_of(k: int) -> float:
        while k >= len(g_cache):
            g_cache[:] = [0.0] + rate_fn.values(
                2 * (len(g_cache) + 1)).tolist()
        return g_cache[k]

    # g_cache covers every count the state holds: the largest initial one,
    # and each count a move raises, which ``move`` looks up with g_of
    g_of(max(counts, default=0))
    system, destination = tables.system, tables.destination
    q, death_base = tables.in_range_mass(), system.dominance_margin().tolist()
    out = [qx + dx for qx, dx in zip(q, death_base)]
    birth = system.rhs.tolist()
    acc = [[0.0] * n, [0.0] * n]
    acc_xi, acc_g = acc
    last = [0.0] * n
    kbins = track_histogram + 2 if track_histogram else 0
    hist = [[0.0] * kbins for _ in range(n)] if track_histogram else None

    def site_rate(x: int) -> float:
        return g_cache[counts[x]] * out[x] + birth[x]

    def accrue(x: int, upto: float) -> None:
        dt = upto - last[x]
        if dt > 0.0:
            c = counts[x]
            acc_xi[x] += c * dt
            acc_g[x] += g_cache[c] * dt
            if hist is not None and upto > t_burn:
                hist[x][min(c, kbins - 1)] += upto - max(last[x], t_burn)
        last[x] = upto

    def move(x: int, t: float, uniform, set_rate) -> None:
        gx = g_cache[counts[x]]
        gb = gx * q[x]
        gd = gx * death_base[x]
        r = uniform() * (gb + gd + birth[x])
        accrue(x, t)
        if r < gb:
            y = destination(x, uniform() * q[x])
            accrue(y, t)
            counts[x] -= 1
            counts[y] += 1
            set_rate(x, g_cache[counts[x]] * out[x] + birth[x])
            set_rate(y, g_of(counts[y]) * out[y] + birth[y])
            return
        if r < gb + gd:
            counts[x] -= 1
            set_rate(x, g_cache[counts[x]] * out[x] + birth[x])
            return
        counts[x] += 1
        set_rate(x, g_of(counts[x]) * out[x] + birth[x])

    return _Chain(state=counts, acc=acc, site_rate=site_rate, accrue=accrue,
                  move=move, hist=hist)


def _exclusion_chain(tables: EventTables, eta: list) -> _Chain:
    """Observable eta(x).  Bulk exchanges are attempted per ordered pair at
    rate p(y-x)/2 (no-ops between equal occupancies are legal self-loops),
    so bulk site rates are constant and only flips change a site's rate."""
    n = len(eta)
    system, destination = tables.system, tables.destination
    a_t, b_t = tilde_densities(system.phi_alpha, system.phi_beta)
    scale = system.params.boundary_scale()
    fl = (scale * system.rates.left).tolist()
    fr = (scale * system.rates.right).tolist()
    q = tables.in_range_mass()
    half_q = [0.5 * qx for qx in q]
    # site x's rate when empty (rate[0]) and when occupied (rate[1])
    rate = ([half_q[x] + (fl[x] * a_t + fr[x] * b_t) for x in range(n)],
            [half_q[x] + (fl[x] * (1.0 - a_t) + fr[x] * (1.0 - b_t))
             for x in range(n)])
    acc = [[0.0] * n]
    acc_eta = acc[0]
    last = [0.0] * n

    def site_rate(x: int) -> float:
        return rate[eta[x]][x]

    def accrue(x: int, upto: float) -> None:
        dt = upto - last[x]
        if dt > 0.0:
            acc_eta[x] += eta[x] * dt
        last[x] = upto

    def move(x: int, t: float, uniform, set_rate) -> None:
        ex = eta[x]
        if uniform() * rate[ex][x] < half_q[x]:
            y = destination(x, uniform() * q[x])
            if ex != eta[y]:
                accrue(x, t)
                accrue(y, t)
                eta[x], eta[y] = 1 - ex, ex
                set_rate(x, rate[1 - ex][x])
                set_rate(y, rate[ex][y])
        else:
            accrue(x, t)
            eta[x] = 1 - ex
            set_rate(x, rate[1 - ex][x])

    return _Chain(state=eta, acc=acc, site_rate=site_rate, accrue=accrue,
                  move=move)


def simulate_zero_range(tables: EventTables, t_burn: float, t_sample: float,
                        seed: int, init: Optional[np.ndarray] = None,
                        track_histogram: int = 0) -> SimEstimate:
    """Time-averaged xi(x) and g(xi(x)) over the sampling window, for the
    model of ``tables.system``.

    ``track_histogram=K`` also accrues occupation-time fractions for
    counts 0..K (last bin collects overflow) over the sampling window.
    ``init`` is the starting configuration (N-1 integers >= 0; empty by
    default).
    """
    counts = _initial_state(init, tables.system.N - 1, occupancy=False)
    chain = _zero_range_chain(tables, counts, track_histogram, t_burn)
    return _run_chain(chain, t_burn, t_sample, seed,
                      tables.system.params.time_scale())


def simulate_exclusion(tables: EventTables, t_burn: float, t_sample: float,
                       seed: int, init: Optional[np.ndarray] = None
                       ) -> SimEstimate:
    """Time-averaged eta(x) for the long-jump exclusion chain of
    ``tables.system``.

    ``init`` is the starting configuration (N-1 occupancies in {0, 1};
    empty by default).
    """
    eta = _initial_state(init, tables.system.N - 1, occupancy=True)
    return _run_chain(_exclusion_chain(tables, eta), t_burn, t_sample, seed,
                      tables.system.params.time_scale())


# -- brute-force oracle -----------------------------------------------------

def exact_stationary_distribution(params: ModelParams, thermo: ThermoTables,
                                  kmax: int = 40):
    """Stationary law of the truncated chain (counts <= kmax) by linear
    algebra, from the assembled system the simulator reads its rates off.

    Returns (pi, product_pmf, tv_distance, leakage): leakage is the
    product-measure mass outside the truncation box.  The dense S x S
    generator of the S = (kmax + 1)^(N-1) states is refused, before
    anything is built, when it would take more than ORACLE_BYTES.
    """
    n = params.N - 1
    S = (kmax + 1) ** n
    if 8 * S * S > ORACLE_BYTES:
        raise DomainError(
            f"truncated state space too large: {S} states need a "
            f"{8 * S * S / 2 ** 30:.3g} GiB dense generator "
            f"(limit {ORACLE_BYTES / 2 ** 30:g} GiB)")
    system = assemble(params, thermo)
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


def _z_scores(est: SimEstimate, phi: np.ndarray, s: float) -> np.ndarray:
    """Per-site z of an estimate of phi_N(x): E[g(xi(x))] for zero-range,
    s E[eta(x)] with s = phi_a + phi_b for exclusion."""
    if est.mean_g is not None:
        return (est.mean_g - phi) / (est.se_g + 1e-300)
    return (s * est.mean_counts - phi) / (s * est.se_counts + 1e-300)


@contextmanager
def _forked(task: Callable[[], object]):
    """Runs ``task()`` in a forked child while the with-block runs, and
    yields ``result()``: it waits for the child's result and returns it, or
    raises the child's exception (same type and message, the child's
    traceback text as its cause), or ChildProcessError if the child ended
    without sending one.

    fork, not spawn: the child starts with the parent's modules and
    tables, so nothing but the outcome is pickled and numpy is not imported
    again.  ``task`` must take no lock that another thread of the parent
    could hold at the fork (the chains take none).  The result is received
    before the child is joined, so a result larger than the pipe's buffer
    cannot block it.  Leaving the block without a result (the caller's own
    work raised, or was interrupted) kills the child; either way the child
    is joined before the block is left, so no process outlives it.

    A daemonic process (a ``Pool`` worker) may start no child: there
    ``result()`` runs ``task()`` in the caller, and raises what it raises.
    """
    import multiprocessing          # not loaded until a mapping check runs
    if multiprocessing.current_process().daemon:
        yield task
        return
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)

    def serve() -> None:
        try:
            outcome = (True, task(), None)
        except Exception as exc:
            import traceback            # not loaded on the normal path
            outcome = (False, exc, traceback.format_exc())
        send.send(outcome)

    def result():
        try:
            ok, value, child_traceback = receive.recv()
        except EOFError:
            worker.join()
            raise ChildProcessError(
                f"worker process ended with exit code {worker.exitcode} "
                f"and no result") from None
        worker.join()
        if not ok:
            raise value from ChildProcessError(
                f"in the worker process:\n{child_traceback}")
        return value

    with receive:
        with send:      # the child's copy is the only writer left open
            worker = context.Process(target=serve)
            worker.start()
        try:
            yield result
        finally:
            if worker.exitcode is None:
                worker.kill()
                worker.join()
            worker.close()


def mapping_check(params: ModelParams, profile: FugacityProfile,
                  seeds: tuple = (1234, 5678),
                  t_burn: float = 50.0, t_sample: float = 500.0, *,
                  thermo: ThermoTables,
                  tables_ex: Optional[EventTables] = None) -> MappingReport:
    """Statistical verification of the static zero-range/exclusion mapping:
    (phi_a+phi_b) E[eta(x)] = E[g(xi(x))] = phi_N(x) site by site.

    The chains read their rates off ``profile.system``, whose model
    ``params`` must be, with ``thermo`` the tables of its rate (else
    ``DomainError``).  ``tables_ex`` overrides the exclusion-side rates
    (negative-control hook for tests); pass requires >= 95% of sites
    within 3 sigma on all three comparisons.  The report carries both
    chains' estimates.  The exclusion chain runs in a forked child while
    the zero-range chain runs here; each reads its own seed's stream, so
    the estimates are those of two calls in this process.  In a daemonic
    process (a ``Pool`` worker), which may start no child, the exclusion
    chain runs here after the zero-range chain, with the same estimates.
    """
    if params != profile.system.params:
        raise DomainError("the profile solves another model than params")
    params.boundary_fugacities(thermo)      # refuses tables of another rate
    tables = build_event_tables(profile.system)
    with _forked(lambda: simulate_exclusion(tables_ex or tables, t_burn,
                                            t_sample, seeds[1])
                 ) as exclusion:
        est_zr = simulate_zero_range(tables, t_burn, t_sample, seeds[0])
        est_ex = exclusion()
    phi = profile.values
    s = profile.phi_alpha + profile.phi_beta
    z_eta = _z_scores(est_ex, phi, s)
    z_g = _z_scores(est_zr, phi, s)
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
    header = {"seed": est.seed, "t_burn": est.burn_in_time,
              "t_sample": est.sample_time, "event_count": est.event_count,
              "time_scale": est.time_scale}
    z = _z_scores(est, profile.values, profile.phi_alpha + profile.phi_beta)
    mean_g = se_g = [""] * len(z)
    if est.mean_g is not None:
        mean_g, se_g = est.mean_g.tolist(), est.se_g.tolist()
    write_table(path, header_lines(header),
                ("x", "mean_xi", "se_xi", "mean_g", "se_g", "exact_phi",
                 "z_score"),
                zip(itertools.count(1), est.mean_counts.tolist(),
                    est.se_counts.tolist(), mean_g, se_g,
                    profile.values.tolist(), z.tolist()))
