"""Tracing of the calls the benchmark's jobs make into zrlab's layers.

Each traced public function is replaced by a wrapper in every zrlab module
namespace that bound it (``from .traffic import solve_direct`` makes a
second binding), and methods are replaced on their class.  A wrapper either
records one span per call (name, start, end, parent span, job id) or, for
the hot scalar evaluators, only adds to per-function counts and times.
Both kinds keep an exclusive-time stack, so every function's self time is
its duration minus the time of the traced calls it made.  A layer is a
zrlab module; its self time is the sum over its traced functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
from collections import defaultdict
from time import perf_counter


def _solve(tracer, args, result):
    system = args[0]
    tracer.add("traffic.cg_iters",
               0 if result.cg_history is None else len(result.cg_history))
    scale = max(1.0, float(abs(system.rhs).max()))
    tracer.maximum("traffic.max_residual_rel", result.residual_norm / scale)
    tracer.maximum("traffic.max_symmetry_gap", result.symmetry_gap())
    tracer.lattices[tracer.job].add(tuple(system.params.as_dict().items()))


def _extrapolate(tracer, args, result):
    tracer.add("hydrostatic.warn_points", int(result.warn.sum()))
    tracer.add("hydrostatic.grid_points", len(result.warn))


def _density(tracer, args, result):
    tracer.add("thermo.density_sites", len(args[1]))


def _bonds(tracer, args, result):
    tracer.add("current.bonds_computed", args[1].N)


# (module, attribute, aggregate instead of spans, observer of the result)
TRACED = (
    ("zrlab.cli", "main", False, None),
    ("zrlab.traffic", "assemble", False, None),
    ("zrlab.traffic", "solve_direct", False, _solve),
    ("zrlab.traffic", "solve_iterative", False, _solve),
    ("zrlab.thermo", "ThermoTables.mean_density_array", False, _density),
    ("zrlab.thermo", "ThermoTables.mean_density", True, None),
    ("zrlab.thermo", "ThermoTables.log_partition", True, None),
    ("zrlab.thermo", "ThermoTables.fugacity", True, None),
    ("zrlab.kernel", "regional_frac_laplacian", True, None),
    ("zrlab.hydrostatic", "rho_extrapolated", False, _extrapolate),
    ("zrlab.hydrostatic", "rho_closed_form", False, None),
    ("zrlab.hydrostatic", "DiscreteProfileFamily.rho_array", False, None),
    ("zrlab.hydrostatic", "weak_form_residual", False,
     lambda t, a, r: t.maximum("hydrostatic.max_weak_residual", r)),
    ("zrlab.current", "bond_currents", False, _bonds),
    ("zrlab.current", "exclusion_bond_currents", False, _bonds),
    ("zrlab.current", "current_report", False,
     lambda t, a, r: t.maximum("current.max_bond_spread", r.relative_spread())),
    ("zrlab.current", "fick_sweep", False, None),
    ("zrlab.current", "fick_limit", False, None),
    ("zrlab.ldp", "lambda_limit_with_error", False, None),
    ("zrlab.ldp", "lambda_limit", False, None),
    ("zrlab.ldp", "log_mgf_scaled", False, None),
    ("zrlab.ldp", "rate_function", False, None),
    ("zrlab.mc", "build_event_tables", False, None),
    ("zrlab.mc", "simulate_zero_range", False,
     lambda t, a, r: t.add("mc.events", r.event_count)),
    ("zrlab.mc", "simulate_exclusion", False,
     lambda t, a, r: t.add("mc.events", r.event_count)),
    ("zrlab.mc", "mapping_check", False,
     lambda t, a, r: t.minimum("mc.fraction_ok", r.fraction_ok)),
)

LAYERS = ("cli", "traffic", "thermo", "hydrostatic", "kernel", "current",
          "ldp", "mc")


def traced_name(module: str, attr: str) -> str:
    """``zrlab.thermo`` + ``ThermoTables.fugacity`` -> ``thermo.fugacity``."""
    return f"{module.rsplit('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans, per-function call counts and times, and observed counters."""

    def __init__(self):
        self.job = None
        self.spans = []             # (name, start, end, parent id, job id)
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)   # outermost calls of a name
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.by_job = defaultdict(lambda: defaultdict(float))
        self.extrema = {}
        self.observe_s = [0.0]      # time spent in observers
        self.lattices = defaultdict(set)      # job id -> solved lattices
        self._frames = []           # child time of each open traced call
        self._open_spans = []
        self._depth = defaultdict(int)

    def add(self, key: str, value) -> None:
        self.counters[key] += value
        self.by_job[self.job][key] += value

    def maximum(self, key: str, value) -> None:
        self.extrema[key] = max(self.extrema.get(key, -math.inf), value)

    def minimum(self, key: str, value) -> None:
        self.extrema[key] = min(self.extrema.get(key, math.inf), value)

    def wrap(self, name: str, fn, aggregate: bool, observe):
        frames, open_spans, depth = self._frames, self._open_spans, self._depth
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if not aggregate:
                sid = len(spans)
                spans.append(None)
                open_spans.append(sid)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                depth[name] -= 1
                frames.pop()
                if frames:
                    frames[-1][0] += duration
                calls[name] += 1
                self_time[name] += duration - frame[0]
                if not depth[name]:
                    inclusive[name] += duration
                if not aggregate:
                    open_spans.pop()
                    parent = open_spans[-1] if open_spans else None
                    spans[sid] = (name, start, end, parent, self.job)
            if observe is not None:
                start = perf_counter()
                observe(self, args, result)
                self.observe_s[0] += perf_counter() - start
            return result

        return wrapper

    def overhead(self) -> float:
        """Time the wrappers added to the traced calls: the calibrated cost
        of a span and of an aggregated call, times their numbers, plus the
        time spent in observers."""
        spans = len(self.spans)
        aggregated = sum(self.calls.values()) - spans
        return (spans * wrapper_cost(False) + aggregated * wrapper_cost(True)
                + self.observe_s[0])

    def layer_self(self, layer: str) -> float:
        return sum((t for name, t in self.self_time.items()
                    if name.split(".", 1)[0] == layer), 0.0)


def wrapper_cost(aggregate: bool, calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function
    (best of three rounds)."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibration.noop", noop, aggregate, None)
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        for _ in range(calls):
            noop()
        middle = perf_counter()
        for _ in range(calls):
            wrapped()
        end = perf_counter()
        best = min(best, ((end - middle) - (middle - start)) / calls)
    return max(best, 0.0)


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    restore = []
    try:
        for module_name, attr, aggregate, observe in TRACED:
            module = importlib.import_module(module_name)
            name = traced_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                restore.append((cls, method, original))
                setattr(cls, method,
                        tracer.wrap(name, original, aggregate, observe))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, aggregate, observe)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("zrlab"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
