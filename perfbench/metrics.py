"""Names, units and definitions of every metric the benchmark reports.

``END_TO_END`` are measured with tracing off; ``PER_LAYER`` come from the
traced run (see ``tracing.py``).  BENCHMARK.json lists the same names.
"""

from __future__ import annotations

from tracing import LAYERS, TRACED, Tracer, traced_name

# name, unit, better, bound (the share of the parent's median a later
# change may worsen it by)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("job_s_p50", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _inc(*names):
    return lambda t: sum(t.inclusive[n] for n in names)


def _self(*names):
    return lambda t: sum(t.self_time[n] for n in names)


def _calls(*names):
    return lambda t: sum(t.calls[n] for n in names)


def _counter(key):
    return lambda t: t.counters[key]


def _extremum(key):
    return lambda t: t.extrema.get(key, 0.0)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


def _solves_per_lattice(t: Tracer) -> float:
    lattices = sum(len(s) for s in t.lattices.values())
    solves = t.calls["traffic.solve_direct"] + t.calls["traffic.solve_iterative"]
    return solves / lattices if lattices else 0.0


_SOLVES = ("traffic.solve_direct", "traffic.solve_iterative")
_SIMS = ("mc.simulate_zero_range", "mc.simulate_exclusion")
_BONDS = ("current.bond_currents", "current.exclusion_bond_currents")

def _layer_self(layer):
    return lambda t: t.layer_self(layer)


def _layer_functions(layer):
    return tuple(traced_name(module, attr) for module, attr, _, _ in TRACED
                 if module == f"zrlab.{layer}")


# name, unit, better, traced functions it is measured on, value
PER_LAYER = tuple(
    (f"{layer}.self_s", "s", "lower", _layer_functions(layer),
     _layer_self(layer)) for layer in LAYERS) + (
    ("cli.bytes_written", "B", "lower", ("cli.main",),
     _counter("cli.bytes_written")),
    ("traffic.assemble_s", "s", "lower", ("traffic.assemble",),
     _inc("traffic.assemble")),
    ("traffic.direct_s", "s", "lower", ("traffic.solve_direct",),
     _inc("traffic.solve_direct")),
    ("traffic.direct_calls", "count", "lower", ("traffic.solve_direct",),
     _calls("traffic.solve_direct")),
    ("traffic.iterative_s", "s", "lower", ("traffic.solve_iterative",),
     _inc("traffic.solve_iterative")),
    ("traffic.cg_iters", "count", "lower", ("traffic.solve_iterative",),
     _counter("traffic.cg_iters")),
    ("traffic.solves_per_lattice", "ratio", "lower", _SOLVES,
     _solves_per_lattice),
    ("traffic.max_residual_rel", "1", "lower", _SOLVES,
     _extremum("traffic.max_residual_rel")),
    ("traffic.max_symmetry_gap", "1", "lower", _SOLVES,
     _extremum("traffic.max_symmetry_gap")),
    ("thermo.density_s", "s", "lower", ("thermo.mean_density_array",),
     _inc("thermo.mean_density_array")),
    ("thermo.density_sites", "count", "lower", ("thermo.mean_density_array",),
     _counter("thermo.density_sites")),
    ("thermo.fugacity_s", "s", "lower", ("thermo.fugacity",),
     _inc("thermo.fugacity")),
    ("thermo.fugacity_calls", "count", "lower", ("thermo.fugacity",),
     _calls("thermo.fugacity")),
    ("thermo.log_partition_s", "s", "lower", ("thermo.log_partition",),
     _inc("thermo.log_partition")),
    ("thermo.log_partition_calls", "count", "lower", ("thermo.log_partition",),
     _calls("thermo.log_partition")),
    ("hydrostatic.extrapolate_s", "s", "lower",
     ("hydrostatic.rho_extrapolated",),
     _self("hydrostatic.rho_extrapolated", "hydrostatic.rho_array")),
    ("hydrostatic.warn_frac", "ratio", "lower",
     ("hydrostatic.rho_extrapolated",),
     _ratio(_counter("hydrostatic.warn_points"),
            _counter("hydrostatic.grid_points"))),
    ("hydrostatic.weak_form_s", "s", "lower", ("hydrostatic.weak_form_residual",),
     _inc("hydrostatic.weak_form_residual")),
    ("hydrostatic.max_weak_residual", "1", "lower",
     ("hydrostatic.weak_form_residual",),
     _extremum("hydrostatic.max_weak_residual")),
    ("kernel.frac_laplacian_s", "s", "lower", ("kernel.regional_frac_laplacian",),
     _inc("kernel.regional_frac_laplacian")),
    ("kernel.frac_laplacian_calls", "count", "lower",
     ("kernel.regional_frac_laplacian",),
     _calls("kernel.regional_frac_laplacian")),
    ("current.bond_currents_s", "s", "lower", _BONDS, _inc(*_BONDS)),
    ("current.bonds_computed", "count", "lower", _BONDS,
     _counter("current.bonds_computed")),
    ("current.fick_limit_s", "s", "lower", ("current.fick_limit",),
     _inc("current.fick_limit")),
    ("current.max_bond_spread", "1", "lower", ("current.current_report",),
     _extremum("current.max_bond_spread")),
    ("ldp.lambda_s", "s", "lower", ("ldp.lambda_limit",),
     _self("ldp.lambda_limit_with_error", "ldp.lambda_limit")),
    ("ldp.log_mgf_s", "s", "lower", ("ldp.log_mgf_scaled",),
     _self("ldp.log_mgf_scaled")),
    ("ldp.rate_function_s", "s", "lower", ("ldp.rate_function",),
     _self("ldp.rate_function")),
    ("mc.tables_s", "s", "lower", ("mc.build_event_tables",),
     _inc("mc.build_event_tables")),
    ("mc.sim_s", "s", "lower", _SIMS, _inc(*_SIMS)),
    ("mc.sim_calls", "count", "lower", _SIMS, _calls(*_SIMS)),
    ("mc.events", "count", "higher", _SIMS, _counter("mc.events")),
    ("mc.events_per_s", "1/s", "higher", _SIMS,
     _ratio(_counter("mc.events"), _inc(*_SIMS))),
    ("mc.fraction_ok", "ratio", "higher", ("mc.mapping_check",),
     _extremum("mc.fraction_ok")),
    ("trace.wall_s", "s", "lower", (), _counter("trace.wall_s")),
    ("trace.overhead_s", "s", "lower", (), _counter("trace.overhead_s")),
)
