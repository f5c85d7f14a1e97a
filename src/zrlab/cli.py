"""Command-line front end: reproducible experiments emitting CSV data
files plus one structured-text report per run.

Subcommands: thermo, profile, current, simulate, ldp.  report.txt and the
tables a command computes (thermo_*.csv, convergence_gaps.csv,
bond_currents.csv, fick_sweep.csv, ldp_scan.csv) start with a comment
header carrying the resolved configuration and the package version.  The
dumps of the objects a run builds carry their own header: profile_N*.csv
the model parameters and solve summary, continuum_profile.csv the regime,
tilde densities and edge values, zr_/ex_estimates.csv the chain's seed,
times and event count.  Every file is written through ``zrlab.table``,
which owns the format (header lines, column line, cells).  Given the same
config and seed, re-running a command produces byte-identical files.

Exit codes: 0 success, 2 config error, 3 domain error, 4 convergence
failure, 5 statistical-check failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .errors import ConfigError, ConvergenceError, DomainError
from . import current as current_mod
from . import hydrostatic as hydro
from . import ldp as ldp_mod
from . import mc
from .table import header_lines, write_lines, write_table
from .thermo import RateFunction, ThermoTables, read_rate_table
from .traffic import ModelParams, assemble, solve_lattices, write_profile_csv
from .traffic import solve_direct  # noqa: F401  (re-export)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4
EXIT_STATISTICAL = 5


SUBCOMMANDS = ("thermo", "profile", "current", "simulate", "ldp")
MODEL = SUBCOMMANDS[1:]         # the subcommands that solve lattices


def finite_float(text: str) -> float:
    """The type of every float option, flag or config-file value: NaN
    and +-inf are refused (a NaN time never ends a simulation)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


@dataclass(frozen=True)
class Option:
    """One run option: its flag, the RunConfig field it sets, the type of
    one value, and the subcommands it acts on.  The flag's name and the
    field's name are its config-file keys (switches have none)."""

    flag: str
    field: str
    type: Callable                  # bool: a switch
    acts_on: tuple
    header: Optional[str] = None    # its key in the output headers
    shared: bool = True             # every subcommand parses it
    repeat: bool = False            # repeatable; comma-separated in a file
    choices: Optional[tuple] = None
    help: Optional[str] = None

    def config_keys(self) -> set:
        if self.type is bool:
            return set()
        return {self.flag.lstrip("-").replace("-", "_").lower(),
                self.field.lower()}


# Every option, in the order of the output headers.  A shared option that
# does not act on a subcommand is parsed there only to be refused.
OPTIONS = (
    Option("--gamma", "gamma", finite_float, MODEL, "gamma"),
    Option("--theta", "theta", finite_float, MODEL, "theta"),
    Option("--kappa", "kappa", finite_float, MODEL, "kappa"),
    Option("--alpha", "alpha", finite_float, MODEL, "alpha"),
    Option("--beta", "beta", finite_float, MODEL, "beta"),
    Option("--phi-alpha", "phi_alpha", finite_float, MODEL, "phi_alpha",
           help="boundary fugacity (instead of --alpha)"),
    Option("--phi-beta", "phi_beta", finite_float, MODEL, "phi_beta"),
    Option("--N", "N_list", int, MODEL, "N_list", repeat=True,
           help="lattice size; repeatable"),
    Option("--g", "g_spec", str, SUBCOMMANDS, "g",
           help="identity|indicator|figure3|table:PATH"),
    Option("--normalization", "normalization", str, MODEL, "normalization",
           choices=("normalized", "paper-literal")),
    Option("--seed", "seed", int, ("simulate",), "seed"),
    Option("--t-burn", "t_burn", finite_float, ("simulate",), "t_burn",
           shared=False),
    Option("--t-sample", "t_sample", finite_float, ("simulate",), "t_sample",
           shared=False),
    Option("--grid-points", "grid_points", int, ("profile",), "grid_points",
           shared=False),
    Option("--phi-grid-max", "phi_grid_max", finite_float, ("thermo",),
           shared=False),
    Option("--figure3", "figure3", bool, ("profile",), shared=False,
           help="figure-3 preset: g=figure3, boundary fugacities 0.2/0.8"),
    Option("--negative-control", "negative_control", bool, ("simulate",),
           shared=False),
    Option("--out", "out", Path, SUBCOMMANDS),
)
_BY_FIELD = {opt.field: opt for opt in OPTIONS}
_BY_CONFIG_KEY = {key: opt for opt in OPTIONS for key in opt.config_keys()}


@dataclass
class RunConfig:
    """Validated run configuration (model parameters plus command options)."""

    command: str
    gamma: float = 1.5
    theta: float = 0.0
    kappa: float = 1.0
    alpha: Optional[float] = 0.4
    beta: Optional[float] = 1.6
    phi_alpha: Optional[float] = None
    phi_beta: Optional[float] = None
    N_list: tuple = (256,)
    g_spec: str = "identity"
    normalization: str = "normalized"
    seed: int = 1
    out: Path = Path("out")
    t_burn: Optional[float] = None
    t_sample: float = 2000.0
    grid_points: int = 257
    phi_grid_max: Optional[float] = None
    negative_control: bool = False
    figure3: bool = False

    def validate(self) -> None:
        if not 0.0 < self.gamma < 2.0:
            raise ConfigError(f"gamma must lie in (0,2), got {self.gamma}")
        if self.kappa <= 0.0:
            raise ConfigError(f"kappa must be positive, got {self.kappa}")
        if any(n < 2 for n in self.N_list):
            raise ConfigError(f"every N must be >= 2, got {self.N_list}")
        if list(self.N_list) != sorted(set(self.N_list)):
            raise ConfigError("N values must be strictly increasing")
        if (self.phi_alpha is None) != (self.phi_beta is None):
            raise ConfigError("give both --phi-alpha and --phi-beta or neither")
        if self.phi_alpha is None and (self.alpha is None or self.beta is None):
            raise ConfigError("boundary data missing (alpha/beta)")
        if not self.t_sample > 0.0:
            raise ConfigError("t-sample must be positive")
        if self.t_burn is not None and not self.t_burn >= 0.0:
            raise ConfigError(f"t-burn must be >= 0, got {self.t_burn}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.grid_points < 9:
            raise ConfigError("grid must have at least 9 points")
        nearest = next(p for p in (self.out, *self.out.parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigError(f"--out: {nearest} is not a directory")

    def rate(self) -> RateFunction:
        if self.g_spec == "identity":
            return RateFunction.identity()
        if self.g_spec == "indicator":
            return RateFunction.indicator()
        if self.g_spec == "figure3":
            return RateFunction.figure3()
        if self.g_spec.startswith("table:"):
            path = self.g_spec[len("table:"):]
            try:
                return read_rate_table(path)
            except OSError as exc:
                raise ConfigError(f"rate table {path!r}: "
                                  f"{exc.strerror}") from None
        raise ConfigError(f"unknown rate function spec {self.g_spec!r}")

    def model(self, N: int, thermo: ThermoTables) -> ModelParams:
        """The model on N sites, with the rate of the run's ``thermo``."""
        rate = thermo.rate
        if self.phi_alpha is not None:
            return ModelParams.from_fugacities(
                self.gamma, self.theta, self.kappa, self.phi_alpha,
                self.phi_beta, N, rate, self.normalization, thermo=thermo)
        return ModelParams(gamma=self.gamma, theta=self.theta,
                           kappa=self.kappa, alpha=self.alpha, beta=self.beta,
                           N=N, rate=rate,
                           normalization_mode=self.normalization)

    def header_lines(self) -> list[str]:
        header = {"zrlab_version": __version__, "command": self.command}
        for opt in OPTIONS:
            if opt.header is not None:
                value = getattr(self, opt.field)
                if opt.repeat:
                    value = ",".join(str(v) for v in value)
                header[opt.header] = value
        return header_lines(header)


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--config", type=str, help="key=value config file")
    for opt in OPTIONS:
        if not opt.shared and command not in opt.acts_on:
            continue
        kwargs = {"dest": opt.field, "default": argparse.SUPPRESS,
                  "help": opt.help}
        if opt.type is bool:
            kwargs["action"] = "store_true"
        else:
            kwargs.update(type=opt.type, choices=opt.choices)
            if opt.repeat:
                kwargs["action"] = "append"
        parser.add_argument(opt.flag, **kwargs)


def _load_config_file(path: str) -> dict:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from None
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    out = {}
    for section in cp.sections():
        for key, val in cp.items(section):
            out[key.replace("-", "_")] = val
    return out


def _config_value(opt: Option, text: str):
    """A config-file value, checked as the flag checks it; in a choice,
    ``_`` may stand for ``-``."""
    try:
        if opt.repeat:
            return tuple(opt.type(v) for v in text.split(","))
        value = opt.type(text)
    except ValueError as exc:
        raise ConfigError(f"config key {opt.field!r}: {exc}") from None
    if opt.choices is not None and value.replace("_", "-") not in opt.choices:
        raise ConfigError(f"config key {opt.field!r}: {value!r} is not one "
                          f"of {', '.join(opt.choices)}")
    return value


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the flags given.  A flag that
    cannot act on the run is refused; a config file may carry keys for
    other subcommands."""
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        for key, val in _load_config_file(args.config).items():
            if key not in _BY_CONFIG_KEY:
                raise ConfigError(f"unknown config key {key!r}")
            opt = _BY_CONFIG_KEY[key]
            setattr(cfg, opt.field, _config_value(opt, val))
    given = {field: val for field, val in vars(args).items()
             if field in _BY_FIELD}
    for field, val in given.items():
        opt = _BY_FIELD[field]
        if cfg.command not in opt.acts_on:
            raise ConfigError(f"{opt.flag} does not act on {cfg.command}")
        setattr(cfg, field, tuple(val) if opt.repeat else val)
    cfg.normalization = cfg.normalization.replace("-", "_")
    if cfg.figure3:
        if "g_spec" in given:
            raise ConfigError("--figure3 sets g; --g does not act with it")
        cfg.g_spec = "figure3"
        if cfg.phi_alpha is None:
            cfg.phi_alpha, cfg.phi_beta = 0.2, 0.8
    if cfg.phi_alpha is not None and given.keys() & {"alpha", "beta"}:
        raise ConfigError("boundary fugacities are set; --alpha/--beta "
                          "do not act with them")
    cfg.validate()
    return cfg


class Report:
    """Structured-text run report: key = value lines plus check lines."""

    def __init__(self, cfg: RunConfig):
        self.lines = list(cfg.header_lines())
        self.failures = []

    def add(self, key: str, value) -> None:
        self.lines.append(f"{key} = {value}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        self.lines.append(f"check:{name} = {status}{suffix}")
        if not ok:
            self.failures.append(name)


def _regime(cfg: RunConfig, params: ModelParams) -> hydro.Regime:
    """The run's hydrostatic regime; one without a closed form is
    extrapolated from the run's lattices, so it needs at least three."""
    regime = hydro.classify_regime(cfg.gamma, cfg.theta, cfg.kappa,
                                   params.kernel_params())
    if regime.tag in hydro.EXTRAPOLATED_REGIMES and len(cfg.N_list) < 3:
        raise ConfigError("extrapolated regimes need at least 3 N values")
    return regime


def _continuum(params: ModelParams, regime: hydro.Regime, solved: list,
               thermo: ThermoTables, report: Report,
               grid: Optional[np.ndarray] = None) -> hydro.ContinuumProfile:
    """The regime's closed form, or the extrapolation of the run's solved
    lattices when it has none (``_regime`` ensures there are three).  An
    extrapolated profile reports on how many grid points the power-law fit
    fell back to the largest lattice's value."""
    if regime.tag in hydro.EXTRAPOLATED_REGIMES:
        cont = hydro.rho_extrapolated(
            params, regime, [prof.system.N for prof in solved], thermo, grid,
            lattices=solved)
        report.add("extrapolation_fallbacks",
                   f"{int(cont.warn.sum())} of {len(cont.warn)}")
        return cont
    return hydro.rho_closed_form(params, regime, thermo, grid)


# -- subcommands ------------------------------------------------------------
# Each writes its data files and adds its lines to the run's report; main
# writes report.txt and turns failed checks and errors into exit codes.

def cmd_thermo(cfg: RunConfig, thermo: ThermoTables, report: Report) -> None:
    hi = cfg.phi_grid_max
    if hi is None:
        hi = (min(0.98 * thermo.phi_max(), 4.0)
              if math.isfinite(thermo.phi_star) else 4.0)
    if hi > thermo.phi_max():
        raise DomainError(
            f"phi grid max {hi} exceeds the working range "
            f"[0, {thermo.phi_max():g})")
    phis = np.linspace(0.0, hi, 51)
    Z = thermo.partition_function(phis)
    R = thermo.mean_density(phis)
    rt = np.abs(thermo.fugacity(R) - phis)
    max_rt = float(rt.max())
    write_table(cfg.out / "thermo_phi.csv", cfg.header_lines(),
                ("phi", "Z", "R", "roundtrip_error"),
                zip(phis.tolist(), Z.tolist(), R.tolist(), rt.tolist()))
    m_hi = thermo.mean_density(float(0.98 * phis[-1]))
    ms = np.linspace(0.0, m_hi, 51)
    write_table(cfg.out / "thermo_density.csv", cfg.header_lines(),
                ("m", "Phi"), zip(ms.tolist(), thermo.fugacity(ms).tolist()))
    report.add("phi_star", thermo.phi_star)
    report.add("m_star", thermo.m_star)
    report.add("max_roundtrip_error", max_rt)
    report.check("roundtrip", max_rt < 1e-10, f"max {max_rt:g}")


def cmd_profile(cfg: RunConfig, thermo: ThermoTables, report: Report) -> None:
    params = cfg.model(cfg.N_list[-1], thermo)
    regime = _regime(cfg, params)
    report.add("regime", regime.tag)
    report.add("kappa_hat", regime.kappa_hat)
    solved = solve_lattices(params, cfg.N_list, thermo)
    for prof in solved:
        N = prof.system.N
        write_profile_csv(prof, thermo, cfg.out / f"profile_N{N}.csv")
        report.add(f"residual_N{N}", prof.residual_norm)
    grid = hydro.default_grid(cfg.grid_points)
    cont = _continuum(params, regime, solved, thermo, report, grid)
    hydro.write_continuum_csv(cont, cfg.out / "continuum_profile.csv")
    # convergence gaps of raw lattice ratio toward rho on interior points
    rows = []
    interior = grid[(grid >= 0.1) & (grid <= 0.9)]
    rho_ref = cont.evaluate(interior)
    for pr in solved:
        N = pr.system.N
        sites = np.clip((interior * N).astype(int), 1, N - 1)
        vals = pr.values[sites - 1] / cont.phi_sum
        rows.append((N, float(np.max(np.abs(vals - rho_ref)))))
    write_table(cfg.out / "convergence_gaps.csv", cfg.header_lines(),
                ("N", "sup_gap"), rows)
    # m(1/2), read off rho: a grid of even length has no point there
    mid_val = thermo.mean_density_array(
        cont.phi_sum * cont.evaluate(np.array([0.5])))[0]
    mid_expected = thermo.mean_density(0.5 * cont.phi_sum)
    report.add("midpoint_m", mid_val)
    report.add("midpoint_expected", mid_expected)
    report.check("midpoint_identity", abs(mid_val - mid_expected) < 1e-8,
                 f"|diff| = {abs(mid_val - mid_expected):g}")
    sym = float(np.max(np.abs(cont.rho + cont.rho[::-1] - 1.0)))
    report.add("rho_symmetry_gap", sym)
    # boundary behaviour is reported, never asserted
    r0, r1 = cont.boundary_values()
    report.add("rho_boundary_left", float(r0))
    report.add("rho_boundary_right", float(r1))


def cmd_current(cfg: RunConfig, thermo: ThermoTables, report: Report) -> None:
    if len(cfg.N_list) == 2:
        raise ConfigError(f"current takes one N or at least three (a Fick "
                          f"sweep), got N = {cfg.N_list}")
    params = cfg.model(cfg.N_list[-1], thermo)
    regime = _regime(cfg, params)
    solved = solve_lattices(params, cfg.N_list, thermo)
    prof = solved[-1]
    rep = current_mod.current_report(prof, prof.system)
    write_table(cfg.out / "bond_currents.csv", cfg.header_lines(),
                ("x", "current"), enumerate(rep.per_x.tolist(), start=1))
    report.add("current", float(rep.per_x[0]))
    report.add("rescaled", rep.rescaled)
    report.add("bond_spread", rep.relative_spread())
    report.check("bond_independence", rep.relative_spread() < 1e-10,
                 f"spread {rep.relative_spread():g}")
    if len(cfg.N_list) >= 3:
        sweep = current_mod.fick_sweep(params, cfg.N_list, thermo,
                                       lattices=solved)
        sweep.to_csv(cfg.out / "fick_sweep.csv", cfg.header_lines())
        report.add("sweep_extrapolated", sweep.extrapolated)
        report.add("sweep_extrapolation_fallback", sweep.fallback)
        if sweep.closed_form is not None:
            report.add("sweep_closed_form", sweep.closed_form)
            if sweep.rel_err is not None:
                report.add("sweep_rel_err", sweep.rel_err)
                report.check("fick_closed_form", sweep.rel_err < 0.02,
                             f"rel err {sweep.rel_err:g}")
            else:
                # at equilibrium the closed form is 0: measure the limit
                # against the one-way flux (phi_a + phi_b, 0) instead
                flux = abs(current_mod.closed_form_limit_zr(
                    prof.phi_alpha + prof.phi_beta, 0.0, params.gamma,
                    params.kappa, params.kernel_params()))
                limit = abs(sweep.extrapolated)
                report.check("fick_closed_form", limit < 0.02 * flux,
                             f"|limit| {limit:g}, one-way flux {flux:g}")
    cont = _continuum(params, regime, solved, thermo, report)
    fl = current_mod.fick_limit(cont, params)
    report.add("fick_limit_mean", fl.mean)
    report.add("fick_limit_spread", fl.spread)
    if fl.closed_form is not None:
        report.add("fick_limit_closed_form", fl.closed_form)


def cmd_simulate(cfg: RunConfig, thermo: ThermoTables, report: Report) -> None:
    if len(cfg.N_list) != 1:
        raise ConfigError(f"simulate runs one lattice, got N = {cfg.N_list}")
    [N] = cfg.N_list
    params = cfg.model(N, thermo)
    [profile] = solve_lattices(params, (N,), thermo)
    tables_ex = None
    if cfg.negative_control:
        swapped = replace(
            params, alpha=params.beta, beta=params.alpha,
            phi_alpha=params.phi_beta, phi_beta=params.phi_alpha)
        tables_ex = mc.build_event_tables(assemble(swapped, thermo))
        report.add("negative_control", True)
    t_burn = cfg.t_burn if cfg.t_burn is not None else 0.05 * cfg.t_sample
    mapping = mc.mapping_check(params, profile,
                               seeds=(cfg.seed, cfg.seed + 1),
                               t_burn=t_burn, t_sample=cfg.t_sample,
                               thermo=thermo, tables_ex=tables_ex)
    mc.write_estimate_csv(mapping.est_zr, profile,
                          cfg.out / "zr_estimates.csv")
    mc.write_estimate_csv(mapping.est_ex, profile,
                          cfg.out / "ex_estimates.csv")
    report.add("mapping_summary", mapping.summary())
    report.add("fraction_ok", mapping.fraction_ok)
    if cfg.negative_control:
        report.check("negative_control_fails", not mapping.passed,
                     mapping.summary())
    else:
        report.check("mapping", mapping.passed, mapping.summary())


_LDP_BASIS = (
    ("one", lambda u: np.ones_like(np.asarray(u, dtype=float))),
    ("u", lambda u: np.asarray(u, dtype=float)),
    ("u_sq", lambda u: np.asarray(u, dtype=float) ** 2),
    ("sin_pi_u", lambda u: np.sin(np.pi * np.asarray(u, dtype=float))),
    ("one_minus_u", lambda u: 1.0 - np.asarray(u, dtype=float)),
)
# bound on |I(pi_G) - (<pi_G, G> - Lambda(G))| over the basis: the identity
# holds to rounding (<= 7e-16 on the extrapolated regimes at N = 512-2048);
# the level-2 Lambda misses it by 5e-7 to 7e-6 there
FENCHEL_TOL = 1e-12


def cmd_ldp(cfg: RunConfig, thermo: ThermoTables, report: Report) -> None:
    if len(cfg.N_list) < 3:
        raise ConfigError("ldp needs at least 3 N values")
    ldp_mod._require_unbounded(thermo, "the limiting log-MGF")
    params = cfg.model(cfg.N_list[-1], thermo)
    regime = _regime(cfg, params)
    solved = solve_lattices(params, cfg.N_list, thermo)
    cont = _continuum(params, regime, solved, thermo, report)

    rows = []
    monotone_all = True
    fenchel_gap = 0.0
    for label, G in _LDP_BASIS:
        lam, lam_err = ldp_mod.lambda_limit_with_error(cont, thermo, G)
        per_n = [ldp_mod.log_mgf_scaled(profile, thermo, G)
                 for profile in solved]
        gaps = [abs(v - lam) for v in per_n]
        monotone = all(b < a for a, b in zip(gaps[:-1], gaps[1:]))
        monotone_all = monotone_all and monotone
        pi = ldp_mod.tilted_density(cont, thermo, G)
        rate_val = ldp_mod.rate_function(pi, cont, thermo)
        # I(pi_G) = <pi_G, G> - Lambda(G), on rate_function's quadrature
        legendre = (ldp_mod.continuum_pairing(pi, cont, G)
                    - ldp_mod.lambda_limit(cont, thermo, G))
        fenchel_gap = max(fenchel_gap, abs(rate_val - legendre))
        rows.append((label, *per_n, lam, rate_val))
    write_table(cfg.out / "ldp_scan.csv", cfg.header_lines(),
                ("label", *(f"Lambda_N_over_N_{N}" for N in cfg.N_list),
                 "Lambda_limit", "rate_value"), rows)
    zero = ldp_mod.rate_function(
        ldp_mod.tilted_density(cont, thermo, np.zeros_like), cont, thermo)
    report.add("rate_at_typical_profile", zero)
    report.check("rate_vanishes_at_typical", abs(zero) < 1e-8, f"{zero:g}")
    report.check("fenchel_equality", fenchel_gap < FENCHEL_TOL,
                 f"{fenchel_gap:g}")
    report.check("gap_monotone", monotone_all)


COMMANDS = {"thermo": cmd_thermo, "profile": cmd_profile,
            "current": cmd_current, "simulate": cmd_simulate, "ldp": cmd_ldp}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zrlab",
        description="stationary-state computations for the boundary-driven "
                    "zero-range process with long jumps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_options(sub.add_parser(name), name)
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        thermo = ThermoTables.create(cfg.rate())
        report = Report(cfg)
        COMMANDS[cfg.command](cfg, thermo, report)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    write_lines(cfg.out / "report.txt", report.lines)
    return EXIT_STATISTICAL if report.failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
