import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from zrlab import cli, hydrostatic, ldp, mc, traffic
from zrlab.thermo import ThermoTables


def run(args):
    return cli.main(args)


def read_report(out):
    return (Path(out) / "report.txt").read_text()


def test_thermo_command_and_outputs(tmp_path):
    out = tmp_path / "t"
    assert run(["thermo", "--g", "identity", "--out", str(out)]) == 0
    body = (out / "thermo_phi.csv").read_text().splitlines()
    assert body[0] == "# zrlab_version = 0.1.0"
    assert "check:roundtrip = PASS" in read_report(out)
    assert (out / "thermo_density.csv").exists()


def _fresh_thermo_imports(tmp_path, package):
    """Exit code of ``thermo`` run in a fresh interpreter, and the modules
    of ``package`` it loaded."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import zrlab.cli; "
            "code = zrlab.cli.main(['thermo', '--g', 'identity', "
            "'--out', sys.argv[2]]); "
            "print(json.dumps([code, sorted(m for m in sys.modules "
            "if m.split('.')[0] == sys.argv[3])]))")
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code, src,
                           str(tmp_path / "t"), package],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_fresh_process_imports_no_scipy(tmp_path):
    # importing scipy.fft and scipy.interpolate took most of a desk-scale
    # run's wall time; the package runs on numpy alone
    assert _fresh_thermo_imports(tmp_path, "scipy") == [0, []]


def test_fresh_process_imports_no_multiprocessing(tmp_path):
    # the mapping check imports multiprocessing for its fork context when
    # it runs; the import takes about 23 ms, which every run's start-up
    # would pay
    assert _fresh_thermo_imports(tmp_path, "multiprocessing") == [0, []]


def test_thermo_identity_has_R_equal_phi(tmp_path):
    out = tmp_path / "t"
    run(["thermo", "--g", "identity", "--out", str(out)])
    rows = [l for l in (out / "thermo_phi.csv").read_text().splitlines()
            if not l.startswith("#") and not l.startswith("phi")]
    for row in rows:
        phi, _, R, _ = (float(v) for v in row.split(","))
        assert abs(R - phi) < 1e-12


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--gamma", "1.2", "--theta", "0", "--N", "24",
            "--t-burn", "50", "--t-sample", "400", "--seed", "3"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    for name in ("report.txt", "zr_estimates.csv", "ex_estimates.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


THREAD_JOBS = (
    ["profile", "--gamma", "1.5", "--theta", "0.5", "--N", "4096", "--N",
     "8192", "--N", "16384"],
    ["current", "--gamma", "1.5", "--theta", "0.5", "--N", "1024", "--N",
     "2048", "--N", "4096"],
)


def _outputs_at_threads(out: Path, argv: list, threads: int) -> dict:
    """Every output file of ``argv`` run in a fresh interpreter whose BLAS
    and OpenMP pools are set to ``threads`` before numpy is imported."""
    count = str(threads)
    env = dict(os.environ, OMP_NUM_THREADS=count, OPENBLAS_NUM_THREADS=count,
               MKL_NUM_THREADS=count,
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "zrlab", *argv, "--out", str(out)],
                   env=env, capture_output=True, timeout=300, check=True)
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("argv", THREAD_JOBS, ids=lambda argv: argv[0])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    # a threaded BLAS reduction sums in an order that depends on the pool
    # size, and CG carries its last bits into every later iterate
    one = _outputs_at_threads(tmp_path / "one", argv, 1)
    two = _outputs_at_threads(tmp_path / "two", argv, 2)
    assert sorted(one) == sorted(two)
    assert [name for name in one if one[name] != two[name]] == []


FORMAT_JOBS = (
    ["thermo"],
    ["profile", "--figure3", "--gamma", "1.5", "--theta", "-1", "--N", "64"],
    ["current", "--gamma", "0.5", "--theta", "-0.5", "--N", "64", "--N",
     "128", "--N", "256"],
    ["simulate", "--gamma", "1.2", "--theta", "0", "--N", "24", "--t-burn",
     "20", "--t-sample", "100", "--seed", "3"],
    ["ldp", "--gamma", "0.5", "--theta", "1", "--alpha", "0.5", "--beta",
     "1.5", "--N", "64", "--N", "128", "--N", "256"],
)


@pytest.mark.parametrize("argv", FORMAT_JOBS, ids=lambda argv: argv[0])
def test_every_output_file_keeps_the_format(tmp_path, argv):
    # header lines first, each key once; a table then has one column line
    # and rows as wide as it, and a float cell is its own shortest repr
    assert run(argv + ["--out", str(tmp_path)]) in (0, cli.EXIT_STATISTICAL)
    files = sorted(tmp_path.iterdir())
    assert len(files) >= 2
    for path in files:
        lines = path.read_text().splitlines()
        n_header = next(i for i, l in enumerate(lines)
                        if not l.startswith("#"))
        if path.suffix == ".txt":
            n_header = len(lines)   # the report's lines are keys too
        keys = Counter(l.lstrip("# ").partition(" = ")[0]
                       for l in lines[:n_header])
        assert [k for k, n in keys.items() if n > 1] == [], path.name
        if path.suffix != ".csv":
            continue
        columns, *rows = (l.split(",") for l in lines[n_header:])
        assert rows, path.name
        for cells in rows:
            assert len(cells) == len(columns), path.name
            assert not set(cells) & set(columns), path.name
            for cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    continue        # a label or an empty cell
                if not cell.lstrip("-").isdigit():
                    assert repr(value) == cell, (path.name, cell)


def test_profile_figure3_preset(tmp_path):
    out = tmp_path / "f3"
    assert run(["profile", "--figure3", "--gamma", "1.5", "--theta", "-1",
                "--N", "128", "--out", str(out)]) == 0
    rep = read_report(out)
    assert "check:midpoint_identity = PASS" in rep
    assert "regime = ExplicitRatio" in rep
    assert (out / "continuum_profile.csv").exists()
    assert (out / "profile_N128.csv").exists()
    assert (out / "convergence_gaps.csv").exists()


@pytest.mark.parametrize("points", (10, 256))
def test_midpoint_identity_on_an_even_grid(tmp_path, points):
    # a grid of even length has no point at u = 1/2
    out = tmp_path / "p"
    assert run(["profile", "--gamma", "1.5", "--theta", "-1", "--N", "256",
                "--grid-points", str(points), "--out", str(out)]) == 0
    assert "check:midpoint_identity = PASS" in read_report(out)


@pytest.mark.parametrize("command", ["profile", "current"])
def test_extrapolated_regime_needs_three_N(tmp_path, monkeypatch, command):
    solves, _, _ = _count_work(monkeypatch, tmp_path)
    out = tmp_path / "p"
    assert run([command, "--gamma", "1.5", "--theta", "0", "--N", "64",
                "--out", str(out)]) == cli.EXIT_CONFIG
    assert not solves and not out.exists()      # refused before solving


def test_simulate_refuses_several_N(tmp_path, monkeypatch):
    solves, _, chains = _count_work(monkeypatch, tmp_path)
    out = tmp_path / "s"
    assert run(["simulate", "--gamma", "1.2", "--theta", "0", "--N", "16",
                "--N", "32", "--t-sample", "400", "--out", str(out)]
               ) == cli.EXIT_CONFIG
    assert not solves and not chains() and not out.exists()


def test_current_refuses_two_N(tmp_path, monkeypatch):
    # one N gives the bond currents and three or more add the Fick sweep;
    # with two, the smaller would be ignored
    solves, _, _ = _count_work(monkeypatch, tmp_path)
    out = tmp_path / "c"
    assert run(["current", "--gamma", "0.5", "--theta", "-0.5", "--N", "128",
                "--N", "256", "--out", str(out)]) == cli.EXIT_CONFIG
    assert not solves and not out.exists()


def test_current_at_equilibrium_with_theta_negative(tmp_path):
    # alpha = beta: the closed-form limit is 0, so no relative error
    # exists; the limit is measured against the one-way flux instead.
    # cli.main runs in this process, so a crash would raise here
    out = tmp_path / "c"
    code = run(["current", "--gamma", "0.5", "--theta", "-0.5", "--alpha",
                "0.7", "--beta", "0.7", "--N", "128", "--N", "256", "--N",
                "512", "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_STATISTICAL)
    lines = read_report(out).splitlines()
    assert "sweep_closed_form = 0.0" in lines
    assert not any(l.startswith("sweep_rel_err") for l in lines)
    [check] = [l for l in lines if l.startswith("check:fick_closed_form")]
    assert check.startswith("check:fick_closed_form = PASS (|limit| ")


@pytest.mark.parametrize("N", ["128", "256", "512"])
def test_bond_independence_at_equilibrium(tmp_path, N):
    # at alpha = beta W vanishes exactly: max |W| is measured against the
    # gross boundary flux, not against a mean that rounding may leave 0
    out = tmp_path / "c"
    assert run(["current", "--gamma", "0.5", "--theta", "-0.5", "--alpha",
                "0.7", "--beta", "0.7", "--N", N, "--out", str(out)]) == 0
    assert "check:bond_independence = PASS" in read_report(out)


def test_current_command(tmp_path):
    out = tmp_path / "c"
    assert run(["current", "--gamma", "0.5", "--theta", "-0.5", "--N", "128",
                "--N", "256", "--N", "512", "--out", str(out)]) == 0
    rep = read_report(out)
    assert "check:bond_independence = PASS" in rep
    assert "check:fick_closed_form = PASS" in rep
    # the Richardson fit's fallback is a value line, not a check
    assert "sweep_extrapolation_fallback = True" in rep.splitlines()
    assert "check:sweep" not in rep
    assert (out / "fick_sweep.csv").exists()
    assert (out / "bond_currents.csv").exists()


@pytest.mark.parametrize("gamma,theta", [("0.5", "1"), ("1.5", "0"),
                                         ("1.5", "0.2")],
                         ids=["Neumann", "ReactionDiffusion", "Dirichlet"])
def test_ldp_command(tmp_path, gamma, theta):
    # the extrapolated regimes need the exact typical profile: an
    # interpolant of the grid is constant outside it and misses rate 0
    out = tmp_path / "l"
    assert run(["ldp", "--gamma", gamma, "--theta", theta, "--alpha", "0.5",
                "--beta", "1.5", "--N", "64", "--N", "128", "--N", "256",
                "--out", str(out)]) == 0
    rep = read_report(out)
    assert "check:rate_vanishes_at_typical = PASS" in rep
    assert "check:fenchel_equality = PASS" in rep
    assert "check:gap_monotone = PASS" in rep
    scan = (out / "ldp_scan.csv").read_text().splitlines()
    header = [l for l in scan if l.startswith("label,")][0]
    assert header == ("label,Lambda_N_over_N_64,Lambda_N_over_N_128,"
                      "Lambda_N_over_N_256,Lambda_limit,rate_value")
    assert sum(1 for l in scan if not l.startswith(("#", "label"))) == 5


@pytest.mark.parametrize("boundary", [
    ["--g", "figure3", "--phi-alpha", "0.2", "--phi-beta", "0.8"],
    ["--g", "indicator", "--alpha", "0.3", "--beta", "0.6"],
], ids=["figure3", "indicator"])
def test_ldp_refuses_a_bounded_rate_before_solving(tmp_path, monkeypatch,
                                                   boundary):
    # the large-deviation functionals need phi* = inf: a rate with a finite
    # radius is refused before any lattice is solved
    solves, _, _ = _count_work(monkeypatch, tmp_path)
    out = tmp_path / "l"
    assert run(["ldp", *boundary, "--gamma", "1.5", "--theta", "0", "--N",
                "64", "--N", "128", "--N", "256", "--out", str(out)]
               ) == cli.EXIT_DOMAIN
    assert not solves and not out.exists()


@pytest.mark.parametrize("command", ["profile", "current", "ldp"])
def test_extrapolation_fallbacks_reported(tmp_path, command):
    args = [command, "--gamma", "1.5", "--theta", "0", "--N", "32",
            "--N", "64", "--N", "128"]
    run(args + ["--out", str(tmp_path / "x")])
    cfg = cli.RunConfig(command, gamma=1.5, theta=0.0, N_list=(32, 64, 128))
    thermo = ThermoTables.create(cfg.rate())
    params = cfg.model(128, thermo)
    solved = traffic.solve_lattices(params, cfg.N_list, thermo)
    warn = hydrostatic.rho_extrapolated(
        params, cli._regime(cfg, params), cfg.N_list, thermo,
        lattices=solved).warn
    lines = read_report(tmp_path / "x").splitlines()
    assert f"extrapolation_fallbacks = {warn.sum()} of {len(warn)}" in lines
    assert not any(l.startswith("check:extrapolation") for l in lines)
    # closed-form regimes have no fallbacks to report
    run([command, "--gamma", "1.5", "--theta", "-1", "--N", "32", "--N", "64",
         "--N", "128", "--out", str(tmp_path / "c")])
    assert "extrapolation_fallbacks" not in read_report(tmp_path / "c")


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\ngamma = 1.2\ntheta = -0.5\nn = 64\n"
                   "[run]\nseed = 9\n")
    out = tmp_path / "o"
    assert run(["profile", "--config", str(cfg), "--gamma", "1.4",
                "--out", str(out)]) == 0
    rep = read_report(out)
    assert "gamma = 1.4" in rep            # CLI flag wins
    assert "theta = -0.5" in rep


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nmystery = 1\n")
    assert run(["thermo", "--config", str(cfg),
                "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG


def test_malformed_config_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nn = 64,many\n")
    assert run(["profile", "--config", str(cfg),
                "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    assert not (tmp_path / "x").exists()
    # a non-finite number, as the flag refuses it
    cfg.write_text("[run]\nt_sample = nan\n")
    assert run(["simulate", "--gamma", "1.2", "--theta", "0", "--N", "8",
                "--t-burn", "1", "--seed", "3", "--config", str(cfg),
                "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", cli.SUBCOMMANDS)
def test_normalization_refused(tmp_path, capsys, command):
    # the kernel is always a probability: there is no normalization flag
    # and no config key to choose another one
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run([command, "--normalization", "normalized", "--out", str(out)])
    assert exc.value.code == cli.EXIT_CONFIG
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nnormalization = normalized\n")
    assert run([command, "--config", str(cfg),
                "--out", str(out)]) == cli.EXIT_CONFIG
    assert "unknown config key 'normalization'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(tmp_path):
    assert run(["thermo", "--config", str(tmp_path / "nope.cfg"),
                "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("text", [
    "gamma = 1.2\n",                          # no section header
    "[model]\ngamma\n",                      # a key without =
    "[model]\ngamma = 1.2\ngamma = 1.4\n",  # a key given twice
    b"\xff\xfe[model]\ngamma = 1.2\n",     # not UTF-8
], ids=["no_section", "no_equals", "twice", "not_utf8"])
def test_unparsable_config_file(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text)
    out = tmp_path / "x"
    assert run(["thermo", "--config", str(cfg),
                "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("table,code,named", [
    (None, cli.EXIT_CONFIG, "No such file"),
    ("1 0.5\n2 x\ntail: identity\n", cli.EXIT_DOMAIN, "'2 x'"),
    ("one 0.5\ntail: identity\n", cli.EXIT_DOMAIN, "'one 0.5'"),
    ("1 0.5\ntail: constant x\n", cli.EXIT_DOMAIN, "'tail: constant x'"),
    ("1 0.5\ntail:\n", cli.EXIT_DOMAIN, "bad tail rule line: 'tail:'"),
    ("1 0.5\n2 1.0\n1 0.7\ntail: identity\n", cli.EXIT_DOMAIN,
     "k = 1 twice"),
    ("1 0.5\ntail: identity\ntail: constant 2\n", cli.EXIT_DOMAIN,
     "second tail rule: 'tail: constant 2'"),
    (b"\xff\xfe1 0.5\ntail: identity\n", cli.EXIT_DOMAIN, "not UTF-8"),
], ids=["missing", "value", "k", "tail_value", "empty_tail", "k_twice",
        "two_tails", "not_utf8"])
def test_malformed_rate_table_is_refused(tmp_path, capsys, table, code,
                                         named):
    path = tmp_path / "g.txt"
    if isinstance(table, bytes):
        path.write_bytes(table)
    elif table is not None:
        path.write_text(table)
    out = tmp_path / "p"
    assert run(["thermo", "--g", f"table:{path}",
                "--out", str(out)]) == code
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_table_rate_spec(tmp_path):
    table = tmp_path / "g.txt"
    table.write_text("1 1.0\ntail: constant 1.0\n")
    out = tmp_path / "t"
    assert run(["thermo", "--g", f"table:{table}", "--out", str(out)]) == 0
    assert "phi_star = 1.0" in read_report(out)


@pytest.mark.parametrize("table,named", (
    ("1 0.5\n2 nan\n3 1.25\ntail: constant 1.25\n", "g(2) = nan"),
    ("1 0.5\n2 inf\n3 1.25\ntail: constant 1.25\n", "g(2) = inf"),
    ("1 0.5\n2 1.0\ntail: constant nan\n", "tail value nan")),
    ids=["nan", "inf", "nan_tail"])
def test_nonfinite_table_rate_is_a_domain_error(tmp_path, capsys, table,
                                                named):
    path = tmp_path / "g.txt"
    path.write_text(table)
    out = tmp_path / "p"
    assert run(["profile", "--g", f"table:{path}", "--gamma", "1.5",
                "--theta", "-1", "--N", "64",
                "--out", str(out)]) == cli.EXIT_DOMAIN
    assert named in capsys.readouterr().err


def test_table_rate_read_once(tmp_path, monkeypatch):
    # the run's tables are built from the file once; every model of the
    # run, the negative control's swapped one too, takes its rate from them
    table = tmp_path / "g.txt"
    table.write_text("1 1.0\n2 2.0\ntail: identity\n")
    reads = []

    def counting_read(path, _read=cli.read_rate_table):
        reads.append(path)
        return _read(path)

    monkeypatch.setattr(cli, "read_rate_table", counting_read)
    out = tmp_path / "s"
    run(["simulate", "--g", f"table:{table}", "--gamma", "1.2", "--theta",
         "0", "--N", "8", "--t-sample", "50", "--seed", "3",
         "--negative-control", "--out", str(out)])
    assert "negative_control = True" in read_report(out).splitlines()
    assert reads == [str(table)]


def test_exit_code_config_error(tmp_path, monkeypatch):
    # decreasing N list
    assert run(["profile", "--N", "256", "--N", "128",
                "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    assert run(["thermo", "--gamma", "2.5",
                "--out", str(tmp_path / "y")]) == cli.EXIT_CONFIG
    # a negative burn-in would start the batches before the chain
    assert run(["simulate", "--gamma", "1.2", "--theta", "0", "--N", "16",
                "--t-burn", "-50", "--t-sample", "200", "--seed", "3",
                "--out", str(tmp_path / "z")]) == cli.EXIT_CONFIG
    assert not (tmp_path / "z").exists()
    # a negative seed, as a flag and in a config file
    assert run(["simulate", "--N", "8", "--t-sample", "10", "--seed", "-1",
                "--out", str(tmp_path / "s")]) == cli.EXIT_CONFIG
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nseed = -1\n")
    assert run(["simulate", "--N", "8", "--t-sample", "10", "--config",
                str(cfg), "--out", str(tmp_path / "s")]) == cli.EXIT_CONFIG
    assert not (tmp_path / "s").exists()
    # non-finite numbers; a NaN or infinite time never ends a simulation
    simulate = ["simulate", "--gamma", "1.2", "--theta", "0", "--N", "8",
                "--seed", "3"]
    for argv in (["profile", "--gamma", "0.5", "--theta", "nan", "--N", "64"],
                 ["profile", "--gamma", "1.5", "--theta", "-1", "--N", "64",
                  "--kappa", "inf"],
                 ["profile", "--gamma", "1.5", "--theta", "-1", "--N", "64",
                  "--alpha", "nan"],
                 ["thermo", "--phi-grid-max", "inf"],
                 simulate + ["--t-burn", "1", "--t-sample", "inf"],
                 simulate + ["--t-burn", "inf", "--t-sample", "10"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path / "n")])
        assert exc.value.code == cli.EXIT_CONFIG, argv
        assert not (tmp_path / "n").exists()
    # an --out that cannot be a directory is refused before the run
    solves, _, _ = _count_work(monkeypatch, tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert run(["thermo", "--out", str(taken)]) == cli.EXIT_CONFIG
    assert run(["profile", "--gamma", "1.5", "--theta", "-1", "--N", "64",
                "--out", str(taken / "sub")]) == cli.EXIT_CONFIG
    assert not solves and taken.read_text() == "kept\n"


@pytest.mark.parametrize("value", ["-1", "0"])
def test_non_positive_phi_grid_max_is_a_config_error(tmp_path, capsys,
                                                     value):
    # the phi grid spans [0, max]: a max <= 0 is refused as the flag the
    # user gave, not met later as a fugacity nobody typed or as a table of
    # 51 equal rows
    out = tmp_path / "t"
    assert run(["thermo", "--phi-grid-max", value,
                "--out", str(out)]) == cli.EXIT_CONFIG
    assert "--phi-grid-max" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\nphi_grid_max = {value}\n")
    assert run(["thermo", "--config", str(cfg),
                "--out", str(out)]) == cli.EXIT_CONFIG
    assert "--phi-grid-max" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_domain_error(tmp_path):
    # phi grid beyond the radius of convergence
    assert run(["thermo", "--g", "figure3", "--phi-grid-max", "1.5",
                "--out", str(tmp_path / "x")]) == cli.EXIT_DOMAIN
    # the excluded regime point
    assert run(["profile", "--gamma", "1.0", "--theta", "0", "--N", "64",
                "--out", str(tmp_path / "y")]) == cli.EXIT_DOMAIN
    # kappa N^(-theta) overflows to inf: no finite stationary solve
    for command in ("profile", "current"):
        assert run([command, "--gamma", "1.5", "--theta", "-1", "--N", "8",
                    "--kappa", "1e308",
                    "--out", str(tmp_path / "z")]) == cli.EXIT_DOMAIN


def test_exit_code_statistical_failure(tmp_path):
    # negative control with alpha = beta: the swap is the identity, the
    # mapping check passes, so the control fails to fail -> exit 5
    code = run(["simulate", "--gamma", "1.2", "--theta", "0", "--N", "24",
                "--alpha", "0.8", "--beta", "0.8", "--t-burn", "50",
                "--t-sample", "400", "--seed", "3", "--negative-control",
                "--out", str(tmp_path / "x")])
    assert code == cli.EXIT_STATISTICAL


def test_negative_control_fails_as_designed(tmp_path):
    out = tmp_path / "n"
    code = run(["simulate", "--gamma", "1.2", "--theta", "0", "--N", "32",
                "--t-burn", "100", "--t-sample", "1200", "--seed", "7",
                "--negative-control", "--out", str(out)])
    assert code == 0
    assert "check:negative_control_fails = PASS" in read_report(out)


def _count_work(monkeypatch, tmp_path):
    """Count traffic solves per lattice size, assemblies per model and
    Monte Carlo chain runs.

    Returns the solve Counter, the assembly Counter (keyed by the model's
    params) and a function that reads the chain runs back as a Counter of
    names.  Chain runs are logged to a file under ``tmp_path``, so that a
    run in a forked worker process counts too."""
    solves, assembled = Counter(), Counter()
    log = tmp_path / "chain_runs.log"
    log.touch()
    solve, assemble = traffic.solve_iterative, traffic.assemble

    def counting_solve(system, **kw):
        solves[system.N] += 1
        return solve(system, **kw)

    def counting_assemble(params, thermo):
        assembled[params] += 1
        return assemble(params, thermo)

    monkeypatch.setattr(traffic, "solve_iterative", counting_solve)
    # every module that bound the name assembles through it
    for module in (traffic, cli, mc):
        monkeypatch.setattr(module, "assemble", counting_assemble)
    for name in ("simulate_zero_range", "simulate_exclusion"):
        def counting_chain(*args, _run=getattr(mc, name), _name=name, **kw):
            with log.open("a") as runs:
                runs.write(_name + "\n")
            return _run(*args, **kw)

        monkeypatch.setattr(mc, name, counting_chain)
    return solves, assembled, lambda: Counter(log.read_text().split())


THREE_N = ["--gamma", "1.5", "--theta", "0", "--N", "32", "--N", "64",
           "--N", "128"]


SIMULATE = ["simulate", "--gamma", "1.2", "--theta", "0", "--N", "24",
            "--t-burn", "50", "--t-sample", "400", "--seed", "3"]
CHAINS = ["simulate_zero_range", "simulate_exclusion"]


@pytest.mark.parametrize("argv,lattices,chains,swapped", [
    (["profile"] + THREE_N, (32, 64, 128), [], 0),
    (["current"] + THREE_N, (32, 64, 128), [], 0),
    (["ldp", "--alpha", "0.5", "--beta", "1.5"] + THREE_N, (32, 64, 128), [],
     0),
    (SIMULATE, (24,), CHAINS, 0),
    (SIMULATE + ["--negative-control"], (24,), CHAINS, 1),
], ids=["profile", "current", "ldp", "simulate", "negative-control"])
def test_each_lattice_solved_once(tmp_path, monkeypatch, argv, lattices,
                                  chains, swapped):
    solves, assembled, runs = _count_work(monkeypatch, tmp_path)
    run(argv + ["--out", str(tmp_path / "o")])
    assert solves == {N: 1 for N in lattices}
    # each lattice is assembled once, and the negative control's swapped
    # model (its exclusion rates) once more; nothing is assembled twice
    assert set(assembled.values()) == {1}
    assert sorted(params.N for params in assembled) == sorted(
        lattices + (lattices[-1],) * swapped)
    # the two chains run at the same time, so their order is not fixed
    assert runs() == Counter(chains)


def test_ldp_evaluates_lambda_once_per_level_and_tilt(tmp_path, monkeypatch):
    # level 1 for the Fenchel check, level 2 for ldp_scan.csv; no level is
    # evaluated twice for the same tilt
    levels = Counter()
    lambda_limit = ldp.lambda_limit

    def counting(m_bar, thermo, G, level=1):
        levels[level] += 1
        return lambda_limit(m_bar, thermo, G, level)

    monkeypatch.setattr(ldp, "lambda_limit", counting)
    run(["ldp", "--alpha", "0.5", "--beta", "1.5"] + THREE_N
        + ["--out", str(tmp_path / "o")])
    tilts = len(cli._LDP_BASIS)
    assert levels == {1: tilts, 2: tilts}


def test_lattice_files_do_not_depend_on_the_n_list(tmp_path):
    # each lattice is solved from its own system only, so its profile file
    # is the same whichever other sizes the run solves
    model = ["profile", "--gamma", "1.5", "--theta", "-0.5"]
    assert run(model + ["--N", "2048", "--out", str(tmp_path / "one")]) == 0
    assert run(model + ["--N", "512", "--N", "1024", "--N", "2048",
                        "--out", str(tmp_path / "three")]) == 0
    name = "profile_N2048.csv"
    assert ((tmp_path / "one" / name).read_bytes()
            == (tmp_path / "three" / name).read_bytes())


@pytest.mark.parametrize("argv", [
    ["--theta", "8", "--N", "64"],
    ["--theta", "0", "--kappa", "1e-18", "--N", "512", "--N", "1024",
     "--N", "2048"],
], ids=["theta8", "kappa1e-18"])
def test_margin_lost_in_rounding_is_a_convergence_failure(tmp_path, capsys,
                                                          argv):
    # kappa N^-theta too small to register against the kernel's row mass:
    # exit 4 with nothing written, not the straight line as a profile
    out = tmp_path / "p"
    assert run(["profile", "--gamma", "1.5", *argv,
                "--out", str(out)]) == cli.EXIT_CONVERGENCE
    assert "kappa N^(-theta)" in capsys.readouterr().err
    assert not out.exists()


def test_tol_refused(tmp_path):
    # every solve runs to the rounding floor: a tolerance is not an input
    argv = ["profile", "--gamma", "1.5", "--theta", "-1", "--N", "64",
            "--out", str(tmp_path / "p")]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--tol", "1e-9"])
    assert exc.value.code == cli.EXIT_CONFIG
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ntol = 1e-9\n")
    assert run(argv + ["--config", str(cfg)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("tol", ["0", "-1e-12"])
def test_nonpositive_tol_refused(tmp_path, tol):
    # the values a tolerance flag once refused are still refused, now as
    # an unknown flag, before anything is solved or written
    with pytest.raises(SystemExit) as exc:
        run(["profile", "--gamma", "1.5", "--theta", "-1", "--N", "64",
             f"--tol={tol}", "--out", str(tmp_path / "p")])
    assert exc.value.code == cli.EXIT_CONFIG
    assert not (tmp_path / "p").exists()


CLOSED_FORM = ["--gamma", "1.5", "--theta", "-1", "--N", "64"]
FUGACITIES = ["--phi-alpha", "0.2", "--phi-beta", "0.8"]


@pytest.mark.parametrize("argv", [
    ["thermo", "--seed", "5"],
    ["profile", "--seed", "99"] + CLOSED_FORM,
    ["current", "--seed", "99"] + CLOSED_FORM,
    ["ldp", "--seed", "99", "--N", "16", "--N", "32"] + CLOSED_FORM,
    ["thermo", "--gamma", "1.9"],
    ["thermo", "--theta", "0.5"],
    ["thermo", "--kappa", "3"],
    ["thermo", "--alpha", "0.5"],
    ["thermo", "--beta", "1.5"],
    ["thermo"] + FUGACITIES,
    ["thermo", "--N", "64"],
    ["profile", "--alpha", "0.9"] + FUGACITIES + CLOSED_FORM,
    ["simulate", "--beta", "1.2", "--t-sample", "50"] + FUGACITIES
    + CLOSED_FORM,
    ["profile", "--figure3", "--g", "identity"] + CLOSED_FORM,
    ["profile", "--figure3", "--alpha", "0.9"] + CLOSED_FORM,
], ids=["thermo-seed", "profile-seed", "current-seed", "ldp-seed",
        "thermo-gamma", "thermo-theta", "thermo-kappa", "thermo-alpha",
        "thermo-beta", "thermo-fugacities", "thermo-N", "alpha-and-fugacities",
        "beta-and-fugacities", "figure3-and-g", "figure3-and-alpha"])
def test_inert_flags_refused(tmp_path, monkeypatch, argv):
    # a flag that cannot act on the run is a config error, not ignored
    solves, _, chains = _count_work(monkeypatch, tmp_path)
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert not solves and not chains() and not out.exists()


def test_config_file_may_carry_other_commands_keys(tmp_path):
    # one file can serve several subcommands: keys that do not act on this
    # one are accepted, and the flags that act still override the file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\ngamma = 1.9\nkappa = 3\nphi_alpha = 0.2\n"
                   "phi_beta = 0.8\nn = 64,128\n[run]\nseed = 5\n"
                   "t_sample = 50\ngrid_points = 33\n")
    out = tmp_path / "t"
    assert run(["thermo", "--config", str(cfg), "--g", "figure3",
                "--out", str(out)]) == 0
    assert "# g = figure3" in read_report(out).splitlines()


def test_header_keys_in_order():
    cfg = cli.RunConfig("profile", N_list=(64, 128))
    keys = [line[2:].split(" = ")[0] for line in cfg.header_lines()]
    assert keys == ["zrlab_version", "command", "gamma", "theta", "kappa",
                    "alpha", "beta", "phi_alpha", "phi_beta", "N_list", "g",
                    "seed", "t_burn", "t_sample", "grid_points"]
    assert "# N_list = 64,128" in cfg.header_lines()


def test_run_config_fields_are_the_options():
    # a removed option leaves no dead config field (or header key) behind
    fields = [f.name for f in dataclasses.fields(cli.RunConfig)]
    assert sorted(fields) == sorted(["command",
                                     *(opt.field for opt in cli.OPTIONS)])
