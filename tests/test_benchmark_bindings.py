"""The names the benchmark (``perfbench/``) binds in zrlab still resolve,
and the benchmark still reads the files the CLI writes.

The suite does not collect ``perfbench/``, so without these checks a
rename or a format change would break the benchmark only when it runs.
Its modules are loaded from their files and only read.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from zrlab import cli, hydrostatic, traffic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(PERFBENCH))      # bench imports its siblings
    try:
        spec.loader.exec_module(module)     # leaves no cache in perfbench/
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write_bytecode
    return module


tracing = _load("tracing")
workloads = _load("workloads")
bench = _load("bench")


def _resolve(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module,attr",
                         [entry[:2] for entry in tracing.TRACED],
                         ids=[".".join(entry[:2]) for entry in tracing.TRACED])
def test_traced_functions_resolve(module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize("module,attr", [
    ("zrlab.cli", "main"),
    ("zrlab.cli", "EXIT_STATISTICAL"),
    ("zrlab.hydrostatic", "compact_bump"),
    ("zrlab.hydrostatic", "read_continuum_csv"),
    ("zrlab.hydrostatic", "weak_form_residual"),
    ("zrlab.kernel", "KernelParams.create"),
    ("zrlab.thermo", "ThermoTables.create"),
])
def test_bench_names_resolve(module, attr):
    _resolve(module, attr)


def test_solve_direct_reexports():
    # the tracer wraps every zrlab binding of a traced function
    assert cli.solve_direct is traffic.solve_direct
    assert hydrostatic.solve_direct is traffic.solve_direct


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_rate_specs_build(name):
    specs = workloads.rate_specs(workloads.build(name, 1))
    assert specs
    for spec in specs:
        cli.RunConfig("thermo", g_spec=spec).rate()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_jobs_accepted(tmp_path, monkeypatch, name, seed):
    # every cli job's flags still pass the front end's checks; the
    # commands are no-ops, so nothing is solved or simulated
    for command in cli.COMMANDS:
        monkeypatch.setitem(cli.COMMANDS, command,
                            lambda cfg, thermo, report: None)
    for index, job in enumerate(workloads.build(name, seed)):
        if job.kind == "cli":
            argv = list(job.argv) + ["--out", str(tmp_path / str(index))]
            assert cli.main(argv) == cli.EXIT_OK, job.label()


def test_bench_reads_the_cli_outputs(tmp_path):
    # a profile job and the weak-form job that reads its continuum CSV,
    # run and checked as the benchmark runs and checks them
    jobs = [bench.workloads.Job("cli", ("profile", "--figure3", "--gamma",
                                        "1.5", "--theta", "0.5", "--N", "64",
                                        "--N", "128", "--N", "256"),
                                "1.5", "0.5"),
            bench.workloads.Job("weak", (), "1.5", "0.5", source=0)]
    outs = [tmp_path / "profile", tmp_path / "weak"]
    for index, job in enumerate(jobs):
        result = bench._execute(index, job, outs)
        bench.check(result, outs[index])
        assert result.exit_code == 0, result.error
        assert not result.problems, result.problems
    assert math.isfinite(result.accuracy["weak_residual"])


DESK_N = ["--N", "64", "--N", "128", "--N", "256"]
DESK_RUNS = (
    ["profile", "--gamma", "1.5", "--theta", "0", *DESK_N],
    ["current", "--gamma", "1.5", "--theta", "0", *DESK_N],
    ["ldp", "--gamma", "1.5", "--theta", "0", "--alpha", "0.5", "--beta",
     "1.5", *DESK_N],
    ["simulate", "--gamma", "1.2", "--theta", "0", "--N", "16", "--t-burn",
     "50", "--t-sample", "300", "--seed", "3"],
)


def test_traced_run_fills_the_observed_counters(tmp_path):
    # the tracer's observers read the profiles, systems and reports the
    # subcommands pass around; under the tracer each run keeps its exit
    # code and every counter the benchmark reports is filled
    def run_all(prefix):
        return [cli.main(argv + ["--out", str(tmp_path / prefix / argv[0])])
                for argv in DESK_RUNS]

    untraced = run_all("untraced")
    tracer = tracing.Tracer()
    with tracing.tracing(tracer):
        traced = run_all("traced")
    assert traced == untraced == [cli.EXIT_OK] * len(DESK_RUNS)
    for key in ("traffic.cg_iters", "current.bonds_computed",
                "hydrostatic.grid_points", "mc.events"):
        assert tracer.counters[key] > 0, key
    assert 0.0 < tracer.extrema["mc.fraction_ok"] <= 1.0
