"""Runs one workload: set-up probes, timed passes over its jobs, output
checks, and the metrics of the untraced or the traced run."""

from __future__ import annotations

import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np
import scipy

import zrlab.cli
from zrlab import hydrostatic
from zrlab.kernel import KernelParams

import workloads
from metrics import END_TO_END, PER_LAYER
from tracing import Tracer, tracing

SETUP_PROBES = 5

# Fresh interpreter to ready: import the package (numpy, scipy) and build
# the thermodynamic tables of the workload's rate functions.
_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import zrlab.cli
from zrlab.thermo import ThermoTables
for spec in sys.argv[2:]:
    ThermoTables.create(zrlab.cli.RunConfig("thermo", g_spec=spec).rate())
"""

# Asymmetric test functions (the acceptance suite's modulated bumps): the
# plain bump is reflection-symmetric and sees only quadrature error.
WEAK_BASIS = (
    hydrostatic.compact_bump(modulation=lambda u: np.sin(3.0 * u)),
    hydrostatic.compact_bump(modulation=lambda u: 2.0 * u - 1.0),
    hydrostatic.compact_bump(modulation=lambda u: np.cos(2.0 * u)),
)
WEAK_TOL = 5e-3          # the acceptance suite's weak-form tolerance

_EXPECTED = {
    "profile": ("report.txt", "continuum_profile.csv", "convergence_gaps.csv"),
    "current": ("report.txt", "bond_currents.csv", "fick_sweep.csv"),
    "simulate": ("report.txt", "zr_estimates.csv", "ex_estimates.csv"),
    "ldp": ("report.txt", "ldp_scan.csv"),
}
_EVENTS = re.compile(r"zr events (\d+), ex events (\d+)")


@dataclass
class JobResult:
    index: int
    job: workloads.Job
    seconds: float
    exit_code: Optional[int] = None
    error: Optional[str] = None
    failures: list = field(default_factory=list)   # the job failed
    problems: list = field(default_factory=list)   # outputs are malformed
    accuracy: dict = field(default_factory=dict)
    bytes_written: int = 0
    events: int = 0


def weak_form_job(csv_path: Path, gamma: str) -> float:
    """Largest weak-form residual of a CLI-written continuum profile."""
    profile = hydrostatic.read_continuum_csv(csv_path)
    kernel = KernelParams.create(float(gamma))
    return max(hydrostatic.weak_form_residual(profile, G, profile.regime,
                                              kernel)
               for G in WEAK_BASIS)


def _execute(index: int, job: workloads.Job, outs: list) -> JobResult:
    result = JobResult(index=index, job=job, seconds=0.0)
    out = outs[index]
    start = perf_counter()
    try:
        if job.kind == "cli":
            result.exit_code = zrlab.cli.main(list(job.argv) + ["--out", str(out)])
        else:
            csv = outs[job.source] / "continuum_profile.csv"
            result.accuracy["weak_residual"] = weak_form_job(csv, job.gamma)
            result.exit_code = 0
    except SystemExit as exc:           # argparse refusing the arguments
        result.exit_code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:            # a job's crash is its failure
        result.error = f"{type(exc).__name__}: {exc}"
    result.seconds = perf_counter() - start
    return result


def parse_report(path: Path) -> tuple[dict, list]:
    """``key = value`` lines of a report.txt, and its failed check lines."""
    values, failed = {}, []
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if not sep or key.startswith("#"):
            continue
        values[key] = value
        if key.startswith("check:") and value.startswith("FAIL"):
            failed.append(line)
    return values, failed


def _profile_accuracy(path: Path) -> dict:
    """Residual, method and reflection-symmetry gap of one profile CSV."""
    header, phis = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        elif line[:1].isdigit():
            phis.append(float(line.split(",")[2]))
    phi = np.array(phis)
    total = float(header["phi_alpha"]) + float(header["phi_beta"])
    return {"residual": float(header["residual"]), "method": header["method"],
            "symmetry_gap": float(np.max(np.abs(phi + phi[::-1] - total)))}


def check(result: JobResult, out: Path) -> None:
    """Classify the job as failed or not, and record its accuracy figures.

    A job fails on a nonzero exit or an exception, a ``check:... = FAIL``
    line in its report, or a ``regime`` line that differs from the exact
    regime map of its decimal (gamma, theta).  Missing or non-finite outputs
    of a job that ran to its report are problems: the run is then not
    correct.
    """
    job = result.job
    if result.error is not None:
        result.failures.append(result.error)
        return
    if result.exit_code != 0:
        result.failures.append(f"exit code {result.exit_code}")
    if job.kind == "weak":
        residual = result.accuracy.get("weak_residual", math.nan)
        if not math.isfinite(residual):
            result.problems.append("weak-form residual is not finite")
        elif residual >= WEAK_TOL:
            result.failures.append(f"weak-form residual {residual:.3g} "
                                   f">= {WEAK_TOL:g}")
        return
    if result.exit_code not in (0, zrlab.cli.EXIT_STATISTICAL):
        return                          # refused before writing a report
    command = job.argv[0]
    missing = [name for name in _EXPECTED[command] if not (out / name).is_file()]
    if missing:
        result.problems.append(f"missing outputs {missing}")
        return
    result.bytes_written = sum(p.stat().st_size for p in out.iterdir())
    values, failed = parse_report(out / "report.txt")
    result.failures.extend(failed)
    if command == "profile":
        expected = workloads.exact_regime(job.gamma, job.theta)
        if values.get("regime") != expected:
            result.failures.append(f"regime = {values.get('regime')}, "
                                   f"exact map gives {expected}")
        profiles = [_profile_accuracy(p)
                    for p in sorted(out.glob("profile_N*.csv"))]
        if not profiles:
            result.problems.append("no profile CSV written")
            return
        result.accuracy["residual"] = max(p["residual"] for p in profiles)
        result.accuracy["symmetry_gap"] = max(p["symmetry_gap"]
                                              for p in profiles)
        result.accuracy["method"] = "+".join(sorted({p["method"]
                                                     for p in profiles}))
    elif command == "current":
        result.accuracy["bond_spread"] = float(values["bond_spread"])
    elif command == "simulate":
        result.accuracy["fraction_ok"] = float(values["fraction_ok"])
        events = _EVENTS.search(values["mapping_summary"])
        result.events = int(events[1]) + int(events[2])
    elif command == "ldp":
        result.accuracy["rate_at_typical"] = float(
            values["rate_at_typical_profile"])
    numbers = [v for v in result.accuracy.values() if isinstance(v, float)]
    if not all(math.isfinite(v) for v in numbers):
        result.problems.append(f"non-finite accuracy figures {result.accuracy}")


def run_pass(jobs: list, work: Path, tracer: Optional[Tracer] = None):
    """Run every job once, then check the outputs.  Returns the wall time
    of the jobs and their results."""
    outs = [work / f"job{i}" for i in range(len(jobs))]
    results = []
    start = perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        results.append(_execute(index, job, outs))
    wall = perf_counter() - start
    for result, out in zip(results, outs):
        check(result, out)
        if tracer is not None:
            tracer.add("cli.bytes_written", result.bytes_written)
    shutil.rmtree(work, ignore_errors=True)
    return wall, results


def measure_setup(specs: list, src: Path) -> list:
    """Wall times of fresh interpreters that import zrlab and build the
    thermodynamic tables of ``specs``."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", _PROBE, str(src), *specs],
                       check=True, timeout=120)
        times.append(perf_counter() - start)
    return times


def environment(cpus: int) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc {cpus}, BLAS/OpenMP threads 1; "
            f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, {blas.get('name', 'blas')} {blas.get('version', '?')}")


def _describe(result: JobResult) -> str:
    status = "FAILED" if result.failures else "ok"
    figures = " ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in result.accuracy.items())
    line = (f"  job {result.index:2d} {result.seconds:8.3f} s  {status:6s} "
            f"{result.job.label()}  {figures}")
    for reason in result.failures + result.problems:
        line += f"\n           - {reason}"
    return line


def _tally(passes: list) -> tuple[int, int, bool]:
    results = [r for _, rs in passes for r in rs]
    return (len(results), sum(1 for r in results if r.failures),
            not any(r.problems for r in results))


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        cpus: int) -> dict:
    """Run the workload and return the benchmark's result object; the
    human-readable report goes to stdout first."""
    jobs = workloads.build(workload, seed)
    print(f"workload {workload}  seed {seed}  jobs {len(jobs)}  "
          f"({environment(cpus)})")
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if trace:
            metrics, passes = _traced(jobs, work, workload)
        else:
            setup = measure_setup(workloads.rate_specs(jobs), root / "src")
            passes = _untraced(jobs, work, seconds)
            metrics = _end_to_end(passes, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass                        # another run still uses it
    attempted, failed, correct = _tally(passes)
    print(f"failed_frac = {failed / attempted!r} ratio "
          f"({failed} of {attempted} jobs failed)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _untraced(jobs: list, work: Path, seconds: float) -> list:
    """Whole passes while the next one is expected to end within
    ``seconds`` (at least one)."""
    passes = []
    start = perf_counter()
    while True:
        wall, results = run_pass(jobs, work / f"pass{len(passes)}")
        passes.append((wall, results))
        print(f"pass {len(passes)}: {wall:.3f} s")
        for result in results:
            print(_describe(result))
        if perf_counter() - start + wall > seconds:
            return passes


def _end_to_end(passes: list, setup: list) -> dict:
    walls = [wall for wall, _ in passes]
    job_times = [r.seconds for _, rs in passes for r in rs]
    sims = [r for _, rs in passes for r in rs
            if r.job.kind == "cli" and r.job.argv[0] == "simulate"]
    values = {
        "wall_s": statistics.median(walls),
        "job_s_p50": statistics.median(job_times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    print(f"wall_s = {values['wall_s']!r} s (median of {len(walls)} passes)")
    print(f"job_s_p50 = {values['job_s_p50']!r} s "
          f"(n = {len(job_times)} jobs)")
    print(f"setup_s = {values['setup_s']!r} s (median of {len(setup)} fresh "
          f"starts: {', '.join(f'{t:.3f}' for t in setup)})")
    print(f"peak_rss_mb = {values['peak_rss_mb']!r} MB")
    if sims:
        rate = sum(r.events for r in sims) / sum(r.seconds for r in sims)
        print(f"mc_events_per_s = {rate!r} 1/s ({len(sims)} simulate jobs)")
    else:
        print("mc_events_per_s: absent (no simulate job in this workload)")
    return {name: {"value": values[name], "unit": units[name]}
            for name in values}


def _traced(jobs: list, work: Path, workload: str) -> tuple[dict, list]:
    """One traced pass.  Its wall time minus the untraced wall_s of the
    workload is the tracing overhead; ``trace.overhead_s`` measures the
    part the wrappers add directly."""
    tracer = Tracer()
    with tracing(tracer):
        wall, results = run_pass(jobs, work, tracer)
    tracer.add("trace.wall_s", wall)
    tracer.add("trace.overhead_s", tracer.overhead())
    print(f"traced pass {wall:.3f} s; tracing overhead = this minus the "
          f"untraced wall_s, of which the wrappers add "
          f"{tracer.counters['trace.overhead_s']:.3f} s")
    for result in results:
        print(_describe(result))
        counts = tracer.by_job[result.index]
        if counts["hydrostatic.grid_points"]:
            print(f"           extrapolation warn_frac="
                  f"{counts['hydrostatic.warn_points'] / counts['hydrostatic.grid_points']:.3g}")
        if counts["traffic.cg_iters"]:
            print(f"           cg_iters={counts['traffic.cg_iters']:g}")
    metrics = {}
    for name, unit, _, sources, value in PER_LAYER:
        v = value(tracer)
        metrics[name] = {"value": v, "unit": unit}
        if sources and not any(tracer.calls[s] for s in sources):
            print(f"{name} = {v!r} {unit}  absent on {workload}: "
                  f"{', '.join(sources)} never called")
        else:
            print(f"{name} = {v!r} {unit}")
    print(f"spans recorded: {len(tracer.spans)}; aggregated calls: "
          f"{sum(tracer.calls.values()) - len(tracer.spans)}")
    return metrics, [(wall, results)]
