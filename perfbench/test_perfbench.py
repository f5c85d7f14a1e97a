"""Tests of the benchmark itself: the output checker, the tracer and the
metric names.  Run with ``python3 -m pytest perfbench`` from the
repository root."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402
import zrlab.cli  # noqa: E402
import zrlab.hydrostatic  # noqa: E402
import zrlab.traffic  # noqa: E402
from tracing import Tracer, tracing  # noqa: E402
from workloads import Job, exact_regime  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("gamma,theta,regime", [
    ("1.2", "0.2", "Robin"), ("1.3", "0.3", "Robin"), ("1.9", "0.9", "Robin"),
    ("1.5", "0.5", "Robin"), ("1.5", "0", "ReactionDiffusion"),
    ("1.5", "-0.5", "ExplicitRatio"), ("1.5", "0.2", "Dirichlet"),
    ("1.5", "0.8", "Neumann"), ("0.5", "0.5", "Neumann"),
    ("1", "0.3", "Neumann"),
])
def test_exact_regime_map(gamma, theta, regime):
    assert exact_regime(gamma, theta) == regime


def _profile_outputs(out: Path, report_lines: list) -> None:
    out.mkdir(parents=True)
    (out / "report.txt").write_text("\n".join(
        ["# command = profile"] + report_lines) + "\n")
    (out / "continuum_profile.csv").write_text("u,rho,m,err_estimate\n")
    (out / "convergence_gaps.csv").write_text("N,sup_gap\n")
    (out / "profile_N4.csv").write_text(
        "# phi_alpha = 0.25\n# phi_beta = 0.75\n# residual = 1e-16\n"
        "# method = direct\nx,x_over_N,phi,m\n"
        "1,0.25,0.4,0.4\n2,0.5,0.5,0.5\n3,0.75,0.6,0.6\n")


def _checked(tmp_path, gamma, theta, report_lines):
    job = Job("cli", ("profile", "--gamma", gamma, "--theta", theta),
              gamma, theta)
    out = tmp_path / "job"
    _profile_outputs(out, report_lines)
    result = bench.JobResult(index=0, job=job, seconds=1.0, exit_code=0)
    bench.check(result, out)
    return result


def test_clean_job_passes_with_accuracy(tmp_path):
    result = _checked(tmp_path, "1.5", "0.5",
                      ["regime = Robin", "check:midpoint_identity = PASS"])
    assert result.failures == [] and result.problems == []
    assert result.accuracy["method"] == "direct"
    assert result.accuracy["symmetry_gap"] == pytest.approx(0.0, abs=1e-15)


def test_fail_line_is_one_failed_job(tmp_path):
    result = _checked(tmp_path, "1.5", "0.5",
                      ["regime = Robin", "check:midpoint_identity = FAIL (x)"])
    assert len(result.failures) == 1
    assert bench._tally([(1.0, [result])]) == (1, 1, True)


def test_regime_mismatch_is_one_failed_job(tmp_path):
    result = _checked(tmp_path, "1.2", "0.2", ["regime = Neumann"])
    assert result.failures == ["regime = Neumann, exact map gives Robin"]
    assert bench._tally([(1.0, [result])]) == (1, 1, True)


def test_nonzero_exit_is_one_failed_job(tmp_path):
    job = Job("cli", ("profile", "--gamma", "1.5", "--theta", "0.5"),
              "1.5", "0.5")
    result = bench.JobResult(index=0, job=job, seconds=1.0, exit_code=3)
    bench.check(result, tmp_path / "never-written")
    assert result.failures == ["exit code 3"]
    assert bench._tally([(1.0, [result])]) == (1, 1, True)


def test_missing_outputs_make_the_run_incorrect(tmp_path):
    job = Job("cli", ("ldp", "--gamma", "1.5", "--theta", "0"), "1.5", "0")
    (tmp_path / "job").mkdir()
    result = bench.JobResult(index=0, job=job, seconds=1.0, exit_code=0)
    bench.check(result, tmp_path / "job")
    assert result.problems and bench._tally([(1.0, [result])])[2] is False


def test_wrappers_replace_every_binding_and_are_removed():
    original = zrlab.traffic.solve_direct
    assert zrlab.hydrostatic.solve_direct is original
    with tracing(Tracer()):
        assert zrlab.traffic.solve_direct is not original
        assert zrlab.hydrostatic.solve_direct is zrlab.traffic.solve_direct
        assert zrlab.cli.solve_direct is zrlab.traffic.solve_direct
    assert zrlab.hydrostatic.solve_direct is original
    assert zrlab.cli.solve_direct is original


def test_spans_nest_under_the_cli_root(tmp_path):
    tracer = Tracer()
    tracer.job = 7
    with tracing(tracer):
        code = zrlab.cli.main(["profile", "--gamma", "1.5", "--theta", "0.5",
                               "--N", "32", "--N", "64", "--N", "128",
                               "--out", str(tmp_path)])
    assert code == 0
    spans = tracer.spans
    roots = [s for s in spans if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"]
    assert all(s[4] == 7 for s in spans)
    # inner solves of the extrapolated family are seen through the
    # hydrostatic module's own binding of solve_direct
    assert tracer.calls["traffic.solve_direct"] == 6
    assert tracer.calls["thermo.mean_density"] > 0
    total = roots[0][2] - roots[0][1]
    assert sum(tracer.self_time.values()) == pytest.approx(total, rel=1e-6)


TINY = [[Job("cli", ("profile", "--gamma", "1.5", "--theta", "0.5",
                     "--N", "32", "--N", "64", "--N", "128"), "1.5", "0.5"),
         Job("weak", (), "1.5", "0.5", source=0),
         Job("cli", ("current", "--gamma", "1.5", "--theta", "0.5",
                     "--N", "32", "--N", "64", "--N", "128"), "1.5", "0.5")]]


@pytest.mark.parametrize("trace,key", [(False, "end_to_end"),
                                       (True, "per_layer")])
def test_emitted_metric_names_equal_benchmark_json(monkeypatch, trace, key):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", lambda rng: TINY)
    result = bench.run("tiny", 1, 0.0, trace, ROOT, 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = [entry["name"] for entry in SPEC[key]]
    assert list(result["metrics"]) == names
    for entry in SPEC[key]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    assert not (ROOT / ".perfbench_work").exists()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
