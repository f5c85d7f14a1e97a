"""Smoke runs of the example scripts on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def csv_rows(path):
    lines = path.read_text().splitlines()
    return [l for l in lines if l and not l.startswith("#")]


def test_figure3_profiles(tmp_path):
    proc = run_script("figure3_profiles.py", "--N", "64", "128", "256",
                      "--out", "fig3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    written = sorted((tmp_path / "fig3").glob("profile_*.csv"))
    assert len(written) == 5
    for path in written:
        rows = csv_rows(path)
        assert rows[0] == "u,rho,m,err_estimate" and len(rows) == 258


def test_fick_scaling(tmp_path):
    proc = run_script("fick_scaling.py", "--N", "64", "128", "256",
                      "--out", "fick.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = csv_rows(tmp_path / "fick.csv")
    assert len(rows) == 4 and rows[0].startswith("N,")


def test_mapping_experiment(tmp_path):
    proc = run_script("mapping_experiment.py", "--N", "8", "--t-burn", "50",
                      "--t-sample", "200", "--out", "mapping", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = csv_rows(tmp_path / "mapping" / "zr_estimates.csv")
    assert len(rows) == 1 + 7
