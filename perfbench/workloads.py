"""The benchmark's workloads: each is a list of job groups built from a seed.

A job is one ``zrlab`` subcommand (``kind="cli"``) or one weak-form
verification of a continuum profile written by an earlier profile job
(``kind="weak"``).  Jobs inside a group run in order (a weak-form job reads
the CSV its profile job wrote); the seed shuffles the order of the groups
and, for ``mc_mapping``, chooses every simulate seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class Job:
    kind: str                       # "cli" or "weak"
    argv: tuple                     # subcommand and flags, without --out
    gamma: str
    theta: str
    source: Optional[int] = None    # weak: index of the profile job it reads

    def label(self) -> str:
        if self.kind == "weak":
            return (f"weak_form gamma={self.gamma} theta={self.theta} "
                    f"(profile of job {self.source})")
        return " ".join(self.argv)


def exact_regime(gamma: str, theta: str) -> str:
    """The paper's (gamma, theta) regime map, evaluated exactly on the
    decimal inputs as typed (ties theta = 0 and theta = gamma - 1 included)."""
    g, t = Fraction(gamma), Fraction(theta)
    if t < 0:
        return "ExplicitRatio"
    if t == 0:
        return "ReactionDiffusion"
    if g <= 1 or t > g - 1:
        return "Neumann"
    if t < g - 1:
        return "Dirichlet"
    return "Robin"


def _cli(command: str, gamma: str, theta: str, *flags: str,
         Ns=()) -> Job:
    argv = [command, "--gamma", gamma, "--theta", theta, *flags]
    for N in Ns:
        argv += ["--N", str(N)]
    return Job("cli", tuple(argv), gamma, theta)


def _ness_large(rng: random.Random) -> list[list[Job]]:
    big = (4096, 8192, 16384)
    groups = [
        [_cli("profile", "1.5", "0.5", Ns=big)],
        [_cli("profile", "1.5", "-1", "--figure3", Ns=(32768,))],
        [_cli("current", "0.5", "-0.5", Ns=big)],
        [_cli("current", "1.5", "0", Ns=big)],
    ]
    rng.shuffle(groups)
    return groups


# The gamma = 1.5 row crosses all five regimes (theta = 0 and theta = 0.5
# are the two tie lines); (1.2, 0.2) is a decimal point on the Robin line.
SCAN_POINTS = (("1.5", "-0.5"), ("1.5", "0"), ("1.5", "0.2"), ("1.5", "0.5"),
               ("1.5", "0.8"), ("1.2", "0.2"))
# ldp on the three regimes whose profile is extrapolated (reaction-diffusion,
# Dirichlet, Robin); the two closed-form regimes are left out to keep a
# pass near 30 s.
LDP_POINTS = SCAN_POINTS[1:4]
DESK = (512, 1024, 2048)


def _regime_scan(rng: random.Random) -> list[list[Job]]:
    groups = []
    for gamma, theta in SCAN_POINTS:
        group = [_cli("profile", gamma, theta, "--figure3", Ns=DESK)]
        if exact_regime(gamma, theta) != "ExplicitRatio":
            group.append(Job("weak", (), gamma, theta, source=0))
        group.append(_cli("current", gamma, theta, Ns=DESK))
        groups.append(group)
    for gamma, theta in LDP_POINTS:
        groups.append([_cli("ldp", gamma, theta, "--alpha", "0.5",
                            "--beta", "1.5", Ns=DESK)])
    rng.shuffle(groups)
    return groups


def _mc_mapping(rng: random.Random) -> list[list[Job]]:
    # Burn-in is sized at about six linear relaxation times 1/lambda_min of
    # the traffic matrix (about 50 for the first chain, 174 for the second);
    # the CLI default of 5% of --t-sample is shorter than one relaxation
    # time for the second chain and biases its estimates.
    seeds = [rng.randrange(1, 2 ** 31 - 2) for _ in range(2)]
    groups = [
        [_cli("simulate", "1.2", "0", "--t-burn", "300", "--t-sample", "2000",
              "--seed", str(seeds[0]), Ns=(64,))],
        [_cli("simulate", "0.5", "0.5", "--g", "figure3", "--phi-alpha", "0.2",
              "--phi-beta", "0.8", "--t-burn", "1000", "--t-sample", "1000",
              "--seed", str(seeds[1]), Ns=(256,))],
    ]
    rng.shuffle(groups)
    return groups


WORKLOADS = {
    "ness_large": _ness_large,
    "regime_scan": _regime_scan,
    "mc_mapping": _mc_mapping,
}


def build(name: str, seed: int) -> list[Job]:
    """The workload's jobs in run order; weak-form sources become absolute
    job indices."""
    groups = WORKLOADS[name](random.Random(seed))
    jobs = []
    for group in groups:
        base = len(jobs)
        for job in group:
            if job.kind == "weak":
                job = Job("weak", (), job.gamma, job.theta,
                          source=base + job.source)
            jobs.append(job)
    return jobs


def rate_specs(jobs: list[Job]) -> list[str]:
    """The rate functions (``--g`` values) the workload's jobs use."""
    specs = set()
    for job in jobs:
        if job.kind != "cli":
            continue
        argv = list(job.argv)
        if "--figure3" in argv:
            specs.add("figure3")
        elif "--g" in argv:
            specs.add(argv[argv.index("--g") + 1])
        else:
            specs.add("identity")
    return sorted(specs)
