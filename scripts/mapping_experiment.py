#!/usr/bin/env python3
"""Statistical check of the static zero-range/exclusion mapping at a
configurable simulation budget: per-site z-scores of
(phi_a + phi_b) E[eta(x)]  vs  E[g(xi(x))]  vs  phi_N(x).
"""

import argparse
from pathlib import Path

import numpy as np

from zrlab import mc
from zrlab.thermo import RateFunction, ThermoTables
from zrlab.traffic import ModelParams, solve_lattices


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=1.2)
    ap.add_argument("--theta", type=float, default=0.0)
    ap.add_argument("--N", type=int, default=64)
    ap.add_argument("--alpha", type=float, default=0.4)
    ap.add_argument("--beta", type=float, default=1.6)
    ap.add_argument("--t-burn", type=float, default=2000.0)
    ap.add_argument("--t-sample", type=float, default=20000.0)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--out", type=Path, default=Path("out/mapping"))
    args = ap.parse_args()

    rate = RateFunction.identity()
    thermo = ThermoTables.create(rate)
    params = ModelParams(gamma=args.gamma, theta=args.theta, kappa=1.0,
                         alpha=args.alpha, beta=args.beta, N=args.N,
                         rate=rate)
    [(_, profile)] = solve_lattices(params, (args.N,), thermo)
    report = mc.mapping_check(params, profile,
                              seeds=(args.seed, args.seed + 1),
                              t_burn=args.t_burn, t_sample=args.t_sample,
                              thermo=thermo)
    print(report.summary())
    print(f"max |z|: eta {np.abs(report.z_eta).max():.2f}, "
          f"g {np.abs(report.z_g).max():.2f}, "
          f"cross {np.abs(report.z_cross).max():.2f}")
    args.out.mkdir(parents=True, exist_ok=True)
    mc.write_estimate_csv(report.est_zr, profile,
                          args.out / "zr_estimates.csv")
    print(f"-> {args.out}/zr_estimates.csv")


if __name__ == "__main__":
    main()
