#!/usr/bin/env python3
"""Gap sweep of the Casimir pressure for Drude vs plasma mirrors.

Reproduces the factor-of-two discrepancy between the dissipative and the
dissipationless descriptions at large separations: the Drude model loses the
n = 0 TE term, so P_Drude / P_Plasma -> ~1/2 as the gap grows.

A gap whose Matsubara sum raises NoConvergence prints its row with the
reason and is left out of the CSV; the sweep goes on, and the script exits
1 if any gap failed.  The default sweep, 0.1-10 um at 300 K, converges at
every gap.

Usage:
    python3 scripts/drude_vs_plasma_sweep.py [--out sweep.csv]
"""

import argparse
import csv
import sys

import numpy as np

from casimir_bvl import lifshitz as L, materials as M
from casimir_bvl.quadrature import NoConvergence

OMEGA_P = 1.37e16   # rad/s, gold-like
GAMMA = 5.32e13     # rad/s


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--T", type=float, default=300.0, help="temperature, K")
    ap.add_argument("--points", type=int, default=13)
    ap.add_argument("--d-min", type=float, default=1e-7)
    ap.add_argument("--d-max", type=float, default=1e-5)
    ap.add_argument("--out", help="optional CSV output path")
    args = ap.parse_args(argv)

    drude = M.drude(OMEGA_P, GAMMA)
    plasma = M.plasma(OMEGA_P)
    rows = []
    print(f"{'d [m]':>12} {'P_drude [Pa]':>15} {'P_plasma [Pa]':>15} "
          f"{'ratio':>8}")
    failed = 0
    for d in np.geomspace(args.d_min, args.d_max, args.points):
        try:
            p_dr = L.pressure_matsubara(
                L.CavityConfig(drude, drude, d, args.T)).pressure
            p_pl = L.pressure_matsubara(
                L.CavityConfig(plasma, plasma, d, args.T)).pressure
        except NoConvergence as exc:
            failed += 1
            print(f"{d:12.4e} failed: {exc}")
            continue
        rows.append((d, p_dr, p_pl, p_dr / p_pl))
        print(f"{d:12.4e} {p_dr:15.6e} {p_pl:15.6e} {p_dr / p_pl:8.5f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["d_m", "p_drude_pa", "p_plasma_pa", "ratio"])
            w.writerows(rows)
        print(f"wrote {args.out}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
