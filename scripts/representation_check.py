#!/usr/bin/env python3
"""Cross-check the two pressure representations for a Drude cavity.

The Matsubara sum (production route) and the real-frequency integral
(diagnostic route) must agree; the real-frequency integrand oscillates with
an envelope that dwarfs the net pressure, so the diagnostic tolerance is a
few percent.  The real-frequency route takes nearly all of the runtime:
some 21-30 s for the default gold-like Drude cavity at 1 um and 300 K on
a 2-core x86-64 machine, against a few milliseconds for the Matsubara sum.
Most of it goes to the propagating k_z integrals, with up to some 350
seed panels at each frequency node of its one frequency pass.

Usage:
    python3 scripts/representation_check.py [--d 1e-6] [--T 300]
"""

import argparse
import time

from casimir_bvl import lifshitz as L, materials as M


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=float, default=1e-6, help="gap, m")
    ap.add_argument("--T", type=float, default=300.0, help="temperature, K")
    ap.add_argument("--omega-p", type=float, default=1.37e16)
    ap.add_argument("--gamma", type=float, default=5.32e13)
    args = ap.parse_args(argv)

    dr = M.drude(args.omega_p, args.gamma)
    cfg = L.CavityConfig(dr, dr, args.d, args.T)

    t0 = time.time()
    mats = L.pressure_matsubara(cfg)
    print(f"matsubara      : {mats.pressure: .6e} Pa "
          f"(+-{mats.error_estimate:.1e}, n_max={mats.n_max}, "
          f"{time.time() - t0:.1f} s)")

    t0 = time.time()
    real = L.pressure_real_frequency(cfg)
    print(f"real-frequency : {real.pressure: .6e} Pa "
          f"(+-{real.error_estimate:.1e}, {time.time() - t0:.1f} s)")
    print(f"  evanescent   : {real.evanescent: .6e} Pa")
    print(f"  propagating  : {real.propagating: .6e} Pa")
    print(f"relative dev   : {real.pressure / mats.pressure - 1.0:+.2%}")


if __name__ == "__main__":
    main()
