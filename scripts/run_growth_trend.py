#!/usr/bin/env python3
"""Growth-rate trend experiment: certified periodic-point counts of a power
map against the ln|d| bound, showing the rate approach it from below."""

import argparse

import numpy as np

from annulift.annulus_maps import zoo
from annulift.fixed_points import completeness_check, growth_rate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--nmax", type=int, default=6)
    ap.add_argument("--resolution", type=float, default=1e-3)
    args = ap.parse_args()

    lift = zoo("power", d=args.d)
    reports = completeness_check(lift, args.nmax, resolution=args.resolution)
    print(f"{'n':>3} {'count':>8} {'(1/n) ln count':>15}")
    for r in reports:
        print(f"{r.period:>3} {r.count_lower_bound:>8} {growth_rate([r]):>15.6f}")
    bound = np.log(abs(args.d))
    for m in range(2, args.nmax + 1, 2):
        print(f"rate at n_max={m}: {growth_rate(reports[:m]):.6f}")
    print(f"ln|d| = {bound:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
