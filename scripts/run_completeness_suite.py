#!/usr/bin/env python3
"""Sweep the built-in map families and print a completeness summary table.

Covers the three regimes the toolkit certifies: plain power maps, maps with
both ends attracting or repelling, and the end-interchanging family at odd
periods (even periods hit whole circles of fixed points and are reported as
single-class continua).
"""

import argparse
import time

from annulift.annulus_maps import zoo
from annulift.fixed_points import completeness_check

CASES = [
    ("power", {"d": 2}, 4),
    ("power", {"d": 3}, 3),
    ("power", {"d": -2}, 4),
    ("perturbed_power", {"d": 2, "eps": 0.05}, 3),
    ("ends_attracting", {"d": 2, "lam": 1.0}, 3),
    ("ends_repelling", {"d": 2, "lam": 1.0}, 3),
    ("ends_repelling", {"d": -2, "lam": 1.0}, 3),
    ("end_swap", {"d": -2}, 3),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolution", type=float, default=1e-3)
    args = ap.parse_args()

    print(f"{'map':<34} {'n':>2} {'modulus':>8} {'count':>6} {'continua':>9} verdict")
    all_ok = True
    for name, params, n_max in CASES:
        lift = zoo(name, **params)
        label = f"{name}({', '.join(f'{k}={v}' for k, v in params.items())})"
        start = time.perf_counter()
        reports = completeness_check(lift, n_max, resolution=args.resolution)
        elapsed = time.perf_counter() - start
        for r in reports:
            verdict = "COMPLETE" if r.complete else "INCOMPLETE"
            all_ok = all_ok and r.complete and not r.errors
            print(f"{label:<34} {r.period:>2} {r.modulus:>8} {r.count_lower_bound:>6} "
                  f"{len(r.continuum_offsets):>9} {verdict}")
        print(f"{'':<34} ({elapsed:.1f}s)")
    print("all COMPLETE" if all_ok else "some sweeps incomplete or errored")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
