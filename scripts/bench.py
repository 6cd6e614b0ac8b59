"""Record one point of the benchmark trajectory: BENCH_<label>.json.

    python scripts/bench.py --label 6 --seeds 601-605
    python scripts/bench.py --label 5 --seeds 601-605 --checkout /path/to/parent/clone

Runs ``perfbench/run.py`` of the checkout (by default this repository) for
every workload, once per seed with tracing off and once more traced (first
seed), and writes ``BENCH_<label>.json`` at the root of this repository. The
file holds the commit, Python and numpy versions and core count of the runs,
the median and quartiles of every end-to-end metric per workload, the report
digests of all runs, of the untraced runs alone and of each seed's untraced
run, whether every run was correct, and the traced per-layer metrics.
Exits 1, writing nothing, if any run fails. Each run takes about half a
minute at the default ``--seconds`` (the benchmark's ``run_seconds``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("census", "families", "index")


def parse_seeds(text: str) -> list[int]:
    """'601-605' or '601,602,610'."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its last JSON line plus the run record it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return {"summary": summary, "record": json.loads(record_path.read_text())}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of a sample."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def summarize(runs: list[dict], traced: dict) -> dict:
    metrics = runs[0]["summary"]["metrics"]
    return {
        "runs": len(runs),
        "correct": all(r["summary"]["correct"] for r in runs + [traced]),
        "digests": sorted({r["record"]["digest"] for r in runs + [traced]}),
        "untraced_digests": sorted({r["record"]["digest"] for r in runs}),
        "seed_digests": {str(r["record"]["seed"]): r["record"]["digest"] for r in runs},
        "end_to_end": {name: {"unit": m["unit"],
                              **spread([r["summary"]["metrics"][name]["value"] for r in runs])}
                       for name, m in metrics.items()},
        "traced_seed": traced["record"]["seed"],
        "per_layer": traced["summary"]["metrics"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="seed range 'a-b' or list 'a,b,c'")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="repository whose perfbench and sources are run")
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args()
    checkout = args.checkout.resolve()

    workloads, first = {}, None
    try:
        for workload in WORKLOADS:
            runs = []
            for seed in args.seeds:
                runs.append(run_once(checkout, workload, seed, args.seconds, 0))
                print(f"{workload} seed {seed}: "
                      f"wall_s {runs[-1]['summary']['metrics']['wall_s']['value']:.4f}",
                      flush=True)
            traced = run_once(checkout, workload, args.seeds[0], args.seconds, 1)
            workloads[workload] = summarize(runs, traced)
            first = first or runs[0]["record"]
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    doc = {"label": args.label, "commit": first["commit"], "python": first["python"],
           "numpy": first["numpy"], "nproc": first["nproc"], "seconds": args.seconds,
           "seeds": args.seeds, "workloads": workloads}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
