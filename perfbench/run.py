"""annulift benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the repository root; annulift is imported from ``src/`` (no
install needed). Workloads (see ``workloads.py`` for why each exists):
``census``, ``families``, ``index``.

With ``--trace 0`` the end-to-end metrics are printed, each with its
sample count:

- ``wall_s``: median time of one pass of the workload body;
- ``setup_s``: median over fresh processes of import plus map/grid
  construction, before the timed body;
- ``peak_rss_mb``: peak resident memory of the measuring process;
- ``ok_frac``: operations answered correctly / operations attempted. A wrong
  answer, a raised exception or a translate error counts as failed. (The
  failed fraction itself is 0 on two workloads; a metric must not be 0.)
- ``query_p50_ms``, ``query_p90_ms``: latency of one query: an
  ``isolate_fixed_points`` call on ``census``, a ``lefschetz_index`` call on
  ``families``, an inner plus an outer circle's index on ``index``
  (``workloads.py`` says why).

Times are reported at the reference machine speed of ``speed.py``: the host
is shared and its speed drifts by about ±25% over minutes. Raw times are in
the run record.

With ``--trace 1`` a separate process alternates untraced and traced passes
and the per-layer metrics of ``tracing.py`` are printed, plus
``trace.overhead_frac``, the traced over the untraced median pass time minus
one.

Every process gets ``ANNULIFT_WORKERS`` removed and BLAS threads set to 1.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``correct`` is false
when a pass's output differs from the first pass's (same inputs, so the
reports must be byte-identical, traced or not) or when per-layer counts
differ between traced passes; wrong answers are counted in ``failed``.
A run record with the context (commit, versions, core count, load), the
sha256 digest of the reports and the failed operations is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("census", "families", "index")
SETUP_PROBES = 6           # extra fresh processes that only set up
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ANNULIFT_WORKERS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run worker.py and return its JSON summary; raise on any failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed nothing")
    return json.loads(lines[-1])


def commit_id() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(child: dict, setups: list[float], attempted: int, failed: int) -> dict:
    passes = child["passes"]
    return {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(child["peak_rss_mb"], "MB"),
        "ok_frac": metric(1.0 - failed / attempted, "frac"),
        "query_p50_ms": metric(child["query_p50_s"] * 1e3, "ms"),
        "query_p90_ms": metric(child["query_p90_s"] * 1e3, "ms"),
    }


def per_layer(child: dict) -> dict:
    layers = child["layers"]
    out = {}
    for name, (value, unit) in layers[0].items():
        if unit == "s":  # times: median over traced passes
            value = statistics.median(m[name][0] for m in layers)
        out[name] = metric(value, unit)
    out["annulus_maps.build_s"] = metric(child["build_s"], "s")
    untraced = statistics.median(p["wall_s"] for p in child["passes"])
    traced = statistics.median(p["wall_s"] for p in child["traced_passes"])
    out["trace.overhead_frac"] = metric(traced / untraced - 1.0, "frac")
    return out


def consistency_problems(child: dict) -> list[str]:
    """Same inputs every pass: outputs and per-layer counts must repeat."""
    problems = []
    all_passes = child["passes"] + child["traced_passes"]
    digests = {p["digest"] for p in all_passes}
    if len(digests) != 1:
        problems.append(f"report digests differ between passes: {sorted(digests)}")
    layers = child["layers"]
    for name, (_, unit) in (layers[0].items() if layers else ()):
        if unit == "count":
            values = {m[name][0] for m in layers}
            if len(values) != 1:
                problems.append(f"{name} differs between traced passes: {sorted(values)}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "annulift" / "__init__.py").is_file():
        print(f"error: no annulift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "commit": commit_id(), "nproc": os.cpu_count(),
               "affinity": len(os.sched_getaffinity(0)),
               "loadavg_start": os.getloadavg()}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            setups = [run_child(common + ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
        measure = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            measure += ["--spans", str(RESULTS / f"{stem}-spans.json.gz")]
        child = run_child(common + measure, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = child["passes"] + child["traced_passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = per_layer(child)
        samples = {name: f"{len(child['traced_passes'])} traced passes" for name in metrics}
    else:
        setups.append(child["setup_s"])
        metrics = end_to_end(child, setups, attempted, failed)
        samples = {"wall_s": f"median of {len(child['passes'])} passes",
                   "setup_s": f"median of {len(setups)} processes",
                   "peak_rss_mb": "measuring process",
                   "ok_frac": f"{attempted - failed} of {attempted} ops",
                   "query_p50_ms": f"{child['queries']} queries",
                   "query_p90_ms": f"{child['queries']} queries"}
    problems = consistency_problems(child)
    record = {**context, "python": child["python"], "numpy": child["numpy"],
              "digest": child["passes"][0]["digest"], "passes": child["passes"],
              "traced_passes": child["traced_passes"],
              "setup_samples_s": setups, "queries": child["queries"],
              "layers": child["layers"], "problems": problems, "metrics": metrics}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} commit={context['commit'][:12]} "
          f"python={child['python']} numpy={child['numpy']} nproc={context['nproc']} "
          f"load={context['loadavg_start'][0]:.2f}")
    print(f"# passes={len(child['passes'])} traced={len(child['traced_passes'])} "
          f"queries={child['queries']} setup_samples={len(setups)} "
          f"ops={attempted} failed={failed} digest={record['digest'][:16]}")
    raw = statistics.median(p["raw_s"] for p in child["passes"])
    print(f"# raw median pass time {raw:.4f} s; speed samples {child['speed_samples']}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:<12.6g} {m['unit']:11s} {samples[name]}")
    for p in passes[:1]:
        for line in p["failures"]:
            print(f"# failed: {line}")
    for line in problems:
        print(f"# problem: {line}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
