"""One measured process: set up a workload, run passes of it, print a JSON
summary as the last line of standard output.

    python3 perfbench/worker.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/worker.py --workload census --seed 1 --setup-only

``run.py`` starts this with a clean environment; run it by hand only to
debug. Passes repeat until ``--seconds`` have passed (at least one). With
``--trace 1`` untraced and traced passes alternate, so the tracing overhead
is measured under the same machine conditions. Every time reported is at
the reference speed of ``speed.py``; the raw figures are reported too.
"""

import time

T_START = time.perf_counter()  # set-up time counts from before the imports

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads  # noqa: E402


def run_pass(run, state, sampler: speed.SpeedSampler, tracer=None) -> dict:
    """One pass, with the speed timer running; in a traced pass the kernel's
    time is charged to the span it interrupted and left out of self times."""
    res = workloads.PassResult()
    sampler.start()
    if tracer is not None:
        tracer.clear()
        tracer.install()
        sampler.on_sample = tracer.steal
    start = time.perf_counter()
    try:
        if tracer is None:
            run(state, res)
        else:
            root = tracer.enter(0)  # tracing.PASS, the root span
            try:
                run(state, res)
            finally:
                tracer.exit(root)
                tracer.uninstall()
    finally:
        end = time.perf_counter()
        sampler.on_sample = None
        sampler.stop()
    return {"res": res, "start": start, "end": end}


def finish(p: dict, sampler: speed.SpeedSampler) -> dict:
    res = p["res"]
    raw = sampler.raw(p["start"], p["end"])
    wall = sampler.normalized(p["start"], p["end"])
    return {"wall_s": wall, "raw_s": raw, "speed_factor": wall / raw,
            "attempted": res.attempted, "failed": res.failed,
            "digest": res.digest(), "failures": res.failures[:5]}


def write_spans(path: str, setup_spans: dict, pass_spans: dict) -> None:
    import tracing

    def rows(sp):
        t0 = float(sp["start"][0]) if len(sp["start"]) else 0.0
        return [[int(n), s - t0, e - t0, int(p), int(x), k] for n, p, s, e, x, k in zip(
            sp["name"], sp["parent"], sp["start"].tolist(), sp["end"].tolist(), sp["extra"],
            sp["stolen"].tolist())]

    doc = {"names": tracing.NAMES,
           "columns": ["name", "start_s", "end_s", "parent", "extra", "stolen_s"],
           "setup": rows(setup_spans), "first_traced_pass": rows(pass_spans)}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="gzip JSON file for the spans of the first traced pass")
    args = ap.parse_args()

    make_inputs, setup, run = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    state = setup(make_inputs(args.seed))
    setup_raw = time.perf_counter() - T_START
    sampler = speed.SpeedSampler()
    sampler.sample_now()  # two samples give the speed during set-up
    sampler.sample_now()
    out = {"setup_s": sampler.normalized(T_START, T_START + setup_raw),
           "setup_raw_s": setup_raw}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if tracer is not None:
        setup_spans = tracer.spans()
        tracer.uninstall()
        out["build_s"] = tracing.build_seconds(setup_spans) * out["setup_s"] / setup_raw
    passes, traced, layers = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(run, state, sampler))
        if tracer is not None:
            p = run_pass(run, state, sampler, tracer)
            sp = tracer.spans()
            tracer.clear()
            traced.append(p)
            layers.append((tracing.layer_metrics(sp), float(tracing.self_times(sp).sum())))
            if len(traced) == 1 and args.spans:
                write_spans(args.spans, setup_spans, sp)

    latencies = [sampler.normalized(start, end)
                 for p in passes for start, end in p["res"].queries]
    traced_out = [finish(p, sampler) for p in traced]
    for t, (metrics, self_sum) in zip(traced_out, layers):
        for name, (value, unit) in metrics.items():
            if unit == "s":
                metrics[name] = (value * t["speed_factor"], unit)
        t["self_sum_raw_s"] = self_sum
    out.update({
        "numpy": workloads.np.__version__,
        "python": sys.version.split()[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [finish(p, sampler) for p in passes],
        "traced_passes": traced_out,
        "layers": [metrics for metrics, _ in layers],
        "speed_samples": len(sampler.samples),
        "queries": len(latencies),
        "query_p50_s": statistics.median(latencies),
        "query_p90_s": (statistics.quantiles(latencies, n=10, method="inclusive")[-1]
                        if len(latencies) >= 2 else latencies[0]),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
