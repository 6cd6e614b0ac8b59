"""Checks of the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py

- span self times add up to the traced pass's wall time;
- per-layer counts repeat exactly across two traced runs of one seed;
- a seed fixes the inputs, and another seed changes them.

Takes about a minute: the count check runs the benchmark twice on
``families`` and on ``index``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check_self_times_sum_to_wall() -> None:
    make_inputs, setup, run = workloads.WORKLOADS["index"]
    state = setup(make_inputs(1))
    sampler = speed.SpeedSampler()
    untraced = worker.run_pass(run, state, sampler)
    tracer = tracing.Tracer()
    traced = worker.run_pass(run, state, sampler, tracer)
    self_s = tracing.self_times(tracer.spans())
    total = float(self_s.sum())
    assert self_s.min() > -1e-9, f"negative self time {self_s.min()}"
    traced_s = sampler.raw(traced["start"], traced["end"])
    untraced_s = sampler.raw(untraced["start"], untraced["end"])
    overhead = max(traced_s - untraced_s, 0.0)
    # install/uninstall sit outside the root span; allow them 1% of the pass
    assert 0.0 <= traced_s - total <= overhead + 0.01 * traced_s, (
        f"self times sum to {total:.6f} s, traced pass took {traced_s:.6f} s, "
        f"untraced {untraced_s:.6f} s")
    assert traced["res"].digest() == untraced["res"].digest(), "tracing changed the outputs"


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def check_counts_repeat() -> None:
    for workload in ("families", "index"):
        first, second = traced_counts(workload, 5), traced_counts(workload, 5)
        assert first == second, f"{workload}: counts differ: {first} vs {second}"
        for key in ("annulus_maps.eval_calls", "annulus_maps.eval_points",
                    "index.lefschetz_calls", "index.refine_points"):
            assert first[key] > 0, f"{workload}: {key} is 0"
        if workload == "families":
            assert first["fixed_points.isolate_calls"] > 0


def check_seed_fixes_inputs() -> None:
    for name in ("families", "index"):
        make_inputs = workloads.WORKLOADS[name][0]
        assert make_inputs(1) == make_inputs(1), f"{name}: seed 1 inputs differ"
        assert make_inputs(1) != make_inputs(2), f"{name}: seeds 1 and 2 give the same inputs"


CHECKS = (check_seed_fixes_inputs, check_self_times_sum_to_wall, check_counts_repeat)


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
