"""Smoke tests of the experiment scripts: each runs to exit 0 and prints its
final verdict line. The benchmark digest check runs on a made-up tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, last_line", [
    (["run_completeness_suite.py", "--resolution", "1e-2"], "all COMPLETE"),
    (["run_growth_trend.py", "--nmax", "3", "--resolution", "1e-2"], "ln|d| = 0.693147"),
    (["run_degree_minus1_example.py"], "fixed point free on the invariant set: CONFIRMED"),
])
def test_script_runs_to_its_verdict(argv, last_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == last_line


def _check_digests(root: Path):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "check_digests.py"),
                           "--seed", "1", "--root", str(root)],
                          capture_output=True, text=True, timeout=60)


def test_check_digests_reads_the_newest_bench_file(tmp_path):
    workloads = ("census", "families", "index")
    results = tmp_path / "perfbench" / "results"
    results.mkdir(parents=True)
    (tmp_path / ".git" / "refs" / "heads").mkdir(parents=True)
    (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (tmp_path / ".git" / "refs" / "heads" / "main").write_text("c0ffee\n")
    source = tmp_path / "src" / "annulift" / "fixed_points.py"
    source.parent.mkdir(parents=True)
    source.write_text("")
    os.utime(source, (1e9, 1e9))

    def bench(label, *digests, untraced=None, seeds=None):
        doc = {"workloads": {w: {"digests": [d + w for d in digests]} for w in workloads}}
        if untraced is not None:
            for w in workloads:
                doc["workloads"][w]["untraced_digests"] = [d + w for d in untraced]
        if seeds is not None:
            for w in workloads:
                doc["workloads"][w]["seed_digests"] = {s: d + w for s, d in seeds.items()}
        (tmp_path / f"BENCH_{label}.json").write_text(json.dumps(doc))

    def record(digest, commit="c0ffee", traces=(0, 1)):
        for w in workloads:
            for trace in traces:
                (results / f"{w}-seed1-trace{trace}.json").write_text(
                    json.dumps({"digest": digest + w, "commit": commit}))

    bench(9, "old-")
    bench(10, "new-")   # newest by number, not by name
    record("new-")
    assert _check_digests(tmp_path).returncode == 0
    record("old-")
    proc = _check_digests(tmp_path)
    assert proc.returncode == 1 and proc.stdout.count("differs from BENCH_10.json") == 6
    # the traced record is compared too, under the same rules
    record("new-", traces=(0,))
    proc = _check_digests(tmp_path)
    assert proc.returncode == 1 and proc.stdout.count("traced: ") == 3
    assert proc.stdout.count("differs from BENCH_10.json") == 3
    # a record of another commit, or older than the sources, is stale
    record("new-", commit="beef")
    proc = _check_digests(tmp_path)
    assert proc.returncode == 1 and proc.stdout.count("stale record") == 6
    assert "commit beef is not HEAD c0ffee" in proc.stdout
    record("new-")
    record("new-", commit="beef", traces=(1,))
    proc = _check_digests(tmp_path)
    assert proc.returncode == 1 and proc.stdout.count("stale record") == 3
    assert proc.stdout.count("traced: stale record") == 3
    record("new-")
    os.utime(source, (2e9, 2e9))
    proc = _check_digests(tmp_path)
    assert proc.returncode == 1 and proc.stdout.count("older than fixed_points.py") == 6
    os.utime(source, (1e9, 1e9))
    assert _check_digests(tmp_path).returncode == 0
    # a traced digest passes when it is among the digests the BENCH file
    # records for traced and untraced runs together
    bench(11, "new-", "path-")
    record("path-", traces=(1,))
    proc = _check_digests(tmp_path)
    assert proc.stdout.count("traced: path-") == 3
    assert proc.stdout.count("matches BENCH_11.json") == 3
    # with the untraced runs' digests recorded apart, the untraced record
    # must be the only one of them, and a second, traced path is no fault
    bench(12, "new-", "path-", untraced=["new-"])
    proc = _check_digests(tmp_path)
    assert proc.returncode == 0 and proc.stdout.count("matches BENCH_12.json") == 6
    record("path-", traces=(0,))
    proc = _check_digests(tmp_path)
    assert proc.returncode == 1 and proc.stdout.count("differs from BENCH_12.json") == 3
    # with each seed's untraced digest recorded, the untraced record must be
    # its seed's, whatever the other seeds gave; an unrecorded seed fails
    record("new-")
    bench(13, "new-", "seeded-", untraced=["new-", "seeded-"],
          seeds={"1": "new-", "2": "seeded-"})
    proc = _check_digests(tmp_path)
    assert proc.returncode == 0 and proc.stdout.count("matches BENCH_13.json") == 6
    record("seeded-", traces=(0,))
    proc = _check_digests(tmp_path)
    assert proc.returncode == 1 and proc.stdout.count("differs from BENCH_13.json") == 3
    bench(13, "new-", "seeded-", untraced=["new-", "seeded-"], seeds={"2": "seeded-"})
    record("new-")
    proc = _check_digests(tmp_path)
    assert proc.returncode == 1 and proc.stdout.count("seed 1 is not recorded in BENCH_13") == 3
    (tmp_path / "BENCH_13.json").unlink()
    (tmp_path / "BENCH_12.json").unlink()
    record("new-")
    (tmp_path / "BENCH_11.json").unlink()
    (results / "index-seed1-trace1.json").unlink()
    assert _check_digests(tmp_path).returncode == 1
    record("new-")
    (results / "index-seed1-trace0.json").unlink()
    assert _check_digests(tmp_path).returncode == 1
