"""Check that benchmark runs reproduce the reports of the newest trajectory point.

    python scripts/check_digests.py --seed 601

For each workload, reads the digests of the untraced and the traced run
records ``perfbench/results/<workload>-seed<seed>-trace0.json`` and
``...-trace1.json`` (written by ``perfbench/run.py --trace 0`` and
``--trace 1``) and compares them with the digests that the newest
``BENCH_<n>.json`` at the root of the repository recorded, n the largest
integer label. The untraced digest must be the one that the BENCH file
records for the seed's untraced run (``seed_digests``), which every file
``scripts/bench.py`` writes holds. A digest can depend on the seed: the
families maps are seeded, and each translate's search region follows its
map. The traced digest must be among ``digests``, the digests of traced
and untraced runs together, as a traced run may take another path. When
the seed is the BENCH file's ``traced_seed``, the traced record's per-layer
metrics of unit ``count`` must also equal the file's ``per_layer``: the
counts are per pass and the same at any run length, so a run that does
more or less work for the same reports fails. A record is stale, and is
not compared, when its ``commit`` is not the checkout's HEAD or its file
is older than the newest file under ``src/annulift/``: it was made from
other code. Exits 1 on a missing file, a BENCH file without
``seed_digests`` or ``traced_seed``, a stale record or any mismatch,
printing one line per record and one per count that differs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("census", "families", "index")


def newest_bench(root: Path) -> Path:
    labelled = [(int(p.stem[len("BENCH_"):]), p) for p in root.glob("BENCH_*.json")
                if p.stem[len("BENCH_"):].isdigit()]
    if not labelled:
        raise FileNotFoundError(f"no BENCH_<n>.json in {root}")
    return max(labelled)[1]


def head_commit(root: Path) -> str:
    """HEAD of root's git checkout, read as perfbench/run.py records it."""
    git = root / ".git"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    for line in (git / "packed-refs").read_text().splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    raise FileNotFoundError(f"{ref} names no commit in {git}")


def newest_source(root: Path) -> Path:
    sources = [p for p in (root / "src" / "annulift").rglob("*")
               if p.is_file() and "__pycache__" not in p.parts]
    if not sources:
        raise FileNotFoundError(f"no files under {root / 'src' / 'annulift'}")
    return max(sources, key=lambda p: p.stat().st_mtime)


def stale(record: Path, run: dict, head: str, source: Path) -> str:
    """Why a run record was not made from this checkout, or ''."""
    if run.get("commit") != head:
        return f"commit {str(run.get('commit'))[:12]} is not HEAD {head[:12]}"
    if record.stat().st_mtime < source.stat().st_mtime:
        return f"older than {source.name}"
    return ""


def count_mismatches(metrics: dict, per_layer: dict) -> list:
    """(name, value, recorded) for each per-layer metric of unit count whose
    value in a run's metrics differs from a BENCH file's per_layer."""
    return [(name, metrics[name]["value"], m["value"]) for name, m in per_layer.items()
            if m["unit"] == "count" and metrics[name]["value"] != m["value"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="repository holding BENCH_*.json and perfbench/results")
    args = ap.parse_args(argv)
    try:
        bench_path = newest_bench(args.root)
        bench = json.loads(bench_path.read_text())["workloads"]
        head, source = head_commit(args.root), newest_source(args.root)
        ok = True
        for w, trace in itertools.product(WORKLOADS, (0, 1)):
            label = f"{w} traced" if trace else w
            record = args.root / "perfbench" / "results" / f"{w}-seed{args.seed}-trace{trace}.json"
            run = json.loads(record.read_text())
            why = stale(record, run, head, source)
            if why:
                ok = False
                print(f"{label}: stale record {record.name}: {why}")
                continue
            got = run["digest"]
            want = bench[w]["digests"]
            if not trace:
                by_seed = bench[w]["seed_digests"]
                if str(args.seed) not in by_seed:
                    ok = False
                    print(f"{label}: seed {args.seed} is not recorded in {bench_path.name} "
                          f"(seeds {', '.join(sorted(by_seed, key=int))})")
                    continue
                want = [by_seed[str(args.seed)]]
            match = got in want
            ok &= match
            print(f"{label}: {got[:16]} {'matches' if match else 'differs from'} "
                  f"{bench_path.name} {', '.join(d[:16] for d in want)}")
            if trace and args.seed == bench[w]["traced_seed"]:
                wrong = count_mismatches(run["metrics"], bench[w]["per_layer"])
                ok &= not wrong
                for name, value, recorded in wrong:
                    print(f"{label}: {name} is {value}, {bench_path.name} records {recorded}")
                if not wrong:
                    print(f"{label}: counts equal {bench_path.name}'s")
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
