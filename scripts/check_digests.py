"""Check that benchmark runs reproduce the reports of the newest trajectory point.

    python scripts/check_digests.py --seed 601

For each workload, reads the digests of the untraced and the traced run
records ``perfbench/results/<workload>-seed<seed>-trace0.json`` and
``...-trace1.json`` (written by ``perfbench/run.py --trace 0`` and
``--trace 1``) and compares them with the digests that the newest
``BENCH_<n>.json`` at the root of the repository recorded, n the largest
integer label. The untraced digest must be the one that the BENCH file
records for the seed's untraced run (``seed_digests``); files older than
that field record no seeds, and the untraced digest must then be the only
one that they record for untraced runs (``untraced_digests``, or
``digests`` in files older than that). A digest can depend on the seed:
the families maps are seeded, and each translate's search region follows
its map. The traced digest must be among ``digests``, the digests of
traced and untraced runs together, as a traced run may take another path. A
record is stale, and is not compared, when its ``commit`` is not the
checkout's HEAD or its file is older than the newest file under
``src/annulift/``: it was made from other code. Exits 1 on a missing file,
a stale record or any mismatch, printing one line per record.
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
            if not trace and "seed_digests" in bench[w]:
                by_seed = bench[w]["seed_digests"]
                if str(args.seed) not in by_seed:
                    ok = False
                    print(f"{label}: seed {args.seed} is not recorded in {bench_path.name} "
                          f"(seeds {', '.join(sorted(by_seed, key=int))})")
                    continue
                want = [by_seed[str(args.seed)]]
            elif not trace:   # BENCH files before untraced_digests record only digests
                want = bench[w].get("untraced_digests", want)
            match = got in want if trace else want == [got]
            ok &= match
            print(f"{label}: {got[:16]} {'matches' if match else 'differs from'} "
                  f"{bench_path.name} {', '.join(d[:16] for d in want)}")
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
