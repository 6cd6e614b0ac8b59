"""Command line front end for the experiment suites.

Exit codes: 0 all certifications and assertions passed, 1 a certification
or assertion failed, 2 usage error (bad flags, or a ValueError from an
invalid value such as a non-positive resolution or a reversed rectangle).
Failures also emit one JSON object on stderr. Artifact JSON is
deterministic for identical flags: sorted keys and no timestamps.

Every tolerance is a fixed constant of the library module that reads it;
``index --min-disp`` is the only one a flag overrides.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import lemma_suite
from .annulus_maps import (
    ZOO_SCHEMAS,
    LiftMap,
    deck_translate,
    load_grid_lift,
    project,
    projected_plane_map,
    zoo,
)
from .curves import ClosedCurve, circle, curve_from_json, rectangle
from .errors import ParamOutOfRange, ToolkitError, UnknownZooEntry
from .fixed_points import (
    boxes_to_csv_rows,
    completeness_check,
    default_region,
    growth_rate,
    isolate_fixed_points,
    nielsen_residue,
    polish_fixed_point,
    region_margin_check,
    reports_to_json,
)
from .index import lefschetz_index


class UsageError(Exception):
    pass


def _parse_params(raw: str | None) -> dict:
    if not raw:
        return {}
    try:
        params = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--params must be a JSON object: {exc}") from exc
    if not isinstance(params, dict):
        raise UsageError("--params must be a JSON object")
    return params


def _resolve_map(map_id: str, params: dict) -> LiftMap:
    if map_id in ZOO_SCHEMAS:
        return zoo(map_id, **params)
    path = Path(map_id)
    if path.suffix == ".json" and path.exists():
        return load_grid_lift(path)
    raise UnknownZooEntry(
        f"{map_id!r} is neither a built-in map nor a tabulated-lift file")


def _parse_curve(spec: str) -> ClosedCurve:
    if spec.startswith("circle:"):
        n = 256
        r = None
        for part in spec[len("circle:"):].split(","):
            key, _, val = part.partition("=")
            if key == "r":
                r = float(val)
            elif key == "n":
                n = int(val)
            else:
                raise UsageError(f"unknown circle option {key!r}")
        if r is None or r <= 0:
            raise UsageError("circle spec needs r=<positive real>")
        return circle(r, n=n)
    if spec.startswith("rect:"):
        try:
            x0, x1, y0, y1 = (float(v) for v in spec[len("rect:"):].split(","))
        except ValueError as exc:
            raise UsageError("rect spec is rect:<x0,x1,y0,y1>") from exc
        return rectangle(x0, x1, y0, y1)
    path = Path(spec)
    if path.exists():
        return curve_from_json(json.loads(path.read_text(encoding="utf-8")))
    raise UsageError(f"curve spec {spec!r}: not a builtin spec and no such file")


def _parse_region(raw: str | None):
    if raw is None:
        return None
    try:
        x0, x1, y0, y1 = (float(v) for v in raw.split(","))
    except ValueError as exc:
        raise UsageError("--region is x0,x1,y0,y1") from exc
    return (x0, x1, y0, y1)


def _emit_json(path: str | None, payload: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


def _emit_csv(path: str | None, rows: list[str]) -> None:
    if path:
        Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def _meta(args, command: str) -> dict:
    # artifact destinations are excluded so the payload does not depend on
    # where it is written
    skip = {"func", "json", "csv"}
    return {
        "command": command,
        "args": {k: v for k, v in sorted(vars(args).items())
                 if k not in skip and not callable(v)},
    }


# -- subcommands -----------------------------------------------------------------

def cmd_zoo(args) -> int:
    if args.action != "list":
        raise UsageError("the zoo subcommand supports: list")
    print(f"{'name':<28} parameters")
    for name in sorted(ZOO_SCHEMAS):
        schema = ZOO_SCHEMAS[name]
        params = ", ".join(f"{k}: {v}" for k, v in schema["params"].items()) or "(none)"
        print(f"{name:<28} {params}")
        print(f"{'':<28} {schema['about']}")
    _emit_json(args.json, {"meta": _meta(args, "zoo"), "zoo": ZOO_SCHEMAS})
    return 0


def cmd_index(args) -> int:
    lift = _resolve_map(args.map, _parse_params(args.params))
    curve = _parse_curve(args.curve)
    plane_map = projected_plane_map(lift)
    # an image far out overflows to inf or NaN; lefschetz_index reports that
    # as NonFiniteDisplacement, which numpy's warnings would only repeat
    with np.errstate(over="ignore", invalid="ignore"):
        idx = lefschetz_index(plane_map, curve, min_disp=args.min_disp)
    print(idx)
    _emit_json(args.json, {"meta": _meta(args, "index"), "index": idx,
                           "degree": lift.degree})
    return 0


def cmd_fixed_points(args) -> int:
    lift = _resolve_map(args.map, _parse_params(args.params))
    translate = deck_translate(lift, args.lift_k)
    region = _parse_region(args.region)
    if region is None:
        region = default_region(lift, 1)
        if not region_margin_check(translate, region):
            raise ToolkitError(
                f"the default region {region} failed its margin test for the "
                f"translate by ({args.lift_k}, 0), so it may miss fixed points; "
                f"pass --region")
    boxes = isolate_fixed_points(translate, region, args.resolution,
                                 lift_offset=args.lift_k)
    print(f"{len(boxes)} certified box(es) in region {region}")
    rows = ["n,k,x_lo,x_hi,y_lo,y_hi,degree,residue"]
    out_boxes = []
    for b in boxes:
        residue = ""
        if abs(lift.degree) > 1:
            point = polish_fixed_point(translate, b)
            residue = nielsen_residue(lift, project(point), 1)
        x0, x1, y0, y1 = b.box
        print(f"  box [{x0:.6g}, {x1:.6g}] x [{y0:.6g}, {y1:.6g}] "
              f"degree {b.boundary_degree} residue {residue}")
        rows.append(f"1,{args.lift_k},{x0!r},{x1!r},{y0!r},{y1!r},"
                    f"{b.boundary_degree},{residue}")
        out_boxes.append({"box": list(b.box), "boundary_degree": b.boundary_degree,
                          "lift_offset": b.lift_offset, "residue": residue})
    _emit_json(args.json, {"meta": _meta(args, "fixed-points"), "region": list(region),
                           "boxes": out_boxes})
    _emit_csv(args.csv, rows)
    return 0


def _print_completeness_table(reports) -> bool:
    print(f"{'n':>3} {'modulus':>8} {'residues':>9} {'count':>6} {'continuum':>10} verdict")
    all_ok = True
    for r in reports:
        verdict = "COMPLETE" if r.complete else "INCOMPLETE"
        if r.errors:
            verdict += f" ({len(r.errors)} translate error(s))"
            all_ok = False
        print(f"{r.period:>3} {r.modulus:>8} {len(r.realized_residues):>9} "
              f"{r.count_lower_bound:>6} {len(r.continuum_offsets):>10} {verdict}")
    return all_ok


def cmd_completeness(args) -> int:
    lift = _resolve_map(args.map, _parse_params(args.params))
    region = _parse_region(args.region)
    reports = completeness_check(lift, args.nmax, region=region,
                                 resolution=args.resolution)
    clean = _print_completeness_table(reports)
    overall = all(r.complete for r in reports)
    print(f"overall: {'COMPLETE' if overall else 'INCOMPLETE'} up to n={args.nmax}")
    if lift.degree < -1:
        print("note: completeness for degree < -1 is settled only for the covered "
              "families (both ends attracting or repelling); other sweeps are "
              "EXPLORATORY probes, not verification")
    _emit_json(args.json, {"meta": _meta(args, "completeness"),
                           "reports": json.loads(reports_to_json(reports))})
    _emit_csv(args.csv, boxes_to_csv_rows(reports))
    return 0 if clean else 1


def cmd_growth(args) -> int:
    lift = _resolve_map(args.map, _parse_params(args.params))
    region = _parse_region(args.region)
    reports = completeness_check(lift, args.nmax, region=region,
                                 resolution=args.resolution)
    print(f"{'n':>3} {'count':>7} {'rate':>10}")
    for r in reports:
        rate = np.log(r.count_lower_bound) / r.period if r.count_lower_bound else float("-inf")
        print(f"{r.period:>3} {r.count_lower_bound:>7} {rate:>10.6f}")
    rate = growth_rate(reports)
    target = float(np.log(abs(lift.degree)))
    print(f"growth rate {rate:.6f} vs ln|d| = {target:.6f}")
    _emit_json(args.json, {"meta": _meta(args, "growth"),
                           "counts": {str(r.period): r.count_lower_bound for r in reports},
                           "rate": rate, "ln_abs_degree": target})
    clean = not any(r.errors for r in reports)
    return 0 if clean else 1


def cmd_lemmas(args) -> int:
    results = lemma_suite.run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  ({r.detail})")
    ok = all(r.passed for r in results)
    print(f"{sum(r.passed for r in results)}/{len(results)} suites passed")
    _emit_json(args.json, {"meta": _meta(args, "lemmas"),
                           "suites": [{"name": r.name, "passed": r.passed,
                                       "detail": r.detail} for r in results]})
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, with_map=True) -> None:
    if with_map:
        p.add_argument("--map", required=True,
                       help="zoo entry name, or path to a tabulated-lift JSON header")
        p.add_argument("--params", default=None, help="JSON object of map parameters")
    p.add_argument("--json", default=None, help="write a JSON artifact here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="annulift",
        description="Annulus-map lifts: indices, certified fixed points, "
                    "Nielsen classes, completeness and growth experiments.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zoo", help="list built-in map families")
    p.add_argument("action", nargs="?", default="list")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser("index", help="Lefschetz index of a map along a curve")
    _add_common(p)
    p.add_argument("--curve", required=True,
                   help="circle:r=<r>[,n=<samples>] | rect:<x0,x1,y0,y1> | JSON file")
    p.add_argument("--min-disp", dest="min_disp", type=float, default=1e-6,
                   help="displacement floor below which the index is undefined")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("fixed-points", help="certified fixed boxes of one deck translate")
    _add_common(p)
    p.add_argument("--lift-k", dest="lift_k", type=int, default=0)
    p.add_argument("--region", default=None, help="x0,x1,y0,y1")
    p.add_argument("--resolution", type=float, default=1e-3)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("completeness", help="Nielsen residue census per period")
    _add_common(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--region", default=None)
    p.add_argument("--resolution", type=float, default=1e-3)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_completeness)

    p = sub.add_parser("growth", help="periodic-point counts and growth rate")
    _add_common(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--region", default=None)
    p.add_argument("--resolution", type=float, default=1e-3)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("lemmas", help="run the executable index-identity suites")
    _add_common(p, with_map=False)
    p.set_defaults(func=cmd_lemmas)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, UnknownZooEntry, ParamOutOfRange, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except ToolkitError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
