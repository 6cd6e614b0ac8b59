"""Command line front end for the experiment suites.

Exit codes: 0 all certifications and assertions passed, 1 a certification
or assertion failed, 2 usage error (an unknown, missing or malformed flag,
or a ValueError from an invalid value such as a non-positive resolution or
a reversed rectangle). Failures also emit one JSON object on stderr.
Artifact JSON is deterministic for identical flags: sorted keys and no
timestamps.

Every tolerance is a fixed constant of the library module that reads it:
no command takes a tolerance or a floor.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import lemma_suite
from .annulus_maps import ZOO_SCHEMAS, LiftMap, load_grid_lift, projected_plane_map, zoo
from .curves import ClosedCurve, circle, curve_from_json, rectangle
from .errors import ParamOutOfRange, ToolkitError, UnknownZooEntry
from .fixed_points import (
    NielsenReport,
    boxes_to_csv_rows,
    completeness_check,
    growth_rate,
    isolate_fixed_points,
    translate_region,
)
from .index import lefschetz_index


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise UsageError, so main reports
    them as one JSON object like any other; add_subparsers gives every
    subcommand's parser this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


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


def _finite_floats(text: str, count: int, usage: str) -> tuple[float, ...]:
    """``count`` comma-separated finite reals, else UsageError(usage)."""
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(usage) from exc
    if len(values) != count or not all(math.isfinite(v) for v in values):
        raise UsageError(usage)
    return values


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
        if r is None or not (math.isfinite(r) and r > 0):
            raise UsageError("circle spec needs r=<finite positive real>")
        return circle(r, n=n)
    if spec.startswith("rect:"):
        return rectangle(*_finite_floats(spec[len("rect:"):], 4,
                                         "rect spec is rect:<x0,x1,y0,y1>, finite reals"))
    path = Path(spec)
    if path.exists():
        return curve_from_json(json.loads(path.read_text(encoding="utf-8")))
    raise UsageError(f"curve spec {spec!r}: not a builtin spec and no such file")


def _parse_region(raw: str | None):
    if raw is None:
        return None
    return _finite_floats(raw, 4, "--region is x0,x1,y0,y1, finite reals")


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
    idx = lefschetz_index(projected_plane_map(lift), curve)
    print(idx)
    _emit_json(args.json, {"meta": _meta(args, "index"), "index": idx,
                           "degree": lift.degree})
    return 0


def cmd_fixed_points(args) -> int:
    lift = _resolve_map(args.map, _parse_params(args.params))
    region = _parse_region(args.region) or translate_region(lift, args.lift_k)
    if not args.resolution > 0:   # NaN too; checked also when there is nothing to search
        raise ValueError("resolution must be positive")
    boxes = isolate_fixed_points(lift, region, args.resolution, args.lift_k) if region else []
    print(f"{len(boxes)} certified box(es) in region {region}")
    # one translate's period-1 report: it reads each box's residue off k, as
    # completeness_check does
    report = NielsenReport(period=1, modulus=abs(lift.degree - 1), fixed_boxes=tuple(boxes))
    for b, residue in zip(report.fixed_boxes, report.box_residues):
        x0, x1, y0, y1 = b.box
        print(f"  box [{x0:.6g}, {x1:.6g}] x [{y0:.6g}, {y1:.6g}] "
              f"degree {b.boundary_degree} residue {residue}")
    _emit_json(args.json, {"meta": _meta(args, "fixed-points"), "region": region and list(region),
                           "boxes": report.to_dict()["boxes"]})
    _emit_csv(args.csv, boxes_to_csv_rows([report]))
    return 0


def _raise_translate_errors(reports) -> None:
    """Exit 1 through main's error path, after the table and artifacts."""
    failed = [f"n={r.period}, k={k}: {m}" for r in reports for k, m in sorted(r.errors.items())]
    if failed:
        raise ToolkitError(f"{len(failed)} translate error(s); first at {failed[0]}")


def cmd_completeness(args) -> int:
    lift = _resolve_map(args.map, _parse_params(args.params))
    region = _parse_region(args.region)
    reports = completeness_check(lift, args.nmax, region=region,
                                 resolution=args.resolution)
    print(f"{'n':>3} {'modulus':>8} {'residues':>9} {'count':>6} {'continuum':>10} verdict")
    for r in reports:
        verdict = "COMPLETE" if r.complete else "INCOMPLETE"
        if r.errors:
            verdict += f" ({len(r.errors)} translate error(s))"
        print(f"{r.period:>3} {r.modulus:>8} {len(r.realized_residues):>9} "
              f"{r.count_lower_bound:>6} {len(r.continuum_offsets):>10} {verdict}")
    overall = all(r.complete for r in reports)
    print(f"overall: {'COMPLETE' if overall else 'INCOMPLETE'} up to n={args.nmax}")
    if lift.degree < -1:
        print("note: completeness for degree < -1 is settled only for the covered "
              "families (both ends attracting or repelling); other sweeps are "
              "EXPLORATORY probes, not verification")
    _emit_json(args.json, {"meta": _meta(args, "completeness"),
                           "reports": [r.to_dict() for r in reports]})
    _emit_csv(args.csv, boxes_to_csv_rows(reports))
    _raise_translate_errors(reports)
    return 0


def cmd_growth(args) -> int:
    lift = _resolve_map(args.map, _parse_params(args.params))
    region = _parse_region(args.region)
    reports = completeness_check(lift, args.nmax, region=region,
                                 resolution=args.resolution)
    print(f"{'n':>3} {'count':>7} {'rate':>10}")
    for r in reports:
        print(f"{r.period:>3} {r.count_lower_bound:>7} {growth_rate([r]):>10.6f}")
    rate = growth_rate(reports)
    target = float(np.log(abs(lift.degree)))
    print(f"growth rate {rate:.6f} vs ln|d| = {target:.6f}")
    _emit_json(args.json, {"meta": _meta(args, "growth"),
                           "counts": {str(r.period): r.count_lower_bound for r in reports},
                           "rate": rate, "ln_abs_degree": target})
    _raise_translate_errors(reports)
    return 0


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


_SWEEP_REGION_HELP = ("x0,x1,y0,y1: sweep the unit strip [x0, x0 + 1] x [y0, y1]; x1 is "
                      "not used (default: x0 = -0.5 and the map's y-window)")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("fixed-points", help="certified fixed boxes of one deck translate")
    _add_common(p)
    p.add_argument("--lift-k", dest="lift_k", type=int, default=0)
    p.add_argument("--region", default=None,
                   help="x0,x1,y0,y1 (default: where the strip enclosure leaves room "
                        "for the translate's fixed points, as sweeps search)")
    p.add_argument("--resolution", type=float, default=1e-3)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("completeness", help="Nielsen residue census per period")
    _add_common(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--region", default=None, help=_SWEEP_REGION_HELP)
    p.add_argument("--resolution", type=float, default=1e-3)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_completeness)

    p = sub.add_parser("growth", help="periodic-point counts and growth rate")
    _add_common(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--region", default=None, help=_SWEEP_REGION_HELP)
    p.add_argument("--resolution", type=float, default=1e-3)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("lemmas", help="run the executable index-identity suites")
    _add_common(p, with_map=False)
    p.set_defaults(func=cmd_lemmas)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a map image far out overflows to inf or NaN; the library reports
        # that as NonFiniteDisplacement, which numpy's warnings would only
        # repeat
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (UsageError, UnknownZooEntry, ParamOutOfRange, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except ToolkitError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except SystemExit:   # --help: a usage error raises UsageError instead
        return 0


if __name__ == "__main__":
    sys.exit(main())
