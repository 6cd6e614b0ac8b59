"""Span tracing of annulift's public functions, installed from outside the
package by replacing module attributes (and ``LiftMap.__call__`` on the
class) with timing wrappers, and restored afterwards.

A span is (name, start, end, parent, extra, stolen). ``extra`` is a
per-span count: points evaluated for a map call, boxes returned by
``isolate_fixed_points``, and refinement points (map points evaluated beyond
the curve's samples) for ``lefschetz_index``. ``stolen`` is the time the
speed sampler's kernel ran while the span was the innermost open one.
Spans are kept in memory; a span's self time is its duration minus the time
its child spans cover and minus its stolen time. The program runs on one
thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

from annulift.annulus_maps import LiftMap

LIFT_CALL = "annulus_maps.LiftMap.__call__"
ISOLATE = "fixed_points.isolate_fixed_points"
LEFSCHETZ = "index.lefschetz_index"
PASS = "bench.pass"          # root span around one workload pass

# span name -> (module that defines it, attribute)
FUNCTIONS = {
    "fixed_points.completeness_check": ("annulift.fixed_points", "completeness_check"),
    ISOLATE: ("annulift.fixed_points", "isolate_fixed_points"),
    "fixed_points.polish_fixed_point": ("annulift.fixed_points", "polish_fixed_point"),
    "fixed_points.nielsen_residue": ("annulift.fixed_points", "nielsen_residue"),
    "fixed_points.diagnose_continuum": ("annulift.fixed_points", "diagnose_continuum"),
    "annulus_maps.zoo": ("annulift.annulus_maps", "zoo"),
    "annulus_maps.grid_lift_from_values": ("annulift.annulus_maps", "grid_lift_from_values"),
    "annulus_maps.counterexample_deg_minus1": ("annulift.annulus_maps",
                                               "counterexample_deg_minus1"),
    LEFSCHETZ: ("annulift.index", "lefschetz_index"),
    "index.saddle_rectangle_index": ("annulift.index", "saddle_rectangle_index"),
    "index.quad_configuration_index": ("annulift.index", "quad_configuration_index"),
    "index.index_jump_experiment": ("annulift.index", "index_jump_experiment"),
    "index.homotopy_index_profile": ("annulift.index", "homotopy_index_profile"),
    "curves.is_positively_oriented": ("annulift.curves", "is_positively_oriented"),
    "curves.winding_number": ("annulift.curves", "winding_number"),
    "lemma_suite.run_all": ("annulift.lemma_suite", "run_all"),
}
NAMES = [PASS, LIFT_CALL, *FUNCTIONS]
NAME_ID = {name: i for i, name in enumerate(NAMES)}

BUILDERS = ("annulus_maps.zoo", "annulus_maps.grid_lift_from_values",
            "annulus_maps.counterexample_deg_minus1")
TOOLBOX = ("index.saddle_rectangle_index", "index.quad_configuration_index",
           "index.index_jump_experiment", "index.homotopy_index_profile")


class Tracer:
    """In-memory span recorder plus the patching that feeds it."""

    def __init__(self):
        self._restore = []
        self.clear()

    def clear(self) -> None:
        self.name, self.parent, self.start, self.end, self.extra = [], [], [], [], []
        self.stolen = []
        self._stack = []

    def enter(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.extra.append(0)
        self.stolen.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def exit(self, i: int, extra: int = 0) -> None:
        self.end[i] = time.perf_counter()
        self.extra[i] = extra
        self._stack.pop()

    def steal(self, seconds: float) -> None:
        """Charge time spent outside the program to the innermost open span."""
        if self._stack:
            self.stolen[self._stack[-1]] += seconds

    def spans(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "start": np.array(self.start), "end": np.array(self.end),
                "extra": np.array(self.extra, dtype=np.int64),
                "stolen": np.array(self.stolen)}

    # -- wrappers ---------------------------------------------------------------

    def _plain(self, name: str, fn):
        nid, enter, exit_ = NAME_ID[name], self.enter, self.exit

        def traced(*args, **kwargs):
            i = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(i)
        return traced

    def _lift_call(self, fn):
        nid, enter, exit_ = NAME_ID[LIFT_CALL], self.enter, self.exit

        def traced(lift, pts):
            i = enter(nid)
            try:
                return fn(lift, pts)
            finally:
                exit_(i, np.size(pts) // 2)
        return traced

    def _isolate(self, fn):
        nid, enter, exit_ = NAME_ID[ISOLATE], self.enter, self.exit

        def traced(*args, **kwargs):
            i = enter(nid)
            boxes = []
            try:
                boxes = fn(*args, **kwargs)
                return boxes
            finally:
                exit_(i, len(boxes))
        return traced

    def _lefschetz(self, fn):
        nid, enter, exit_ = NAME_ID[LEFSCHETZ], self.enter, self.exit

        def traced(F, curve, *args, **kwargs):
            seen = 0

            def counted(pts):
                nonlocal seen
                seen += np.size(pts) // 2
                return F(pts)

            i = enter(nid)
            try:
                return fn(counted, curve, *args, **kwargs)
            finally:
                exit_(i, seen - len(curve))
        return traced

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each traced function in annulift's
        modules (including names imported from another module)."""
        if self._restore:
            return
        for mod_name, _ in FUNCTIONS.values():
            importlib.import_module(mod_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "annulift" or n.startswith("annulift."))]
        for name, (mod_name, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules[mod_name], attr)
            if name == ISOLATE:
                wrapper = self._isolate(orig)
            elif name == LEFSCHETZ:
                wrapper = self._lefschetz(orig)
            else:
                wrapper = self._plain(name, orig)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, orig))
        orig_call = LiftMap.__call__
        LiftMap.__call__ = self._lift_call(orig_call)
        self._restore.append((LiftMap, "__call__", orig_call))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []


def self_times(sp: dict) -> np.ndarray:
    dur = sp["end"] - sp["start"]
    has = sp["parent"] >= 0
    covered = np.bincount(sp["parent"][has], weights=dur[has], minlength=len(dur))
    return dur - covered - sp["stolen"]


def _under(sp: dict, ids) -> np.ndarray:
    """Per span: does it have an ancestor whose name is one of ids?"""
    name, parent = sp["name"].tolist(), sp["parent"].tolist()
    ids = set(ids)
    out = [False] * len(name)
    for i, p in enumerate(parent):
        if p >= 0:
            out[i] = out[p] or name[p] in ids
    return np.array(out, dtype=bool)


def build_seconds(sp: dict) -> float:
    """Wall time of map construction: outermost builder spans only."""
    ids = [NAME_ID[n] for n in BUILDERS]
    top = np.isin(sp["name"], ids) & ~_under(sp, ids)
    return float((sp["end"] - sp["start"])[top].sum())


def layer_metrics(sp: dict) -> dict:
    """Per-layer counts and self times of one traced pass."""
    self_s = self_times(sp)

    def mask(*names):
        return np.isin(sp["name"], [NAME_ID[n] for n in names])

    def calls(*names):
        return int(mask(*names).sum())

    def busy(*names):
        return float(self_s[mask(*names)].sum())

    lift = mask(LIFT_CALL)
    lef = mask(LEFSCHETZ)
    iso = mask(ISOLATE)
    eval_calls = int(lift.sum())
    eval_points = int(sp["extra"][lift].sum())
    lef_in_iso = int((lef & _under(sp, [NAME_ID[ISOLATE]])).sum())
    return {
        "fixed_points.isolate_calls": (int(iso.sum()), "count"),
        "fixed_points.isolate_self_s": (busy(ISOLATE), "s"),
        "fixed_points.certify_yield": (
            int(sp["extra"][iso].sum()) / lef_in_iso if lef_in_iso else 0.0, "boxes/call"),
        "fixed_points.polish_calls": (calls("fixed_points.polish_fixed_point"), "count"),
        "fixed_points.polish_self_s": (busy("fixed_points.polish_fixed_point"), "s"),
        "fixed_points.residue_calls": (calls("fixed_points.nielsen_residue"), "count"),
        "fixed_points.residue_self_s": (busy("fixed_points.nielsen_residue"), "s"),
        "fixed_points.continuum_calls": (calls("fixed_points.diagnose_continuum"), "count"),
        "fixed_points.continuum_self_s": (busy("fixed_points.diagnose_continuum"), "s"),
        "fixed_points.sweep_self_s": (busy("fixed_points.completeness_check"), "s"),
        "annulus_maps.eval_calls": (eval_calls, "count"),
        "annulus_maps.eval_points": (eval_points, "count"),
        "annulus_maps.points_per_call": (
            eval_points / eval_calls if eval_calls else 0.0, "points/call"),
        "annulus_maps.eval_self_s": (busy(LIFT_CALL), "s"),
        "index.lefschetz_calls": (int(lef.sum()), "count"),
        "index.lefschetz_self_s": (busy(LEFSCHETZ), "s"),
        "index.refine_points": (int(sp["extra"][lef].sum()), "count"),
        "index.toolbox_self_s": (busy(*TOOLBOX), "s"),
        "curves.orient_calls": (calls("curves.is_positively_oriented"), "count"),
        "curves.orient_self_s": (busy("curves.is_positively_oriented"), "s"),
        "curves.winding_calls": (calls("curves.winding_number"), "count"),
        "curves.winding_self_s": (busy("curves.winding_number"), "s"),
        "lemma_suite.run_self_s": (busy("lemma_suite.run_all"), "s"),
    }

