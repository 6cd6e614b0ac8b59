"""Tolerance and budget knobs, shared by library and CLI.

All defaults are in cover units. Callers running a specific experiment are
expected to pass problem-scaled values for the displacement floors instead
of relying on the defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # winding / index
    min_dist: float = 1e-9          # basepoint clearance for winding numbers
    min_disp: float = 1e-6          # displacement floor for Lefschetz indices
    refinement_budget: int = 2 ** 16  # inserted points per winding computation
    winding_residual: float = 0.1   # max |total/2pi - nearest integer|

    # lifts
    equivariance_tol: float = 1e-9

    # fixed point isolation
    boundary_min_disp: float = 1e-10  # displacement floor on subdivision boundaries
    exclusion_grid: int = 5           # exclusion test samples per box axis
    exclusion_safety: float = 2.0     # multiplier on the finite-difference Lipschitz estimate
    subdivision_budget: int = 500_000
    boundary_retries: int = 3
    jitter_base: float = math.sqrt(2.0) * 1e-4
    merge_radius_factor: float = 2.0  # merge radius = factor * resolution
    boundary_samples_per_side: int = 16

    # residues
    residue_disp_tol: float = 1e-7   # NotPeriodic threshold on the projected point
    residue_int_tol: float = 1e-5    # near-integer threshold for the translation

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)


DEFAULT = Tolerances()


def load_config(path: str) -> Tolerances:
    """Read a JSON config file; unknown keys are rejected to catch typos."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path!r} must contain a JSON object")
    valid = {f.name for f in dataclasses.fields(Tolerances)}
    unknown = set(raw) - valid
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return Tolerances(**raw)


def merge_config(base: Tolerances, overrides: dict) -> Tolerances:
    """Apply non-None overrides (CLI flags beat config file beats defaults)."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    return base.replace(**updates) if updates else base
