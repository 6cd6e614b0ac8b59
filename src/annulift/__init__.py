"""annulift: annulus self-maps via plane lifts, with certified fixed points,
Nielsen residue classes, and completeness/growth experiments."""

from .annulus_maps import (
    AnnulusPoint,
    GridSpec,
    LiftMap,
    annulus_distance,
    deck_translate,
    degree_check,
    grid_lift_from_values,
    iterate,
    load_grid_lift,
    make_lift,
    project,
    projected_plane_map,
    zoo,
)
from .curves import (
    ClosedCurve,
    circle,
    curve_from_json,
    curve_to_json,
    is_positively_oriented,
    rectangle,
    winding_number,
)
from .fixed_points import (
    CertifiedFixedBox,
    NielsenReport,
    completeness_check,
    growth_rate,
    isolate_fixed_points,
    nielsen_residue,
)
from .index import (
    index_jump_experiment,
    lefschetz_index,
    quad_configuration_index,
    saddle_rectangle_index,
)

__version__ = "0.1.0"

__all__ = [
    "AnnulusPoint",
    "CertifiedFixedBox",
    "ClosedCurve",
    "GridSpec",
    "LiftMap",
    "NielsenReport",
    "annulus_distance",
    "circle",
    "completeness_check",
    "curve_from_json",
    "curve_to_json",
    "deck_translate",
    "degree_check",
    "grid_lift_from_values",
    "growth_rate",
    "index_jump_experiment",
    "is_positively_oriented",
    "isolate_fixed_points",
    "iterate",
    "lefschetz_index",
    "load_grid_lift",
    "make_lift",
    "nielsen_residue",
    "project",
    "projected_plane_map",
    "quad_configuration_index",
    "rectangle",
    "saddle_rectangle_index",
    "winding_number",
    "zoo",
]
