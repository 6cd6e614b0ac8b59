"""The statements every claim of annulift rests on, and the only reader of a
map's declared Lipschitz bound.

Over a cell c + [-w, w] (per axis), a map F with a declared Lipschitz bound
L (``LiftMap.lipschitz``) has displacement D = F - id that is
(L + 1)-Lipschitz, so

    |D(p) - D(c)| <= (L + 1) |w|   for every p in the cell.

``enclosure`` evaluates D at the centres and returns its norms |D(c)|
(``np.hypot`` of the two components) with that radius; each proof of
``fixed_points`` is written through it:

- a cell whose |D(c)| exceeds the radius holds no fixed point (exclusion);
- D_x over a strip lies within the range of D_x at the centres of cells
  covering it, widened by the radius (the admissible translates of a sweep);
- a strip cell whose |D(c) + (k, 0)| exceeds the radius holds no fixed point
  of F + (k, 0) (where a sweep searches the class of translate k; a
  translate left with no cell is not searched).

A bound may hold over a region only: ``annulus_maps.restrict(F, region)``
declares F's bound over the region, derived in ``annulus_maps`` (for a
tabulated lift, the largest bound of the grid cells the region meets,
with a margin).
``enclosure`` reads it as it reads any bound, and the statements above hold
for every cell inside the region, since the segment from a cell's centre to
each of its points stays in the cell. ``isolate_fixed_points`` restricts
each attempt to its jittered region, which holds every cell the attempt
tests; a sweep's strip enclosure keeps the global bound.

The search around these statements (the tree of cells, its chunking,
jitter, mop-up and retries, and ``diagnose_continuum``) is heuristic and
need not be trusted: it only decides where to ask. The trusted base of a
certified report, and of a circle index, is this module,
``curves._turning_counts`` with ``curves._orient_signs`` (the boundary
degree that certifies a box), and each map's declarations: its lift,
degree and Lipschitz bound (``annulus_maps``; ``iterate`` raises the bound
to the n-th power and drops a region bound, ``deck_translate`` keeps both,
``restrict`` reads the region bound).
The statements hold in exact arithmetic; the rounding of the samples is not
enclosed.

The same bound decides the index of the projected map f of F
(``annulus_maps.projected_plane_map``) along ``curves.circle(r, n)``, from
F's cover images of its n samples alone (``circle_index``). The circle's
cover path is the segment y = y_r = -ln(r) / 2 pi, where
|f(z)| / |z| = exp(-2 pi D_y) with D_y = F_y - y_r. Along it y is fixed, so
D_y moves by at most L |dx|, and every point of the path lies within
dx = 1/(2n) of a sample's cover point. So

- if every sample has D_y < -L/(2n), then |f(z)| > |z| on the whole circle,
  f - z = f (1 - z/f) winds as f does, and the index is F's degree;
- if every sample has D_y > L/(2n), then |f(z)| < |z| there,
  f - z = -z (1 - f/z) winds as z does, and the index is 1;
- otherwise the samples decide nothing, and the index is the turning count.

That is the paper's index dichotomy, 1 inside the invariant circle and
d^n outside it, proved from values the turning count computes anyway.
``index.lefschetz_index`` asks it only once the samples' displacements
have passed the turning count's checks (finite, longer than
``curves._MIN_NORM``), so a circle the count refuses is refused alike.

A bound built on a NaN or infinite D would be void, so ``enclosure`` refuses
one. The test is on the norms, which it computes anyway: a row is finite
when its norm is below infinity. NaN fails that comparison, and so does
hypot(NaN, +-inf), which is infinity. A finite D whose norm overflows to
infinity fails too; numpy warns of that overflow.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import NonFiniteDisplacement, ParamOutOfRange


def enclosure(F, centres, half) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, norms, r): D = F - id at the (N, 2) centres, from one map call,
    its norms |D| (N,), and r = (L + 1) * hypot(half) for each row of the
    (M, 2) half-widths, L the bound F declares; every point of the cell
    around a centre with half-width row w lies within r(w) of its centre
    value. ParamOutOfRange when F declares no bound, NonFiniteDisplacement,
    naming the first cell, when a norm is not below infinity (any component
    of D NaN or infinite)."""
    if F.lipschitz is None:
        raise ParamOutOfRange(f"{F.name or 'the map'} declares no Lipschitz bound")
    centres = np.asarray(centres, dtype=float)
    D = np.asarray(F(centres), dtype=float) - centres
    norms = np.hypot(D[:, 0], D[:, 1])
    if not norms.max() < np.inf:   # NaN fails the comparison too
        i = int(np.argmin(norms < np.inf))
        raise NonFiniteDisplacement(
            f"non-finite displacement in the cell centred at {tuple(centres[i].tolist())}")
    half = np.asarray(half, dtype=float)
    return D, norms, (F.lipschitz + 1.0) * np.hypot(half[:, 0], half[:, 1])


def circle_index(F, cover, radius: float) -> Optional[int]:
    """The index of F's projected map along curves.circle(radius, n), from
    F's (n, 2) cover images ``cover`` of the circle's n samples: F.degree
    when every D_y = F_y - y_r is below -L/(2n), 1 when every one is above
    L/(2n), and None when they do not decide it or F declares no bound
    (a callable without ``lipschitz`` declares none)."""
    bound = getattr(F, "lipschitz", None)
    if bound is None:
        return None
    margin = bound / (2 * len(cover))
    y_r = -math.log(radius) / (2.0 * math.pi)
    f_y = cover[:, 1]
    # rounding is monotone, so max(F_y) - y_r is the largest rounded D_y;
    # a NaN makes both comparisons false
    if f_y.max() - y_r < -margin:
        return F.degree
    if f_y.min() - y_r > margin:
        return 1
    return None
