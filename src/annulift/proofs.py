"""The one statement every claim of annulift rests on.

Over a cell c + [-w, w] (per axis), a map F with a declared Lipschitz bound
L (``LiftMap.lipschitz``) has displacement D = F - id that is
(L + 1)-Lipschitz, so

    |D(p) - D(c)| <= (L + 1) |w|   for every p in the cell.

``enclosure`` evaluates D at the centres and returns its norms |D(c)|
(``np.hypot`` of the two components) with that radius; each proof of
``fixed_points`` is written through it and nothing else reads the bound:

- a cell whose |D(c)| exceeds the radius holds no fixed point (exclusion);
- D_x over a strip lies within the range of D_x at the centres of cells
  covering it, widened by the radius (the admissible translates of a sweep);
- a strip cell whose |D(c) + (k, 0)| exceeds the radius holds no fixed point
  of F + (k, 0) (where a sweep searches the class of translate k; a
  translate left with no cell is not searched).

The search around these statements (the tree of cells, its chunking,
jitter, mop-up and retries, and ``diagnose_continuum``) is heuristic and
need not be trusted: it only decides where to ask. The trusted base of a
certified report is this module, ``curves._turning_counts`` with
``curves._orient_signs`` (the boundary degree that certifies a box), and each
map's declarations: its lift, degree and Lipschitz bound (``annulus_maps``;
``iterate`` raises the bound to the n-th power, ``deck_translate`` keeps it).
The statements hold in exact arithmetic; the rounding of the samples is not
enclosed.

A bound built on a NaN or infinite D would be void, so ``enclosure`` refuses
one. The test is on the norms, which it computes anyway: a row is finite
when its norm is below infinity. NaN fails that comparison, and so does
hypot(NaN, +-inf), which is infinity. A finite D whose norm overflows to
infinity fails too; numpy warns of that overflow.
"""

from __future__ import annotations

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
