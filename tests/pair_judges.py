"""Exhaustive judges of the pair scan.

The library reads every pairwise intersection number through one float
pass, ``kvol.ratios._scan_pairs``, and does exact work on the pairs it
selects.  The judges here skip the selection:

* ``gram`` is the integer matrix of all pairwise intersection numbers of a
  family, from the form's coordinate rows;
* ``exhaustive_K`` is the directional constant by an exact scan of every
  pair across the two families, each pair's wedge of summed holonomies
  compared in the field.
"""

from __future__ import annotations

from kvol.field import CycloReal
from kvol.intersect import intersection_form
from kvol.plane import canonical_orientation, cross
from kvol.ratios import (
    UnrealizedDirectionError,
    _canonical_pair,
    _pair_key,
    closed_atoms,
)
from kvol.saddle import enumerate_saddle_connections


def gram(form, objs):
    """All pairwise intersection numbers of a family, as an integer matrix."""
    C = form.coord_rows(objs)
    return C @ form.matrix @ C.T


def exhaustive_K(surface, d1, d2, L, *, form=None, same_direction=False):
    """``(exact, witnesses)`` of max |Int(a, b)| / |hol(a) ^ hol(b)| over every
    pair of closed atoms, ``a`` in the lower and ``b`` in the higher of the
    two directions, from connections of length at most ``L``.

    Atoms of zero holonomy are dropped.  With ``same_direction`` only atoms
    whose components are all canonically oriented take part.  Witnesses are
    ``(a, b, |Int|)`` in canonical pair order; with no crossing pair the
    value is 0 and there are none.  A direction without an atom raises
    ``UnrealizedDirectionError``.
    """
    d_lo, d_hi = _canonical_pair(surface.n, d1, d2)
    if form is None:
        form = intersection_form(surface)
    families = []
    for d in (d_lo, d_hi):
        atoms = closed_atoms(surface, enumerate_saddle_connections(surface, L, direction=d))
        if same_direction:
            atoms = [
                c for c in atoms if all(canonical_orientation(sc.holonomy) for sc in c.components)
            ]
        curves = []
        for c in atoms:
            hx, hy = c.components[0].holonomy
            for sc in c.components[1:]:
                hx, hy = hx + sc.holonomy[0], hy + sc.holonomy[1]
            if not (hx.is_zero() and hy.is_zero()):
                curves.append((c, (hx, hy)))
        if not curves:
            raise UnrealizedDirectionError(f"no closed curve in direction {d!r}")
        families.append(curves)
    fa, fb = families
    Ca, Cb = (form.coord_rows([c for c, _ in fam]) for fam in families)
    G = Ca @ form.matrix @ Cb.T
    best, ties = None, []
    for r, s in zip(*G.nonzero()):
        (a, ha), (b, hb) = fa[r], fb[s]
        w = abs(cross(ha, hb))
        if w.is_zero():
            continue
        x = (a, b, abs(int(G[r, s])), w)
        #  I_x/w_x  vs  I_y/w_y  <=>  sign(I_x w_y - I_y w_x)
        sgn = 1 if best is None else (best[3] * x[2] - x[3] * best[2]).sign()
        if sgn > 0:
            best, ties = x, [x]
        elif sgn == 0:
            ties.append(x)
    if best is None:
        return CycloReal.from_rational(surface.n, 0), []
    exact = CycloReal.from_rational(surface.n, best[2]) / best[3]
    witnesses = sorted(((a, b, I) for a, b, I, _ in ties), key=lambda w: _pair_key(w[0], w[1]))
    return exact, witnesses
