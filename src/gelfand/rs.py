"""Colored Robinson-Schensted correspondence.

An element g of G(r,n) splits into r two-line arrays, one per color: array i
lists the pairs (j, g(j)) over positions j of color i in increasing j.  Row
inserting the bottom lines gives the insertion multitableau P and recording
the top lines gives Q, a bijection from G(r,n) to pairs of standard
multitableaux of equal shape in Fer(r,n).

Restricted to absolute involutions the map degenerates: symmetric elements
give P = Q, antisymmetric elements (r even) give Q equal to P with its
components shifted half a turn.  On a quotient by scalars the correspondence
descends to shift orbits of tableau pairs.
"""

from __future__ import annotations

from .colored import ColoredPermutation, ProjectiveElement
from .errors import InconsistencyError
from .shapes import (
    ShapeOrbit,
    multitableau_shape,
    multitableau_shift,
)

Tableau = tuple  # tuple of row tuples
MultiTableau = tuple  # tuple of Tableau, one per color


def _insert(rows: list[list[int]], value: int) -> tuple[int, int]:
    """Row insertion by bumping; mutates rows, returns the new cell."""
    i = 0
    while True:
        if i == len(rows):
            rows.append([value])
            return i, 0
        row = rows[i]
        j = len(row)
        while j > 0 and row[j - 1] > value:
            j -= 1
        if j == len(row):
            row.append(value)
            return i, j
        row[j], value = value, row[j]
        i += 1


def _freeze(rows: list[list[int]]) -> Tableau:
    return tuple(tuple(row) for row in rows)


def rs(g: ColoredPermutation) -> tuple[MultiTableau, MultiTableau]:
    """The correspondence g -> (P, Q)."""
    p_comp: list[Tableau] = []
    q_comp: list[Tableau] = []
    for color in range(g.r):
        p_rows: list[list[int]] = []
        q_rows: list[list[int]] = []
        for j in range(1, g.n + 1):
            if g.color(j) != color:
                continue
            i, col = _insert(p_rows, g.image(j))
            while len(q_rows) <= i:
                q_rows.append([])
            q_rows[i].append(j)
        p_comp.append(_freeze(p_rows))
        q_comp.append(_freeze(q_rows))
    return tuple(p_comp), tuple(q_comp)


def _reverse_bump(rows: list[list[int]], i: int) -> int:
    """Remove the last cell of row i and reverse-bump upward; returns the
    value that was originally inserted."""
    value = rows[i].pop()
    if not rows[i]:
        del rows[i]
    while i > 0:
        i -= 1
        row = rows[i]
        j = 0
        while j + 1 < len(row) and row[j + 1] < value:
            j += 1
        row[j], value = value, row[j]
    return value


def rs_inverse(p_tab: MultiTableau, q_tab: MultiTableau, r: int) -> ColoredPermutation:
    """Rebuild the group element from a pair of standard multitableaux of the
    same shape whose recording entries partition 1..n."""
    if len(p_tab) != r or len(q_tab) != r:
        raise ValueError("expected %d components" % r)
    if multitableau_shape(p_tab) != multitableau_shape(q_tab):
        raise ValueError("insertion and recording shapes differ")
    n = sum(len(row) for comp in p_tab for row in comp)
    perm = [0] * n
    colors = [0] * n
    seen = set()
    for color in range(r):
        p_rows = [list(row) for row in p_tab[color]]
        cells = {}  # recording entry -> row index
        for i, row in enumerate(q_tab[color]):
            for entry in row:
                cells[entry] = i
        for entry in sorted(cells, reverse=True):
            if not (1 <= entry <= n) or entry in seen:
                raise ValueError("recording entries must partition 1..n")
            seen.add(entry)
            value = _reverse_bump(p_rows, cells[entry])
            perm[entry - 1] = value
            colors[entry - 1] = color
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("insertion entries must partition 1..n")
    return ColoredPermutation(r, tuple(perm), tuple(colors))


def involution_tableau(v: ColoredPermutation) -> MultiTableau:
    """P-tableau of an absolute involution.

    Symmetric elements satisfy Q = P, antisymmetric ones Q = P shifted by
    half a turn, so P alone determines the element.
    """
    h = v._pair_shift()
    if h is None:
        raise ValueError("element is not an absolute involution")
    p_tab, q_tab = rs(v)
    if q_tab != multitableau_shift(p_tab, h):
        raise InconsistencyError("Q is not P shifted by the 2-cycle shift")
    return p_tab


def involution_from_tableau(p_tab: MultiTableau, antisymmetric: bool = False) -> ColoredPermutation:
    r = len(p_tab)
    q_tab = multitableau_shift(p_tab, r // 2) if antisymmetric else p_tab
    return rs_inverse(p_tab, q_tab, r)


def shape_of(v) -> ShapeOrbit:
    """Shape attached to an absolute involution.

    The lifts of a coset by scalars of order q sweep out a component shift
    orbit with stabilizer parameter q; for a plain group element, its own
    coset with q = 1, the orbit is trivial.
    """
    p_tab, _ = rs(v.rep)
    return ShapeOrbit(multitableau_shape(p_tab), v.q)


def projective_rs(v: ProjectiveElement) -> tuple[tuple[MultiTableau, MultiTableau], ...]:
    """Orbit of tableau pairs swept out by the lifts of a coset, sorted.

    Multiplying a lift by the scalar of order s shifts the colors, hence
    rotates the components of both tableaux in step; the coset is recovered
    from any one pair.  So one insertion of the stored lift gives the
    orbit: its pair shifted by every multiple of r/q.
    """
    p_tab, q_tab = rs(v.rep)
    pairs = {
        (multitableau_shift(p_tab, s), multitableau_shift(q_tab, s))
        for s in range(0, v.r, v.r // v.q)
    }
    return tuple(sorted(pairs))
