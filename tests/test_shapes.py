"""Multipartitions, shift orbits, and standard filling counts.  Hook
formula results are cross-checked against explicit enumeration, and the
enumeration against an independent recursion over row profiles."""

from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelfand.characters import _affine_image
from gelfand.classes import enumerate_classes
from gelfand.errors import ResourceLimitError
from gelfand.shapes import (
    ShapeOrbit,
    _orbits,
    conjugate_partition,
    count_standard,
    count_standard_tableaux,
    enumerate_orbits,
    enumerate_shapes,
    enumerate_standard,
    hook_lengths,
    multitableau_shape,
    multitableau_shift,
    odd_columns,
    partitions,
    shape_color,
    shape_key,
    shape_shift,
    shape_size,
    shape_str,
)


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(partitions(k)) for k in range(11)] == expected
    assert partitions(4)[0] == (4,)  # lex-greatest first
    assert partitions(4)[-1] == (1, 1, 1, 1)


def test_conjugate_partition():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition(()) == ()
    assert conjugate_partition(conjugate_partition((4, 2, 1))) == (4, 2, 1)


def test_odd_columns():
    assert odd_columns((2, 1, 1)) == 2  # column lengths 3 and 1
    assert odd_columns((3, 1)) == 2
    assert odd_columns((2, 2)) == 0
    assert odd_columns((1,)) == 1
    assert odd_columns(()) == 0


def test_hook_lengths():
    assert hook_lengths((3, 1)) == [[4, 2, 1], [1]]
    assert hook_lengths((2, 2)) == [[3, 2], [2, 1]]


def test_standard_count_matches_enumeration():
    for lam in [(3, 1), (2, 2), (4,), (2, 1, 1), (3, 2, 1)]:
        count = count_standard_tableaux(lam)
        listed = enumerate_standard(((lam,) + ((),) * 0))
        # single-component shape
        assert count == len(listed)


def test_multicomponent_standard_count():
    shape = ((2, 1), (1, 1))
    fillings = enumerate_standard(shape)
    assert len(fillings) == count_standard(shape)
    # 5 letters split 3|2, 2 fillings of the hook, 1 of the column
    from math import comb

    assert count_standard(shape) == comb(5, 3) * 2 * 1
    for tab in fillings:
        assert multitableau_shape(tab) == shape
        entries = sorted(x for comp in tab for row in comp for x in row)
        assert entries == [1, 2, 3, 4, 5]


def test_enumerate_standard_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_standard((tuple([1] * 13),))


def test_shape_enumeration_and_mass():
    shapes = enumerate_shapes(2, 3)
    assert len(shapes) == sum(
        len(partitions(k)) * len(partitions(3 - k)) for k in range(4)
    )
    # total standard fillings squared equals the group order
    from math import factorial

    for r, n in [(2, 3), (3, 2)]:
        total = sum(count_standard(s) ** 2 for s in enumerate_shapes(r, n))
        assert total == r**n * factorial(n)


@pytest.mark.parametrize("r", range(1, 7))
def test_shapes_come_in_key_order_filtered_by_color(r):
    # every r-tuple of partitions with n boxes whose color q divides, once
    # each, in shape_key order
    for n in range({1: 7, 2: 7, 3: 5, 4: 5, 5: 4, 6: 4}[r]):
        parts = [lam for k in range(n + 1) for lam in partitions(k)]
        every = [s for s in product(parts, repeat=r) if shape_size(s) == n]
        for q in (q for q in range(1, r + 1) if r % q == 0):
            expected = sorted(
                (s for s in every if shape_color(s) % q == 0), key=shape_key
            )
            assert enumerate_shapes(r, n, q) == expected, (r, n, q)


def test_shape_shift_and_str():
    shape = ((2, 1), (), (1,))
    assert shape_shift(shape, 1) == ((1,), (2, 1), ())
    assert shape_shift(shape, 3) == shape
    assert shape_str(((2, 1), (1, 1, 1))) == "((2,1),(1,1,1))"


def test_orbit_structure():
    # p=2, r=2: the doubled shape is fixed by the shift
    split = ShapeOrbit(((2, 1), (2, 1)), 2)
    assert split.m == 2
    assert len(split.members) == 1
    plain = ShapeOrbit(((2, 1), (1, 1, 1)), 2)
    assert plain.m == 1
    assert len(plain.members) == 2
    assert plain == ShapeOrbit(((1, 1, 1), (2, 1)), 2)
    assert str(plain) == "[((2,1),(1,1,1))]"


def test_orbit_counts_against_burnside():
    # number of orbits times average stabilizer recovers the shape count
    for r, n, p in [(2, 4, 2), (4, 3, 2), (3, 3, 3), (6, 2, 2)]:
        orbits = enumerate_orbits(r, n, p)
        assert sum(len(o.members) for o in orbits) == len(enumerate_shapes(r, n))
        for o in orbits:
            assert o.m * len(o.members) == p


def test_orbit_split_count_dihedral():
    # r=p=2, n=4: orbits of bipartitions of 4; split ones are the (mu,mu)
    orbits = enumerate_orbits(2, 4, 2)
    split = [o for o in orbits if o.m == 2]
    assert len(split) == len(partitions(2))
    assert {o.canonical for o in split} == {
        ((2,), (2,)),
        ((1, 1), (1, 1)),
    }


def test_quotient_filter():
    # q=2 keeps only shapes with even total color
    kept = enumerate_orbits(2, 4, 1, q=2)
    for orbit in kept:
        color = sum(
            i * sum(comp) for i, comp in enumerate(orbit.canonical)
        )
        assert color % 2 == 0


def test_count_standard_on_split_orbit():
    orbit = ShapeOrbit(((1,), (1,)), 2)
    assert orbit.m == 2
    # two fillings of the pair of single boxes, halved by the stabilizer
    assert count_standard(orbit) == 1


# -- the orbit routine -----------------------------------------------------------


def _closure(item, maps, act) -> set:
    """The orbit of item under the maps, applied again and again until no
    image is new: by brute force, with no group assumed."""
    orbit, frontier = {item}, [item]
    while frontier:
        x = frontier.pop()
        for g in maps:
            y = act(x, g)
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _check_orbits(items, maps, act) -> list[tuple]:
    """Check _orbits on items against the brute-force closure: every rep
    maps onto its item by the first map that does, comes first in items
    among its orbit, and the items sharing a rep are the orbit's items."""
    pairs = _orbits(items, maps, act)
    assert len(pairs) == len(items)
    by_rep: dict = {}
    for item, (rep, g) in zip(items, pairs):
        assert act(rep, g) == item
        assert g == next(h for h in maps if act(rep, h) == item)
        by_rep.setdefault(rep, []).append(item)
    for rep, members in by_rep.items():
        closure = _closure(rep, maps, act)
        assert members == [x for x in items if x in closure]
        assert rep == members[0]
    return pairs


def test_orbits_keep_items_order_and_ignore_outside_images():
    # Z/6 under the shifts by 0, 2, 4: the odd items form one orbit, led by
    # 5, and 4, an image that is not an item, is ignored
    pairs = _check_orbits([5, 1, 3, 0, 2], [0, 2, 4], lambda x, g: (x + g) % 6)
    assert pairs == [(5, 0), (5, 2), (5, 4), (0, 0), (0, 2)]


def _orbits_by_seen_loop(r, n, p, q):
    """enumerate_orbits as it was written before _orbits: one ShapeOrbit
    per shape not yet seen in an orbit."""
    seen = set()
    out = []
    for shape in enumerate_shapes(r, n, q):
        if shape not in seen:
            orb = ShapeOrbit(shape, p)
            seen.update(orb.members)
            out.append(orb)
    out.sort(key=ShapeOrbit.sort_key)
    return out


# (r, n, p, q), p = r included
ORBIT_PANEL = [
    (2, 4, 2, 1),
    (2, 4, 1, 2),
    (2, 5, 2, 1),
    (3, 3, 3, 1),
    (3, 3, 1, 3),
    (4, 3, 2, 1),
    (4, 4, 4, 1),
    (4, 4, 2, 2),
    (6, 2, 2, 1),
    (6, 4, 6, 2),
    (6, 3, 3, 2),
]


@pytest.mark.parametrize("p", [0, -1, 3, 5])
def test_enumerate_orbits_rejects_a_p_that_does_not_divide_r(p):
    # checked before r // p makes the shifts, so no p fails silently
    with pytest.raises(ValueError, match="p must divide the number of components"):
        enumerate_orbits(4, 2, p)


@pytest.mark.parametrize("r,n,p,q", [(4, 2, 2, 3), (6, 3, 6, 2)])
def test_enumerate_orbits_rejects_a_q_outside_the_group(r, n, p, q):
    # 3 does not divide 4, and 6*2 does not divide 6*3: the shifts by r/p
    # would carry a kept shape to one whose color q does not divide
    with pytest.raises(ValueError, match="q must divide r and pq must divide rn"):
        enumerate_orbits(r, n, p, q)


@pytest.mark.parametrize("r,n,p,q", ORBIT_PANEL)
def test_shift_orbits_match_closure_and_seen_loop(r, n, p, q):
    shapes = enumerate_shapes(r, n, q)
    _check_orbits(shapes, range(0, r, r // p), shape_shift)
    # ShapeOrbit compares p and members, which fix canonical and m
    assert enumerate_orbits(r, n, p, q) == _orbits_by_seen_loop(r, n, p, q)


@pytest.mark.parametrize(
    "r,p,q,n", [(2, 1, 2, 5), (4, 1, 2, 3), (4, 2, 2, 4), (4, 1, 4, 3), (6, 1, 3, 4)]
)
def test_row_rotations_of_a_quotient_table(r, p, q, n):
    # the rows of the table of G(r,p,q,n), q > 1, are orbit canonicals whose
    # color q divides, and some rotation of them is not a row: the
    # representatives and their shifts still come from the rows
    lams = [orbit.canonical for orbit in enumerate_orbits(r, n, p, q)]
    _check_orbits(lams, range(r), shape_shift)
    assert any(shape_shift(lam, 1) not in lams for lam in lams)


@pytest.mark.parametrize(
    "r,p,n", [(2, 2, 6), (4, 2, 4), (6, 2, 4), (4, 4, 2), (4, 4, 3), (6, 3, 4)]
)
def test_affine_orbits_of_class_shapes(r, p, n):
    # on the class shapes of G(r,p,n), p > 1, the central image by zeta^t
    # leaves the group exactly when p does not divide t*n; the groups with
    # GCD(p,n) = 2 have split classes
    classes = enumerate_classes(r, p, n)
    alphas = list(dict.fromkeys(c.alpha for c in classes))
    maps = [(u, t) for u in range(1, r + 1) if gcd(u, r) == 1 for t in range(r)]
    _check_orbits(alphas, maps, _affine_image)
    leaving = {t for a in alphas for u, t in maps if _affine_image(a, (u, t)) not in alphas}
    assert leaving == {t for t in range(r) if t * n % p}
    assert any(c.half is not None for c in classes) == (gcd(p, n) == 2)


def test_multitableau_shift_moves_components():
    tab = (((1, 2),), ((3,),))
    assert multitableau_shift(tab, 1) == (((3,),), ((1, 2),))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=8))
def test_hook_formula_agrees_with_enumeration(n):
    for lam in partitions(n):
        if n <= 6:
            assert count_standard_tableaux(lam) == len(
                enumerate_standard((lam,))
            )


def _profile_fillings(shape):
    """Standard fillings by the backwards walk over row profiles: entry n
    is removed from a corner of the rows still to fill, then n - 1, and so
    on down to 1, each placed at the end of its row on the way back."""

    def corners(rows_filled):
        out = []
        for i, filled in enumerate(rows_filled):
            if filled == 0:
                continue
            if i + 1 < len(rows_filled) and rows_filled[i + 1] == filled:
                continue
            out.append(i)
        return out

    def rec(entry, profiles):
        if entry == 0:
            yield tuple(() for _ in shape)
            return
        for c, prof in enumerate(profiles):
            for i in corners(prof):
                new_prof = list(prof)
                new_prof[i] -= 1
                new_profiles = profiles[:c] + (tuple(new_prof),) + profiles[c + 1 :]
                for partial in rec(entry - 1, new_profiles):
                    comp_rows = [list(row) for row in partial[c]]
                    while len(comp_rows) <= i:
                        comp_rows.append([])
                    comp_rows[i].append(entry)
                    filled = tuple(tuple(row) for row in comp_rows)
                    yield partial[:c] + (filled,) + partial[c + 1 :]

    start = tuple(tuple(comp) for comp in shape)
    n = sum(sum(comp) for comp in shape)
    return sorted(
        tuple(tuple(tuple(row) for row in comp if row) for comp in filling)
        for filling in rec(n, start)
    )


def _is_standard(tab, shape):
    entries = sorted(x for comp in tab for row in comp for x in row)
    if entries != list(range(1, len(entries) + 1)):
        return False
    if multitableau_shape(tab) != shape:
        return False
    for comp in tab:
        for row in comp:
            if any(a >= b for a, b in zip(row, row[1:])):
                return False
        for upper, lower in zip(comp, comp[1:]):
            if any(a >= b for a, b in zip(upper, lower)):
                return False
    return True


@pytest.mark.parametrize("r", [1, 2, 3])
def test_standard_fillings_match_profile_recursion(r):
    for n in range(7):
        for shape in enumerate_shapes(r, n):
            fillings = enumerate_standard(shape)
            assert fillings == _profile_fillings(shape)
            assert len(fillings) == count_standard(shape)
            assert all(_is_standard(tab, shape) for tab in fillings)
    assert enumerate_standard(((),) * r) == [((),) * r]
