"""Multipartitions, shift orbits, and standard filling counts.  Hook
formula results are cross-checked against explicit enumeration, and the
enumeration against an independent recursion over row profiles."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelfand.errors import ResourceLimitError
from gelfand.shapes import (
    ShapeOrbit,
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
