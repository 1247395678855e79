"""Colored insertion correspondence: golden pairs, bijectivity, and the
behavior on symmetric and antisymmetric absolute involutions.  These four
families of checks jointly pin the insertion convention: bijectivity with
the mass identity, diagonal pairs on symmetric involutions, half-shifted
pairs on antisymmetric ones, and the odd-column statistics per color."""

import importlib
import random

import pytest

from gelfand.classes import enumerate_involution_classes, involution_type
from gelfand.colored import (
    ColoredPermutation,
    ProjectiveElement,
    all_elements,
    antisymmetric_elements,
    parse_window,
    symmetric_elements,
)
from gelfand.rs import (
    involution_from_tableau,
    involution_tableau,
    projective_rs,
    rs,
    rs_inverse,
    shape_of,
)
from gelfand.shapes import (
    ShapeOrbit,
    multitableau_shape,
    multitableau_shift,
    odd_columns,
)


def test_identity_inserts_single_row():
    g = ColoredPermutation.identity(3, 4)
    p, q = rs(g)
    assert p == q
    assert p == (((1, 2, 3, 4),), (), ())


def test_golden_insertion():
    g = parse_window("[3^0,4^1,6^1,2^0,5^2,1^2]", 3)
    p, q = rs(g)
    assert p == (((2,), (3,)), ((4, 6),), ((1,), (5,)))
    assert q == (((1,), (4,)), ((2, 3),), ((5,), (6,)))
    assert multitableau_shape(p) == ((1, 1), (2,), (1, 1))


def test_single_letter_windows():
    for text, r in [("[1^0]", 1), ("[1^1]", 2), ("[1^2]", 3)]:
        g = parse_window(text, r)
        p, q = rs(g)
        assert rs_inverse(p, q, r) == g


def test_round_trip_exhaustive_small():
    count = 0
    for g in all_elements(2, 3):
        p, q = rs(g)
        assert multitableau_shape(p) == multitableau_shape(q)
        assert rs_inverse(p, q, 2) == g
        count += 1
    assert count == 48


def test_round_trip_random_large():
    rng = random.Random(2024)
    for _ in range(200):
        perm = list(range(1, 6))
        rng.shuffle(perm)
        colors = [rng.randrange(4) for _ in range(5)]
        g = ColoredPermutation(4, tuple(perm), tuple(colors))
        p, q = rs(g)
        assert rs_inverse(p, q, 4) == g


def test_rs_inverse_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        rs_inverse((((1,),), ()), (((),), ((1,),)), 2)


def test_symmetric_involutions_give_diagonal_pairs():
    for v in symmetric_elements(2, 4):
        p, q = rs(v)
        assert p == q
        assert involution_tableau(v) == p
        assert involution_from_tableau(p) == v


def test_antisymmetric_involutions_half_shift():
    for v in antisymmetric_elements(2, 4):
        p, q = rs(v)
        assert q == multitableau_shift(p, 1)
        assert involution_from_tableau(
            involution_tableau(v), antisymmetric=True
        ) == v


def test_antisymmetric_shapes_are_doubled():
    for v in antisymmetric_elements(2, 4):
        shape = multitableau_shape(rs(v)[0])
        assert shape[0] == shape[1]


def test_odd_column_statistics_match_type():
    for v in symmetric_elements(2, 4):
        ctype = involution_type(v)
        shape = multitableau_shape(rs(v)[0])
        for i, comp in enumerate(shape):
            assert sum(comp) == ctype.fixed[i] + 2 * ctype.pair[i]
            assert odd_columns(comp) == ctype.fixed[i]


def test_shape_of_identity():
    v = ColoredPermutation.identity(2, 3)
    orbit = shape_of(v)
    assert orbit == ShapeOrbit(((3,), ()), 1)


def test_shape_of_coset_uses_quotient_orbit():
    v = parse_window("[1^1,2^1,3^0,4^0]", 2)
    coset = ProjectiveElement(v, 2)
    orbit = shape_of(coset)
    assert orbit.p == 2
    shapes = {multitableau_shape(rs(w)[0]) for w in coset.lifts()}
    assert shapes <= set(orbit.members)


def test_projective_rs_collects_lift_pairs():
    v = parse_window("[2^0,1^0,3^1]", 2)
    coset = ProjectiveElement(v, 2)
    pairs = projective_rs(coset)
    assert len(pairs) == 2  # shifts act freely on tableau pairs
    for p, q in pairs:
        assert multitableau_shape(p) == multitableau_shape(q)


def _reference_projective_rs(v):
    """The orbit of tableau pairs by inserting each of the q lifts."""
    pairs = set()
    for lift in v.lifts():
        pairs.add(rs(lift))
    return tuple(sorted(pairs))


# the cosets have q = 4, 6, 3 and 2
@pytest.mark.parametrize("r, p, n", [(4, 4, 4), (6, 6, 2), (6, 3, 4), (2, 2, 6)])
def test_projective_rs_matches_inserting_every_lift(r, p, n):
    for _, cosets in enumerate_involution_classes(r, p, 1, n):
        for coset in cosets:
            assert coset.q == p
            assert projective_rs(coset) == _reference_projective_rs(coset)


def test_projective_rs_inserts_once_per_coset(monkeypatch):
    calls = []

    def spy(g):
        calls.append(g)
        return rs(g)

    # the package exports the function rs under the module's own name
    monkeypatch.setattr(importlib.import_module("gelfand.rs"), "rs", spy)
    coset = ProjectiveElement(parse_window("[2^1,1^3,3^2,4^0]", 4), 4)
    assert projective_rs(coset) == _reference_projective_rs(coset)
    assert calls == [coset.rep]


@pytest.mark.parametrize(
    "build, error, message",
    [(lambda: rs_inverse(((), ()), ((), ()), 3), ValueError, "expected 3 components")],
    ids=["rs_inverse-components"],
)
def test_refusals_name_their_reason(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
