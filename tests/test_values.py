"""The shared identity of the quotient's value types.

ColoredPermutation, ProjectiveElement, ConjugacyClass,
InvolutionClassType, ShapeOrbit and IrreducibleLabel take ==, hash and
< from one base class that reads their _key() and sort_key().  The
reference functions below are the methods each type once defined for
itself, kept verbatim; ==, hash and sorted order must agree with them
on the class lists, involution types and cosets, shape orbits and
irreducible labels that the model works with.  Values of two types do
not order, and an order of zero is refused as a ValueError by the value
types and by the functions that build them.
"""

import random
from functools import cmp_to_key
from operator import ge, gt, le, lt

import pytest

from gelfand.characters import IrreducibleLabel, character_table
from gelfand.classes import (
    ConjugacyClass,
    InvolutionClassType,
    class_of,
    enumerate_classes,
    enumerate_involution_classes,
)
from gelfand.colored import (
    ColoredPermutation,
    ProjectiveElement,
    all_elements,
    antisymmetric_elements,
    subgroup_elements,
    symmetric_elements,
)
from gelfand.cyclotomic import Cyclotomic, zeta
from gelfand.shapes import ShapeOrbit, enumerate_orbits, enumerate_shapes, shape_key


# -- the reference methods, as each type defined them ---------------------------


def colored_eq(self, other) -> bool:
    return (
        isinstance(other, ColoredPermutation) and self._key() == other._key()
    )


def colored_lt(self, other) -> bool:
    return self._key() < other._key()


def colored_hash(self) -> int:
    return hash(self._key())


def projective_eq(self, other) -> bool:
    return (
        isinstance(other, ProjectiveElement) and self._key() == other._key()
    )


def projective_lt(self, other: "ProjectiveElement") -> bool:
    return self._key() < other._key()


def projective_hash(self) -> int:
    return hash(self._key())


def class_eq(self, other) -> bool:
    return (
        isinstance(other, ConjugacyClass)
        and (self.r, self.p, self.alpha, self.half)
        == (other.r, other.p, other.alpha, other.half)
    )


def class_hash(self) -> int:
    return hash((self.r, self.p, self.alpha, self.half))


def class_lt(self, other: "ConjugacyClass") -> bool:
    return self.sort_key() < other.sort_key()


def type_eq(self, other) -> bool:
    return isinstance(other, InvolutionClassType) and self._key() == other._key()


def type_hash(self) -> int:
    return hash(self._key())


def type_lt(self, other: "InvolutionClassType") -> bool:
    return self._key() < other._key()


def orbit_eq(self, other) -> bool:
    return (
        isinstance(other, ShapeOrbit)
        and self.p == other.p
        and self.members == other.members
    )


def orbit_hash(self) -> int:
    return hash((self.p, self.members))


def orbit_lt(self, other: "ShapeOrbit") -> bool:
    return shape_key(self.canonical) < shape_key(other.canonical)


def label_eq(self, other) -> bool:
    return (
        isinstance(other, IrreducibleLabel)
        and self.orbit == other.orbit
        and self.j == other.j
    )


def label_hash(self) -> int:
    return hash((self.orbit, self.j))


def label_lt(self, other: "IrreducibleLabel") -> bool:
    return self.sort_key() < other.sort_key()


# -- the check ----------------------------------------------------------------


def assert_identity_matches(values, copies, eq, lt, hash_, all_pairs=True):
    """==, !=, hash, < and sorted order of values agree with the
    reference methods.  copies[k] is an equal value built afresh.  Every
    pair is compared when all_pairs, else each value with itself, its
    copy, its neighbours in a shuffled order and a value of another type."""
    assert len(copies) == len(values)
    for value, copy in zip(values, copies):
        assert value is not copy
        assert hash(value) == hash_(value) == hash(copy)
    if all_pairs:
        pairs = [(a, b) for a in values for b in values]
    else:
        shuffled = random.Random(1).sample(values, len(values))
        pairs = list(zip(shuffled, shuffled[1:])) + list(zip(shuffled[1:], shuffled))
        pairs += [(a, a) for a in values]
    pairs += list(zip(values, copies)) + list(zip(copies, values))
    pairs += [(value, "x") for value in values] + [(value, None) for value in values]
    for a, b in pairs:
        assert (a == b) is eq(a, b)
        assert (a != b) is (not eq(a, b))
        if isinstance(b, type(a)):
            assert (a < b) is lt(a, b)

    def compare(a, b):
        return -1 if lt(a, b) else (1 if lt(b, a) else 0)

    order = [id(value) for value in sorted(values)]
    assert order == [id(value) for value in sorted(values, key=cmp_to_key(compare))]
    assert len(set(values) | set(copies)) == len(set(values))


@pytest.mark.parametrize("r, p, n", [(4, 2, 4), (6, 2, 3)])
def test_conjugacy_classes_keep_their_identity(r, p, n):
    labels = list(enumerate_classes(r, p, n))
    copies = [ConjugacyClass(c.r, c.p, c.alpha, c.half) for c in labels]
    assert_identity_matches(labels, copies, class_eq, class_lt, class_hash)


# the acting groups of the decompose and gelfand-check panels of perfbench
MODEL_PANEL = [(2, 1, 2, 6), (4, 1, 2, 4), (6, 1, 2, 3), (2, 1, 1, 7), (3, 1, 1, 5)]


@pytest.mark.parametrize("r, p, q, n", MODEL_PANEL)
def test_involution_types_and_cosets_keep_their_identity(r, p, q, n):
    blocks = enumerate_involution_classes(r, p, q, n)
    types = [ctype for ctype, _ in blocks]
    type_copies = [
        InvolutionClassType(t.r, t.shift_order, t.h, t.fixed, t.pair) for t in types
    ]
    assert_identity_matches(types, type_copies, type_eq, type_lt, type_hash)
    cosets = [v for _, members in blocks for v in members]
    coset_copies = [ProjectiveElement(v.rep, v.q) for v in cosets]
    assert_identity_matches(
        cosets, coset_copies, projective_eq, projective_lt, projective_hash, False
    )
    reps = [v.rep for v in cosets]
    rep_copies = [ColoredPermutation(w.r, w.perm, w.colors) for w in reps]
    assert_identity_matches(
        reps, rep_copies, colored_eq, colored_lt, colored_hash, False
    )


def test_shape_orbits_keep_their_identity():
    # each canonical shape also as a trivial orbit: the two tie in the
    # order but are not equal
    orbits = enumerate_orbits(4, 4, 2)
    orbits += [ShapeOrbit(orbit.canonical, 1) for orbit in orbits]
    copies = [ShapeOrbit(orbit.canonical, orbit.p) for orbit in orbits]
    assert_identity_matches(orbits, copies, orbit_eq, orbit_lt, orbit_hash)


def test_irreducible_labels_keep_their_identity():
    labels = [label for label, _ in character_table(6, 2, 1, 4)]
    copies = [
        IrreducibleLabel(ShapeOrbit(label.orbit.canonical, label.orbit.p), label.j)
        for label in labels
    ]
    assert_identity_matches(labels, copies, label_eq, label_lt, label_hash)


def test_a_coset_never_equals_its_lift():
    w = ColoredPermutation(2, (2, 1), (0, 1))
    v = ProjectiveElement(w, 2)
    assert v.rep == w and hash(v.rep) == hash(w)
    assert v != w and w != v
    assert not projective_eq(v, w) and not colored_eq(w, v)


def test_values_of_two_types_do_not_order():
    w = ColoredPermutation(2, (2, 1), (0, 1))
    label = ConjugacyClass(2, 1, ((2,), ()))
    orbit = ShapeOrbit(((2,), ()), 1)
    for a, b in [(ProjectiveElement(w, 1), w), (label, orbit)]:
        for x, y in [(a, b), (b, a)]:
            names = (type(x).__name__, type(y).__name__)
            for compare, symbol in [(lt, "<"), (le, "<="), (gt, ">"), (ge, ">=")]:
                message = "'%s' not supported between instances of '%s' and '%s'"
                with pytest.raises(TypeError, match=message % ((symbol,) + names)):
                    compare(x, y)


W = ColoredPermutation(2, (2, 1), (0, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: enumerate_shapes(2, 2, 0),
        lambda: enumerate_orbits(2, 2, 1, 0),
        lambda: InvolutionClassType(2, 0, 0, (1, 0), (0, 0)),
        lambda: ConjugacyClass(2, 0, ((2,), ())),
        lambda: class_of(W, 0),
        lambda: list(subgroup_elements(2, 0, 2)),
        lambda: zeta(0),
        lambda: Cyclotomic.root(0),
        lambda: Cyclotomic(0, [1]),
        lambda: ShapeOrbit(((2,), ()), 0),
        lambda: ProjectiveElement(W, 0),
    ],
    ids=[
        "enumerate_shapes",
        "enumerate_orbits",
        "InvolutionClassType",
        "ConjugacyClass",
        "class_of",
        "subgroup_elements",
        "zeta",
        "Cyclotomic.root",
        "Cyclotomic",
        "ShapeOrbit",
        "ProjectiveElement",
    ],
)
def test_a_zero_order_raises_a_value_error(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: symmetric_elements(2, -1), "need r >= 1 and n >= 0"),
        (lambda: antisymmetric_elements(2, -2), "need r >= 1 and n >= 0"),
        (lambda: symmetric_elements(0, 2), "need r >= 1 and n >= 0"),
        (lambda: list(all_elements(0, 1)), "need r >= 1 and n >= 0"),
        (lambda: list(all_elements(2, -1)), "need r >= 1 and n >= 0"),
        (lambda: ColoredPermutation.identity(2, -1), "need r >= 1 and n >= 0"),
        (lambda: ColoredPermutation.scalar(2, -1, 1), "need r >= 1 and n >= 0"),
        (
            lambda: InvolutionClassType(0, 1, 0, (), ()),
            "r must be a positive integer",
        ),
    ],
    ids=[
        "symmetric_elements-n",
        "antisymmetric_elements-n",
        "symmetric_elements-r",
        "all_elements-r",
        "all_elements-n",
        "identity-n",
        "scalar-n",
        "InvolutionClassType-r",
    ],
)
def test_an_invalid_size_raises_a_value_error(build, message):
    # r < 1 or n < 0 is refused by name, not by a leaked message or an
    # empty or one-element answer
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_size_zero_is_the_group_of_the_empty_window():
    empty = ColoredPermutation(2, (), ())
    assert symmetric_elements(2, 0) == [empty]
    assert antisymmetric_elements(2, 0) == [empty]
    assert list(all_elements(2, 0)) == [empty]
    assert ColoredPermutation.identity(2, 0) == empty
    assert ColoredPermutation.scalar(2, 0, 1) == empty
