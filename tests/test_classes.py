"""Conjugacy classes: labels, sizes against brute-force orbits, split
detection, canonical representatives, and the S_n-classification of
absolute involutions by type."""

from math import factorial

import pytest

from gelfand.classes import (
    ENUMERATION_GUARD,
    ConjugacyClass,
    InvolutionClassType,
    class_of,
    class_size,
    enumerate_classes,
    enumerate_involution_classes,
    involution_type,
    normal_element,
    predicted_shapes,
    splits,
)
from gelfand.colored import (
    ColoredPermutation,
    ProjectiveElement,
    all_elements,
    antisymmetric_elements,
    check_group_parameters,
    parse_window,
    subgroup_elements,
    symmetric_elements,
)
from gelfand.errors import ResourceLimitError, UnsupportedGroupError
from gelfand.shapes import ShapeOrbit


def conjugation_orbit(seed, generators):
    """Closure of {seed} under conjugation h g h^-1 by the generators."""
    orbit = {seed}
    frontier = [seed]
    while frontier:
        g = frontier.pop()
        for h in generators:
            image = h * g * h.inverse()
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def test_class_label_from_cycle_data():
    g = parse_window("[3^0,4^1,6^1,2^0,5^2,1^2]", 3)
    label = class_of(g)
    # cycles (1,3,6) of color 0+1+2=0, (2,4) of color 1, (5) of color 2
    assert label.alpha == ((3,), (2,), (1,))
    assert label.half is None


def test_class_sizes_sum_to_group_order():
    for r, p, n in [(2, 1, 3), (2, 2, 4), (3, 1, 3), (3, 3, 2), (4, 2, 2)]:
        labels = enumerate_classes(r, p, n)
        assert sum(class_size(c) for c in labels) == r**n * factorial(n) // p
    assert len(enumerate_classes(1, 1, 3)) == 3


def test_classes_come_in_sort_order():
    # enumerate_classes lists them as enumerate_shapes lists their shapes,
    # the halves of a split class next to each other, with no sort
    for r, p, n in [(2, 2, 4), (4, 1, 4), (4, 2, 4), (6, 2, 4), (6, 3, 2), (3, 1, 5)]:
        labels = list(enumerate_classes(r, p, n))
        assert labels == sorted(labels)


def test_class_sizes_match_brute_force_orbits():
    elements = list(all_elements(2, 3))
    for label in enumerate_classes(2, 1, 3):
        members = [g for g in elements if class_of(g) == label]
        assert len(members) == class_size(label)
        orbit = conjugation_orbit(members[0], elements)
        assert orbit == set(members)


def test_unsupported_gcd_rejected():
    with pytest.raises(UnsupportedGroupError):
        enumerate_classes(3, 3, 3)  # would need GCD(p,n)=3 split theory
    # but GCD 3 with p=3, n=3 is exactly the rejected case; p=1 is fine
    assert enumerate_classes(3, 1, 3)


def test_split_criterion():
    # all cycles even length and even color, GCD(p,n)=2
    assert splits(((2, 2), ()), 2, 4)
    assert splits(((2,), (), (2,), ()), 2, 4)
    assert not splits(((2, 1, 1), ()), 2, 4)  # odd cycles
    assert not splits(((2,), (2,)), 2, 4)  # odd color in play
    assert not splits(((2, 2), ()), 1, 4)  # no quotient to split over
    assert not splits(((3, 3), (), ()), 3, 6)  # GCD 3 unsupported shape


@pytest.mark.parametrize("p", [0, -2, 3])
def test_splits_rejects_a_p_that_does_not_divide_r(p):
    # gcd(0, 2) == gcd(-2, 2) == 2, so these answered True
    with pytest.raises(ValueError, match="p must divide r"):
        splits(((2,), ()), p, 2)


def test_split_classes_listed_twice_with_equal_sizes():
    labels = enumerate_classes(2, 2, 4)
    split_labels = [c for c in labels if c.half is not None]
    assert len(split_labels) == 4  # (2,2),(4) in component 0, doubled...
    by_alpha = {}
    for c in split_labels:
        by_alpha.setdefault(c.alpha, []).append(c)
    for alpha, pair in by_alpha.items():
        assert sorted(c.half for c in pair) == [0, 1]
        assert class_size(pair[0]) == class_size(pair[1])
        plain = ConjugacyClass(2, 1, alpha)
        assert class_size(pair[0]) * 2 == class_size(plain)


def test_normal_element_round_trip():
    for r, p, n in [(2, 1, 4), (2, 2, 4), (3, 1, 3), (4, 2, 4)]:
        for label in enumerate_classes(r, p, n):
            g = normal_element(label)
            assert class_of(g, p) == label


def test_normal_element_golden_windows():
    # one 2-cycle of color 0, one 4-cycle of color 2, a 4-cycle and a
    # 2-cycle of color 4, inside the even-color subgroup of G(6,12)
    alpha = ((2,), (), (4,), (), (4, 2), ())
    zero = normal_element(ConjugacyClass(6, 2, alpha, 0))
    one = normal_element(ConjugacyClass(6, 2, alpha, 1))
    assert zero == ColoredPermutation.from_cycles(
        6,
        12,
        [
            ((1, 0), (2, 0)),
            ((3, 0), (4, 0), (5, 0), (6, 2)),
            ((7, 0), (8, 0), (9, 0), (10, 4)),
            ((11, 0), (12, 4)),
        ],
    )
    assert one == ColoredPermutation.from_cycles(
        6,
        12,
        [
            ((1, 0), (2, 0)),
            ((3, 0), (4, 0), (5, 0), (6, 2)),
            ((7, 0), (8, 0), (9, 0), (10, 4)),
            ((11, 1), (12, 3)),
        ],
    )
    assert zero.signature() == 0
    assert one.signature() == 1


def test_identity_class_and_size():
    label = class_of(ColoredPermutation.identity(3, 4))
    assert label.alpha == ((1, 1, 1, 1), (), ())
    assert class_size(label) == 1


def test_involution_type_display_examples():
    v = parse_window("[6^1,4^0,3^0,2^0,5^1,1^1]", 2)
    coset = ProjectiveElement(v, 2)
    ctype = involution_type(coset)
    assert ctype == InvolutionClassType.parse("sym[1,1;1,1]", 2, 2)

    big = parse_window(
        "[1^0,3^1,2^1,4^1,5^1,7^2,6^2,8^3,10^4,9^4,11^4,12^4,14^5,13^5]", 6
    )
    big_type = involution_type(ProjectiveElement(big, 6))
    displayed = InvolutionClassType.parse(
        "sym[1,2,0,1,2,0;0,1,1,0,1,1]", 6, 6
    )
    assert big_type == displayed
    assert big_type.n == 14


def test_identity_type():
    v = ColoredPermutation.identity(3, 4)
    ctype = involution_type(v)
    assert ctype.kind == "sym"
    assert ctype.fixed == (4, 0, 0)
    assert ctype.pair == (0, 0, 0)


def test_antisymmetric_type():
    v = parse_window("[2^0,1^1,4^0,3^1]", 2)
    ctype = involution_type(ProjectiveElement(v, 2))
    assert ctype.kind == "asym"
    assert ctype.twist == (2,)
    assert str(ctype) == "asym[2]"


def test_type_parse_round_trip():
    for text, r, order in [
        ("sym[1,1;1,1]", 2, 2),
        ("asym[2]", 2, 2),
        ("sym[3,0,1;0,0,0]", 3, 1),
    ]:
        ctype = InvolutionClassType.parse(text, r, order)
        assert InvolutionClassType.parse(str(ctype), r, order) == ctype


@pytest.mark.parametrize(
    "text",
    [
        "sym[a;b]",
        "sym[1,x;0,0]",
        "asym[q]",
        "sym[1;2;3]",
        "sym[1,1]",
        "asym[1;1]",
        "sym[1,1;1,1]]",
        "sym",
        "twin[1;1]",
    ],
)
def test_type_parse_rejects_malformed_text(text):
    # every malformed text, non-integer entries included, gets one message
    with pytest.raises(ValueError) as caught:
        InvolutionClassType.parse(text, 2, 2)
    assert str(caught.value) == "unrecognized type text: %r" % text


def test_types_classify_plain_conjugacy():
    """Equal type must coincide with being conjugate by a plain
    permutation, both directions, exhaustively."""
    elements = [v for v in all_elements(2, 4) if v.is_absolute_involution()]
    perms = [
        ColoredPermutation.from_permutation(2, perm)
        for perm in __import__("itertools").permutations(range(1, 5))
    ]
    for v in elements:
        orbit = {h * v * h.inverse() for h in perms}
        tv = involution_type(v)
        for w in elements:
            assert (involution_type(w) == tv) == (w in orbit)


def test_predicted_shapes_identity_class():
    ctype = involution_type(ColoredPermutation.identity(2, 4))
    shapes = predicted_shapes(ctype)
    assert shapes == frozenset({ShapeOrbit(((4,), ()), 1)})


def test_predicted_shapes_disjoint_across_types():
    classes = enumerate_involution_classes(2, 2, 1, 6)
    seen = {}
    for ctype, _ in classes:
        if ctype.kind != "sym":
            continue
        for orbit in predicted_shapes(ctype):
            assert orbit not in seen, "shape predicted by two types"
            seen[orbit] = ctype


def test_involution_enumeration_partitions_everything():
    classes = enumerate_involution_classes(2, 1, 2, 4)
    members = [v for _, ms in classes for v in ms]
    assert len(members) == len(set(members))
    # symmetric involutions with even color sum, as cosets of the trivial
    # scalar group
    from gelfand.colored import symmetric_elements

    expected = {
        ProjectiveElement(w, 1)
        for w in symmetric_elements(2, 4)
        if w.color_sum() % 2 == 0
    }
    assert set(members) == expected


def test_involution_enumeration_single_letter():
    classes = enumerate_involution_classes(2, 1, 1, 1)
    members = [v.rep.window_str() for _, ms in classes for v in ms]
    assert sorted(members) == ["[1^0]", "[1^1]"]
    assert len(classes) == 2


def test_antisymmetric_cosets_single_class():
    # all antisymmetric cosets of the quotient are one S_n-class
    classes = enumerate_involution_classes(2, 2, 1, 4)
    asym = [
        (ctype, ms) for ctype, ms in classes if ctype.kind == "asym"
    ]
    assert len(asym) == 1
    assert len(asym[0][1]) == 6  # 12 antisymmetric lifts over +-1


def test_enumeration_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_involution_classes(6, 6, 1, 14)


def test_involution_type_refuses_exactly_the_non_absolute_involutions():
    # plain elements and cosets of scalar order 1 and 2: antisymmetric
    # lifts are absolute involutions only in the latter
    for w in all_elements(2, 4):
        for v in (w, ProjectiveElement(w, 1), ProjectiveElement(w, 2)):
            if v.is_absolute_involution():
                assert involution_type(v) == _reference_involution_type(v)
            else:
                with pytest.raises(ValueError, match="not an absolute involution"):
                    involution_type(v)


def _reference_involution_type(v) -> InvolutionClassType:
    """Type of an absolute involution (plain element or scalar coset)."""
    if isinstance(v, ProjectiveElement):
        shift_order = v.q
        lift = v.rep
        if not v.is_absolute_involution():
            raise ValueError("element is not an absolute involution")
    else:
        shift_order = 1
        lift = v
        if not v.is_absolute_involution():
            raise ValueError("element is not an absolute involution")
    kind = lift.symmetry_kind()
    r = lift.r
    if kind == "symmetric":
        fixed = [0] * r
        pair = [0] * r
        for cyc in lift.cycles():
            if len(cyc) == 1:
                fixed[cyc[0][1]] += 1
            else:
                pair[cyc[0][1]] += 1
        return InvolutionClassType(
            r, shift_order, "sym", fixed=tuple(fixed), pair=tuple(pair)
        )
    if kind == "antisymmetric":
        twist = [0] * (r // 2)
        for cyc in lift.cycles():
            twist[cyc[0][1] % (r // 2)] += 1
        return InvolutionClassType(r, shift_order, "asym", twist=tuple(twist))
    raise ValueError("element is neither symmetric nor antisymmetric")


def _reference_enumerate_involution_classes(
    r: int, p: int, q: int, n: int, max_order: int = ENUMERATION_GUARD
) -> tuple[tuple[InvolutionClassType, tuple[ProjectiveElement, ...]], ...]:
    """The enumerator before one least lift per coset: every lift, a set
    dedupe and three sorts.  Verbatim but for calling the matching copy
    of involution_type."""
    check_group_parameters(r, p, q, n)
    if r**n * factorial(n) > max_order:
        raise ResourceLimitError(
            "involution enumeration needs r^n*n! <= %d (got %d)"
            % (max_order, r**n * factorial(n))
        )
    lifts = [w for w in symmetric_elements(r, n) if w.color_sum() % q == 0]
    if p % 2 == 0:
        lifts += [w for w in antisymmetric_elements(r, n) if w.color_sum() % q == 0]
    cosets = sorted(set(ProjectiveElement(w, p) for w in lifts))
    buckets: dict[InvolutionClassType, list[ProjectiveElement]] = {}
    for v in cosets:
        buckets.setdefault(_reference_involution_type(v), []).append(v)
    return tuple(
        (ctype, tuple(sorted(buckets[ctype]))) for ctype in sorted(buckets)
    )


ENUMERATOR_PANEL = [
    (r, p, q, n)
    for r in range(1, 7)
    for n in range(1, 5)
    for p in range(1, r + 1)
    for q in range(1, r + 1)
    if r % p == 0 and r % q == 0 and (r * n) % (p * q) == 0
] + [(2, 2, 1, 6), (3, 1, 1, 5)]


def test_enumerator_panel_covers_quotients_and_antisymmetric_blocks():
    assert any(p > 1 for _, p, _, _ in ENUMERATOR_PANEL)
    assert any(q > 1 for _, _, q, _ in ENUMERATOR_PANEL)
    assert any(
        ctype.kind == "asym" for ctype, _ in enumerate_involution_classes(2, 2, 1, 6)
    )


@pytest.mark.parametrize("r, p, q, n", ENUMERATOR_PANEL)
def test_enumerator_matches_reference(r, p, q, n):
    ours = enumerate_involution_classes(r, p, q, n)
    reference = _reference_enumerate_involution_classes(r, p, q, n)
    assert [ctype for ctype, _ in ours] == [ctype for ctype, _ in reference]
    for (_, members), (_, expected) in zip(ours, reference):
        assert [v._key() for v in members] == [v._key() for v in expected]
