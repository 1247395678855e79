"""Acceptance checks: one test per top-level requirement.

Everything here is exact arithmetic; every comparison is equality on
integers, cyclotomic values, or finite label sets.
"""

import math
import random
from fractions import Fraction

from gelfand.antisymmetric import (
    a_sets,
    halfway_difference,
    part_color,
)
from gelfand.characters import (
    IrreducibleLabel,
    character_table,
    decompose,
    delta1,
    inner_product,
    sym_character,
    wreath_character,
)
from gelfand.classes import (
    InvolutionClassType,
    class_of,
    class_size,
    enumerate_classes,
    involution_type,
    normal_element,
    predicted_shapes,
    splits,
)
from gelfand.colored import (
    ColoredPermutation,
    ProjectiveElement,
    all_elements,
    group_order,
    parse_window,
    subgroup_elements,
)
from gelfand.cyclotomic import Cyclotomic
from gelfand.model import (
    ModelBasis,
    gelfand_check,
    model_character,
    pairing,
    verify_class_decomposition,
)
from gelfand.rs import projective_rs, rs, rs_inverse
from gelfand.shapes import (
    ShapeOrbit,
    count_standard,
    enumerate_shapes,
    multitableau_shape,
    multitableau_shift,
    odd_columns,
    partitions,
)


def test_criterion_01_full_module_is_multiplicity_free():
    groups = [
        (1, 1, 1, 4),
        (3, 1, 1, 3),
        (2, 1, 2, 4),
        (2, 2, 1, 4),
        (2, 2, 1, 6),
        (4, 2, 1, 2),
    ]
    for r, p, q, n in groups:
        rows, passed = gelfand_check(r, p, q, n)
        assert passed, (r, p, q, n)
        assert all(mult == 1 for _, mult in rows)


def test_criterion_02_ninety_element_block_decomposes_into_three():
    v = ProjectiveElement(parse_window("[6^1,4^0,3^0,2^0,5^1,1^1]", 2), 2)
    ctype = involution_type(v)
    assert ctype == InvolutionClassType.parse("sym[1,1;1,1]", 2, 2)
    report = verify_class_decomposition(2, 2, 1, 6, only=ctype)
    (entry,) = report.entries
    assert entry.size == 90
    expected = {
        IrreducibleLabel(ShapeOrbit(((2, 1), (1, 1, 1)), 2), 0),
        IrreducibleLabel(ShapeOrbit(((2, 1), (2, 1)), 2), 0),
        IrreducibleLabel(ShapeOrbit(((1, 1, 1), (1, 1, 1)), 2), 0),
    }
    assert set(entry.predicted) == expected
    assert {label for label, _ in entry.computed} == expected
    assert all(mult == 1 for _, mult in entry.computed)
    assert entry.passed and report.passed


def test_criterion_03_fourteen_letter_type_and_predicted_shapes():
    window = "[1^0,3^1,2^1,4^1,5^1,7^2,6^2,8^3,10^4,9^4,11^4,12^4,14^5,13^5]"
    v = ProjectiveElement(parse_window(window, 6), 6)
    ctype = involution_type(v)
    assert ctype == InvolutionClassType.parse(
        "sym[1,2,0,1,2,0;0,1,1,0,1,1]", 6, 6
    )
    orbits = predicted_shapes(ctype)
    assert len(orbits) == 3
    # component statistics: (box count, odd column count) per position
    stats = ((1, 1), (4, 2), (2, 0), (1, 1), (4, 2), (2, 0))
    for orbit in orbits:
        assert any(
            tuple((sum(comp), odd_columns(comp)) for comp in member) == stats
            for member in orbit.members
        )
    expected = {
        ShapeOrbit(((1,), x, (1, 1), (1,), y, (1, 1)), 6)
        for x, y in [
            ((2, 1, 1), (2, 1, 1)),
            ((3, 1), (3, 1)),
            ((2, 1, 1), (3, 1)),
        ]
    }
    assert orbits == expected


def test_criterion_04_every_block_matches_its_prediction():
    groups = [
        (2, 1, 1, 4),
        (2, 2, 1, 4),
        (3, 1, 1, 3),
        (2, 2, 1, 6),
        (4, 2, 1, 2),
        (3, 3, 1, 2),
    ]
    for r, p, q, n in groups:
        report = verify_class_decomposition(r, p, q, n)
        assert report.passed, (r, p, q, n)
        for entry in report.entries:
            assert entry.computed == tuple(
                (label, 1) for label in entry.predicted
            )


def test_criterion_05_antisymmetric_block_constituents():
    for n in (4, 6):
        basis = ModelBasis(2, 2, 1, n)
        table = character_table(2, 2, 1, n)
        asym = decompose(model_character(basis, "M1"), table)
        expected = sorted(
            IrreducibleLabel(ShapeOrbit((mu, mu), 2), 1)
            for mu in partitions(n // 2)
        )
        assert [label for label, _ in asym] == expected
        assert all(mult == 1 for _, mult in asym)
        assert expected == [label for label, _ in table if label.j == 1]
        sym = decompose(model_character(basis, "M0"), table)
        assert [label for label, _ in sym] == [
            label for label, _ in table if label.j == 0
        ]
        assert all(mult == 1 for _, mult in sym)
        assert len(sym) + len(asym) == len(table)


def test_criterion_06_character_table_integrity():
    for r, p, n in [(2, 2, 4), (2, 2, 6), (4, 2, 2)]:
        table = character_table(r, p, 1, n)
        classes = enumerate_classes(r, p, n)
        assert len(table) == len(classes)
        assert sum(row.degree() ** 2 for _, row in table) == group_order(
            r, p, 1, n
        )
        for i, (_, row_i) in enumerate(table):
            for j in range(i, len(table)):
                value = inner_product(row_i, table[j][1])
                assert value == (1 if i == j else 0)
        for label, row in table:
            if label.orbit.m > 1:
                total = sum(
                    count_standard(member) for member in label.orbit.members
                )
                assert total % p == 0
                assert row.degree() == total // p
        split_halves = {
            label.orbit.canonical[: r // 2]
            for label, _ in table
            if label.orbit.m > 1
        }
        for mu in split_halves:
            for c in classes:
                if c.half is None:
                    assert delta1(mu, c).is_zero()


def test_criterion_07_split_character_values_from_closed_formula():
    table = dict(character_table(2, 2, 1, 4))
    classes = enumerate_classes(2, 2, 4)
    half = Fraction(1, 2)
    for mu in partitions(2):
        for eps in (0, 1):
            row = table[IrreducibleLabel(ShapeOrbit((mu, mu), 2), eps)]
            for c in classes:
                expected = wreath_character((mu, mu), c.alpha) * half
                if c.half is not None:
                    alpha = tuple(part // 2 for part in c.alpha[0])
                    sign = -1 if (eps + c.half) % 2 else 1
                    expected = expected + Cyclotomic.from_rational(
                        sign * 2 ** (len(alpha) - 1) * sym_character(mu, alpha)
                    )
                assert row(c) == expected, (mu, eps, c)


def test_criterion_08_antisymmetric_trace_identity_and_pair_sets():
    # trace difference equals the pairing sum over compatible elements
    basis = ModelBasis(2, 2, 1, 4)
    for label in enumerate_classes(2, 2, 4):
        g = normal_element(label)
        rhs = Cyclotomic.zero(2)
        for bucket in a_sets(g, 1).values():
            for w in bucket:
                rhs = rhs + Cyclotomic.root(2, pairing(g, w))
        assert halfway_difference(basis, label) == rhs, label

    # the paired bucket of two 2-cycles at color order 4: 8 elements
    g = ColoredPermutation.from_cycles(4, 4, [((1, 0), (2, 0)), ((3, 0), (4, 0))])
    buckets = a_sets(g, 1)
    expected = set()
    for k in range(4):
        expected.add(
            ColoredPermutation.from_cycles(
                4, 4, [((1, (k + 2) % 4), (3, k)), ((2, k), (4, (k + 2) % 4))]
            )
        )
        expected.add(
            ColoredPermutation.from_cycles(
                4, 4, [((1, (k + 2) % 4), (4, k)), ((2, k), (3, (k + 2) % 4))]
            )
        )
    assert set(buckets[((0, 1),)]) == expected

    # bucket sum rules over every class representative of G(4,n=4)
    for label in enumerate_classes(4, 1, 4):
        g = normal_element(label)
        cycles = g.cycles()
        buckets = a_sets(g, 1)
        if any(len(cycle) % 2 for cycle in cycles):
            assert buckets == {}
            continue
        sums = {
            partition: sum(
                (Cyclotomic.root(4, pairing(g, w)) for w in ws),
                Cyclotomic.zero(4),
            )
            for partition, ws in buckets.items()
        }
        if any(
            ColoredPermutation.cycle_color(cycle) % 2 for cycle in cycles
        ):
            assert all(total.is_zero() for total in sums.values())
            continue
        for partition, ws in buckets.items():
            if all(part_color(g, part) % 4 == 0 for part in partition):
                target = (-1) ** g.signature() * len(ws)
            else:
                target = 0
            assert sums[partition] == target, (label, partition)


def test_criterion_09_tableau_mass_and_insertion_bijections():
    for r, n in [(2, 3), (2, 4), (3, 3)]:
        total = sum(
            count_standard(shape) ** 2 for shape in enumerate_shapes(r, n)
        )
        assert total == r**n * math.factorial(n)

    for g in all_elements(2, 3):
        p_tab, q_tab = rs(g)
        assert rs_inverse(p_tab, q_tab, 2) == g

    rng = random.Random(90521)
    for _ in range(500):
        perm = rng.sample(range(1, 6), 5)
        colors = [rng.randrange(4) for _ in range(5)]
        g = ColoredPermutation(4, perm, colors)
        p_tab, q_tab = rs(g)
        assert rs_inverse(p_tab, q_tab, 4) == g

    # fibers of the coset correspondence over separate tableau orbits
    cosets = {ProjectiveElement(w, 2) for w in all_elements(2, 4)}
    assert len(cosets) == group_order(2, 1, 2, 4) == 192
    fibers = {}
    for coset in cosets:
        p_tab, q_tab = projective_rs(coset)[0]
        key = (
            frozenset(multitableau_shift(p_tab, k) for k in range(2)),
            frozenset(multitableau_shift(q_tab, k) for k in range(2)),
        )
        fibers.setdefault(key, set()).add(coset)
    counted = 0
    for (p_orbit, _), members in fibers.items():
        shape = multitableau_shape(next(iter(p_orbit)))
        assert len(members) == ShapeOrbit(shape, 2).m
        counted += len(members)
    assert counted == 192


def _conjugation_orbits(r, n):
    """True conjugation orbits of the index-2 subgroup, by generator closure."""
    identity = ColoredPermutation.identity(r, n)
    gens = []
    for i in range(1, n):
        window = list(range(1, n + 1))
        window[i - 1], window[i] = window[i], window[i - 1]
        gens.append(ColoredPermutation(r, window, [0] * n))
    colors = [0] * n
    colors[0], colors[1] = 1, r - 1
    gens.append(ColoredPermutation(r, range(1, n + 1), colors))
    if r > 2:
        colors = [0] * n
        colors[0] = 2
        gens.append(ColoredPermutation(r, range(1, n + 1), colors))

    elements = set(subgroup_elements(r, 2, n))
    reached = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in gens:
                y = x * gen
                if y not in reached:
                    reached.add(y)
                    nxt.append(y)
        frontier = nxt
    assert reached == elements

    conjugators = gens + [gen.inverse() for gen in gens]
    inverses = [h.inverse() for h in conjugators]
    orbits = []
    seen = set()
    for e in sorted(elements):
        if e in seen:
            continue
        orbit = {e}
        frontier = [e]
        while frontier:
            nxt = []
            for x in frontier:
                for h, h_inv in zip(conjugators, inverses):
                    y = h * x * h_inv
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        seen |= orbit
        orbits.append(orbit)
    return elements, orbits


def test_criterion_10_split_class_orbit_structure():
    for r, n in [(2, 4), (4, 4)]:
        elements, orbits = _conjugation_orbits(r, n)
        by_label = {}
        for e in elements:
            by_label.setdefault(class_of(e, 2), set()).add(e)
        assert len(orbits) == len(by_label)
        for orbit in orbits:
            labels = {class_of(x, 2) for x in orbit}
            assert len(labels) == 1
            (label,) = labels
            assert orbit == by_label[label]
            assert len(orbit) == class_size(label)
        by_alpha = {}
        for label in by_label:
            by_alpha.setdefault(label.alpha, []).append(label)
        for alpha, labels in by_alpha.items():
            if splits(alpha, 2, n):
                assert sorted(label.half for label in labels) == [0, 1]
                first, second = (by_label[label] for label in sorted(labels))
                assert len(first) == len(second)
                for label in labels:
                    members = by_label[label]
                    assert all(x.signature() == label.half for x in members)
                    assert normal_element(label) in members
            else:
                assert [label.half for label in labels] == [None]
        assert {a for a in by_alpha if splits(a, 2, n)} == {
            a for a, labels in by_alpha.items() if len(labels) == 2
        }
