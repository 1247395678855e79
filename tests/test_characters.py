"""Character machinery: border-strip recursion against known symmetric
group values, wreath characters and the three symmetries the table reads
them off by, the difference character on split classes, table
orthogonality, inner products, and exact decomposition."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gelfand.characters
from gelfand.characters import (
    ClassFunction,
    IrreducibleLabel,
    _cycles,
    _is_prime,
    _reassembles,
    _residue_field,
    _wreath_histograms,
    character_table,
    decompose,
    delta1,
    inner_product,
    irreducible_count,
    label_degree,
    rows_independent,
    sym_character,
    wreath_character,
)
from gelfand.classes import (
    ConjugacyClass,
    class_size,
    class_sizes,
    enumerate_classes,
    label_color,
)
from gelfand.cyclotomic import Cyclotomic, zeta
from gelfand.errors import InconsistencyError, UnsupportedGroupError
from gelfand.model import _scope_characters, _type_histograms
from gelfand.shapes import (
    Shape,
    count_standard,
    enumerate_orbits,
    enumerate_shapes,
    partitions,
    shape_color,
    shape_shift,
)


def test_sym_trivial_and_sign_rows():
    for m in range(1, 7):
        for alpha in partitions(m):
            assert sym_character((m,), alpha) == 1
            # sign of a permutation with these cycle lengths
            parity = (-1) ** (m - len(alpha))
            assert sym_character((1,) * m, alpha) == parity


def test_sym_s4_table():
    # rows (2,2) and (3,1) of the S_4 table, classes in the listed order
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert [sym_character((2, 2), a) for a in classes] == [2, 0, 2, -1, 0]
    assert [sym_character((3, 1), a) for a in classes] == [3, 1, -1, 0, -1]
    assert [sym_character((2, 1, 1), a) for a in classes] == [3, -1, -1, 0, 1]


@pytest.mark.parametrize(
    "lam, alpha, message",
    [
        ((1, 2), (3,), "weakly decreasing"),
        ((0, 3), (3,), "weakly decreasing"),
        ((3, 0), (3,), "positive"),
        ((3,), (0, 3), "positive"),
        ((3,), (3, 0), "positive"),
    ],
)
def test_sym_character_rejects_what_is_not_a_partition(lam, alpha, message):
    with pytest.raises(ValueError, match=message):
        sym_character(lam, alpha)


def test_sym_character_takes_cycles_in_any_order():
    for lam in partitions(5):
        for alpha in partitions(5):
            assert sym_character(lam, alpha[::-1]) == sym_character(lam, alpha)


def test_sym_first_column_is_dimension():
    for m in range(1, 7):
        for lam in partitions(m):
            assert sym_character(lam, (1,) * m) == count_standard((lam,))


def test_sym_orthogonality():
    m = 5
    order = factorial(m)
    sizes = {
        alpha: class_size(ConjugacyClass(1, 1, (alpha,)))
        for alpha in partitions(m)
    }
    lams = list(partitions(m))
    for lam in lams:
        for mu in lams:
            dot = sum(
                sizes[a] * sym_character(lam, a) * sym_character(mu, a)
                for a in partitions(m)
            )
            assert dot == (order if lam == mu else 0)


def test_wreath_single_color_is_sym():
    for lam in partitions(4):
        for alpha in partitions(4):
            value = wreath_character((lam,), (alpha,))
            assert value == Cyclotomic.from_rational(sym_character(lam, alpha))


def test_wreath_trivial_row():
    one = Cyclotomic.one(2)
    for label in enumerate_classes(2, 1, 3):
        assert wreath_character(((3,), ()), label) == one


def test_wreath_linear_character():
    # component permutation by one step: value zeta^(total color) on a class
    for label in enumerate_classes(3, 1, 2):
        total = sum(i * len(label.alpha[i]) for i in range(3))
        expected = Cyclotomic.root(3, total)
        assert wreath_character(((), (2,), ()), label) == expected


def test_wreath_degree_is_standard_count():
    lam = ((2, 1), (1,))
    identity = ConjugacyClass(2, 1, ((1, 1, 1, 1), ()))
    assert wreath_character(lam, identity) == Cyclotomic.from_rational(
        count_standard(lam)
    )


# The induced-character sum that wreath_character replaced, kept verbatim
# as the reference: a sum over distributions of the cycles among the color
# blocks, weighted by multinomial coefficients.
def _cycle_items(alpha: Shape) -> list[tuple[int, int, int]]:
    """Distinct (length, color, multiplicity) triples of a class label."""
    items = []
    for color, comp in enumerate(alpha):
        mult: dict[int, int] = {}
        for part in comp:
            mult[part] = mult.get(part, 0) + 1
        for length, m in sorted(mult.items(), reverse=True):
            items.append((length, color, m))
    return items


@lru_cache(maxsize=None)
def _wreath_character_raw(lam: Shape, alpha: Shape) -> tuple:
    """Exponent -> integer weight table for the induced-character sum.

    The sum runs over ordered set partitions of [n] into color blocks of
    sizes |lam^(i)| that are unions of cycles; grouping by which cycles land
    in which block turns it into a sum over distributions of the cycle
    multiset, weighted by multinomial coefficients.  Each distribution
    contributes zeta_r^(sum_i i*colors_i) times the product of
    symmetric-group characters on the per-block cycle lengths.
    """
    r = len(lam)
    capacities = [sum(comp) for comp in lam]
    items = _cycle_items(alpha)
    weights: dict[int, int] = {}
    lengths: list[list[int]] = [[] for _ in range(r)]
    color_sums = [0] * r

    def push(i, length, color, count):
        capacities[i] -= count * length
        lengths[i].extend([length] * count)
        color_sums[i] += count * color

    def pop(i, length, color, count):
        capacities[i] += count * length
        if count:
            del lengths[i][-count:]
        color_sums[i] -= count * color

    def terminal(coefficient):
        factor = coefficient
        for i in range(r):
            factor *= sym_character(
                tuple(lam[i]), tuple(sorted(lengths[i], reverse=True))
            )
            if factor == 0:
                return
        exponent = sum(i * color_sums[i] for i in range(r)) % r
        weights[exponent] = weights.get(exponent, 0) + factor

    def assign(idx, coefficient):
        if idx == len(items):
            terminal(coefficient)
            return
        length, color, mult = items[idx]

        def distribute(i, left, coeff):
            if i == r - 1:
                if left * length > capacities[i]:
                    return
                push(i, length, color, left)
                assign(idx + 1, coeff)
                pop(i, length, color, left)
                return
            for take in range(min(left, capacities[i] // length) + 1):
                push(i, length, color, take)
                distribute(i + 1, left - take, coeff * comb(left, take))
                pop(i, length, color, take)

        distribute(0, mult, coefficient)

    assign(0, 1)
    return tuple(sorted(weights.items()))


@pytest.mark.parametrize("r,n", [(1, 6), (2, 5), (3, 4), (4, 3), (6, 3)])
def test_wreath_matches_induced_sum(r, n):
    shapes = enumerate_shapes(r, n)
    for lam in shapes:
        for alpha in shapes:
            expected = Cyclotomic.zero(r)
            for exponent, weight in _wreath_character_raw(lam, alpha):
                expected = expected + Cyclotomic.root(r, exponent) * weight
            value = wreath_character(lam, alpha)
            assert value == expected, (lam, alpha)
            if r == 1:
                assert value == Cyclotomic.from_rational(
                    sym_character(lam[0], alpha[0])
                )


@settings(max_examples=40, deadline=None)
@given(group=st.sampled_from([(2, 5), (3, 4), (4, 3), (6, 3)]), data=st.data())
def test_shared_memo_is_order_free(group, data):
    r, n = group
    shapes = enumerate_shapes(r, n)
    size = data.draw(st.integers(1, len(shapes)))
    subset = data.draw(st.permutations(shapes))[:size]
    alpha = data.draw(st.sampled_from(shapes))
    cycles = _cycles(alpha)
    together = _wreath_histograms(subset, cycles)
    assert together == _wreath_histograms(subset, cycles)
    for lam, histogram in zip(subset, together):
        assert histogram == _wreath_histograms([lam], cycles)[0]
        expected = [0] * r
        for exponent, weight in _wreath_character_raw(lam, alpha):
            expected[exponent] += weight
        assert histogram == tuple(expected), (lam, alpha)


def _raw_histogram(lam: Shape, alpha: Shape) -> tuple:
    histogram = [0] * len(lam)
    for exponent, weight in _wreath_character_raw(lam, alpha):
        histogram[exponent] += weight
    return tuple(histogram)


def _color_scaled(alpha: Shape, u: int) -> Shape:
    """Every cycle color of alpha times u: component u*i is alpha's i."""
    r = len(alpha)
    components = [()] * r
    for i, comp in enumerate(alpha):
        components[u * i % r] = comp
    return tuple(components)


@pytest.mark.parametrize("r", range(1, 7))
def test_rotation_and_galois_identities(r):
    """The two symmetries character_table reads histograms off, on the
    induced-character sum: shifting lam up by t multiplies chi^lam(alpha)
    by zeta^(t*c), c the total color of alpha, and scaling every color of
    alpha by a unit u moves exponent e to u*e.  Every lam and alpha with
    n <= 3, every shift and every unit."""
    units = [u for u in range(1, r + 1) if gcd(u, r) == 1]
    for n in range(1, 4):
        shapes = enumerate_shapes(r, n)
        for alpha in shapes:
            color = label_color(alpha)
            for lam in shapes:
                base = _raw_histogram(lam, alpha)
                for t in range(r):
                    rotated = tuple(base[(e - t * color) % r] for e in range(r))
                    assert _raw_histogram(shape_shift(lam, t), alpha) == rotated
                for u in units:
                    scaled = [0] * r
                    for e, weight in enumerate(base):
                        scaled[u * e % r] = weight
                    image = _color_scaled(alpha, u)
                    assert _raw_histogram(lam, image) == tuple(scaled), (lam, alpha, u)


def _central(alpha: Shape, t: int) -> Shape:
    """The class shape of zeta^t * g for g of class shape alpha: each cycle
    (k, c) becomes (k, c + k*t)."""
    r = len(alpha)
    components = [[] for _ in range(r)]
    for color, comp in enumerate(alpha):
        for k in comp:
            components[(color + k * t) % r].append(k)
    return tuple(tuple(sorted(comp, reverse=True)) for comp in components)


@settings(max_examples=150, deadline=None)
@given(r=st.integers(1, 6), n=st.integers(1, 5), data=st.data())
def test_central_scalar_multiplies_by_the_central_character(r, n, data):
    """The third symmetry character_table reads histograms off: the central
    scalar zeta^t acts on the representation lam as zeta^(t*c(lam)),
    c(lam) = sum of i*|lam^i|, so chi^lam(zeta^t g) = zeta^(t*c(lam))
    chi^lam(g)."""
    shapes = enumerate_shapes(r, n)
    lam = data.draw(st.sampled_from(shapes), label="lam")
    alpha = data.draw(st.sampled_from(shapes), label="alpha")
    t = data.draw(st.integers(0, r - 1), label="t")
    expected = Cyclotomic.root(r, t * shape_color(lam)) * wreath_character(lam, alpha)
    assert wreath_character(lam, _central(alpha, t)) == expected


# The per-cell table builder that character_table replaced, kept verbatim
# as the reference.
def _reference_character_table(r, p, q, n):
    classes = enumerate_classes(r, p, n)
    rows = []
    for orbit in enumerate_orbits(r, n, p, q):
        lam = orbit.canonical
        restricted = {c: wreath_character(lam, c.alpha) for c in classes}
        if orbit.m == 1:
            rows.append(
                (
                    IrreducibleLabel(orbit, 0),
                    ClassFunction(r, p, n, [restricted[c] for c in classes]),
                )
            )
            continue
        mu = lam[: r // 2]
        difference = {c: delta1(mu, c) for c in classes}
        half = Fraction(1, 2)
        for j in (0, 1):
            sign = (-1) ** j
            values = {
                c: (restricted[c] + difference[c] * sign) * half for c in classes
            }
            rows.append(
                (
                    IrreducibleLabel(orbit, j),
                    ClassFunction(r, p, n, [values[c] for c in classes]),
                )
            )
    return rows


# every supported group with r <= 6 and n <= 4, r = 1, quotients and split
# groups included, and beyond those a larger split group, a larger r and
# the chartable panel group 4 1 1 5 (6 2 1 4 is among the first)
TABLE_GROUPS = [
    (r, p, q, n)
    for r in range(1, 7)
    for n in range(1, 5)
    for p in range(1, r + 1)
    for q in range(1, r + 1)
    if r % p == 0 and r % q == 0 and (r * n) % (p * q) == 0 and gcd(p, n) <= 2
] + [(2, 2, 1, 6), (8, 2, 1, 2), (4, 1, 1, 5)]


@pytest.mark.parametrize(
    "group", TABLE_GROUPS, ids=lambda group: "-".join(map(str, group))
)
def test_table_matches_per_cell_reference(group):
    expected = _reference_character_table(*group)
    first = character_table(*group)
    second = character_table(*group)
    for table in (first, second):
        assert [label for label, _ in table] == [label for label, _ in expected]
        for (_, row), (_, reference) in zip(table, expected):
            assert list(row.values) == list(reference.values)
            assert row == reference
    _, p, q, n = group
    has_split_rows = any(label.orbit.m == 2 for label, _ in expected)
    assert has_split_rows <= (gcd(p, n) == 2)
    if q == 1:  # a quotient may keep no split shape, its color not divisible by q
        assert has_split_rows == (gcd(p, n) == 2)


def _walked(monkeypatch, group) -> list[int]:
    """How many shapes character_table hands to each border-strip walk."""
    sizes = []
    walk = gelfand.characters._wreath_histograms

    def spy(lams, cycles):
        sizes.append(len(lams))
        return walk(lams, cycles)

    with monkeypatch.context() as patch:
        patch.setattr(gelfand.characters, "_wreath_histograms", spy)
        character_table(*group)
    return sizes


def _walked_per_column(r, p, q, n) -> int:
    """The shapes walked by a table that walks every row at every class
    shape, and every split row's halved shape at every split class shape."""
    classes = enumerate_classes(r, p, n)
    orbits = enumerate_orbits(r, n, p, q)
    shapes = len({c.alpha for c in classes})
    split_shapes = len({c.alpha for c in classes if c.half is not None})
    return shapes * len(orbits) + split_shapes * sum(o.m > 1 for o in orbits)


def test_table_walks_one_row_per_rotation_class_and_column_per_galois_orbit(
    monkeypatch,
):
    # 252 rows in 63 rotation classes, 252 class shapes in 44 orbits under
    # the affine color maps (151 under color scaling alone)
    assert _walked(monkeypatch, (4, 1, 1, 5)) == [63] * 44
    assert _walked_per_column(4, 1, 1, 5) == 63_504
    assert sum(_walked(monkeypatch, (5, 1, 1, 5))) == 3_570
    assert _walked_per_column(5, 1, 1, 5) == 256_036
    # no shift of components or unit color scaling to use
    for group in [(1, 1, 1, 6), (2, 2, 1, 6)]:
        assert sum(_walked(monkeypatch, group)) <= _walked_per_column(*group)


def test_class_shapes_are_closed_under_color_scaling():
    # character_table takes the image of a class shape under a unit of Z/r
    # for a class shape of the same group, and would stop with a KeyError
    # on one that is not; every supported G(r,p,n) with r <= 8 and n <= 5
    for r, p, n in product(range(1, 9), range(1, 9), range(1, 6)):
        if r % p or gcd(p, n) > 2:
            continue
        alphas = {c.alpha for c in enumerate_classes(r, p, n)}
        for v in (v for v in range(1, r + 1) if gcd(v, r) == 1):
            for alpha in alphas:
                image = tuple(alpha[v * j % r] for j in range(r))
                assert image in alphas, (r, p, n, v, alpha)


def test_delta1_values_on_split_classes():
    two_two = ConjugacyClass(2, 2, ((2, 2), ()), 0)
    four_a = ConjugacyClass(2, 2, ((4,), ()), 0)
    four_b = ConjugacyClass(2, 2, ((4,), ()), 1)
    assert delta1(((2,),), two_two) == Cyclotomic.from_rational(4)
    assert delta1(((1, 1),), two_two) == Cyclotomic.from_rational(4)
    assert delta1(((2,),), four_a) == Cyclotomic.from_rational(2)
    assert delta1(((2,),), four_b) == Cyclotomic.from_rational(-2)
    assert delta1(((1, 1),), four_a) == Cyclotomic.from_rational(-2)


def test_delta1_vanishes_off_split_classes():
    plain = ConjugacyClass(2, 2, ((2, 1, 1), ()))
    assert delta1(((2,),), plain).is_zero()


def test_delta1_rejects_odd_color_count():
    with pytest.raises(ValueError):
        delta1(((2,),), ConjugacyClass(3, 1, ((4,), (), ())))


def test_class_function_arithmetic():
    classes = enumerate_classes(2, 1, 2)
    f = ClassFunction(2, 1, 2, [Cyclotomic.one(2) for _ in classes])
    g = f + f
    assert g(classes[0]) == Cyclotomic.from_rational(2)
    assert (g - f) == f
    assert f.scale(Fraction(1, 2))(classes[0]) == Cyclotomic.from_rational(
        Fraction(1, 2)
    )
    assert f.degree() == Cyclotomic.one(2)


def test_class_function_group_mismatch():
    f = ClassFunction(
        2, 1, 2, [Cyclotomic.one(2) for _ in enumerate_classes(2, 1, 2)]
    )
    h = ClassFunction(
        2, 1, 3, [Cyclotomic.one(2) for _ in enumerate_classes(2, 1, 3)]
    )
    with pytest.raises(ValueError):
        f + h


def test_class_function_takes_one_value_per_class_in_order():
    classes = enumerate_classes(2, 1, 2)
    with pytest.raises(TypeError):
        ClassFunction(2, 1, 2, {c: Cyclotomic.one(2) for c in classes})
    for count in (len(classes) - 1, len(classes) + 1):
        with pytest.raises(ValueError):
            ClassFunction(2, 1, 2, [Cyclotomic.one(2)] * count)


def test_table_row_values_follow_the_class_order():
    table = character_table(4, 2, 1, 4)
    row = next(row for label, row in table if label.orbit.m > 1)
    assert isinstance(row.values, tuple)
    for k, label in enumerate(enumerate_classes(4, 2, 4)):
        assert row(label) is row.values[k]


def test_degree_reads_the_identity_class_listed_last():
    for r in range(1, 7):
        for p in (d for d in range(1, r + 1) if r % d == 0):
            for n in (m for m in range(1, 6) if gcd(p, m) <= 2):
                identity = ConjugacyClass(r, p, ((1,) * n,) + ((),) * (r - 1))
                assert enumerate_classes(r, p, n)[-1] == identity
    for _, row in character_table(4, 2, 1, 4):
        assert row.degree() is row(enumerate_classes(4, 2, 4)[-1])


def test_table_orthonormal_rows():
    for r, p, q, n in [(2, 1, 1, 3), (3, 1, 1, 2), (2, 2, 1, 4), (4, 2, 1, 2)]:
        table = character_table(r, p, q, n)
        for i, (_, row) in enumerate(table):
            for j, (_, other) in enumerate(table):
                product = inner_product(row, other)
                if i == j:
                    assert product == Cyclotomic.one(r)
                else:
                    assert product.is_zero()


# inner_product as it was before it became one integer convolution, kept
# verbatim as the reference.
def _reference_inner_product(f: ClassFunction, g: ClassFunction) -> Cyclotomic:
    f._same_group(g)
    order = f.r**f.n * factorial(f.n) // f.p
    total = Cyclotomic.zero(f.r)
    for value, other, size in zip(f.values, g.values, class_sizes(f.r, f.p, f.n)):
        total = total + value * other.conjugate() * size
    return total / order


def _identical(a: Cyclotomic, b: Cyclotomic) -> bool:
    return (a.order, a.nums, a.den) == (b.order, b.nums, b.den)


def test_inner_product_agrees_with_reference_on_the_projection_fallback():
    # every block of 6 1 2 3 projected on every row, as decompose does
    # when the shortcut is not taken
    r, p, q, n = 6, 1, 2, 3
    histograms = _type_histograms(r, p, q, n)
    blocks = _scope_characters(r, p, n, histograms, [(t,) for t in histograms])
    assert len(blocks) == 46
    table = character_table(r, p, q, n)
    for f in blocks:
        for _, row in table:
            assert _identical(inner_product(f, row), _reference_inner_product(f, row))


@pytest.mark.parametrize(
    "group", [(1, 1, 1, 4), (2, 2, 1, 4), (3, 1, 1, 3), (4, 2, 1, 2), (6, 2, 1, 2)],
    ids=lambda group: "-".join(map(str, group)),
)
def test_inner_product_agrees_with_reference_on_random_class_functions(group):
    r, p, _, n = group
    rng = random.Random(sum(group))
    classes = enumerate_classes(r, p, n)

    def value() -> Cyclotomic:
        order = rng.choice([1, r, 2 * r, 3 * r])
        if rng.random() < 0.2:
            return Cyclotomic.zero(order)
        return Cyclotomic(
            order,
            [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 8])) for _ in range(order)],
        )

    for _ in range(25):
        f = ClassFunction(r, p, n, [value() for _ in classes])
        g = ClassFunction(r, p, n, [value() for _ in classes])
        assert _identical(inner_product(f, g), _reference_inner_product(f, g))
        assert _identical(inner_product(f, f), _reference_inner_product(f, f))


def test_table_degrees():
    table = character_table(2, 2, 1, 4)
    degrees = sorted(label_degree(label) for label, _ in table)
    assert degrees == sorted(
        row.degree().integer_value() for _, row in table
    )
    assert sum(d * d for d in degrees) == 2**4 * factorial(4) // 2


def test_split_rows_differ_only_on_split_classes():
    table = character_table(2, 2, 1, 4)
    halves = {}
    for label, row in table:
        if label.orbit.m == 2:
            halves.setdefault(label.orbit, {})[label.j] = row
    assert len(halves) == 2
    for orbit, pair in halves.items():
        for c in enumerate_classes(2, 2, 4):
            same = (pair[0](c) - pair[1](c)).is_zero()
            assert same == (c.half is None)


def test_irreducible_count_matches_tables():
    assert irreducible_count(2, 1, 1, 3) == len(character_table(2, 1, 1, 3))
    assert irreducible_count(2, 2, 1, 4) == len(character_table(2, 2, 1, 4))
    assert irreducible_count(2, 2, 1, 4) == len(enumerate_classes(2, 2, 4))
    assert irreducible_count(1, 1, 1, 5) == 7
    with pytest.raises(UnsupportedGroupError):
        irreducible_count(3, 3, 1, 3)


def test_decompose_recovers_multiplicities():
    table = character_table(2, 1, 1, 3)
    f = table[0][1] + table[2][1] + table[2][1]
    result = decompose(f, table)
    as_dict = dict(result)
    assert as_dict[table[0][0]] == 1
    assert as_dict[table[2][0]] == 2
    assert len(result) == 2
    labels = [label for label, _ in result]
    assert labels == sorted(labels, key=lambda l: l.sort_key())


def test_decompose_rejects_non_character():
    table = character_table(2, 1, 1, 3)
    f = table[0][1].scale(Fraction(1, 2))
    with pytest.raises(InconsistencyError):
        decompose(f, table)


def test_irreducible_label_str_and_order():
    table = character_table(2, 2, 1, 4)
    names = [str(label) for label, _ in table]
    assert len(names) == len(set(names))
    split_names = [n for n in names if n.endswith("^0") or n.endswith("^1")]
    assert len(split_names) == 4
    keys = [label.sort_key() for label, _ in table]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "group",
    [(1, 1, 1, 4), (2, 2, 1, 4), (3, 1, 1, 3), (4, 2, 1, 2), (4, 1, 2, 4), (6, 2, 1, 2)],
    ids=lambda group: "-".join(map(str, group)),
)
def test_rows_independent_certifies_tables(group):
    assert rows_independent(character_table(*group))


def test_rows_independent_rejects_dependent_rows():
    table = character_table(2, 2, 1, 4)
    duplicated = table + [table[3]]
    assert not rows_independent(duplicated)
    summed = list(table)
    summed[5] = (summed[5][0], table[1][1] + table[2][1])
    assert not rows_independent(summed)


def test_rows_independent_certifies_the_empty_table():
    assert rows_independent([])


def test_rows_independent_rejects_denominator_divisible_by_prime():
    table = character_table(4, 2, 1, 2)
    ell, omega = _residue_field(4)
    assert pow(omega, 2, ell) == ell - 1
    scaled = list(table)
    scaled[0] = (scaled[0][0], table[0][1].scale(Fraction(1, ell)))
    assert not rows_independent(scaled)


def _reference_rows_independent(table) -> bool:
    """The certificate as it was, one Fraction reduction per cell and
    eliminated on lists: the reference for the packed one."""
    first = table[0][1]
    r = first.r
    ell, omega = _residue_field(r)
    powers = [pow(omega, k, ell) for k in range(r)]
    classes = enumerate_classes(first.r, first.p, first.n)
    pivots = []
    for _, row in table:
        reduced = []
        for label in classes:
            total = 0
            for c, w in zip(row(label).to_order(r).coeffs, powers):
                if c:
                    if c.denominator % ell == 0:
                        return False
                    total += c.numerator * pow(c.denominator, -1, ell) * w
            reduced.append(total % ell)
        for col, pivot in pivots:
            c = reduced[col]
            if c:
                reduced = [(x - c * y) % ell for x, y in zip(reduced, pivot)]
        col = next((j for j, x in enumerate(reduced) if x), None)
        if col is None:
            return False
        inverse = pow(reduced[col], -1, ell)
        pivots.append((col, [x * inverse % ell for x in reduced]))
    return True


def _certified_alike(table) -> bool:
    verdict = rows_independent(table)
    assert verdict == _reference_rows_independent(table)
    return verdict


SMALL_GROUPS = [
    (r, p, q, n)
    for r in range(1, 7)
    for n in range(1, 4)
    for p in range(1, r + 1)
    for q in range(1, r + 1)
    if r % p == 0 and r % q == 0 and (r * n) % (p * q) == 0 and gcd(p, n) <= 2
]
# every supported group with r <= 6 and n <= 3, and the acting groups of
# the decompose workload
PACKING_GROUPS = SMALL_GROUPS + [(2, 2, 1, 6), (4, 2, 1, 4), (6, 2, 1, 3)]


@pytest.mark.parametrize(
    "group", PACKING_GROUPS, ids=lambda group: "-".join(map(str, group))
)
def test_packed_certificate_agrees_with_reference(group):
    table = character_table(*group)
    assert _certified_alike(table)


def _perturbed(table):
    """Dependent variants of a table with at least three rows: a
    duplicated row, a row replaced by the sum of two others or by a
    root-of-unity combination of two others, and the last row scaled by
    1/ell."""
    r = table[0][1].r
    ell, _ = _residue_field(r)
    last = len(table) - 1
    i, j, k = 0, last // 2, last
    yield table + [table[j]]
    summed = list(table)
    summed[k] = (table[k][0], table[i][1] + table[j][1])
    yield summed
    twisted = list(table)
    twisted[k] = (table[k][0], table[i][1].scale(zeta(r)) + table[j][1])
    yield twisted
    scaled = list(table)
    scaled[last] = (table[last][0], table[last][1].scale(Fraction(1, ell)))
    yield scaled


@pytest.mark.parametrize(
    "group",
    [(2, 2, 1, 4), (3, 1, 1, 3), (4, 2, 1, 2), (4, 1, 2, 4), (6, 2, 1, 3)],
    ids=lambda group: "-".join(map(str, group)),
)
def test_packed_certificate_rejects_perturbed_tables(group):
    for table in _perturbed(character_table(*group)):
        assert not _certified_alike(table)


def test_packed_certificate_on_one_and_few_fields():
    for group in [(1, 1, 1, 1), (4, 1, 1, 1)]:
        table = character_table(*group)
        assert len(table) == len(enumerate_classes(group[0], group[1], group[3]))
        assert _certified_alike(table)
        assert not _certified_alike(table + [table[0]])


def _wide_residue_field(r: int) -> tuple[int, int]:
    """A prime ell = 1 (mod r) above 2^32, so ell^2 exceeds 64 bits, and
    a primitive r-th root of unity mod ell."""
    ell = (2**32 // r + 1) * r + 1
    while ell % 2 == 0 or not _is_prime(ell):
        ell += r
    primes = [s for s in range(2, r + 1) if r % s == 0 and _is_prime(s)]
    omega = next(
        w
        for w in (pow(a, (ell - 1) // r, ell) for a in range(2, ell))
        if all(pow(w, r // s, ell) != 1 for s in primes)
    )
    return ell, omega


def test_packed_field_width_follows_the_prime(monkeypatch):
    wide = {r: _wide_residue_field(r) for r in (2, 4)}
    assert all(ell * ell >= 2**64 and ell % r == 1 for r, (ell, _) in wide.items())
    monkeypatch.setattr(gelfand.characters, "_residue_field", wide.__getitem__)
    monkeypatch.setitem(globals(), "_residue_field", wide.__getitem__)
    small = character_table(2, 2, 1, 4)
    assert _certified_alike(small)
    assert _certified_alike(character_table(4, 2, 1, 2))
    assert not _certified_alike(small + [small[2]])


def test_decompose_shortcut_agrees_with_projection():
    table = character_table(2, 2, 1, 4)
    labels = [table[0][0], table[4][0], table[7][0]]
    f = table[0][1] + table[4][1] + table[7][1]
    expected = sorted(((label, 1) for label in labels), key=lambda pair: pair[0].sort_key())
    assert decompose(f, table, labels) == decompose(f, table) == expected
    # a wrong guess falls back to projection and still finds all three
    assert decompose(f, table, labels[:2]) == expected
    assert decompose(f + table[7][1], table, labels) == decompose(f + table[7][1], table)


def _is_sum_of_rows(f: ClassFunction, rows) -> bool:
    """Whether f equals the sum of the given rows, class by class, in exact
    arithmetic."""
    for row in rows:
        f._same_group(row)
    for label, value in zip(enumerate_classes(f.r, f.p, f.n), f.values):
        for row in rows:
            value = value - row(label)
        if not value.is_zero():
            return False
    return True


def _agree(f, terms) -> bool:
    """The reassembly check, asserted equal to the per-value reference
    given each row repeated by its multiplicity."""
    repeated = [row for row, mult in terms for _ in range(mult)]
    answer = _reassembles(f, terms)
    assert answer == _is_sum_of_rows(f, repeated)
    return answer


def _weighted_sum(terms) -> ClassFunction:
    total = terms[0][0].scale(terms[0][1])
    for row, mult in terms[1:]:
        total = total + row.scale(mult)
    return total


@pytest.mark.parametrize(
    "group", [(2, 2, 1, 4), (4, 1, 2, 4), (6, 2, 1, 2)],
    ids=lambda group: "-".join(map(str, group)),
)
def test_reassembly_agrees_with_per_value_reference(group):
    r = group[0]
    rows = [row for _, row in character_table(*group)]
    rng = random.Random(r)
    for _ in range(4):
        chosen = rng.sample(rows, rng.randint(2, min(5, len(rows))))
        terms = [(row, rng.randint(1, 3)) for row in chosen]
        f = _weighted_sum(terms)
        assert _agree(f, terms)
        assert not _agree(f, terms[1:])
        doubled = [(terms[0][0], 2 * terms[0][1])] + terms[1:]
        assert not _agree(f, doubled)
        values = list(f.values)
        cell = rng.choice(range(len(values)))
        values[cell] = values[cell] + zeta(r)
        assert not _agree(ClassFunction(r, group[1], group[3], values), terms)
    trivial = next(
        row for row in rows if all(v == 1 for v in row.values)
    )
    rational = ClassFunction(
        r, group[1], group[3],
        [Cyclotomic.from_rational(1) for _ in trivial.values],
    )
    assert _agree(rational, [(trivial, 1)])
    assert not _agree(rational, [(trivial, 2)])
    assert not _agree(rational, [(rows[-1], 1)])
    twisted = rows[-1].scale(zeta(2 * r))
    assert _agree(twisted, [(rows[-1].scale(zeta(2 * r)), 1)])
    assert not _agree(twisted, [(rows[-1], 1)])
    assert _agree(rows[-1].scale(Cyclotomic.one(2 * r)), [(rows[-1], 1)])


@pytest.mark.parametrize(
    "group", [(2, 2, 1, 4), (3, 1, 1, 3), (4, 1, 2, 4), (6, 2, 1, 2)],
    ids=lambda group: "-".join(map(str, group)),
)
def test_reassembly_beyond_the_table(group):
    r, p, _, n = group
    rows = [row for _, row in character_table(*group)]
    a, b, c = rows[1], rows[len(rows) // 2], rows[-1]
    # values lifted to order 2r, beside values of order r
    twisted = a.scale(zeta(2 * r))
    f = twisted + b
    assert {v.order for v in f.values} == {2 * r}
    assert _agree(f, [(twisted, 1), (b, 1)])
    assert not _agree(f, [(a, 1), (b, 1)])
    half_lifted = ClassFunction(r, p, n, [
        value.to_order(2 * r) if k % 2 else value
        for k, value in enumerate(b.values)
    ])
    assert {v.order for v in half_lifted.values} == {r, 2 * r}
    assert _agree(half_lifted, [(b, 1)])
    assert _agree(b, [(half_lifted, 1)])
    assert not _agree(half_lifted, [(b, 2)])
    # coefficients with denominators 3 and 4
    thirds, quarters = a.scale(Fraction(1, 3)), c.scale(Fraction(3, 4))
    terms = [(thirds, 2), (quarters, 1), (b, 1)]
    f = _weighted_sum(terms)
    assert _agree(f, terms)
    assert not _agree(f, [(thirds, 1), (quarters, 1), (b, 1)])
    values = list(f.values)
    values[0] = values[0] + Fraction(1, 12)
    assert not _agree(ClassFunction(r, p, n, values), terms)
    # a mismatch in the last class only
    terms = [(a, 1), (c, 2)]
    values = _weighted_sum(terms).values
    for delta in (zeta(r), Fraction(1, 3)):
        changed = list(values)
        changed[-1] = changed[-1] + delta
        assert not _agree(ClassFunction(r, p, n, changed), terms)
