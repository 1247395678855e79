"""Colored permutations checked against the monomial-matrix picture: an
element of G(r,n) is the n-by-n matrix with entry zeta^{z_j} in column j,
row |g|(j).  Multiplication, inversion, transpose and conjugation must
all agree with plain matrix algebra over the cyclotomic field."""

import random
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelfand.colored import (
    ColoredPermutation,
    ProjectiveElement,
    absolute_conjugate,
    all_elements,
    antisymmetric_elements,
    check_group_parameters,
    cycle_pairings,
    group_order,
    parse_window,
    projective_conjugate,
    subgroup_elements,
    symmetric_elements,
)
from gelfand.cyclotomic import Cyclotomic, zeta
from gelfand.errors import UnsupportedGroupError


def matrix_of(g):
    """Monomial matrix, rows/cols 0-indexed: M[g(j)-1][j-1] = zeta^{z_j}."""
    m = [[Cyclotomic.zero(g.r)] * g.n for _ in range(g.n)]
    for j in range(1, g.n + 1):
        m[g.image(j) - 1][j - 1] = zeta(g.r, g.color(j))
    return m


def mat_mul(a, b, r):
    n = len(a)
    out = [[Cyclotomic.zero(r)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k].is_zero():
                continue
            for j in range(n):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def random_element(rng, r, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    colors = [rng.randrange(r) for _ in range(n)]
    return ColoredPermutation(r, tuple(perm), tuple(colors))


def test_multiplication_matches_matrix_product():
    # the product applies the left factor first, so the monomial matrix of
    # g*h is matrix(h) @ matrix(g) in the column-vector convention
    rng = random.Random(11)
    for _ in range(40):
        r = rng.choice([2, 3, 4, 6])
        n = rng.randrange(1, 5)
        g, h = random_element(rng, r, n), random_element(rng, r, n)
        assert matrix_of(g * h) == mat_mul(matrix_of(h), matrix_of(g), r)


def test_inverse_and_transpose_match_matrices():
    rng = random.Random(12)
    for _ in range(30):
        r, n = rng.choice([2, 3, 4]), rng.randrange(1, 5)
        g = random_element(rng, r, n)
        assert (g * g.inverse()).is_identity()
        # transpose of the monomial matrix
        mt = matrix_of(g.transpose())
        m = matrix_of(g)
        assert all(
            mt[i][j] == m[j][i] for i in range(n) for j in range(n)
        )


def _reference_transpose(g):
    """The transpose read off the window: |g|(j) = k becomes k -> j with
    the same color."""
    perm = [0] * g.n
    colors = [0] * g.n
    for j in range(1, g.n + 1):
        k = g.image(j)
        perm[k - 1] = j
        colors[k - 1] = g.color(j)
    return ColoredPermutation(g.r, perm, colors)


@pytest.mark.parametrize("r, n", [(1, 5), (2, 5), (3, 4), (4, 4)])
def test_transpose_properties(r, n):
    elements = list(all_elements(r, n))
    for g in elements:
        t = g.transpose()
        assert t == _reference_transpose(g)
        assert t.transpose() == g
    rng = random.Random(r * 10 + n)
    for g, h in zip(rng.sample(elements, 50), rng.sample(elements, 50)):
        assert (g * h).transpose() == h.transpose() * g.transpose()
    for w in symmetric_elements(r, n):
        assert w.transpose() == w
    if r % 2 == 0:
        minus = ColoredPermutation.scalar(r, n, r // 2)
        for w in antisymmetric_elements(r, n):
            assert w.transpose() == w * minus


def test_color_conjugate_is_entrywise_conjugation():
    g = parse_window("[3^1,1^2,2^0]", 3)
    mc = matrix_of(g.color_conjugate())
    m = matrix_of(g)
    assert all(
        mc[i][j] == m[i][j].conjugate() for i in range(3) for j in range(3)
    )


def test_window_parse_round_trip():
    g = parse_window("[3^0,4^1,6^1,2^0,5^2,1^2]", 3)
    assert g.window_str() == "[3^0,4^1,6^1,2^0,5^2,1^2]"
    assert g.image(1) == 3 and g.color(3) == 1
    assert g.color_sum() == 0  # 0+1+1+0+2+2 reduced mod 3
    assert parse_window("[1^0,2^1,3^1]", 3).color_sum() == 2
    with pytest.raises(ValueError):
        parse_window("[1^0,1^0]", 2)
    with pytest.raises(ValueError):
        parse_window("[2,1]", 2)  # colors must be explicit


def test_cycles_and_rebuild():
    g = parse_window("[3^0,4^1,6^1,2^0,5^2,1^2]", 3)
    cycles = g.cycles()
    # smallest element first in each cycle, cycles sorted by least element
    assert cycles[0][0] == (1, 0)
    rebuilt = ColoredPermutation.from_cycles(3, 6, cycles)
    assert rebuilt == g
    total = sum(ColoredPermutation.cycle_color(c) for c in cycles)
    assert total % 3 == g.color_sum() % 3


def test_cycle_walk_follows_permutation():
    g = parse_window("[2^1,3^0,1^2]", 4)
    (cycle,) = g.cycles()
    members = [entry for entry, _ in cycle]
    for a, b in zip(members, members[1:]):
        assert g.image(a) == b
    assert g.image(members[-1]) == members[0]


def test_group_orders():
    assert group_order(1, 1, 1, 4) == 24
    assert group_order(2, 1, 1, 4) == 384
    assert group_order(2, 2, 1, 4) == 192
    assert group_order(2, 1, 2, 4) == 192
    assert group_order(6, 6, 1, 12) is not None
    with pytest.raises(UnsupportedGroupError):
        check_group_parameters(4, 3, 1, 5)  # p must divide r
    with pytest.raises(UnsupportedGroupError):
        check_group_parameters(2, 2, 2, 3)  # pq must divide rn


def test_element_enumeration_counts():
    assert len(list(all_elements(2, 3))) == 48
    assert len(list(subgroup_elements(2, 2, 3))) == 24
    assert len(list(subgroup_elements(3, 3, 2))) == 6
    # involutions with equal colors on both legs of every 2-cycle
    assert len(symmetric_elements(2, 4)) == 76
    assert len(symmetric_elements(1, 4)) == 10  # plain involutions of S_4
    assert len(antisymmetric_elements(2, 4)) == 12
    assert antisymmetric_elements(2, 3) == []
    assert antisymmetric_elements(3, 4) == []
    # sorted as ColoredPermutation compares, which the involution
    # enumerator relies on
    for r, n in [(2, 4), (3, 3), (4, 4)]:
        assert symmetric_elements(r, n) == sorted(symmetric_elements(r, n))
        assert antisymmetric_elements(r, n) == sorted(antisymmetric_elements(r, n))


def _reference_involution_supports(n: int):
    """All (fixed points, pairs) splittings of 1..n with |pairs| a matching.
    Verbatim the recursion the element generators used before
    cycle_pairings."""

    def rec(remaining):
        if not remaining:
            yield [], []
            return
        a = remaining[0]
        rest = remaining[1:]
        for fixed, pairs in rec(rest):
            yield [a] + fixed, pairs
        for i, b in enumerate(rest):
            others = rest[:i] + rest[i + 1 :]
            for fixed, pairs in rec(others):
                yield fixed, [(a, b)] + pairs

    yield from rec(list(range(1, n + 1)))


def _reference_symmetric_elements(r: int, n: int):
    """symmetric_elements on _reference_involution_supports, verbatim."""
    from itertools import product

    out = []
    for fixed, pairs in _reference_involution_supports(n):
        slots = len(fixed) + len(pairs)
        for assignment in product(range(r), repeat=slots):
            perm = list(range(1, n + 1))
            colors = [0] * n
            for e, z in zip(fixed, assignment):
                colors[e - 1] = z
            for (a, b), z in zip(pairs, assignment[len(fixed) :]):
                perm[a - 1], perm[b - 1] = b, a
                colors[a - 1] = colors[b - 1] = z
            out.append((tuple(perm), tuple(colors)))
    out.sort()
    return [ColoredPermutation(r, perm, colors) for perm, colors in out]


def _reference_antisymmetric_elements(r: int, n: int):
    """antisymmetric_elements on _reference_involution_supports,
    verbatim."""
    from itertools import product

    if r % 2 != 0 or n % 2 != 0:
        return []
    half = r // 2
    out = []
    for fixed, pairs in _reference_involution_supports(n):
        if fixed:
            continue
        for assignment in product(range(r), repeat=len(pairs)):
            perm = list(range(1, n + 1))
            colors = [0] * n
            for (a, b), z in zip(pairs, assignment):
                perm[a - 1], perm[b - 1] = b, a
                colors[a - 1] = z
                colors[b - 1] = (z + half) % r
            out.append((tuple(perm), tuple(colors)))
    out.sort()
    return [ColoredPermutation(r, perm, colors) for perm, colors in out]


@pytest.mark.parametrize(
    "r, n",
    [(r, n) for r in range(1, 7) for n in range(1, 7) if r**n <= 5 * 10**4],
)
def test_element_lists_match_support_oracle(r, n):
    assert symmetric_elements(r, n) == _reference_symmetric_elements(r, n)
    assert antisymmetric_elements(r, n) == _reference_antisymmetric_elements(r, n)


# involutions of S_n, n = 0..9: a(n) = a(n-1) + (n-1) a(n-2)
INVOLUTION_COUNTS = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620]


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


@pytest.mark.parametrize("n", range(10))
def test_cycle_pairings_of_a_cycle_type(n):
    """For every cycle type of S_n, listed in both orders, the splits are
    distinct and valid, and there are as many as the product of the
    involution counts of each length's multiplicity: n ones give the
    involutions of S_n."""
    for partition in _partitions(n):
        expected = prod(INVOLUTION_COUNTS[m] for m in Counter(partition).values())
        for lengths in (partition, partition[::-1]):
            splits = list(cycle_pairings(lengths))
            assert len(splits) == expected, lengths
            assert len(set(splits)) == expected, lengths
            for singles, pairs in splits:
                assert list(singles) == sorted(singles)
                assert list(pairs) == sorted(pairs)
                assert all(i < j and lengths[i] == lengths[j] for i, j in pairs)
                covered = list(singles) + [i for pair in pairs for i in pair]
                assert sorted(covered) == list(range(len(lengths)))


def test_cycle_pairings_order():
    # the least index is left single first, then paired in turn
    assert list(cycle_pairings([1, 1, 1])) == [
        ((0, 1, 2), ()),
        ((0,), ((1, 2),)),
        ((2,), ((0, 1),)),
        ((1,), ((0, 2),)),
    ]
    assert list(cycle_pairings([2, 1, 2])) == [((0, 1, 2), ()), ((1,), ((0, 2),))]
    assert list(cycle_pairings([])) == [((), ())]


def test_symmetry_kinds():
    assert parse_window("[1^0,2^1]", 2).symmetry_kind() == "symmetric"
    assert parse_window("[2^1,1^1]", 2).symmetry_kind() == "symmetric"
    assert parse_window("[2^0,1^1]", 2).symmetry_kind() == "antisymmetric"
    assert parse_window("[2^0,1^0,3^0]", 2).symmetry_kind() == "symmetric"
    assert parse_window("[2^1,1^0,3^1]", 4).symmetry_kind() == "neither"


def test_every_involution_of_one_color_is_symmetric():
    # with r = 1 the half turn r // 2 is 0, so no element is antisymmetric
    assert {g.symmetry_kind() for g in symmetric_elements(1, 3)} == {"symmetric"}


def _loop_symmetry_kind(self) -> str:
    """ColoredPermutation.symmetry_kind as a loop with one flag per kind,
    verbatim the implementation before it read the set of color shifts."""
    n = self.n
    involution = all(self.perm[self.perm[j - 1] - 1] == j for j in range(1, n + 1))
    if not involution:
        return "neither"
    symmetric = True
    antisymmetric = self.r % 2 == 0
    half = self.r // 2 if self.r % 2 == 0 else None
    for j in range(1, n + 1):
        k = self.perm[j - 1]
        if k == j:
            antisymmetric = False
            continue
        if self.colors[k - 1] != self.colors[j - 1]:
            symmetric = False
        if half is None or self.colors[k - 1] != (self.colors[j - 1] + half) % self.r:
            antisymmetric = False
    if symmetric:
        return "symmetric"
    if antisymmetric:
        return "antisymmetric"
    return "neither"


# every element of G(r,n) for r <= 3, n <= 5 and for r <= 6, n <= 3, with
# the empty element of each r
@pytest.mark.parametrize("r", range(1, 7))
def test_symmetry_kind_matches_flag_loop(r):
    for n in range(6 if r <= 3 else 4):
        for g in all_elements(r, n):
            assert g.symmetry_kind() == _loop_symmetry_kind(g), g


def test_absolute_involutions_strict():
    # g * conj(g) must be the identity, not merely a scalar
    sym = parse_window("[2^1,1^1,3^0]", 2)
    assert sym.is_absolute_involution()
    anti = parse_window("[2^0,1^1]", 2)
    assert not anti.is_absolute_involution()
    coset = ProjectiveElement(anti, 2)
    assert coset.is_absolute_involution()


def _reference_plain_is_absolute_involution(self):
    """True iff g * conj(g) is the identity."""
    return (self * self.color_conjugate()).is_identity()


def _reference_coset_is_absolute_involution(self):
    """True iff v * conj(v) is trivial in the quotient."""
    prod = self.rep * self.rep.color_conjugate()
    if not prod.is_scalar():
        return False
    return prod.scalar_exponent() % (self.r // self.q) == 0


@pytest.mark.parametrize("r, n", [(1, 4), (2, 4), (3, 3), (4, 3), (6, 2), (6, 3)])
def test_absolute_involution_rule_matches_product(r, n):
    # the symmetry-kind rule against the product definition, on every
    # element, plain and as a coset of every scalar subgroup C_q
    divisors = [q for q in range(1, r + 1) if r % q == 0]
    for g in all_elements(r, n):
        assert g.is_absolute_involution() == _reference_plain_is_absolute_involution(g)
        for q in divisors:
            v = ProjectiveElement(g, q)
            assert v.is_absolute_involution() == _reference_coset_is_absolute_involution(v)


@pytest.mark.parametrize("r, n", [(2, 3), (4, 2), (6, 2)])
def test_projective_keeps_the_least_lift(r, n):
    for g in all_elements(r, n):
        for q in (q for q in range(1, r + 1) if r % q == 0):
            step = r // q
            least = min(
                tuple((z + k * step) % r for z in g.colors) for k in range(q)
            )
            v = ProjectiveElement(g, q)
            assert v.rep.colors == least and v.rep.perm == g.perm
            assert (v.rep is g) == (g.colors == least)


def test_projective_canonical_representative():
    g = parse_window("[2^1,1^0]", 2)
    h = parse_window("[2^0,1^1]", 2)  # g times the scalar -1
    assert ProjectiveElement(g, 2) == ProjectiveElement(h, 2)
    assert hash(ProjectiveElement(g, 2)) == hash(ProjectiveElement(h, 2))
    assert ProjectiveElement(g, 1) != ProjectiveElement(h, 1)
    assert len(ProjectiveElement(g, 2).lifts()) == 2


def test_projective_quotient_size():
    cosets = {ProjectiveElement(g, 2) for g in all_elements(2, 3)}
    assert len(cosets) == 24  # 48 elements over the 2-element center


def test_absolute_conjugation_is_an_action():
    rng = random.Random(13)
    for _ in range(25):
        g = random_element(rng, 4, 4)
        h = random_element(rng, 4, 4)
        v = random_element(rng, 4, 4)
        lhs = absolute_conjugate(g * h, v)
        rhs = absolute_conjugate(g, absolute_conjugate(h, v))
        assert lhs == rhs
    # and it preserves symmetry kind
    g3 = random_element(rng, 4, 3)
    for w in symmetric_elements(4, 3):
        assert absolute_conjugate(g3, w).symmetry_kind() == "symmetric"


def test_projective_conjugation_well_defined():
    g = parse_window("[2^3,1^1,3^2]", 4)
    v = ProjectiveElement(parse_window("[2^1,1^3,3^0]", 4), 2)
    image = projective_conjugate(g, v)
    for lift in v.lifts():
        assert ProjectiveElement(absolute_conjugate(g, lift), 2) == image


def test_signature_of_split_style_elements():
    g = ColoredPermutation.from_cycles(
        2, 4, [((1, 0), (2, 0)), ((3, 1), (4, 1))]
    )
    assert g.signature() == (0 + 1) % 2
    with pytest.raises(ValueError):
        parse_window("[1^0,3^0,2^0]", 2).signature()  # odd cycle present


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_scalar_center(seed):
    rng = random.Random(seed)
    r, n = rng.choice([2, 3, 4]), rng.randrange(1, 5)
    g = random_element(rng, r, n)
    k = rng.randrange(r)
    s = ColoredPermutation.scalar(r, n, k)
    assert s * g == g * s
    assert (s * g).color_sum() % r == (g.color_sum() + n * k) % r


def test_value_types_are_immutable():
    g = ColoredPermutation.identity(2, 2)
    for value in (g, ProjectiveElement(g, 2), zeta(4)):
        with pytest.raises(AttributeError, match=type(value).__name__):
            value.r = 3
        assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("r, p, q, n", [(2, 1, 2, 4), (4, 2, 2, 3), (6, 2, 3, 2)])
def test_quotient_group_operations(r, p, q, n):
    elements = list(subgroup_elements(r, p, n))
    step = r // q
    scalars = {ColoredPermutation.scalar(r, n, k * step) for k in range(q)}
    assert {g for g in elements if ProjectiveElement(g, q).is_identity()} == scalars
    for g in elements:
        v = ProjectiveElement(g, q)
        assert (v.inverse() * v).is_identity() and (v * v.inverse()).is_identity()
        assert v.inverse() == ProjectiveElement(g.inverse(), q)
        assert v.color_conjugate() == ProjectiveElement(g.color_conjugate(), q)
        assert {lift.symmetry_kind() for lift in v.lifts()} == {v.symmetry_kind()}
        assert v.symmetry_kind() == v.rep.symmetry_kind()
        assert str(v) == v.rep.window_str()
        assert parse_window(str(v), r) in v.lifts()
        assert repr(v) == "ProjectiveElement(q=%d, %s)" % (q, v)
    rng = random.Random(r * 100 + q * 10 + n)
    for g, h in zip(rng.choices(elements, k=40), rng.choices(elements, k=40)):
        v, w = ProjectiveElement(g, q), ProjectiveElement(h, q)
        # the coset of a product does not depend on the lifts multiplied
        for a in v.lifts():
            for b in w.lifts():
                assert ProjectiveElement(a * b, q) == v * w
    g = elements[1]
    with pytest.raises(ValueError, match="different quotients"):
        ProjectiveElement(g, q) * ProjectiveElement(g, 1)


def test_absolute_conjugation_is_conjugation_by_the_colorless_permutation():
    """absolute_conjugate(g, v) is P*v*P^-1 for P the permutation under g
    with every color 0, on every pair of G(2,3); it is not g*v*g^-1 once g
    has colors."""
    elements = list(all_elements(2, 3))
    for g in elements:
        plain = ColoredPermutation.from_permutation(2, g.perm)
        for v in elements:
            assert absolute_conjugate(g, v) == plain * v * plain.inverse()
    g, v = parse_window("[1^0,2^1]", 2), parse_window("[2^0,1^0]", 2)
    assert absolute_conjugate(g, v) == v
    assert g * v * g.inverse() == parse_window("[2^1,1^1]", 2)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: ColoredPermutation(2, (2, 1), (0,)),
            ValueError,
            "need one color per window entry",
        ),
        (
            lambda: ColoredPermutation.from_cycles(
                2, 3, [((1, 0), (2, 0)), ((2, 1),)]
            ),
            ValueError,
            "cycles overlap at 2",
        ),
        (
            lambda: parse_window("1^0", 2),
            ValueError,
            "window must be wrapped in [ ]: '1^0'",
        ),
        (lambda: parse_window("[]", 2), ValueError, "empty window"),
    ],
    ids=[
        "ColoredPermutation-colors",
        "from_cycles-overlap",
        "parse_window-brackets",
        "parse_window-empty",
    ],
)
def test_refusals_name_their_reason(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_a_coset_has_the_size_of_its_lift():
    assert ProjectiveElement(parse_window("[2^1,1^0,3^1]", 4), 2).n == 3
