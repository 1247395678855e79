"""The involution module: pairing and statistics, the monomial action as
a genuine homomorphism, block structure, character verification against
the object-level trace loop, the former window loop and the projection
path, and the antisymmetric cycle-pairing machinery."""

import hashlib
import json
import random
from collections import Counter
from functools import cache
from itertools import product
from math import comb, factorial, gcd
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gelfand.characters
import gelfand.classes
import gelfand.model
from antisymmetric_oracle import (
    a_sets,
    halfway_difference,
    part_color,
    pi21_partitions,
)
from gelfand.characters import (
    ClassFunction,
    character_table,
    decompose,
    inner_product,
    label_degree,
    rows_independent,
)
from gelfand.classes import (
    ConjugacyClass,
    InvolutionClassType,
    _raw_color_sum,
    _raw_type,
    class_of,
    class_positions,
    class_size,
    enumerate_classes,
    involution_type,
    normal_element,
)
from gelfand.cli import main
from gelfand.colored import (
    ColoredPermutation,
    ProjectiveElement,
    absolute_conjugate,
    all_elements,
    antisymmetric_elements,
    parse_window,
    projective_conjugate,
    subgroup_elements,
    symmetric_elements,
)
from gelfand.cyclotomic import Cyclotomic
from gelfand.errors import (
    InconsistencyError,
    ResourceLimitError,
    UnsupportedGroupError,
)
from gelfand.model import (
    ModelBasis,
    _action_scalar,
    _block_sizes,
    _class_window,
    _commuting_involutions,
    _orbit,
    _type_histograms,
    a_statistic,
    gelfand_check,
    inv_statistic,
    model_action,
    model_character,
    pairing,
    predicted_labels,
    verify_class_decomposition,
)
from gelfand.rs import shape_of
from gelfand.shapes import count_standard, shape_shift


def test_pairing_hand_values():
    g = parse_window("[2^1,1^0,3^1]", 2)
    v = parse_window("[1^1,3^1,2^1]", 2)
    # 1*1 + 0*1 + 1*1 = 2 = 0 mod 2
    assert pairing(g, v) == 0
    assert pairing(ColoredPermutation.identity(2, 3), v) == 0


def test_pairing_lift_independent_on_cosets():
    basis = ModelBasis(2, 2, 1, 4)
    acting = [g for g in subgroup_elements(2, 2, 4)]
    for v in basis.elements[:10]:
        lifts = v.lifts()
        assert len(lifts) == 2
        for g in acting[:20]:
            values = {pairing(g, lift) for lift in lifts}
            assert values == {pairing(g, v)}


def test_pairing_rejects_lift_dependent_pair():
    odd = parse_window("[1^1,2^0,3^0,4^0]", 2)  # color sum 1
    v = ProjectiveElement(parse_window("[2^1,1^1,3^0,4^0]", 2), 2)
    with pytest.raises(ValueError):
        pairing(odd, v)
    with pytest.raises(ValueError):
        pairing(v, odd)


def test_pairing_of_a_coset_is_lift_independent():
    # a coset as the first argument: its lifts' colors differ by multiples
    # of r/q, so the pairing needs the other color sum times r/q = 0 mod r
    g = ProjectiveElement(parse_window("[2^1,1^3,3^0]", 4), 2)
    even = parse_window("[1^1,3^0,2^1]", 4)  # color sum 2
    assert {pairing(lift, even) for lift in g.lifts()} == {pairing(g, even)}
    odd = parse_window("[1^1,3^0,2^0]", 4)  # color sum 1
    with pytest.raises(ValueError, match="lift-independent"):
        pairing(g, odd)


@pytest.mark.parametrize(
    "r, n", [(r, n) for r in range(1, 5) for n in range(1, 4)] + [(2, 4)]
)
def test_a_plain_element_is_its_own_coset_of_scalar_order_1(r, n):
    """g reads q = 1 and rep = g, and every function of a coset gives g
    what it gives the coset ProjectiveElement(g, 1)."""
    elements = list(all_elements(r, n))
    for g, other in zip(elements, reversed(elements)):
        assert g.q == 1 and g.rep is g
        coset = ProjectiveElement(g, 1)
        for f in (pairing, inv_statistic, a_statistic):
            assert f(g, other) == f(coset, other), f.__name__
        assert pairing(other, g) == pairing(other, coset)
        assert g.is_identity() == coset.is_identity()
        assert g.is_absolute_involution() == coset.is_absolute_involution()
        if g.is_absolute_involution():
            assert involution_type(g) == involution_type(coset)
            assert shape_of(g) == shape_of(coset)


def test_inv_statistic_hand_values():
    v = parse_window("[2^0,1^0,4^0,3^0]", 2)  # pairs {1,2},{3,4}
    assert inv_statistic(parse_window("[3^0,1^0,4^0,2^0]", 2), v) == 2
    assert inv_statistic(ColoredPermutation.identity(2, 4), v) == 0
    diagonal = ColoredPermutation.identity(2, 4)
    g = parse_window("[4^0,3^0,2^0,1^0]", 2)
    assert inv_statistic(g, diagonal) == 0


def test_inv_statistic_matches_set_intersection():
    rng = random.Random(5)
    from gelfand.colored import symmetric_elements

    vs = list(symmetric_elements(1, 6))
    gs = list(subgroup_elements(1, 1, 6))
    for _ in range(200):
        g, v = rng.choice(gs), rng.choice(vs)
        pairs = {
            frozenset((i, v.perm[i - 1]))
            for i in range(1, 7)
            if v.perm[i - 1] != i
        }
        inversions = {
            frozenset((i, j))
            for i in range(1, 7)
            for j in range(i + 1, 7)
            if g.perm[i - 1] > g.perm[j - 1]
        }
        assert inv_statistic(g, v) == len(pairs & inversions)


def test_a_statistic_hand_values():
    v = parse_window("[2^0,1^1,4^0,3^1]", 2)
    g = parse_window("[2^0,3^0,4^0,1^0]", 2)
    # |g|^{-1}(1) = 4, so colors z_1(v) - z_4(v) = 0 - 1
    assert a_statistic(g, v) == 1
    assert a_statistic(ColoredPermutation.identity(2, 4), v) == 0


def test_a_statistic_values_on_a_sets():
    # on elements conjugated to +-w the statistic can only be 0 or r/2
    for g in list(subgroup_elements(2, 2, 4))[:40]:
        for eps in (0, 1):
            for ws in a_sets(g, eps).values():
                for w in ws:
                    assert a_statistic(g, w) in (0, 1)


def test_statistics_match_their_raw_window_forms():
    # the public statistics read lifts; on every pair of an acting element
    # and a basis coset they agree with the raw-window forms of the
    # reference loops, read off the coset's stored lift
    basis = ModelBasis(4, 2, 1, 3)
    for g in subgroup_elements(4, 2, 3):
        source = g.perm.index(1)
        for v in basis.elements:
            rep = v.rep
            assert pairing(g, v) == _pairing(g.colors, rep.colors, 4)
            assert inv_statistic(g, v) == _inversions(g.perm, rep.perm)
            assert a_statistic(g, v) == _transfer(rep.colors, source, 4)


def test_model_basis_dimension_and_blocks():
    basis = ModelBasis(2, 2, 1, 4)
    table = character_table(2, 2, 1, 4)
    assert basis.dimension == sum(label_degree(label) for label, _ in table)
    covered = sorted(i for ids in basis.blocks.values() for i in ids)
    assert covered == list(range(basis.dimension))
    m0 = basis.scope_indices("M0")
    m1 = basis.scope_indices("M1")
    assert sorted(m0 + m1) == list(range(basis.dimension))
    assert all(
        basis.elements[i].rep.symmetry_kind() == "antisymmetric" for i in m1
    )
    assert basis.scope_indices("all") == tuple(range(basis.dimension))


def test_action_is_homomorphism():
    rng = random.Random(3)
    # G(2,1,2,4) is a quotient; G(4,2,1,2) has r = 4 and split classes
    for r, p, q, n in [(2, 2, 1, 4), (3, 1, 1, 3), (2, 1, 2, 4), (4, 2, 1, 2)]:
        basis = ModelBasis(r, p, q, n)
        pool = list(subgroup_elements(r, p, n))
        for _ in range(150):
            g, h = rng.choice(pool), rng.choice(pool)
            left = model_action(g * h, basis)
            right = model_action(g, basis).compose(model_action(h, basis))
            assert left == right


def test_action_identity_and_scalar_lift():
    basis = ModelBasis(2, 1, 2, 4)
    identity = model_action(ColoredPermutation.identity(2, 4), basis)
    assert identity.perm == tuple(range(basis.dimension))
    assert all(s == Cyclotomic.one(2) for s in identity.scalars)
    assert identity.trace() == Cyclotomic.from_rational(basis.dimension)
    scalar = parse_window("[1^1,2^1,3^1,4^1]", 2)
    assert model_action(scalar, basis) == identity


def test_action_preserves_blocks():
    rng = random.Random(9)
    basis = ModelBasis(2, 2, 1, 4)
    pool = list(subgroup_elements(2, 2, 4))
    for _ in range(10):
        act = model_action(rng.choice(pool), basis)
        for ids in basis.blocks.values():
            assert {act.perm[i] for i in ids} == set(ids)


def test_action_rejects_outsider():
    basis = ModelBasis(2, 2, 1, 4)
    outsider = parse_window("[1^1,2^0,3^0,4^0]", 2)
    with pytest.raises(ValueError):
        model_action(outsider, basis)


def test_character_matches_explicit_trace():
    basis = ModelBasis(2, 1, 1, 3)
    full = model_character(basis, "all")
    for label in enumerate_classes(2, 1, 3):
        act = model_action(normal_element(label), basis)
        assert full(label) == act.trace()
    m1_indices = basis.scope_indices("M1")
    assert m1_indices == ()  # p odd: no antisymmetric involutions


def test_block_characters_sum_to_full():
    basis = ModelBasis(2, 2, 1, 4)
    total = None
    for ctype in basis.types:
        block = model_character(basis, ctype)
        total = block if total is None else total + block
    assert total == model_character(basis, "all")


def test_block_character_values_follow_the_class_order():
    basis = ModelBasis(2, 2, 1, 4)
    character = model_character(basis, basis.types[-1])
    assert isinstance(character.values, tuple)
    for k, label in enumerate(enumerate_classes(2, 2, 4)):
        assert character(label) is character.values[k]


def _reference_model_character(basis, scope="all", twist=True):
    """The block trace on group objects: conjugate every basis coset by the
    class representative and add the action scalar at each fixed point."""
    indices = basis.scope_indices(scope)
    values = {}
    for label in enumerate_classes(basis.r, basis.p, basis.n):
        g = normal_element(label)
        total = Cyclotomic.zero(basis.r)
        for i in indices:
            v = basis.elements[i]
            if projective_conjugate(g, v) == v:
                total = total + _action_scalar(g, v, twist)
        values[label] = total
    return ClassFunction(
        basis.r,
        basis.p,
        basis.n,
        [values[c] for c in enumerate_classes(basis.r, basis.p, basis.n)],
    )


# basis-group flags r p q n, as on the command line; the acting group,
# which ModelBasis takes, exchanges p and q.  They cover r = 2, 3, 4, 6,
# quotients (q > 1), split classes and n = 1.
DIFFERENTIAL_BASES = [
    (4, 1, 2, 1),
    (2, 1, 2, 4),
    (2, 2, 1, 4),
    (3, 1, 1, 3),
    (4, 1, 2, 2),
    (4, 2, 1, 2),
    (6, 1, 2, 2),
]


def _flags_id(flags):
    return "-".join(map(str, flags))


def _basis_from_flags(r, p, q, n):
    return ModelBasis(r, q, p, n)


# The statistics on raw windows, as the reference loops below read them:
# colors are tuples of exponents, perms 1-based tuples, source the 0-based
# position |g|^{-1}(1).


def _pairing(g_colors, v_colors, r: int) -> int:
    return sum(a * b for a, b in zip(g_colors, v_colors)) % r


def _inversions(g_perm, v_perm) -> int:
    return sum(
        1
        for i, j in enumerate(v_perm, 1)
        if i < j and g_perm[i - 1] > g_perm[j - 1]
    )


def _transfer(v_colors, source: int, r: int) -> int:
    return (v_colors[0] - v_colors[source]) % r


def _reference_window(label):
    """Raw window of the canonical representative g of a class: its
    1-based perm, its 0-based perm, its colors, its color sum, and the
    0-based position |g|^{-1}(1)."""
    g = normal_element(label)
    return (
        g.perm,
        tuple(s - 1 for s in g.perm),
        g.colors,
        g.color_sum(),
        g.perm.index(1),
    )


def _window_model_character(basis, scope="all", twist=True):
    """The block trace as one loop over every (basis vector, class) pair
    on raw windows, testing each pair for a fixed point.  Verbatim the
    implementation before fixed points were generated, but for calling
    _reference_window."""
    indices = basis.scope_indices(scope)
    r = basis.r
    labels = enumerate_classes(r, basis.p, basis.n)
    windows = [_reference_window(label) for label in labels]
    # every basis coset has scalar order basis.p, so a lift changes the
    # colors by a multiple of step
    step = r // basis.p
    for _, _, _, color_sum, _ in windows:
        if color_sum * step % r:
            raise ValueError("pairing is not lift-independent for this pair")
    histograms = [[0] * r for _ in labels]
    for i in indices:
        rep = basis.elements[i].rep
        kind = rep.symmetry_kind()
        if kind == "neither":
            raise ValueError("basis element is neither symmetric nor antisymmetric")
        v_perm, v_colors = rep.perm, rep.colors
        for histogram, (g_perm, g0, g_colors, _, source) in zip(histograms, windows):
            # |g| v |g|^{-1} has color v_colors[g0[j]] at j, and the same
            # perm as v when v_perm[g0[j]] == |g|(v_perm[j]) for every j; it
            # is v in the quotient when, besides, its colors differ from
            # v's by one multiple of step
            shift = (v_colors[g0[0]] - v_colors[0]) % r
            if shift % step:
                continue
            for j, c in enumerate(g0):
                if (
                    v_perm[c] != g_perm[v_perm[j] - 1]
                    or (v_colors[c] - v_colors[j]) % r != shift
                ):
                    break
            else:
                exponent = _pairing(g_colors, v_colors, r)
                if kind == "symmetric":
                    histogram[exponent] += -1 if _inversions(g_perm, v_perm) % 2 else 1
                else:
                    if twist:
                        exponent = (exponent + _transfer(v_colors, source, r)) % r
                    histogram[exponent] += 1
    return ClassFunction(
        r, basis.p, basis.n, [Cyclotomic(r, histogram) for histogram in histograms]
    )


def _bucket_class_window(label):
    """Per-class constants of the block sweep, from the canonical
    representative g of the class.

    Returns g's 1-based perm, its 0-based perm G as a taker (see _taker),
    the pairs (j, z) of g's nonzero colors z at 0-based positions j, its
    color sum, the 0-based position |g|^{-1}(1), the cycles of G, the
    shifts, and the number of candidate colorings.

    The cycles of G start at their least positions, so the first passes
    through position 0.  The shifts are the multiples s of step = r/p with
    len(cycle)*s = 0 mod r on every cycle.  A least-lift coloring with
    colors[G(j)] = colors[j] + s is fixed by s and its color at each
    cycle's start, which is below step on the first cycle: that makes
    len(shifts)*step*r^(cycles - 1) candidates.
    """
    g = normal_element(label)
    r = label.r
    step = r // label.p
    g0 = tuple(s - 1 for s in g.perm)
    n = len(g0)
    cycles = []
    seen = [False] * n
    for start in range(n):
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = g0[j]
        if cycle:
            cycles.append(tuple(cycle))
    shifts = tuple(
        s
        for s in range(0, r, step)
        if all(len(cycle) * s % r == 0 for cycle in cycles)
    )
    return (
        g.perm,
        _taker(g0),
        tuple((j, z) for j, z in enumerate(g.colors) if z),
        g.color_sum(),
        g.perm.index(1),
        tuple(cycles),
        shifts,
        len(shifts) * step * r ** (len(cycles) - 1),
    )


def _taker(perm0):
    """The map t -> (t[perm0[0]], t[perm0[1]], ...) for a 0-based perm;
    itemgetter alone returns a bare item, not a 1-tuple, when n = 1."""
    return itemgetter(*perm0) if len(perm0) > 1 else tuple


def _fixed_up_to_shift(colors, moved, r: int, step: int) -> bool:
    """moved[j] = colors[j] + s for every j, for one multiple s of step."""
    shift = (moved[0] - colors[0]) % r
    return shift % step == 0 and all(
        (m - c) % r == shift for m, c in zip(moved, colors)
    )


def _shifted_colorings(cycles, shifts, r: int, step: int):
    """Every least-lift coloring with colors[G(j)] = colors[j] + s on the
    cycles of G, for each shift s."""
    n = sum(len(cycle) for cycle in cycles)
    out = []
    for s in shifts:
        for starts in product(range(step), *[range(r)] * (len(cycles) - 1)):
            colors = [0] * n
            for c, cycle in zip(starts, cycles):
                for k, j in enumerate(cycle):
                    colors[j] = (c + k * s) % r
            out.append(tuple(colors))
    return out


def _bucket_block_characters(basis, scopes, twist=True):
    """The traces of the action on disjoint scopes, in one sweep over the
    basis.  Verbatim the implementation before block characters came from
    orbit signatures, but for the names of its helpers.

    Evaluated at the canonical representative g of each class; only basis
    vectors fixed by the conjugation contribute their scalar, a signed
    r-th root of unity, summed as a histogram per (class, scope).

    The vectors of all scopes are bucketed by their perm, each mapping its
    least lift's colors to its scope and kind; a coset met twice means the
    scopes overlap.  |g| v |g|^{-1} has the perm of v exactly when |v|
    commutes with |g|, which is tested once per (class, perm); the sign of
    a symmetric vector depends only on the perms, so it is found there too.
    In a commuting bucket the fixed vectors are the colorings with
    colors[G(j)] = colors[j] + s for one of the class's shifts s (see
    _bucket_class_window; s = 0 unless the basis is a quotient).  The bucket finds
    them by whichever way takes fewer steps: look up every such coloring,
    or test each member.
    """
    r = basis.r
    step = r // basis.p
    windows = [_bucket_class_window(label) for label in enumerate_classes(r, basis.p, basis.n)]
    # every basis coset has scalar order basis.p, so a lift changes the
    # colors by a multiple of step
    for _, _, _, color_sum, *_ in windows:
        if color_sum * step % r:
            raise ValueError("pairing is not lift-independent for this pair")
    # perm -> (its taker, {least lift's colors: (scope number, symmetric?)})
    buckets: dict[tuple, tuple] = {}
    for k, scope in enumerate(scopes):
        for i in basis.scope_indices(scope):
            rep = basis.elements[i].rep
            kind = rep.symmetry_kind()
            if kind == "neither":
                raise ValueError("basis element is neither symmetric nor antisymmetric")
            if rep.perm not in buckets:
                buckets[rep.perm] = (_taker([j - 1 for j in rep.perm]), {})
            members = buckets[rep.perm][1]
            if rep.colors in members:
                raise ValueError("scopes overlap")
            members[rep.colors] = (k, kind == "symmetric")
    # one Cyclotomic per distinct histogram: the cells repeat few values
    values: dict[tuple, Cyclotomic] = {}
    columns = []
    for g_perm, take, g_nonzero, _, source, cycles, shifts, candidates in windows:
        counts = [[0] * r for _ in scopes]
        colorings = None
        for v_perm, (v_take, members) in buckets.items():
            # |v|(|g|(j)) == |g|(|v|(j)) for every j
            if take(v_perm) != v_take(g_perm):
                continue
            sign = -1 if _inversions(g_perm, v_perm) % 2 else 1
            if candidates < len(members):
                if colorings is None:
                    colorings = _shifted_colorings(cycles, shifts, r, step)
                fixed = [
                    (colors, members[colors])
                    for colors in colorings
                    if colors in members
                ]
            else:
                # |g| v |g|^{-1} has the colors take(colors): colors[G(j)] at j
                fixed = [
                    (colors, member)
                    for colors, member in members.items()
                    if (moved := take(colors)) == colors
                    or (len(shifts) > 1 and _fixed_up_to_shift(colors, moved, r, step))
                ]
            for colors, (k, symmetric) in fixed:
                exponent = sum(z * colors[j] for j, z in g_nonzero) % r
                if symmetric:
                    counts[k][exponent] += sign
                else:
                    if twist:
                        exponent = (exponent + _transfer(colors, source, r)) % r
                    counts[k][exponent] += 1
        column = []
        for histogram in map(tuple, counts):
            if histogram not in values:
                values[histogram] = Cyclotomic(r, histogram)
            column.append(values[histogram])
        columns.append(column)
    return [ClassFunction(r, basis.p, basis.n, column) for column in zip(*columns)]


# every supported basis group with r <= 6 and n <= 4, as basis-group flags:
# the acting group G(r,q,n) needs GCD(q,n) <= 2
SMALL_BASES = [
    (r, p, q, n)
    for r in range(1, 7)
    for n in range(1, 5)
    for p in range(1, r + 1)
    for q in range(1, r + 1)
    if r % p == 0 and r % q == 0 and r * n % (p * q) == 0 and gcd(q, n) <= 2
]

# the decompose and gelfand-check panels of perfbench
PANEL_BASES = [(2, 1, 2, 6), (4, 1, 2, 4), (6, 1, 2, 3), (2, 1, 1, 7), (3, 1, 1, 5)]


def _reference_commuting_involutions(perm0, cycles, s: int, half: int, r: int):
    """_commuting_involutions by recursion over the cycles.  Verbatim the
    implementation before cycle_pairings."""

    def walk(cycle, start=0, base=0):
        return {j: (base + (k - start) * s) % r for k, j in enumerate(cycle)}

    def choices(remaining):
        if not remaining:
            yield ()
            return
        cycle, rest = cycles[remaining[0]], remaining[1:]
        length = len(cycle)
        heads = []
        if not half:
            heads.append((_orbit(perm0, (), cycle, walk(cycle), half, r), rest))
        if length % 2 == 0 and length // 2 * s % r == half:
            turned = tuple(zip(cycle[: length // 2], cycle[length // 2 :]))
            heads.append((_orbit(perm0, turned, (), walk(cycle), half, r), rest))
        for i, other in enumerate(rest):
            partner = cycles[other]
            if len(partner) != length:
                continue
            for t in range(length):
                offsets = walk(cycle)
                offsets.update(walk(partner, t, half))
                swapped = tuple(
                    (cycle[k], partner[(k + t) % length]) for k in range(length)
                )
                heads.append(
                    (
                        _orbit(perm0, swapped, (), offsets, half, r),
                        rest[:i] + rest[i + 1 :],
                    )
                )
        for head, others in heads:
            for tail in choices(others):
                yield (head,) + tail

    return choices(tuple(range(len(cycles))))


def _orbit_structures(structures):
    """The multiset of orbit structures, each as its set of orbits with the
    offsets as sorted items."""
    return Counter(
        tuple(
            sorted(
                (part, tuple(sorted(offsets.items())), parity)
                for part, offsets, parity in orbits
            )
        )
        for orbits in structures
    )


@pytest.mark.parametrize("flags", DIFFERENTIAL_BASES + PANEL_BASES, ids=_flags_id)
def test_commuting_involutions_match_recursion(flags):
    r, p, q, n = flags
    # the acting group G(r,q,n) exchanges p and q; every valid s, both kinds
    windows = {}
    for label in enumerate_classes(r, q, n):
        perm0, cycles, _, _ = _class_window(label)
        windows[perm0] = cycles
    for perm0, cycles in windows.items():
        shifts = [
            s
            for s in range(0, r, r // q)
            if all(len(cycle) * s % r == 0 for cycle in cycles)
        ]
        for half in (0, r // 2) if r % 2 == 0 else (0,):
            for s in shifts:
                args = (perm0, cycles, s, half, r)
                ours = _orbit_structures(_commuting_involutions(*args))
                assert ours == _orbit_structures(_reference_commuting_involutions(*args)), args


@pytest.mark.parametrize(
    "flags", sorted(set(SMALL_BASES + DIFFERENTIAL_BASES + PANEL_BASES)), ids=_flags_id
)
def test_signature_sweep_matches_bucket_sweep(flags, monkeypatch):
    basis = _basis_from_flags(*flags)
    # one sweep per twist serves every scope
    monkeypatch.setattr(gelfand.model, "_type_histograms", cache(_type_histograms))
    for twist in (True, False):
        for scopes in (basis.types, ("M0", "M1"), ("all",)):
            ours = [model_character(basis, scope, twist) for scope in scopes]
            assert ours == _bucket_block_characters(basis, scopes, twist), (scopes, twist)


# every supported acting group with r <= 12 and r^n*n! <= 2000
SWEEP_GROUPS = [
    (r, p, q, n)
    for r in range(1, 13)
    for n in range(1, 12)
    if r**n * factorial(n) <= 2000
    for p in range(1, r + 1)
    for q in range(1, r + 1)
    if r % p == 0 and r % q == 0 and r * n % (p * q) == 0 and gcd(p, n) <= 2
]


def _sweep_digest(r, p, q, n, twist):
    """sha256 of _type_histograms' output as text, in output order."""
    histograms = _type_histograms(r, p, q, n, twist)
    text = repr([(str(ctype), [list(h) for h in columns]) for ctype, columns in histograms.items()])
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_matches_recorded_digests():
    # sweep_digests.json was recorded at 98f33ca, before the sweep went
    # signature-major; the keys are "r p q n twist"
    recorded = json.loads(Path(__file__).with_name("sweep_digests.json").read_text())
    ours = {
        "%d %d %d %d %s" % (*group, twist): _sweep_digest(*group, twist)
        for group in SWEEP_GROUPS
        for twist in (True, False)
    }
    assert ours == recorded


@pytest.mark.parametrize("group", [(3, 1, 1, 4), (2, 2, 1, 6), (4, 2, 1, 4)], ids=_flags_id)
def test_each_signature_histogram_is_built_once(group, monkeypatch):
    calls = Counter()
    histogram = gelfand.model._Sweep.histogram

    def counted(self, kind, signature):
        calls[kind, signature] += 1
        return histogram(self, kind, signature)

    monkeypatch.setattr(gelfand.model._Sweep, "histogram", counted)
    for twist in (True, False):
        calls.clear()
        _type_histograms(*group, twist)
        assert max(calls.values()) == 1, twist


@pytest.mark.parametrize("flags", DIFFERENTIAL_BASES + PANEL_BASES, ids=_flags_id)
def test_identity_column_gives_the_block_sizes(flags):
    r, p, q, n = flags
    basis = _basis_from_flags(*flags)
    sizes = _block_sizes(_type_histograms(r, q, p, n))
    assert tuple(sizes) == basis.types
    assert sizes == {ctype: len(basis.blocks[ctype]) for ctype in basis.types}


@pytest.mark.parametrize("r", range(1, 7))
def test_raw_color_sum_is_the_color_sum(r):
    # an antisymmetric w is an absolute involution only in a quotient of
    # even scalar order; n is even, so its coset's lifts share its color sum
    for n in range(5):
        elements = symmetric_elements(r, n) + [
            ProjectiveElement(w, 2) for w in antisymmetric_elements(r, n)
        ]
        for w in elements:
            assert _raw_color_sum(r, *_raw_type(w)) == w.rep.color_sum(), w


# acting groups; the first three have antisymmetric blocks
CENTRAL_GROUPS = [(4, 2, 1, 4), (4, 2, 2, 4), (2, 2, 1, 6), (4, 1, 2, 4), (6, 1, 3, 3)]


@pytest.mark.parametrize("group", CENTRAL_GROUPS, ids=_flags_id)
def test_central_scalar_rotates_each_block_by_its_color_sum(group):
    # zeta^t*I acts on the block M(c) by zeta^(t*e(c)), e(c) the color sum
    # of c's involutions: |zeta^t*I| is the identity, so the sign and the
    # transfer statistic vanish and only the pairing t*e(c) is left
    r, p, q, n = group
    positions = class_positions(r, p, n)
    images = []
    for t in range(r):
        if t * n % p == 0:
            scalar = ColoredPermutation.scalar(r, n, t)
            for k, label in enumerate(enumerate_classes(r, p, n)):
                images.append((t, k, positions[class_of(scalar * normal_element(label), p)]))
    for twist in (True, False):
        for ctype, columns in _type_histograms(r, p, q, n, twist).items():
            e = _raw_color_sum(r, ctype.h, ctype.fixed, ctype.pair)
            for t, k, image in images:
                rotated = shape_shift(tuple(columns[k]), t * e)
                assert tuple(columns[image]) == rotated, (twist, ctype, t, k)


def _involution_count(r, n):
    """Absolute involutions of G(r,n): k 2-cycles on 2k of the n letters,
    one color per cycle."""
    return sum(
        comb(n, 2 * k) * factorial(2 * k) // (2**k * factorial(k)) * r ** (n - k)
        for k in range(n // 2 + 1)
    )


@pytest.mark.parametrize("r", range(1, 6))
def test_identity_column_sums_to_the_involution_count(r, monkeypatch):
    # only the identity class, which enumerate_classes lists last: the
    # sizes need no other column, and 5 1 1 7 is past the default guard
    monkeypatch.setattr(
        gelfand.model, "enumerate_classes", lambda r, p, n: enumerate_classes(r, p, n)[-1:]
    )
    for n in range(1, 8):
        sizes = _block_sizes(_type_histograms(r, 1, 1, n))
        assert sum(sizes.values()) == _involution_count(r, n), n


def test_drivers_enumerate_no_involution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("involutions enumerated")

    monkeypatch.setattr(gelfand.model, "ModelBasis", refuse)
    monkeypatch.setattr(gelfand.model, "enumerate_involution_classes", refuse)
    monkeypatch.setattr(gelfand.classes, "enumerate_involution_classes", refuse)
    assert verify_class_decomposition(2, 2, 1, 6).passed
    assert gelfand_check(2, 1, 1, 6)[1]


def test_guard_runs_before_the_sweep(monkeypatch, capsys):
    def refuse(label):
        raise AssertionError("sweep started past the guard")

    monkeypatch.setattr(gelfand.model, "_class_window", refuse)
    for driver in (verify_class_decomposition, gelfand_check):
        with pytest.raises(ResourceLimitError, match=r"r\^n\*n! at r=2, n=4 exceeds 10$"):
            driver(2, 1, 1, 4, max_order=10)
    argv = ["model", "decompose", "--r", "2", "--p", "1", "--q", "1", "--n", "4"]
    assert main(argv + ["--max-group-order", "10"]) == 2
    assert "resource limit: the model check (r^n*n! stands in" in capsys.readouterr().err


def _reference_inner_product(f, g):
    """inner_product with one class_size call per class.  Verbatim the
    implementation before the class sizes were cached."""
    f._same_group(g)
    order = f.r**f.n * factorial(f.n) // f.p
    total = Cyclotomic.zero(f.r)
    classes = enumerate_classes(f.r, f.p, f.n)
    for label, value, other in zip(classes, f.values, g.values):
        total = total + value * other.conjugate() * class_size(label)
    return total / order


# 2 1 2 4 is a quotient basis; 4 2 1 2 has split classes
@pytest.mark.parametrize("flags", [(2, 1, 2, 4), (4, 2, 1, 2)], ids=_flags_id)
def test_inner_product_matches_per_class_sizes(flags, monkeypatch):
    basis = _basis_from_flags(*flags)
    table = character_table(basis.r, basis.p, basis.q, basis.n)
    blocks = [model_character(basis, ctype) for ctype in basis.types]
    for f in blocks:
        for _, row in table:
            assert inner_product(f, row) == _reference_inner_product(f, row)
    projected = [decompose(f, table) for f in blocks]
    monkeypatch.setattr(gelfand.characters, "inner_product", _reference_inner_product)
    assert projected == [decompose(f, table) for f in blocks]


@pytest.mark.parametrize("flags", DIFFERENTIAL_BASES, ids=_flags_id)
def test_model_character_matches_reference(flags):
    basis = _basis_from_flags(*flags)
    for scope in basis.types + ("all", "M0", "M1"):
        for twist in (True, False):
            ours = model_character(basis, scope, twist)
            assert ours == _reference_model_character(basis, scope, twist), (
                scope,
                twist,
            )
            assert ours == _window_model_character(basis, scope, twist), (
                scope,
                twist,
            )


def _shifted_fixed_points(basis):
    """(class, coset) pairs where the class representative fixes the coset
    but not its lift: fixed only up to a nonzero scalar shift."""
    out = []
    for label in enumerate_classes(basis.r, basis.p, basis.n):
        g = normal_element(label)
        for v in basis.elements:
            if projective_conjugate(g, v) == v and absolute_conjugate(g, v.rep) != v.rep:
                out.append((label, v))
    return out


# at n = 1 the only cycle is a fixed point, which admits no shift
@pytest.mark.parametrize(
    "flags",
    [flags for flags in DIFFERENTIAL_BASES if flags[2] > 1 and flags[3] > 1],
    ids=_flags_id,
)
def test_quotient_bases_have_shifted_fixed_points(flags):
    assert _shifted_fixed_points(_basis_from_flags(*flags))


# 2 1 1 7 and 3 1 1 5 are the gelfand-check panel; 4 1 2 4, a decompose
# panel group, is a quotient basis with fixed cosets up to a nonzero shift
@pytest.mark.parametrize(
    "flags, blocks",
    [((2, 1, 1, 7), False), ((3, 1, 1, 5), False), ((4, 1, 2, 4), True)],
    ids=lambda value: _flags_id(value) if isinstance(value, tuple) else None,
)
def test_model_character_matches_window_loop(flags, blocks):
    basis = _basis_from_flags(*flags)
    for scope in (basis.types + ("all",)) if blocks else ("all",):
        assert model_character(basis, scope) == _window_model_character(basis, scope)


# 4 1 2 4 adds a larger quotient basis with fixed cosets up to a shift
@pytest.mark.parametrize(
    "flags", DIFFERENTIAL_BASES + [(4, 1, 2, 4)], ids=_flags_id
)
def test_one_sweep_matches_each_block_alone(flags, monkeypatch):
    basis = _basis_from_flags(*flags)
    # one sweep per twist serves every block and both halves
    monkeypatch.setattr(gelfand.model, "_type_histograms", cache(_type_histograms))
    for twist in (True, False):
        for scope in basis.types + ("M0", "M1"):
            ours = model_character(basis, scope, twist)
            assert ours == _window_model_character(basis, scope, twist), (scope, twist)


def test_verification_builds_each_class_window_once(monkeypatch):
    calls = []
    window = gelfand.model._class_window

    def counted(label):
        calls.append(label)
        return window(label)

    monkeypatch.setattr(gelfand.model, "_class_window", counted)
    report = verify_class_decomposition(2, 2, 1, 4)
    assert report.passed and len(report.entries) > 1
    labels = enumerate_classes(2, 2, 4)
    assert len(calls) == len(labels) and set(calls) == set(labels)


def test_model_character_rejects_lift_dependent_pairing(monkeypatch):
    # G(2,1,4) has classes of odd color sum; their pairing with a coset of
    # scalar order 2 depends on the lift
    basis = ModelBasis(2, 2, 1, 4)
    monkeypatch.setattr(
        gelfand.model, "enumerate_classes", lambda r, p, n: enumerate_classes(r, 1, n)
    )
    with pytest.raises(ValueError, match="pairing is not lift-independent"):
        model_character(basis)


def test_model_character_rejects_non_involution():
    three_cycle = ProjectiveElement(parse_window("[2^0,3^0,1^0]", 2), 1)
    basis = SimpleNamespace(
        r=2, p=1, n=3, elements=(three_cycle,), scope_indices=lambda scope: (0,)
    )
    with pytest.raises(ValueError, match="neither symmetric nor antisymmetric"):
        model_character(basis)


@pytest.mark.parametrize("flags", DIFFERENTIAL_BASES, ids=_flags_id)
def test_reassembly_matches_projection(flags):
    basis = _basis_from_flags(*flags)
    table = character_table(basis.r, basis.p, basis.q, basis.n)
    assert rows_independent(table)
    for ctype in basis.types:
        f = model_character(basis, ctype)
        assert decompose(f, table, predicted_labels(ctype)) == decompose(f, table)


@st.composite
def _subgroup_element(draw, r, p, n):
    """An element of G(r,p,n): any window, with the last color adjusted so
    that the color sum is divisible by p."""
    perm = draw(st.permutations(range(1, n + 1)))
    colors = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    colors[-1] -= sum(colors) % p
    return ColoredPermutation(r, perm, colors)


@pytest.mark.parametrize(
    "flags", [(2, 1, 2, 4), (4, 1, 2, 2), (3, 1, 1, 3)], ids=_flags_id
)
def test_block_trace_is_constant_on_conjugates(flags):
    basis = _basis_from_flags(*flags)
    labels = enumerate_classes(basis.r, basis.p, basis.n)
    characters = {ctype: model_character(basis, ctype) for ctype in basis.types}

    @settings(max_examples=25, deadline=None)
    @given(h=_subgroup_element(basis.r, basis.p, basis.n))
    def check(h):
        for label in labels:
            g = normal_element(label)
            action = model_action(h * g * h.inverse(), basis)
            for ctype, chi in characters.items():
                assert action.trace(basis.blocks[ctype]) == chi(label)

    check()


def _report_json(report):
    return [entry.to_json() for entry in report.entries]


def test_wrong_prediction_falls_back_to_projection(monkeypatch, capsys):
    predicted = gelfand.model.predicted_labels
    monkeypatch.setattr(
        gelfand.model, "predicted_labels", lambda ctype: predicted(ctype)[:-1]
    )
    report = verify_class_decomposition(2, 2, 1, 4)
    assert not any(entry.passed for entry in report.entries)
    monkeypatch.setattr(gelfand.model, "rows_independent", lambda table: False)
    slow = verify_class_decomposition(2, 2, 1, 4)
    assert _report_json(report) == _report_json(slow)
    monkeypatch.undo()
    monkeypatch.setattr(
        gelfand.model, "predicted_labels", lambda ctype: predicted(ctype)[:-1]
    )
    argv = ["model", "decompose", "--r", "2", "--p", "1", "--q", "2", "--n", "4"]
    assert main(argv) == 1
    assert '"pass": false' in capsys.readouterr().out


def _count_inner_products(monkeypatch):
    calls = []
    inner_product = gelfand.characters.inner_product

    def counted(f, g):
        calls.append(None)
        return inner_product(f, g)

    monkeypatch.setattr(gelfand.characters, "inner_product", counted)
    return calls


def test_uncertified_table_projects_every_block(monkeypatch):
    calls = _count_inner_products(monkeypatch)
    table = character_table(2, 2, 1, 4)
    certified = verify_class_decomposition(2, 2, 1, 4)
    assert certified.passed
    assert gelfand_check(2, 2, 1, 4)[1]
    assert len(calls) == 0
    monkeypatch.setattr(gelfand.model, "rows_independent", lambda table: False)
    projected = verify_class_decomposition(2, 2, 1, 4)
    assert _report_json(projected) == _report_json(certified)
    assert len(calls) == len(table) * len(certified.entries)
    del calls[:]
    assert gelfand_check(2, 2, 1, 4)[1]
    assert len(calls) == len(table)


def test_gelfand_check_rejects_negative_multiplicity(monkeypatch):
    # minus one row is a virtual character: its projection finds
    # multiplicity -1, which the full-module check must not report as a count
    negated = character_table(2, 2, 1, 4)[0][1].scale(-1)
    monkeypatch.setattr(
        gelfand.model, "_scope_characters", lambda r, p, n, histograms, groups: [negated]
    )
    with pytest.raises(InconsistencyError, match="negative multiplicity"):
        gelfand_check(2, 2, 1, 4)


def test_both_drivers_check_the_dimension_anchor(monkeypatch):
    monkeypatch.setattr(gelfand.model, "label_degree", lambda label: 1)
    with pytest.raises(InconsistencyError, match="model dimension"):
        verify_class_decomposition(2, 2, 1, 4)
    with pytest.raises(InconsistencyError, match="model dimension"):
        gelfand_check(2, 2, 1, 4)


def test_certified_verification_does_no_cyclotomic_arithmetic(monkeypatch):
    calls = []
    for attr in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
        original = getattr(Cyclotomic, attr)

        def counted(*args, _original=original):
            calls.append(None)
            return _original(*args)

        monkeypatch.setattr(Cyclotomic, attr, counted)
    assert verify_class_decomposition(2, 2, 1, 4).passed
    assert gelfand_check(2, 2, 1, 4)[1]
    assert len(calls) == 0


def test_unsupported_group_refused_before_the_basis(monkeypatch):
    # GCD(3,6) = 3: both drivers must refuse before enumerating 2,808 cosets
    def refuse(*args, **kwargs):
        raise AssertionError("basis built for an unsupported group")

    monkeypatch.setattr(gelfand.model, "ModelBasis", refuse)
    with pytest.raises(UnsupportedGroupError):
        verify_class_decomposition(3, 3, 1, 6)
    with pytest.raises(UnsupportedGroupError):
        gelfand_check(3, 3, 1, 6)


def _count_constructions(monkeypatch):
    calls = []
    original = ColoredPermutation.__init__

    def counted(self, *args):
        calls.append(None)
        original(self, *args)

    monkeypatch.setattr(ColoredPermutation, "__init__", counted)
    return calls


def test_basis_builds_one_permutation_per_lift(monkeypatch):
    calls = _count_constructions(monkeypatch)
    # p = 1: every symmetric lift is its own coset, kept as is
    basis = ModelBasis(2, 1, 1, 5)
    assert len(calls) == basis.dimension
    # p = 2: each coset has two lifts, and only the least is kept
    calls.clear()
    basis = ModelBasis(2, 2, 1, 4)
    assert len(calls) <= 2 * basis.dimension
    least = parse_window("[2^1,1^2,3^0]", 4)
    calls.clear()
    assert ProjectiveElement(least, 2).rep is least
    assert not calls


def test_every_block_is_proved_by_one_public_decompose(monkeypatch):
    calls = []
    decompose = gelfand.model.decompose

    def counted(character, table, expected=None):
        calls.append(expected)
        return decompose(character, table, expected)

    monkeypatch.setattr(gelfand.model, "decompose", counted)
    report = verify_class_decomposition(2, 2, 1, 4)
    assert report.passed
    assert len(calls) == len(report.entries)
    # the table is certified, so each call names its block's prediction
    assert [tuple(expected) for expected in calls] == [
        entry.predicted for entry in report.entries
    ]
    calls.clear()
    only = InvolutionClassType.parse("asym[2]", 2, 2)
    assert verify_class_decomposition(2, 2, 1, 4, only=only).passed
    assert len(calls) == 1
    assert not hasattr(gelfand.characters, "_decompose")


def test_predicted_labels_shape():
    sym = InvolutionClassType.parse("sym[4,0;0,0]", 2, 2)
    labels = predicted_labels(sym)
    assert all(label.j == 0 for label in labels)
    asym = InvolutionClassType.parse("asym[2]", 2, 2)
    for label in predicted_labels(asym):
        assert label.orbit.m == 2
        assert label.j == 1
        assert str(label).endswith("^1")


# acting groups (r, p, q, n): plain, quotient and split-row groups
RS_BLOCK_GROUPS = [
    (3, 1, 1, 5),
    (3, 1, 1, 6),
    (2, 1, 1, 7),
    (2, 2, 1, 4),
    (2, 2, 1, 6),
    (4, 2, 1, 4),
    (6, 2, 1, 3),
    (6, 2, 1, 4),
    (6, 3, 1, 3),
    (4, 1, 2, 4),
    (2, 1, 2, 6),
]


@pytest.mark.parametrize("r,p,q,n", RS_BLOCK_GROUPS)
def test_block_shapes_follow_projective_rs(r, p, q, n):
    """The paper's statement on each block M(c): projective RS sends its
    cosets onto the standard fillings of the predicted orbits, so the
    shapes of the cosets are the predicted labels' orbits, each counted
    once per filling."""
    basis = ModelBasis(r, p, q, n, max_order=r**n * factorial(n))
    for ctype, indices in basis.blocks.items():
        shapes = Counter(shape_of(basis.elements[i]) for i in indices)
        predicted = Counter()
        for label in predicted_labels(ctype):
            predicted[label.orbit] += count_standard(label.orbit)
        assert shapes == predicted, ctype


def test_verify_small_group():
    report = verify_class_decomposition(2, 1, 1, 3)
    assert report.passed
    assert len(report.entries) == len(ModelBasis(2, 1, 1, 3).types)
    payload = report.to_json()
    assert payload["pass"] is True
    assert payload["acting_group"]["p"] == 1
    assert payload["basis_group"]["q"] == 1
    for entry in payload["classes"]:
        assert entry["pass"] is True
        assert entry["predicted"] == [
            row["label"] for row in entry["computed"]
        ]
        assert all(row["multiplicity"] == 1 for row in entry["computed"])


def test_verify_single_block_and_bad_type():
    only = InvolutionClassType.parse("asym[2]", 2, 2)
    report = verify_class_decomposition(2, 2, 1, 4, only=only)
    assert len(report.entries) == 1
    assert report.entries[0].passed
    with pytest.raises(ValueError):
        verify_class_decomposition(
            2, 2, 1, 4, only=InvolutionClassType.parse("sym[0,2;1,1]", 2, 2)
        )


def test_gelfand_check_small():
    rows, passed = gelfand_check(3, 1, 1, 3)
    assert passed
    assert all(mult == 1 for _, mult in rows)
    assert len(rows) == len(character_table(3, 1, 1, 3))


@pytest.mark.parametrize(
    "r, p, q, n",
    [(2, 1, 1, 6), (3, 1, 1, 4), (2, 2, 1, 6), (4, 2, 1, 4), (4, 1, 2, 4), (6, 2, 1, 3)],
)
def test_model_drivers_agree(r, p, q, n):
    # the model is the direct sum of its blocks: gelfand_check's
    # multiplicities are, label by label, the sums of the multiplicities
    # verify_class_decomposition finds in the blocks (acting groups with
    # split rows, 2 2 1 6 and 4 2 1 4, and a quotient, 4 1 2 4)
    rows, passed = gelfand_check(r, p, q, n)
    report = verify_class_decomposition(r, p, q, n)
    assert passed and report.passed
    summed = Counter()
    for entry in report.entries:
        for label, mult in entry.computed:
            summed[label] += mult
    assert summed == Counter(dict(rows))


def _reference_pi21_partitions(g: ColoredPermutation):
    """pi21_partitions by its own recursion.  Verbatim the implementation
    before cycle_pairings."""
    cycles = g.cycles()

    def rec(remaining):
        if not remaining:
            yield ()
            return
        first, rest = remaining[0], remaining[1:]
        for tail in rec(rest):
            yield ((first,),) + tail
        for i, other in enumerate(rest):
            if len(cycles[other]) == len(cycles[first]):
                for tail in rec(rest[:i] + rest[i + 1 :]):
                    yield ((first, other),) + tail

    return [tuple(sorted(partition)) for partition in rec(tuple(range(len(cycles))))]


@pytest.mark.parametrize("r, n", [(2, 6), (4, 4), (3, 5)])
def test_pi21_partitions_match_recursion(r, n):
    for label in enumerate_classes(r, 1, n):
        g = normal_element(label)
        assert pi21_partitions(g) == _reference_pi21_partitions(g), label


def test_pi21_partition_counts():
    two_two = ColoredPermutation.from_cycles(
        2, 4, [((1, 0), (2, 0)), ((3, 0), (4, 0))]
    )
    assert len(pi21_partitions(two_two)) == 2
    three_fixed = ColoredPermutation.identity(2, 3)
    assert len(pi21_partitions(three_fixed)) == 4
    mixed = ColoredPermutation.from_cycles(2, 3, [((1, 0), (2, 0)), ((3, 0),)])
    assert len(pi21_partitions(mixed)) == 1


def test_part_color():
    g = ColoredPermutation.from_cycles(
        4, 4, [((1, 1), (2, 2)), ((3, 0), (4, 3))]
    )
    cycles = g.cycles()
    assert part_color(g, (0,)) == 3
    assert part_color(g, (1,)) == 3
    assert part_color(g, (0, 1)) == 2


def test_a_sets_bucket_sizes():
    g = ColoredPermutation.from_cycles(
        4, 4, [((1, 0), (2, 0)), ((3, 0), (4, 0))]
    )
    buckets = a_sets(g, 1)
    by_parts = {
        tuple(sorted(len(part) for part in key)): ws
        for key, ws in buckets.items()
    }
    # two singleton parts: 4 choices each; the paired part: 4*2 elements
    assert len(by_parts[(1, 1)]) == 16
    assert len(by_parts[(2,)]) == 8


def test_a_sets_pair_bucket_golden():
    g = ColoredPermutation.from_cycles(
        4, 4, [((1, 0), (2, 0)), ((3, 0), (4, 0))]
    )
    buckets = a_sets(g, 1)
    pair_key = next(k for k in buckets if len(k) == 1)
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
    assert set(buckets[pair_key]) == expected


def test_a_sets_independent_of_colors():
    plain = ColoredPermutation.from_cycles(
        4, 4, [((1, 0), (2, 0)), ((3, 0), (4, 0))]
    )
    colored = ColoredPermutation.from_cycles(
        4, 4, [((1, 3), (2, 1)), ((3, 2), (4, 2))]
    )
    assert a_sets(plain, 1) == a_sets(colored, 1)


def test_a_sets_odd_cycle_empty():
    g = ColoredPermutation.from_cycles(
        4, 4, [((1, 0), (2, 0), (3, 0)), ((4, 0),)]
    )
    assert a_sets(g, 1) == {}


def test_a_sets_identity_eps0():
    buckets = a_sets(ColoredPermutation.identity(4, 4), 0)
    assert len(buckets) == 3  # one bucket per perfect matching
    assert sum(len(ws) for ws in buckets.values()) == 48
    assert all(len(ws) == 16 for ws in buckets.values())


def test_a_sets_guard():
    big = ColoredPermutation.identity(6, 14)
    with pytest.raises(ResourceLimitError):
        a_sets(big, 1, max_count=1000)


def test_halfway_difference_is_cyclotomic():
    basis = ModelBasis(2, 2, 1, 4)
    for label in enumerate_classes(2, 2, 4):
        value = halfway_difference(basis, label)
        assert isinstance(value, Cyclotomic)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: ModelBasis(2, 1, 1, 2).scope_types("M2"),
            ValueError,
            "scope must be 'all', 'M0', 'M1' or a type",
        ),
    ],
    ids=["scope_types-M2"],
)
def test_refusals_name_their_reason(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
