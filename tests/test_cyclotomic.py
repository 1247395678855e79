"""Exact cyclotomic arithmetic against independent oracles: complex
floating approximations, known minimal-polynomial identities, ring
axioms on randomized elements, and the Fraction-coefficient class that
the integer representation replaced."""

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gelfand.characters import character_table
from gelfand.cyclotomic import (
    Cyclotomic,
    _exponent_map,
    cyclotomic_polynomial,
    zeta,
)
from gelfand.immutable import Immutable


def _unit_count(r: int) -> int:
    """The number of units mod r, counted one residue at a time: phi(r),
    the number of coordinates of a value of order r."""
    return sum(1 for k in range(1, r + 1) if gcd(k, r) == 1)


def test_euler_phi_small():
    assert [_unit_count(k) for k in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


def test_euler_phi_is_the_degree_of_the_cyclotomic_polynomial():
    for r in range(1, 61):
        assert len(cyclotomic_polynomial(r)) - 1 == _unit_count(r), r


def test_cyclotomic_polynomial_known():
    # x - 1, x + 1, x^2 + x + 1, x^2 + 1, x^4 + x^3 + x^2 + x + 1
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    # phi_12 = x^4 - x^2 + 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_powers_cycle():
    z = zeta(6)
    acc = Cyclotomic.one(6)
    for k in range(1, 7):
        acc = acc * z
        assert acc == zeta(6, k % 6)
    assert acc == Cyclotomic.one(6)


def test_primitive_root_sums_to_zero():
    for r in (2, 3, 4, 5, 6, 8, 12):
        total = Cyclotomic.zero(r)
        for k in range(r):
            total = total + zeta(r, k)
        assert total.is_zero()


def test_sixth_root_is_not_rational():
    z = zeta(6)
    assert not z.is_rational()
    # z6 + conj(z6) = 1 in the hexagonal field
    assert (z + z.conjugate()).rational_value() == 1


def test_fourth_root_squares_to_minus_one():
    i = zeta(4)
    assert (i * i).rational_value() == -1
    assert (i ** 3) == i.conjugate()


def test_cross_order_equality_and_coercion():
    # z6^3 = -1 no matter the ambient order
    assert zeta(6, 3) == Cyclotomic.from_rational(-1)
    assert zeta(2, 1) == zeta(6, 3)
    assert zeta(4, 2) == zeta(2, 1)
    lifted = zeta(3).to_order(12)
    assert lifted.order == 12
    assert lifted == zeta(3)


def test_rational_division():
    z = zeta(5)
    w = (z / 3) * Cyclotomic.from_rational(3)
    assert w == z
    assert (z / Fraction(1, 2)) == z + z
    with pytest.raises(ZeroDivisionError):
        z / 0


def test_galois_fixes_rationals_and_permutes_roots():
    z = zeta(7)
    assert z.galois(3) == zeta(7, 3)
    x = Cyclotomic.from_rational(Fraction(22, 7), 7)
    assert x.galois(5) == x
    with pytest.raises(ValueError):
        z.galois(7)  # exponent not coprime with the order


def test_conjugate_gives_squared_modulus():
    x = zeta(12, 5) + Cyclotomic.from_rational(2, 12)
    norm = x * x.conjugate()
    approx = abs(x.complex_value()) ** 2
    assert abs(norm.complex_value() - approx) < 1e-9


def test_complex_value_matches_roots():
    import cmath

    for r in (3, 4, 6, 8):
        for k in range(r):
            expected = cmath.exp(2j * cmath.pi * k / r)
            assert abs(zeta(r, k).complex_value() - expected) < 1e-9


def test_str_monomial_forms():
    assert str(zeta(12, 2)) == "z12^2"
    assert str(zeta(8, 3)) == "z8^3"
    assert str(zeta(6, 1)) == "z6"
    assert str(Cyclotomic.one(6)) == "1"
    assert str(Cyclotomic.zero(4)) == "0"
    # values reduce into the power basis of the field
    assert str(zeta(6, 2)) == "-1 + z6"


def test_json_round_trip():
    x = zeta(8, 3) - zeta(8, 1)
    again = Cyclotomic.from_json(x.to_json())
    assert again == x


small_roots = st.tuples(
    st.sampled_from([1, 2, 3, 4, 6]), st.integers(min_value=0, max_value=5)
)


def _element(coords):
    order, k = coords
    return zeta(order, k % order)


@settings(max_examples=60, deadline=None)
@given(small_roots, small_roots, small_roots)
def test_ring_axioms(first, second, third):
    a, b, c = _element(first), _element(second), _element(third)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert a - b == a + (-b)
    assert 1 - a == Cyclotomic.one() + (-a)


@settings(max_examples=40, deadline=None)
@given(small_roots)
def test_conjugation_is_involutive(coords):
    x = _element(coords) + Cyclotomic.from_rational(Fraction(1, 3))
    assert x.conjugate().conjugate() == x


@settings(max_examples=40, deadline=None)
@given(
    order=st.sampled_from([1, 2, 3, 4, 6, 12]),
    data=st.data(),
)
def test_power_list_longer_than_phi_reduces(order, data):
    weights = data.draw(
        st.lists(st.integers(-5, 5), min_size=order, max_size=order)
    )
    total = Cyclotomic.zero(order)
    for k, w in enumerate(weights):
        total = total + Cyclotomic.root(order, k) * w
    assert Cyclotomic(order, weights) == total
    halves = [Fraction(w, 2) for w in weights]
    assert Cyclotomic(order, halves) == Cyclotomic(order, [str(h) for h in halves])
    assert Cyclotomic(order, halves) == total * Fraction(1, 2)


def test_canonical_form():
    assert Cyclotomic.__slots__ == ("order", "nums", "den")
    values = [
        Cyclotomic(6, [2, 4], 6),
        Cyclotomic(12, [Fraction(1, 3), 0, Fraction(-5, 6), 7, 2]),
        zeta(5) / 4 - Fraction(3, 10),
        Cyclotomic(4, [3, 6, 9], -3),
        zeta(8) * Fraction(2, 3) + zeta(8, 3) * Fraction(-4, 9),
    ]
    for value in values:
        assert len(value.nums) == _unit_count(value.order)
        assert all(isinstance(x, int) for x in value.nums)
        assert value.den >= 1
        assert gcd(value.den, *value.nums) == 1
    for order in (1, 4, 12):
        for zero in (Cyclotomic.zero(order), zeta(order) / 3 - zeta(order) / 3):
            assert (zero.nums, zero.den) == ((0,) * _unit_count(order), 1)
    negative = Cyclotomic(4, [1, 2], -2)
    assert (negative.nums, negative.den) == ((-1, -2), 2)
    halves = Cyclotomic(4, [1, 2], 2)
    fractions = Cyclotomic(4, [Fraction(1, 2), 1])
    assert (halves.nums, halves.den) == (fractions.nums, fractions.den) == ((1, 2), 2)
    assert halves.coeffs == (Fraction(1, 2), Fraction(1))


def test_floats_are_refused():
    with pytest.raises(TypeError):
        Cyclotomic(4, [0.1])
    with pytest.raises(TypeError):
        Cyclotomic(4, [1], 2.0)
    with pytest.raises(TypeError):
        Cyclotomic.from_rational(0.1)
    with pytest.raises(TypeError):
        zeta(4) * 0.5
    with pytest.raises(TypeError):
        zeta(4) + 0.5
    exact = Cyclotomic(4, [1, Fraction(1, 3), "2/5"])
    assert exact == Cyclotomic(4, [Fraction(3, 5), Fraction(1, 3)])


# The Fraction-coefficient implementation that integer numerators over one
# denominator replaced, kept as a differential oracle.


def _fraction_reduce_mod_phi(coeffs: list[Fraction], r: int) -> list[Fraction]:
    phi = _unit_count(r)
    mod = cyclotomic_polynomial(r)
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[i]
        if c:
            for j, m in enumerate(mod):
                coeffs[i - phi + j] -= c * m
        coeffs.pop()
    while len(coeffs) < phi:
        coeffs.append(Fraction(0))
    return coeffs


@lru_cache(maxsize=None)
def _fraction_root_power_coeffs(r: int, k: int) -> tuple[Fraction, ...]:
    """Power-basis coordinates of zeta_r^k."""
    k %= r
    return tuple(_fraction_reduce_mod_phi([Fraction(0)] * k + [Fraction(1)], r))


def _fraction_substitute(coeffs, order: int, k: int) -> list[Fraction]:
    """Power-basis coordinates in Q(zeta_order) of sum_j coeffs[j] *
    zeta_order^(j*k)."""
    acc = [Fraction(0)] * _unit_count(order)
    for j, a in enumerate(coeffs):
        if a:
            for i, c in enumerate(_fraction_root_power_coeffs(order, j * k)):
                acc[i] += a * c
    return acc


class _FractionCyclotomic(Immutable):
    """An element of Q(zeta_order), immutable."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        phi = _unit_count(order)
        vec = list(coeffs)
        if len(vec) > phi:
            # ints stay ints through the reduction, which is then cheaper
            vec = _fraction_reduce_mod_phi(
                [c if isinstance(c, int) else Fraction(c) for c in vec], order
            )
        vec = [Fraction(c) for c in vec]
        while len(vec) < phi:
            vec.append(Fraction(0))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(vec))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "_FractionCyclotomic":
        return _FractionCyclotomic(order, [])

    @staticmethod
    def one(order: int = 1) -> "_FractionCyclotomic":
        return _FractionCyclotomic(order, [Fraction(1)])

    @staticmethod
    def from_rational(value, order: int = 1) -> "_FractionCyclotomic":
        return _FractionCyclotomic(order, [Fraction(value)])

    @staticmethod
    def root(order: int, k: int = 1) -> "_FractionCyclotomic":
        """zeta_order^k."""
        return _FractionCyclotomic(order, _fraction_root_power_coeffs(order, k))

    # -- order handling ------------------------------------------------

    def to_order(self, new_order: int) -> "_FractionCyclotomic":
        """Rewrite in Q(zeta_new_order); new_order must be a multiple of order."""
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise ValueError("can only lift to a multiple of the current order")
        return _FractionCyclotomic(
            new_order,
            _fraction_substitute(self.coeffs, new_order, new_order // self.order),
        )

    def _common(self, other: "_FractionCyclotomic"):
        m = lcm(self.order, other.order)
        return self.to_order(m), other.to_order(m)

    @staticmethod
    def _coerce(value) -> "_FractionCyclotomic":
        if isinstance(value, _FractionCyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return _FractionCyclotomic.from_rational(value)
        return NotImplemented

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _FractionCyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return _FractionCyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return _FractionCyclotomic(self.order, [-x for x in self.coeffs])

    def __sub__(self, other):
        other = _FractionCyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return _FractionCyclotomic(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        other = _FractionCyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return _FractionCyclotomic(self.order, [x * f for x in self.coeffs])
        if not isinstance(other, _FractionCyclotomic):
            return NotImplemented
        a, b = self._common(other)
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1 if a.coeffs else 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return _FractionCyclotomic(a.order, prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / f)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = _FractionCyclotomic.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- Galois action ---------------------------------------------------

    def galois(self, k: int) -> "_FractionCyclotomic":
        """Apply the automorphism zeta -> zeta^k (k coprime to order)."""
        r = self.order
        if r == 1:
            return self
        if gcd(k, r) != 1:
            raise ValueError("automorphism exponent must be coprime to the order")
        return _FractionCyclotomic(r, _fraction_substitute(self.coeffs, r, k))

    def conjugate(self) -> "_FractionCyclotomic":
        """Complex conjugation: zeta -> zeta^(-1)."""
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    # -- predicates and extraction ---------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational: %s" % self)
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    def integer_value(self) -> int:
        v = self.rational_value()
        if v.denominator != 1:
            raise ValueError("value is not an integer: %s" % self)
        return v.numerator

    def __eq__(self, other) -> bool:
        other = _FractionCyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    # Equality spans orders, so there is no cheap consistent hash; the
    # library never uses values as dict keys.
    __hash__ = None

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
                continue
            mono = "z%d" % self.order if k == 1 else "z%d^%d" % (self.order, k)
            if c == 1:
                terms.append(mono)
            elif c == -1:
                terms.append("-" + mono)
            else:
                terms.append("%s*%s" % (c, mono))
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def __repr__(self) -> str:
        return "_FractionCyclotomic(order=%d, %s)" % (self.order, self)

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "_FractionCyclotomic":
        return _FractionCyclotomic(
            int(data["order"]), [Fraction(c) for c in data["coeffs"]]
        )

    def complex_value(self) -> complex:
        """Floating approximation, for display only."""
        import cmath

        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        for k, c in enumerate(self.coeffs):
            total += float(c) * z**k
        return total


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def coefficient_lists(draw):
    """(order, coefficients) with up to order coefficients, so that lists
    longer than phi(order) exercise the reduction."""
    order = draw(st.integers(1, 12))
    return order, draw(st.lists(rationals, max_size=order))


def _agree(new, old):
    assert isinstance(new, Cyclotomic)
    assert isinstance(old, _FractionCyclotomic)
    assert new.order == old.order
    assert new.coeffs == old.coeffs
    assert str(new) == str(old)
    assert json.dumps(new.to_json()) == json.dumps(old.to_json())


@settings(max_examples=150, deadline=None)
@given(coefficient_lists(), coefficient_lists(), rationals, st.data())
def test_agrees_with_fraction_oracle(first, second, q, data):
    a, b = Cyclotomic(*first), Cyclotomic(*second)
    a0, b0 = _FractionCyclotomic(*first), _FractionCyclotomic(*second)
    _agree(a, a0)
    _agree(b, b0)
    _agree(a + b, a0 + b0)
    _agree(a - b, a0 - b0)
    _agree(a * b, a0 * b0)
    _agree(q + a, q + a0)
    _agree(q - a, q - a0)
    _agree(a * q, a0 * q)
    if q:
        _agree(a / q, a0 / q)
    lift = a.order * data.draw(st.integers(1, 4))
    _agree(a.to_order(lift), a0.to_order(lift))
    units = [k for k in range(1, a.order + 1) if gcd(k, a.order) == 1]
    k = data.draw(st.sampled_from(units))
    _agree(a.galois(k), a0.galois(k))
    _agree(a.conjugate(), a0.conjugate())
    assert (a == b) == (a0 == b0)
    assert (a + b - b == a) and (a0 + b0 - b0 == a0)
    assert (a.to_order(lift) == a) and (a0.to_order(lift) == a0)
    assert (a == q) == (a0 == q)
    assert a.is_integer() == a0.is_integer()
    assert a.is_rational() == a0.is_rational()
    if a0.is_rational():
        assert a.rational_value() == a0.rational_value()
    else:
        with pytest.raises(ValueError):
            a.rational_value()


@pytest.mark.parametrize("group", [(6, 2, 1, 4), (4, 1, 1, 5)])
def test_table_values_render_as_the_fraction_oracle(group):
    distinct = {
        id(value): value for _, row in character_table(*group) for value in row.values
    }
    for value in distinct.values():
        assert str(value) == str(_FractionCyclotomic(value.order, value.coeffs))


@settings(max_examples=200, deadline=None)
@given(
    order=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]),
    nums=st.lists(st.integers(-12, 12), max_size=12),
    den=st.integers(1, 6),
)
@example(order=4, nums=[0, 0, 0, 0], den=3)  # zero
@example(order=6, nums=[-3, 2], den=2)  # -3/2 + z6
@example(order=12, nums=[-4, 0, 6, -2], den=2)  # every coefficient integral
@example(order=1, nums=[-7], den=1)
def test_str_renders_numerators_over_one_denominator_as_the_oracle(order, nums, den):
    value = Cyclotomic(order, nums, den)
    oracle = _FractionCyclotomic(order, [Fraction(x, den) for x in nums])
    assert str(value) == str(oracle)


@pytest.mark.parametrize("r", range(1, 13))
def test_exponent_map_matches_its_definition(r):
    histogram = tuple(range(10, 10 + r))
    assert _exponent_map(r) is tuple
    for v in range(1, r + 1):
        if gcd(v, r) == 1:
            for s in range(r):
                expected = tuple(histogram[v * (e - s) % r] for e in range(r))
                assert _exponent_map(r, v, s)(histogram) == expected, (v, s)


@settings(max_examples=200, deadline=None)
@given(
    order=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]),
    data=st.data(),
    den=st.integers(-6, 6).filter(bool),
)
def test_any_exponent_histogram_reduces_as_the_oracle(order, data, den):
    """_from_histogram takes sum_k h[k] zeta^k / den for a histogram of any
    length and either sign of den, as every constructor hands it one."""
    histogram = data.draw(st.lists(st.integers(-12, 12), max_size=3 * order))
    value = Cyclotomic._from_histogram(order, histogram, den)
    assert value.den > 0 and len(value.nums) == _unit_count(order)
    _agree(value, _FractionCyclotomic(order, [Fraction(x, den) for x in histogram]))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: zeta(4).to_order(6),
            ValueError,
            "can only lift to a multiple of the current order",
        ),
        (lambda: zeta(3) ** -1, ValueError, "negative powers are not supported"),
        (
            lambda: Cyclotomic.from_rational(Fraction(1, 2)).integer_value(),
            ValueError,
            "value is not an integer: 1/2",
        ),
        (
            lambda: cyclotomic_polynomial(0),
            ValueError,
            "order must be a positive integer",
        ),
    ],
    ids=[
        "to_order-non-multiple",
        "pow-negative",
        "integer_value-half",
        "cyclotomic_polynomial-0",
    ],
)
def test_refusals_name_their_reason(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
