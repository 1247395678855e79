"""Exact cyclotomic arithmetic against independent oracles: complex
floating approximations, known minimal-polynomial identities, and ring
axioms on randomized elements."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelfand.cyclotomic import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    zeta,
)


def test_euler_phi_small():
    assert [euler_phi(k) for k in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


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
