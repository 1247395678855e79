"""Exact arithmetic in cyclotomic fields Q(zeta_r).

Elements are stored in the power basis 1, z, ..., z^(phi(r)-1) of
Q[x]/(Phi_r(x)) with Fraction coefficients, where Phi_r is the r-th
cyclotomic polynomial computed by exact recursive division of x^r - 1.
All operations are exact; mixed orders are lifted to the lcm order
through zeta_r = zeta_R^(R/r).

Values produced by character computations stay in this representation
end to end, so equality tests used by the decomposition routines are
exact, never numeric.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InconsistencyError
from .immutable import Immutable


@lru_cache(maxsize=None)
def euler_phi(r: int) -> int:
    if r < 1:
        raise ValueError("order must be a positive integer")
    count = 0
    for k in range(1, r + 1):
        if gcd(k, r) == 1:
            count += 1
    return count


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Divide two integer polynomials known to divide exactly.

    Coefficient lists are ordered from the constant term up.  The divisor
    must be monic (cyclotomic polynomials are), so the division stays in
    the integers.
    """
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - deg_d] = c
        for j, d in enumerate(den):
            num[i - deg_d + j] -= c * d
    if any(num):
        raise InconsistencyError("polynomial division was not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_r, constant term first, monic."""
    if r < 1:
        raise ValueError("order must be a positive integer")
    if r == 1:
        return (-1, 1)
    poly = [-1] + [0] * (r - 1) + [1]
    quot = list(poly)
    for d in range(1, r):
        if r % d == 0:
            quot = _poly_div_exact(quot, cyclotomic_polynomial(d))
    return tuple(quot)


def _reduce_mod_phi(coeffs: list[Fraction], r: int) -> list[Fraction]:
    phi = euler_phi(r)
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
def _root_power_coeffs(r: int, k: int) -> tuple[Fraction, ...]:
    """Power-basis coordinates of zeta_r^k."""
    k %= r
    return tuple(_reduce_mod_phi([Fraction(0)] * k + [Fraction(1)], r))


def _substitute(coeffs, order: int, k: int) -> list[Fraction]:
    """Power-basis coordinates in Q(zeta_order) of sum_j coeffs[j] *
    zeta_order^(j*k)."""
    acc = [Fraction(0)] * euler_phi(order)
    for j, a in enumerate(coeffs):
        if a:
            for i, c in enumerate(_root_power_coeffs(order, j * k)):
                acc[i] += a * c
    return acc


class Cyclotomic(Immutable):
    """An element of Q(zeta_order), immutable."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        vec = list(coeffs)
        if len(vec) > phi:
            # ints stay ints through the reduction, which is then cheaper
            vec = _reduce_mod_phi(
                [c if isinstance(c, int) else Fraction(c) for c in vec], order
            )
        vec = [Fraction(c) for c in vec]
        while len(vec) < phi:
            vec.append(Fraction(0))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(vec))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "Cyclotomic":
        return Cyclotomic(order, [])

    @staticmethod
    def one(order: int = 1) -> "Cyclotomic":
        return Cyclotomic(order, [Fraction(1)])

    @staticmethod
    def from_rational(value, order: int = 1) -> "Cyclotomic":
        return Cyclotomic(order, [Fraction(value)])

    @staticmethod
    def root(order: int, k: int = 1) -> "Cyclotomic":
        """zeta_order^k."""
        return Cyclotomic(order, _root_power_coeffs(order, k))

    # -- order handling ------------------------------------------------

    def to_order(self, new_order: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_new_order); new_order must be a multiple of order."""
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise ValueError("can only lift to a multiple of the current order")
        return Cyclotomic(
            new_order, _substitute(self.coeffs, new_order, new_order // self.order)
        )

    def _common(self, other: "Cyclotomic"):
        m = lcm(self.order, other.order)
        return self.to_order(m), other.to_order(m)

    @staticmethod
    def _coerce(value) -> "Cyclotomic":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyclotomic.from_rational(value)
        return NotImplemented

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return Cyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-x for x in self.coeffs])

    def __sub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return Cyclotomic(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Cyclotomic(self.order, [x * f for x in self.coeffs])
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(other)
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1 if a.coeffs else 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return Cyclotomic(a.order, prod)

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
        result = Cyclotomic.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- Galois action ---------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Apply the automorphism zeta -> zeta^k (k coprime to order)."""
        r = self.order
        if r == 1:
            return self
        if gcd(k, r) != 1:
            raise ValueError("automorphism exponent must be coprime to the order")
        return Cyclotomic(r, _substitute(self.coeffs, r, k))

    def conjugate(self) -> "Cyclotomic":
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
        other = Cyclotomic._coerce(other)
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
        return "Cyclotomic(order=%d, %s)" % (self.order, self)

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "Cyclotomic":
        return Cyclotomic(int(data["order"]), [Fraction(c) for c in data["coeffs"]])

    def complex_value(self) -> complex:
        """Floating approximation, for display only."""
        import cmath

        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        for k, c in enumerate(self.coeffs):
            total += float(c) * z**k
        return total


def zeta(order: int, k: int = 1) -> Cyclotomic:
    """Shorthand for the root of unity zeta_order^k."""
    return Cyclotomic.root(order, k)
