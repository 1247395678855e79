"""Exact arithmetic in cyclotomic fields Q(zeta_r).

Elements are stored in the power basis 1, z, ..., z^(phi(r)-1) of
Q[x]/(Phi_r(x)) as integer numerators over one positive denominator, in
lowest terms, where Phi_r is the r-th cyclotomic polynomial computed by
exact recursive division of x^r - 1.  All operations are exact, on ints;
mixed orders are lifted to the lcm order through zeta_r = zeta_R^(R/r).

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


def _reduce_mod_phi(nums: list[int], r: int) -> list[int]:
    """Integer coordinates of sum_k nums[k] x^k mod Phi_r: phi(r) of them."""
    phi = euler_phi(r)
    mod = cyclotomic_polynomial(r)
    nums = list(nums)
    for i in range(len(nums) - 1, phi - 1, -1):
        c = nums[i]
        if c:
            for j, m in enumerate(mod):
                nums[i - phi + j] -= c * m
        nums.pop()
    nums.extend([0] * (phi - len(nums)))
    return nums


@lru_cache(maxsize=None)
def _root_power_coeffs(r: int, k: int) -> tuple[int, ...]:
    """Power-basis coordinates of zeta_r^k."""
    if r < 1:
        raise ValueError("order must be a positive integer")
    k %= r
    return tuple(_reduce_mod_phi([0] * k + [1], r))


def _substitute(nums, order: int, k: int) -> list[int]:
    """Power-basis coordinates in Q(zeta_order) of sum_j nums[j] *
    zeta_order^(j*k)."""
    acc = [0] * euler_phi(order)
    for j, a in enumerate(nums):
        if a:
            for i, c in enumerate(_root_power_coeffs(order, j * k)):
                acc[i] += a * c
    return acc


class Cyclotomic(Immutable):
    """sum_k coeffs[k] * zeta_order^k / den in Q(zeta_order), immutable, held
    as phi(order) int numerators nums over den >= 1, gcd(den, *nums) == 1.
    Coefficients are exact: ints, Fractions, or strings Fraction reads."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs, den: int = 1) -> None:
        values = list(coeffs)
        if any(isinstance(c, float) for c in values):
            raise TypeError("coefficients must be exact, not float")
        values = [Fraction(c) for c in values]
        common = lcm(1, *(c.denominator for c in values))
        nums = [c.numerator * (common // c.denominator) for c in values]
        self._set(order, _reduce_mod_phi(nums, order), den * common)

    def _set(self, order: int, nums: list[int], den: int) -> None:
        """Store nums / den (phi(order) ints) in lowest terms, den > 0."""
        if den == 0:
            raise ZeroDivisionError("division by zero")
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @classmethod
    def _from_ints(cls, order: int, nums: list[int], den: int) -> "Cyclotomic":
        value = object.__new__(cls)
        value._set(order, nums, den)
        return value

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "Cyclotomic":
        return Cyclotomic(order, [])

    @staticmethod
    def one(order: int = 1) -> "Cyclotomic":
        return Cyclotomic(order, [1])

    @staticmethod
    def from_rational(value, order: int = 1) -> "Cyclotomic":
        return Cyclotomic(order, [value])

    @staticmethod
    def root(order: int, k: int = 1) -> "Cyclotomic":
        """zeta_order^k."""
        return Cyclotomic._from_ints(order, _root_power_coeffs(order, k), 1)

    # -- order handling ------------------------------------------------

    def to_order(self, new_order: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_new_order); new_order must be a multiple of order."""
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise ValueError("can only lift to a multiple of the current order")
        nums = _substitute(self.nums, new_order, new_order // self.order)
        return Cyclotomic._from_ints(new_order, nums, self.den)

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

    def _combine(self, other, sign: int):
        """self + sign * other, over the product of the denominators."""
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        da, db = a.den, b.den
        nums = [x * db + sign * y * da for x, y in zip(a.nums, b.nums)]
        return Cyclotomic._from_ints(a.order, nums, da * db)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._from_ints(self.order, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            nums = [x * other.numerator for x in self.nums]
            return Cyclotomic._from_ints(self.order, nums, self.den * other.denominator)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(other)
        prod = [0] * (2 * len(a.nums) - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(b.nums):
                    if y:
                        prod[i + j] += x * y
        prod = _reduce_mod_phi(prod, a.order)
        return Cyclotomic._from_ints(a.order, prod, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        nums = [x * other.denominator for x in self.nums]
        return Cyclotomic._from_ints(self.order, nums, self.den * other.numerator)

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
        return Cyclotomic._from_ints(r, _substitute(self.nums, r, k), self.den)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta -> zeta^(-1)."""
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    # -- predicates and extraction ---------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational: %s" % self)
        return Fraction(self.nums[0], self.den)

    def is_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

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
        return a.den == b.den and a.nums == b.nums

    # Equality spans orders, so there is no cheap consistent hash; the
    # library never uses values as dict keys.
    __hash__ = None

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for k, x in enumerate(self.nums):
            if not x:
                continue
            g = gcd(x, self.den)
            num, den = x // g, self.den // g
            c = str(num) if den == 1 else "%d/%d" % (num, den)
            if k == 0:
                terms.append(c)
                continue
            mono = "z%d" % self.order if k == 1 else "z%d^%d" % (self.order, k)
            if den > 1 or num not in (1, -1):
                terms.append("%s*%s" % (c, mono))
            else:
                terms.append(mono if num == 1 else "-" + mono)
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
        return Cyclotomic(int(data["order"]), data["coeffs"])

    def complex_value(self) -> complex:
        """Floating approximation, for display only."""
        import cmath

        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        for k, c in enumerate(self.coeffs):
            total += float(c) * z**k
        return total


class _HistogramValues(dict):
    """{histogram: sum_k histogram[k] * zeta_order^k / den} for tuples of
    ints, one value per distinct histogram, reduced in ints the first
    time it is looked up; no Fraction is built."""

    __slots__ = ("order", "den")

    def __init__(self, order: int, den: int = 1) -> None:
        self.order = order
        self.den = den

    def __missing__(self, histogram) -> Cyclotomic:
        value = self[histogram] = Cyclotomic._from_ints(
            self.order, _reduce_mod_phi(histogram, self.order), self.den
        )
        return value


def zeta(order: int, k: int = 1) -> Cyclotomic:
    """Shorthand for the root of unity zeta_order^k."""
    return Cyclotomic.root(order, k)
