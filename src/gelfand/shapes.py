"""Multipartitions, shift orbits, and standard multitableaux.

A shape for G(r,n) is an r-tuple of integer partitions with n boxes in
total, stored as a tuple of tuples.  Shapes index both conjugacy classes
and irreducible representations of G(r,n).  For the subgroup and quotient
constructions the relevant index sets are orbits of shapes under the
cyclic shift of components by r/p; ShapeOrbit packages an orbit together
with its stabilizer order m_p.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial
from operator import neg

from .errors import InconsistencyError, ResourceLimitError
from .immutable import Value

Shape = tuple  # tuple of partitions, each a weakly decreasing tuple of ints

STANDARD_ENUMERATION_LIMIT = 12


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of k as weakly decreasing tuples, lexicographically
    greatest first ((k) first, (1,...,1) last)."""
    if k < 0:
        raise ValueError("cannot partition a negative integer")

    def rec(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in rec(total - first, first):
                yield (first,) + rest

    return tuple(rec(k, k))


def validate_shape(shape: Shape) -> None:
    for comp in shape:
        for a, b in zip(comp, comp[1:]):
            if a < b:
                raise ValueError("partition parts must be weakly decreasing")
        if comp and comp[-1] < 1:
            raise ValueError("partition parts must be positive")


def shape_size(shape: Shape) -> int:
    return sum(sum(comp) for comp in shape)


def shape_color(shape: Shape) -> int:
    """z(shape) = sum over components of i * |component i|."""
    return sum(i * sum(comp) for i, comp in enumerate(shape))


def shape_key(shape: Shape):
    """Deterministic sort key: component sizes first, then parts with larger
    parts sorting earlier (so ((2,1),(1,1,1)) precedes ((1,1,1),(2,1)))."""
    negated = tuple(tuple(map(neg, comp)) for comp in shape)
    return (tuple(map(sum, shape)), negated)


def shape_str(shape: Shape) -> str:
    return "(" + ",".join(
        "(" + ",".join(str(part) for part in comp) + ")" for comp in shape
    ) + ")"


def shape_shift(shape: Shape, s: int) -> Shape:
    """Rotate components right by s: component i of the result is
    component (i - s) mod r of the input.  The one component shift of the
    package: it also rotates multitableaux (multitableau_shift) and the
    color count vectors of involution types."""
    s = s % len(shape) if shape else 0
    return shape[-s:] + shape[:-s]


def enumerate_shapes(r: int, n: int, q: int = 1) -> list[Shape]:
    """All r-tuples of partitions with n boxes and color divisible by q, in
    shape_key order: component sizes in lexicographic order, and for each
    the product of their partitions, larger parts first."""
    if r < 1 or n < 0 or q < 1:
        raise ValueError("need r >= 1, n >= 0 and q >= 1")

    def compositions(i, remaining):
        if i == r - 1:
            yield (remaining,)
            return
        for k in range(remaining + 1):
            for rest in compositions(i + 1, remaining - k):
                yield (k,) + rest

    return [
        shape
        for sizes in compositions(0, n)
        if sum(i * k for i, k in enumerate(sizes)) % q == 0
        for shape in product(*map(partitions, sizes))
    ]


class ShapeOrbit(Value):
    """Orbit of a shape under component shift by r/p steps.

    m is the number of shifts fixing the shape (the stabilizer order in the
    shift group of order p); the orbit has p/m distinct members.
    """

    __slots__ = ("p", "canonical", "members", "m")

    def __init__(self, shape: Shape, p: int) -> None:
        validate_shape(shape)
        r = len(shape)
        if p < 1 or r % p != 0:
            raise ValueError("p must divide the number of components")
        shifts = {shape_shift(shape, s) for s in range(0, r, r // p)}
        members = tuple(sorted(shifts, key=shape_key))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "canonical", members[0])
        object.__setattr__(self, "m", p // len(members))

    @property
    def r(self) -> int:
        return len(self.canonical)

    @property
    def n(self) -> int:
        return shape_size(self.canonical)

    def _key(self):
        return (self.p, self.members)

    def sort_key(self):
        return shape_key(self.canonical)

    def __str__(self) -> str:
        return "[" + shape_str(self.canonical) + "]"

    def __repr__(self) -> str:
        return "ShapeOrbit(p=%d, %s)" % (self.p, self)


def _orbits(items, maps, act) -> list[tuple]:
    """(rep, g) per item, in items order: rep the first item of its orbit, g
    the first of maps with act(rep, g) == item.  The maps form a group,
    identity first; images outside items are ignored.  The one orbit loop."""
    found: dict = {}
    for item in items:
        if item not in found:
            for g in maps:
                found.setdefault(act(item, g), (item, g))
    return [found[item] for item in items]


def enumerate_orbits(r: int, n: int, p: int, q: int = 1) -> list[ShapeOrbit]:
    """All shift orbits on the shapes of Fer(r,n) with color divisible by q,
    in ShapeOrbit order: one orbit per representative under the shifts by
    r/p, and one sort key per orbit.  q must divide r and pq must divide
    rn: otherwise those shapes are not closed under the shifts."""
    if p < 1 or r % p != 0:
        raise ValueError("p must divide the number of components")
    if q < 1 or r % q != 0 or r * n % (p * q) != 0:
        raise ValueError("q must divide r and pq must divide rn")
    shapes = enumerate_shapes(r, n, q)
    reps = {rep for rep, _ in _orbits(shapes, range(0, r, r // p), shape_shift)}
    return sorted((ShapeOrbit(rep, p) for rep in reps), key=ShapeOrbit.sort_key)


# -- counting ------------------------------------------------------------------


def conjugate_partition(comp) -> tuple[int, ...]:
    if not comp:
        return ()
    return tuple(
        sum(1 for part in comp if part >= j) for j in range(1, comp[0] + 1)
    )


def odd_columns(comp) -> int:
    """Number of columns of odd length in the Young diagram."""
    return sum(1 for col in conjugate_partition(comp) if col % 2 == 1)


def hook_lengths(comp) -> list[list[int]]:
    conj = conjugate_partition(comp)
    return [
        [comp[i] - (j + 1) + conj[j] - (i + 1) + 1 for j in range(comp[i])]
        for i in range(len(comp))
    ]


@lru_cache(maxsize=None)
def count_standard_tableaux(comp: tuple[int, ...]) -> int:
    """Hook length formula for a single partition."""
    m = sum(comp)
    denom = 1
    for row in hook_lengths(comp):
        for h in row:
            denom *= h
    return factorial(m) // denom


def count_standard(shape_or_orbit) -> int:
    """Number of standard fillings.

    For a plain shape: multinomial over component sizes times the product of
    hook-length counts.  For a ShapeOrbit: fillings of the orbit's shapes
    modulo simultaneous component shift; the shift acts freely on fillings,
    so this equals the plain count of any member divided by m.
    """
    if isinstance(shape_or_orbit, ShapeOrbit):
        total = count_standard(shape_or_orbit.canonical)
        if total % shape_or_orbit.m != 0:
            raise InconsistencyError("orbit filling count was not divisible by m")
        return total // shape_or_orbit.m
    shape = shape_or_orbit
    validate_shape(shape)
    n = shape_size(shape)
    count = factorial(n)
    for comp in shape:
        count //= factorial(sum(comp))
    for comp in shape:
        count *= count_standard_tableaux(tuple(comp))
    return count


# -- standard multitableaux -------------------------------------------------------


def enumerate_standard(shape: Shape) -> list[tuple]:
    """All standard fillings of the shape with 1..n, rows and columns
    increasing within every component.

    Each filling is a tuple of components, a component being a tuple of row
    tuples.  The entries are placed in order, each at the end of a row
    shorter than both its target length and the row above it.  Guarded to
    n <= 12.
    """
    validate_shape(shape)
    n = shape_size(shape)
    if n > STANDARD_ENUMERATION_LIMIT:
        raise ResourceLimitError(
            "standard filling enumeration is limited to %d boxes (asked for %d)"
            % (STANDARD_ENUMERATION_LIMIT, n)
        )

    rows = [[[] for _ in comp] for comp in shape]
    result = []

    def place(entry):
        if entry > n:
            result.append(tuple(tuple(map(tuple, comp)) for comp in rows))
            return
        for comp, lengths in zip(rows, shape):
            for i, row in enumerate(comp):
                if len(row) < lengths[i] and (i == 0 or len(row) < len(comp[i - 1])):
                    row.append(entry)
                    place(entry + 1)
                    row.pop()

    place(1)
    result.sort()
    return result


def tableau_shape(component) -> tuple[int, ...]:
    return tuple(len(row) for row in component)


def multitableau_shape(tab) -> Shape:
    return tuple(tableau_shape(comp) for comp in tab)


multitableau_shift = shape_shift


def multitableau_str(tab) -> str:
    return "(" + ",".join(
        "[" + ";".join(",".join(str(e) for e in row) for row in comp) + "]"
        for comp in tab
    ) + ")"


def multitableau_json(tab):
    return [[list(row) for row in comp] for comp in tab]
