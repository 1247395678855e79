"""Exact character theory for G(r,p,n) and its quotients.

Characters of the wreath product G(r,n) come from the Murnaghan-Nakayama
rule: each cycle of length k and color c, longest first, removes a border
strip of length k from some component i of the label, with sign
(-1)^leg and factor zeta_r^(i*c).  Border strips are found on beta
numbers by one cached helper shared with the symmetric-group case
(r = 1).  Values are summed as integer histograms of exponents of
zeta_r.

The character table walks only a few of its histograms and reads the
rest off symmetries of the wreath characters.  On the rows, shifting the
components of lam up by t multiplies chi^lam(alpha) by zeta_r^(t*c),
c the total color of alpha, which rotates the histogram by t*c.  On the
columns, the affine color maps send each cycle (k, c) of alpha to
(k, u*c + k*t), u a unit of Z/r and t in Z/r: multiplying every color by
u applies zeta -> zeta^u, which moves exponent e to u*e mod r, and
multiplying by the central scalar zeta^t multiplies chi^lam by
zeta^(t*c(lam)), c(lam) = sum of i*|lam^i| (Schur's lemma).  So one row
per rotation class of the table's shapes is walked, at one class shape
per orbit of the affine maps among the class shapes.  These orbits, and
the shift orbits that label the rows, come from one routine,
shapes._orbits.  The columns are built one orbit at a time, and the
walk's memo over remaining shapes lives for one walk only, so no cache
outlives one orbit of columns.  For split representations of G(r,p,n)
(stabilized shapes when GCD(p,n) = 2) the two constituents are built as
integer 2*chi, the restricted character plus or minus the closed-form
difference character, and halved once; off the split classes the
difference is zero.  The table is assembled column by column: each class
gets one list of value objects, one per row; each distinct histogram
becomes a value once, reduced in ints; and a single zip(*columns) turns
the columns into the rows.  So the table holds one value object per
distinct value.

A class function holds its values as a tuple in enumerate_classes order,
one per class.  The table, the model's block characters and the checks
below all read cells by that position; f(label) is the one lookup by
class label.

All values are exact elements of Q(zeta_r), each held as integer
numerators over one denominator, and the verification steps read those
ints as they are: rows_independent reduces each distinct value object mod
a prime once and eliminates on rows packed into one int each, with fields
wide enough for the bound on their growth; the reassembly check compares
every class in integers, scaled to the lcm of its denominators.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import add, sub

from .classes import (
    ConjugacyClass,
    class_positions,
    class_sizes,
    enumerate_classes,
    label_color,
)
from .colored import check_supported_group, group_order
from .cyclotomic import Cyclotomic, _HistogramValues, _exponent_map
from .errors import InconsistencyError
from .immutable import Immutable, Value
from .shapes import (
    Shape,
    ShapeOrbit,
    _orbits,
    count_standard,
    enumerate_orbits,
    shape_color,
    shape_key,
    shape_shift,
    shape_size,
    validate_shape,
)


@lru_cache(maxsize=None)
def _strips(partition: tuple[int, ...], k: int) -> tuple:
    """(partition less the strip, leg length) for every border strip of
    length k, found as the moves b -> b - k of its beta numbers."""
    length = len(partition)
    beta = [part + length - 1 - i for i, part in enumerate(partition)]
    result = []
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta:
            continue
        leg = sum(1 for c in beta if nb < c < b)
        new_beta = sorted([c for c in beta if c != b] + [nb], reverse=True)
        smaller = tuple(
            part for part in (c - (length - 1 - i) for i, c in enumerate(new_beta))
            if part > 0
        )
        result.append((smaller, leg))
    return tuple(result)


def sym_character(lam: tuple[int, ...], alpha: tuple[int, ...]) -> int:
    """Symmetric-group character value chi_lam(alpha): the one-color case
    of the wreath rule, a border strip removed per cycle of alpha.  lam is
    a partition; alpha lists positive cycle lengths in any order."""
    validate_shape((lam,))
    validate_shape((tuple(sorted(alpha, reverse=True)),))
    if sum(lam) != sum(alpha):
        raise ValueError("partition sizes differ")
    return _wreath_histograms([(lam,)], [(k, 0) for k in alpha])[0][0]


def _cycles(alpha: Shape) -> list[tuple[int, int]]:
    """(length, color) cycles of a class label, longest first."""
    return sorted(
        ((k, color) for color, comp in enumerate(alpha) for k in comp), reverse=True
    )


def _wreath_histograms(lams, cycles) -> list[tuple[int, ...]]:
    """Integer coefficients of zeta_r^0, ..., zeta_r^(r-1) in chi_lam, for
    every lam in lams, at a class with the given (length, color) cycles,
    longest first.  Every lam must have the size of the class.

    Each cycle (k, c) removes a border strip of length k from some
    component i of lam, with sign (-1)^leg and factor zeta_r^(i*c).  One
    memo serves all of lams: it keys on the remaining shape alone, since
    its size fixes how many cycles are left, and it lives for this call
    only.  The histograms are tuples, shared between equal subproblems.
    """
    if not lams:
        return []
    r = len(lams[0])
    memo: dict = {((),) * r: (1,) + (0,) * (r - 1)}

    def walk(shape, j):
        histogram = memo.get(shape)
        if histogram is None:
            acc = [0] * r
            k, color = cycles[j]
            for i, part in enumerate(shape):
                if not part:
                    continue
                shift = i * color
                for smaller, leg in _strips(part, k):
                    rest = walk(shape[:i] + (smaller,) + shape[i + 1 :], j + 1)
                    sign = -1 if leg % 2 else 1
                    for e, weight in enumerate(rest):
                        if weight:
                            acc[(e + shift) % r] += sign * weight
            histogram = memo[shape] = tuple(acc)
        return histogram

    return [walk(tuple(lam), 0) for lam in lams]


def wreath_character(lam: Shape, alpha) -> Cyclotomic:
    """Character of the irreducible G(r,n)-representation indexed by lam at
    the class labeled alpha (a shape, or a class label whose shape is
    taken)."""
    if isinstance(alpha, ConjugacyClass):
        alpha = alpha.alpha
    validate_shape(lam)
    validate_shape(alpha)
    if len(lam) != len(alpha):
        raise ValueError("label and class need the same number of colors")
    if shape_size(lam) != shape_size(alpha):
        raise ValueError("label and class sizes differ")
    histogram = _wreath_histograms([lam], _cycles(alpha))[0]
    return Cyclotomic._from_histogram(len(lam), histogram, 1)


def _halved_class(alpha: Shape) -> tuple[Shape, int]:
    """For a split class alpha of G(r,p,n): the class of G(r/2, n/2) whose
    wreath characters give the difference character there, and 2 to the
    number of its cycles.  Its components are the even-color components
    of alpha with every cycle halved."""
    halved = tuple(
        tuple(part // 2 for part in alpha[2 * i]) for i in range(len(alpha) // 2)
    )
    return halved, 2 ** sum(len(comp) for comp in halved)


def delta1(mu: Shape, label: ConjugacyClass) -> Cyclotomic:
    """Difference character attached to a half-turn-symmetric shape,
    evaluated at a class of G(r,p,n): zero off the split classes, and
    (-1)^half 2^(number of cycles) times a smaller wreath character value on
    them."""
    r = label.r
    if r % 2 != 0:
        raise ValueError("difference character needs an even color count")
    if len(mu) != r // 2:
        raise ValueError("expected one component per even color")
    if 2 * shape_size(mu) != label.n:
        raise ValueError("shape size must be half the class size")
    if label.half is None:
        return Cyclotomic.zero(r)
    halved, scale = _halved_class(label.alpha)
    value = wreath_character(tuple(mu), halved).to_order(r)
    return value * ((-1) ** label.half * scale)


class ClassFunction(Immutable):
    """Exact class function on G(r,p,n).

    values is a tuple with one value per class, in enumerate_classes(r, p,
    n) order; f(label) reads the value at one class.
    """

    __slots__ = ("r", "p", "n", "values")

    def __init__(self, r: int, p: int, n: int, values) -> None:
        if isinstance(values, Mapping):
            raise TypeError("values must be a sequence in enumerate_classes order")
        values = tuple(values)
        if len(values) != len(enumerate_classes(r, p, n)):
            raise ValueError("values must hold one value per class")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    def __call__(self, label: ConjugacyClass) -> Cyclotomic:
        position = class_positions(self.r, self.p, self.n).get(label)
        if position is None:
            raise ValueError(
                "%r is not a class of G(%d,%d,%d)" % (label, self.r, self.p, self.n)
            )
        return self.values[position]

    def _same_group(self, other: "ClassFunction") -> None:
        if (self.r, self.p, self.n) != (other.r, other.p, other.n):
            raise ValueError("class functions live on different groups")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._same_group(other)
        return ClassFunction(
            self.r, self.p, self.n, [a + b for a, b in zip(self.values, other.values)]
        )

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._same_group(other)
        return ClassFunction(
            self.r, self.p, self.n, [a - b for a, b in zip(self.values, other.values)]
        )

    def scale(self, factor) -> "ClassFunction":
        return ClassFunction(self.r, self.p, self.n, [v * factor for v in self.values])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return (
            (self.r, self.p, self.n) == (other.r, other.p, other.n)
            and all(a == b for a, b in zip(self.values, other.values))
        )

    __hash__ = None

    def degree(self) -> Cyclotomic:
        # enumerate_classes lists the identity class last
        return self.values[-1]


class IrreducibleLabel(Value):
    """Name of an irreducible representation of G(r,p,q,n): a shift orbit
    of shapes plus an index distinguishing split constituents."""

    __slots__ = ("orbit", "j")

    def __init__(self, orbit: ShapeOrbit, j: int = 0) -> None:
        if not 0 <= j < orbit.m:
            raise ValueError("split index out of range for this orbit")
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "j", j)

    def _key(self):
        return (self.orbit, self.j)

    def sort_key(self):
        return (shape_key(self.orbit.canonical), self.j)

    def __str__(self) -> str:
        text = str(self.orbit)
        if self.orbit.m > 1:
            text += "^%d" % self.j
        return text

    def __repr__(self) -> str:
        return "IrreducibleLabel(%s)" % self


def _affine_image(alpha: Shape, g: tuple[int, int]) -> Shape:
    """alpha under the affine color map g = (u, t), u a unit of Z/r: the
    color scaling by u, then the product with the central scalar zeta^t,
    sends each cycle (k, c) to (k, u*c + k*t)."""
    u, t = g
    r = len(alpha)
    components = [[] for _ in range(r)]
    for k, c in _cycles(alpha):  # longest first, so each stays sorted
        components[(u * c + k * t) % r].append(k)
    return tuple(map(tuple, components))


def _table_columns(lams, alphas):
    """(alpha, [histogram of chi^lam at alpha for lam in lams]) for every
    class shape alpha of alphas, one orbit under the affine color maps at
    a time.

    One lam per rotation class among lams is walked, and every other row
    rotates its representative's histogram: if lam is the representative
    shifted up by t, its histogram is the representative's times
    zeta^(t*c), c the total color of alpha.  The representative's
    histograms are walked at the first class shape of each orbit under the
    affine color maps (u, t) of _affine_image.  At the image exponent e
    moves to u*e, and the row of lam rotates by t*c(lam), c(lam) = sum of
    i*|lam^i|, as zeta^t acts on that representation by zeta^(t*c(lam)).
    Central images of a class shape of G(r,p,n) lie in G(r,p,n) only when
    p divides t*n, so only the images among alphas are taken; color
    scalings always are.
    """
    r = len(lams[0])
    units = [u for u in range(1, r + 1) if gcd(u, r) == 1]
    # move (v, s) maps a walked histogram to the one at the image under the
    # unit 1/v, rotated by s: entry e of it is entry v*(e - s) of the walked one
    moves = [(pow(u, -1, r), s) for u in units for s in range(r)]
    slot = {key: i for i, key in enumerate(moves)}
    getters = [_exponent_map(r, v, s) for v, s in moves]
    rotations = _orbits(lams, range(r), shape_shift)
    reps = list(dict.fromkeys(rep for rep, _ in rotations))
    index = {rep: i * len(moves) for i, rep in enumerate(reps)}
    # per lam: its representative's first place in moved below, the shift s
    # from it, and c(lam), as zeta^t rotates the row of lam by t*c(lam)
    rows = [(index[rep], s, shape_color(lam)) for lam, (rep, s) in zip(lams, rotations)]
    # per representative class shape, its orbit: (image, (u, t)) in alphas order
    orbits: dict = {}
    maps = [(u, t) for u in units for t in range(r)]
    for alpha, (rep, g) in zip(alphas, _orbits(alphas, maps, _affine_image)):
        orbits.setdefault(rep, []).append((alpha, g))
    # (u, t, total color c of alpha) -> per lam, the place in moved below of
    # its representative's histogram under move (1/u, u*s*c + t*c(lam))
    places: dict = {}
    for alpha, images in orbits.items():
        cycles = _cycles(alpha)
        color = label_color(alpha) % r
        # every move of every walked histogram, representative by representative
        moved = [f(h) for h in _wreath_histograms(reps, cycles) for f in getters]
        for image, (u, t) in images:
            picks = places.get((u, t, color))
            if picks is None:
                v = pow(u, -1, r)
                picks = places[u, t, color] = [
                    start + slot[v, (u * s * color + t * z) % r] for start, s, z in rows
                ]
            yield image, list(map(moved.__getitem__, picks))


def character_table(r: int, p: int, q: int, n: int):
    """Irreducible characters of G(r,p,q,n), as class functions on the
    subgroup G(r,p,n) (constant on scalar cosets, so no information is
    lost in the quotient).

    Returns a list of (IrreducibleLabel, ClassFunction) pairs.  Unsplit
    rows restrict a wreath-product character; split rows are cut out of the
    restriction with the difference character.  Cells are computed one
    class shape at a time, for all rows at once, from the histograms of
    _table_columns, into one column per class; the columns are turned
    into rows once, at the end.
    """
    check_supported_group(r, p, q, n)
    classes = enumerate_classes(r, p, n)
    orbits = enumerate_orbits(r, n, p, q)
    lams = [orbit.canonical for orbit in orbits]
    split = [i for i, orbit in enumerate(orbits) if orbit.m > 1]
    mus = [lams[i][: r // 2] for i in split]
    labels = [IrreducibleLabel(orbit, j) for orbit in orbits for j in range(orbit.m)]
    # one shared value per histogram of chi, and of 2 chi on split rows
    whole = _HistogramValues(r)
    doubled = _HistogramValues(r, 2)
    columns: dict = {}
    for k, c in enumerate(classes):
        columns.setdefault(c.alpha, []).append((k, c.half))
    # per class, its value in every row; allocated before the walks, whose
    # short-lived memory would otherwise sit between the columns and raise
    # the peak RSS (by about 1 MB on 4 1 1 6)
    cells = [[None] * len(labels) for _ in classes]
    # the orbit of every row, and the first of each split orbit's two rows
    row_orbits = [i for i, orbit in enumerate(orbits) for _ in range(orbit.m)]
    split_rows = [row_orbits.index(i) for i in split]
    for alpha, histograms in _table_columns(lams, columns):
        values = list(map(whole.__getitem__, histograms))
        if split:
            # off the split classes each split row is half the restriction
            for i in split:
                values[i] = doubled[histograms[i]]
            values = list(map(values.__getitem__, row_orbits))
        halves = columns[alpha]
        if not split or halves[0][1] is None:
            for k, _ in halves:
                cells[k][:] = values
            continue
        # on a split class the split rows are 2 chi = restricted +- delta,
        # delta the difference character times 2, exponents doubled from
        # r/2 to r
        halved, scale = _halved_class(alpha)
        smalls = _wreath_histograms(mus, _cycles(halved))
        for k, half in halves:
            scale_k = -scale if half else scale
            column = values[:]
            for i, j, small in zip(split, split_rows, smalls):
                delta = [0] * r
                delta[::2] = [scale_k * x for x in small]
                column[j] = doubled[tuple(map(add, histograms[i], delta))]
                column[j + 1] = doubled[tuple(map(sub, histograms[i], delta))]
            cells[k][:] = column
    rows = [
        (label, ClassFunction(r, p, n, row))
        for label, row in zip(labels, zip(*cells))
    ]
    expected_squares = group_order(r, p, q, n)
    total_squares = 0
    for label, row in rows:
        degree = row.degree()
        if not degree.is_integer():
            raise InconsistencyError("non-integral degree for %s" % label)
        deg = degree.integer_value()
        if deg != count_standard(label.orbit):
            raise InconsistencyError(
                "degree of %s differs from its standard filling count" % label
            )
        total_squares += deg * deg
    if total_squares != expected_squares:
        raise InconsistencyError(
            "degree squares sum to %d, expected the group order %d"
            % (total_squares, expected_squares)
        )
    if q == 1 and len(rows) != len(classes):
        raise InconsistencyError(
            "table is not square: %d rows, %d classes" % (len(rows), len(classes))
        )
    return rows


def inner_product(f: ClassFunction, g: ClassFunction) -> Cyclotomic:
    """Hermitian inner product (1/|G|) sum over classes of size*f*conj(g),
    taken over G(r,p,n).

    The sum is one integer cyclic convolution of length m, the lcm of r
    and the values' orders: a power-basis numerator x_i of f and y_j of g
    at one class add size*x_i*y_j to the coefficient of zeta_m^(i-j),
    over a common denominator, scaled up when a class needs a larger one,
    the way _reassembles does.  One value is built, at the end.
    """
    f._same_group(g)
    order = group_order(f.r, f.p, 1, f.n)
    m = lcm(f.r, *(v.order for v in f.values), *(v.order for v in g.values))
    acc = [0] * m
    den = 1
    for value, other, size in zip(f.values, g.values, class_sizes(f.r, f.p, f.n)):
        value, other = value.to_order(m), other.to_order(m)
        d = value.den * other.den
        if den % d:
            common = lcm(den, d)
            acc = [a * (common // den) for a in acc]
            den = common
        scale = size * (den // d)
        for i, x in enumerate(value.nums):
            if x:
                x *= scale
                for j, y in enumerate(other.nums):
                    if y:
                        acc[(i - j) % m] += x * y
    return Cyclotomic._from_histogram(m, acc, den * order)


def _reassembles(f: ClassFunction, terms) -> bool:
    """Whether f equals the sum of row * multiplicity over the (row,
    multiplicity) terms, class by class, building no value.

    Each class reads the values' integer numerators, lifted to the lcm of
    the orders there when they differ, and compares them in integers,
    scaled to the lcm of its denominators; the first mismatching class ends
    the check.
    """
    for row, _ in terms:
        f._same_group(row)
    mults = [mult for _, mult in terms]
    for value, *cells in zip(f.values, *(row.values for row, _ in terms)):
        order = value.order
        for cell in cells:
            if cell.order != order:
                order = lcm(order, cell.order)
        value = value.to_order(order)
        acc, den = value.nums, value.den
        for cell, mult in zip(cells, mults):
            cell = cell.to_order(order)
            d = cell.den
            if den % d:
                common = lcm(den, d)
                acc = [x * (common // den) for x in acc]
                den = common
            scale = mult * (den // d)
            acc = [a - scale * x for a, x in zip(acc, cell.nums)]
        if any(acc):
            return False
    return True


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))


@lru_cache(maxsize=None)
def _residue_field(r: int) -> tuple[int, int]:
    """An odd prime ell = 1 (mod r) above 2^16, and a primitive r-th root
    of unity omega mod ell; zeta_r -> omega is then a ring map from
    Z[zeta_r, 1/2] onto F_ell."""
    ell = (2**16 // r + 1) * r + 1
    while ell % 2 == 0 or not _is_prime(ell):
        ell += r
    prime_factors = [s for s in range(2, r + 1) if r % s == 0 and _is_prime(s)]
    omega = next(
        w
        for w in (pow(a, (ell - 1) // r, ell) for a in range(2, ell))
        if all(pow(w, r // s, ell) != 1 for s in prime_factors)
    )
    return ell, omega


def rows_independent(table) -> bool:
    """Certify that the rows of a table are linearly independent over
    Q(zeta_r), by full row rank of their images mod a prime ell = 1 (mod r).

    A nonzero maximal minor mod ell is nonzero in Q(zeta_r), so True is a
    proof.  False means only that the certificate failed: the rows may be
    dependent, or a value's denominator is divisible by ell.  The rows of
    a genuine table of G(r,p,q,n) always pass: they are rows of the square
    table of G(r,p,n), whose determinant times its conjugate is, up to
    sign, the product of the centralizer orders, and ell divides none of
    them (their prime factors divide r or are at most n).  An empty table
    is independent.

    Each distinct value object is reduced mod ell once, from its integer
    numerators and denominator.  A row is packed into one int with a field
    per class, and a pivot step is one big-int multiply-add, row += (ell -
    c) * pivot with the pivot normalised once, which zeroes the pivot's
    field mod ell and leaves every field non-negative and unreduced.  A
    field starts below ell, each step adds below ell^2, and a row takes
    fewer steps than the table has rows, so the field width comes from
    that bound and no field carries into the next.
    """
    if not table:
        return True
    first = table[0][1]
    r = first.r
    ell, omega = _residue_field(r)
    powers = [pow(omega, k, ell) for k in range(r)]
    bound = ell + (len(table) - 1) * ell * ell  # every field stays below
    size = -(-bound.bit_length() // 8)  # whole bytes per field
    width = 8 * size
    if bound > 1 << width:
        raise InconsistencyError("packed fields of %d bits overflow" % width)
    mask = (1 << width) - 1
    residues: dict = {}  # id(value) -> residue; the table keeps values alive

    def pack(fields) -> int:
        return int.from_bytes(
            b"".join(x.to_bytes(size, "little") for x in fields), "little"
        )

    pivots = []
    for _, row in table:
        first._same_group(row)
        fields = []
        for value in row.values:
            x = residues.get(id(value))
            if x is None:
                lifted = value.to_order(r)
                if lifted.den % ell == 0:
                    return False
                x = sum(c * w for c, w in zip(lifted.nums, powers))
                x = residues[id(value)] = x * pow(lifted.den, -1, ell) % ell
            fields.append(x)
        packed = pack(fields)
        for col, pivot in pivots:
            c = ((packed >> (col * width)) & mask) % ell
            if c:
                packed += (ell - c) * pivot
        data = packed.to_bytes(size * len(row.values), "little")
        fields = [
            int.from_bytes(data[j : j + size], "little") % ell
            for j in range(0, len(data), size)
        ]
        col = next((j for j, x in enumerate(fields) if x), None)
        if col is None:
            return False
        inverse = pow(fields[col], -1, ell)
        pivots.append((col, pack(x * inverse % ell for x in fields)))
    return True


def decompose(
    f: ClassFunction, table, expected=None
) -> list[tuple[IrreducibleLabel, int]]:
    """Multiplicities of each irreducible in a character.

    When expected lists labels of the table and f equals the sum of their
    rows, each of them has multiplicity 1 and no other row occurs.  That
    reassembly test is exact only for linearly independent rows, so pass
    expected only for a table that rows_independent has certified.
    Otherwise every row is projected out by an inner product, with
    exactness checks: every multiplicity must be a nonnegative integer and
    the weighted rows must reassemble f.  Both paths share one reassembly
    check, which compares power-basis coefficients class by class and does
    no Cyclotomic arithmetic.
    """
    if expected is not None:
        expected = set(expected)
        terms = [(row, 1) for label, row in table if label in expected]
        if len(terms) == len(expected) and _reassembles(f, terms):
            return sorted(
                ((label, 1) for label in expected),
                key=lambda pair: pair[0].sort_key(),
            )
    result = []
    terms = []
    for label, row in table:
        product = inner_product(f, row)
        if not product.is_integer():
            raise InconsistencyError(
                "non-integral multiplicity %s for %s" % (product, label)
            )
        mult = product.integer_value()
        if mult < 0:
            raise InconsistencyError("negative multiplicity %d for %s" % (mult, label))
        if mult:
            result.append((label, mult))
            terms.append((row, mult))
    if not _reassembles(f, terms):
        raise InconsistencyError("multiplicities do not reassemble the character")
    result.sort(key=lambda pair: pair[0].sort_key())
    return result


def label_degree(label: IrreducibleLabel) -> int:
    return count_standard(label.orbit)


def irreducible_count(r: int, p: int, q: int, n: int) -> int:
    """Number of irreducible representations of G(r,p,q,n), counted from
    labels alone."""
    check_supported_group(r, p, q, n)
    return sum(orbit.m for orbit in enumerate_orbits(r, n, p, q))
