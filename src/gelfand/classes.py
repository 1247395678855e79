"""Conjugacy classes of G(r,p,n) and S_n-classes of absolute involutions.

Classes of the full wreath product G(r,n) are labeled by r-tuples of
partitions: component i collects the lengths of the cycles of color i.
Inside G(r,p,n) a label is admissible when its total color is divisible
by p, and an admissible class either stays whole or (exactly when
GCD(p,n) = 2 and every cycle has even length and even color) breaks into
two classes of equal size, told apart by the signature statistic.

The second half of the module classifies absolute involutions of a
quotient group up to conjugation by plain permutations: the classifying
datum is a count vector of fixed-point and 2-cycle colors, read off a
lift and canonicalized over the scalar shifts.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial, gcd
from types import MappingProxyType

from .colored import (
    ColoredPermutation,
    ProjectiveElement,
    _halves,
    _involutions,
    check_group_parameters,
    check_supported_group,
    group_order,
)
from .errors import ENUMERATION_GUARD, InconsistencyError, check_resource
from .immutable import Value
from .shapes import (
    Shape,
    ShapeOrbit,
    enumerate_shapes,
    odd_columns,
    partitions,
    shape_key,
    shape_shift,
    shape_str,
    validate_shape,
)


def _alpha_of(g: ColoredPermutation) -> Shape:
    by_color = [[] for _ in range(g.r)]
    for cyc in g.cycles():
        by_color[ColoredPermutation.cycle_color(cyc) % g.r].append(len(cyc))
    return tuple(tuple(sorted(lens, reverse=True)) for lens in by_color)


def label_color(alpha: Shape) -> int:
    """Total color of any element with cycle data alpha: Σ i·(number of
    color-i cycles)."""
    return sum(i * len(comp) for i, comp in enumerate(alpha))


def splits(alpha: Shape, p: int, n: int) -> bool:
    """Whether the G(r,n)-class with this label breaks in two inside
    G(r,p,n): needs GCD(p,n) = 2, every cycle of even length, every cycle
    of even color.  p must divide r = len(alpha)."""
    if p < 1 or len(alpha) % p != 0:
        raise ValueError("p must divide r")
    if gcd(p, n) != 2:
        return False
    for i, comp in enumerate(alpha):
        if i % 2 == 1 and comp:
            return False
        if any(length % 2 == 1 for length in comp):
            return False
    return True


class ConjugacyClass(Value):
    """Label of a conjugacy class of G(r,p,n).

    half is None for unsplit classes, 0 or 1 for the two halves of a split
    class (the half containing elements of that signature).
    """

    __slots__ = ("r", "p", "alpha", "half")

    def __init__(self, r: int, p: int, alpha: Shape, half=None) -> None:
        validate_shape(alpha)
        if len(alpha) != r:
            raise ValueError("label needs one component per color")
        if p < 1 or r % p != 0:
            raise ValueError("p must divide r")
        if label_color(alpha) % p != 0:
            raise ValueError("label color is not divisible by p")
        n = sum(sum(comp) for comp in alpha)
        if half is not None and not splits(alpha, p, n):
            raise ValueError("label does not split; half must be None")
        if half not in (None, 0, 1):
            raise ValueError("half must be None, 0 or 1")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "half", half)

    @property
    def n(self) -> int:
        return sum(sum(comp) for comp in self.alpha)

    def _key(self):
        return (self.r, self.p, self.alpha, self.half)

    def sort_key(self):
        return (shape_key(self.alpha), -1 if self.half is None else self.half)

    def __str__(self) -> str:
        text = shape_str(self.alpha)
        if self.half is not None:
            text += "^%d" % self.half
        return text

    def __repr__(self) -> str:
        return "ConjugacyClass(r=%d, p=%d, %s)" % (self.r, self.p, self)


def class_of(g: ColoredPermutation, p: int = 1) -> ConjugacyClass:
    """The G(r,p,n)-class of g."""
    if p < 1 or g.r % p != 0:
        raise ValueError("p must divide r")
    if g.color_sum() % p != 0:
        raise ValueError("element does not lie in the subgroup")
    alpha = _alpha_of(g)
    if splits(alpha, p, g.n):
        return ConjugacyClass(g.r, p, alpha, g.signature())
    return ConjugacyClass(g.r, p, alpha)


def class_size(label: ConjugacyClass) -> int:
    """Order of the class: r^n n! over the wreath centralizer order,
    halved for split halves."""
    centralizer = 1
    for comp in label.alpha:
        mult: dict[int, int] = {}
        for part in comp:
            mult[part] = mult.get(part, 0) + 1
        for part, m in mult.items():
            centralizer *= factorial(m) * (part * label.r) ** m
    size, rem = divmod(group_order(label.r, 1, 1, label.n), centralizer)
    if rem:
        raise InconsistencyError("centralizer does not divide the group order")
    if label.half is not None:
        size, rem = divmod(size, 2)
        if rem:
            raise InconsistencyError("split class of odd size")
    return size


@lru_cache(maxsize=None)
def enumerate_classes(r: int, p: int, n: int) -> tuple[ConjugacyClass, ...]:
    """All classes of G(r,p,n), deterministically ordered; the identity
    class, every cycle of length 1 and color 0, comes last."""
    check_supported_group(r, p, 1, n)
    # enumerate_shapes lists the shapes in shape_key order and the halves of
    # a split class follow each other, so out is in ConjugacyClass order
    out = []
    for alpha in enumerate_shapes(r, n):
        if label_color(alpha) % p != 0:
            continue
        if splits(alpha, p, n):
            out.append(ConjugacyClass(r, p, alpha, 0))
            out.append(ConjugacyClass(r, p, alpha, 1))
        else:
            out.append(ConjugacyClass(r, p, alpha))
    return tuple(out)


@lru_cache(maxsize=None)
def class_positions(r: int, p: int, n: int) -> MappingProxyType:
    """Position of each class of G(r,p,n) in enumerate_classes order, the
    order of a class function's values; read-only, as the cache shares it."""
    return MappingProxyType(
        {label: k for k, label in enumerate(enumerate_classes(r, p, n))}
    )


@lru_cache(maxsize=None)
def class_sizes(r: int, p: int, n: int) -> tuple[int, ...]:
    """Size of each class of G(r,p,n), in enumerate_classes order."""
    return tuple(class_size(label) for label in enumerate_classes(r, p, n))


def normal_element(label: ConjugacyClass) -> ColoredPermutation:
    """Canonical class representative: cycles with consecutive supports,
    ordered by increasing color then decreasing length, colors placed on
    cycle maxima; the half-1 representative moves one color unit from the
    last cycle's maximum onto the previous position."""
    r = label.r
    cycles = []
    next_support = 1
    cycle_list = [
        (color, length)
        for color, comp in enumerate(label.alpha)
        for length in comp
    ]
    cycle_list.sort(key=lambda cl: (cl[0], -cl[1]))
    for color, length in cycle_list:
        support = list(range(next_support, next_support + length))
        next_support += length
        colors = [0] * length
        colors[-1] = color
        cycles.append(tuple(zip(support, colors)))
    if label.half == 1:
        last = list(cycles[-1])
        elem, color = last[-1]
        last[-1] = (elem, (color - 1) % r)
        elem2, color2 = last[-2]
        last[-2] = (elem2, (color2 + 1) % r)
        cycles[-1] = tuple(last)
    g = ColoredPermutation.from_cycles(r, label.n, cycles)
    if class_of(g, label.p) != label:
        raise InconsistencyError("normal element fell outside its class")
    return g


# -- S_n-classes of absolute involutions ------------------------------------------


class InvolutionClassType(Value):
    """S_n-conjugation invariant of an absolute involution in a quotient
    group: its raw type (h, fixed, pair), see _raw_type, up to the color
    rotation induced by scalar lift changes.

    h is the 2-cycle color shift, 0 (symmetric) or r/2 (antisymmetric, no
    fixed point); fixed has r entries and pair r - h.  shift_order is the
    order of the scalar group quotiented away; the stored vectors are the
    lexicographically least rotation of (fixed, pair).
    """

    __slots__ = ("r", "shift_order", "h", "fixed", "pair")

    def __init__(self, r, shift_order, h, fixed, pair):
        if r < 1:
            raise ValueError("r must be a positive integer")
        if shift_order < 1 or r % shift_order != 0:
            raise ValueError("shift order must divide the color order")
        if h != 0 and 2 * h != r:
            raise ValueError("2-cycle shift must be 0 or r/2")
        if len(fixed) != r or len(pair) != r - h:
            raise ValueError("fixed needs r entries and pair r - h")
        if any(count < 0 for count in (*fixed, *pair)):
            raise ValueError("counts must be nonnegative")
        if h and any(fixed):
            raise ValueError("an antisymmetric type has no fixed point")
        step = r // shift_order
        fixed, pair = min(
            (shape_shift(tuple(fixed), s), shape_shift(tuple(pair), s))
            for s in range(0, r, step)
        )
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "shift_order", shift_order)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "pair", pair)

    @property
    def n(self) -> int:
        return sum(self.fixed) + 2 * sum(self.pair)

    def _key(self):
        return (self.r, self.shift_order, self.h, self.fixed, self.pair)

    def sort_key(self):
        # antisymmetric types sort first, then every type by (fixed, pair)
        return (self.r, self.shift_order, self.h == 0, self.fixed, self.pair)

    def __str__(self) -> str:
        if self.h:
            return "asym[%s]" % ",".join(str(x) for x in self.pair)
        return "sym[%s;%s]" % (
            ",".join(str(x) for x in self.fixed),
            ",".join(str(x) for x in self.pair),
        )

    def __repr__(self) -> str:
        return "InvolutionClassType(r=%d, shift=%d, %s)" % (
            self.r,
            self.shift_order,
            self,
        )

    @staticmethod
    def parse(text: str, r: int, shift_order: int) -> "InvolutionClassType":
        """Read sym[fixed;pair] or asym[pair], the text of __str__."""
        text = text.strip()
        kind, _, body = text.partition("[")
        try:
            vectors = [
                tuple(int(x) for x in part.split(",")) if part else ()
                for part in body.removesuffix("]").split(";")
            ]
        except ValueError:  # an entry that is not an integer
            vectors = ()
        if body.endswith("]") and kind == "sym" and len(vectors) == 2:
            return InvolutionClassType(r, shift_order, 0, *vectors)
        if body.endswith("]") and kind == "asym" and len(vectors) == 1:
            # r - r // 2 is r/2 for even r and fails the 2-cycle shift check
            # for odd r, r = 1 included
            return InvolutionClassType(r, shift_order, r - r // 2, (0,) * r, vectors[0])
        raise ValueError("unrecognized type text: %r" % text)


def _raw_type(v) -> tuple:
    """The raw type (h, fixed, pair) of an absolute involution: h is the
    color shift along its 2-cycles (0 symmetric, r/2 antisymmetric), fixed
    counts its fixed points by color, pair its 2-cycles (j, k), j < k, by
    the color at j mod r - h.

    Any other input raises ValueError("element is not an absolute
    involution"), by the one rule of is_absolute_involution: a symmetric
    lift, or an antisymmetric one with even shift order q; a plain element
    is its own coset with q = 1.
    """
    if not v.is_absolute_involution():
        raise ValueError("element is not an absolute involution")
    lift = v.rep
    r = lift.r
    h = lift._pair_shift()
    fixed, pair = [0] * r, [0] * (r - h)
    for j, (k, z) in enumerate(zip(lift.perm, lift.colors), 1):
        if j == k:
            fixed[z] += 1
        elif j < k:
            pair[z % (r - h)] += 1
    return h, tuple(fixed), tuple(pair)


def _raw_color_sum(r: int, h: int, fixed, pair) -> int:
    """The color sum mod r of a raw type's involutions: a fixed point adds
    its color i, a 2-cycle with color i at its smaller end i + (i + h)."""
    return sum(i * f + (2 * i + h) * g for i, (f, g) in enumerate(zip(fixed, pair))) % r


def involution_type(v) -> InvolutionClassType:
    """Type of an absolute involution (plain element or scalar coset).

    Any other input raises ValueError("element is not an absolute
    involution").
    """
    return InvolutionClassType(v.r, v.q, *_raw_type(v))


def predicted_shapes(ctype: InvolutionClassType) -> frozenset:
    """Shape orbits predicted to index the irreducible constituents of the
    submodule spanned by one S_n-class of absolute involutions.

    Symmetric type (h = 0): all orbits whose component i has f_i + 2q_i
    boxes and exactly f_i columns of odd length, f = fixed and q = pair.
    Antisymmetric type (h = r/2): all orbits of half-turn-symmetric shapes
    whose component i has pair_i boxes.
    """
    p = ctype.shift_order
    if ctype.h:
        out = set()
        for top in product(*(partitions(t_i) for t_i in ctype.pair)):
            orbit = ShapeOrbit(top + top, p)
            if orbit.m < 2:
                raise InconsistencyError("doubled shape failed to be shift-fixed")
            out.add(orbit)
        return frozenset(out)
    choices = [
        [lam for lam in partitions(f_i + 2 * q_i) if odd_columns(lam) == f_i]
        for f_i, q_i in zip(ctype.fixed, ctype.pair)
    ]
    return frozenset(ShapeOrbit(shape, p) for shape in product(*choices))


def _order_measure(r: int, n: int) -> tuple:
    """r^n*n!, the order of G(r,n), for check_resource: text and factors r*k."""
    return "r^n*n! at r=%d, n=%d" % (r, n), (r * k for k in range(1, n + 1))


def enumerate_involution_classes(
    r: int, p: int, q: int, n: int, max_order: int = ENUMERATION_GUARD
) -> tuple[tuple[InvolutionClassType, tuple[ProjectiveElement, ...]], ...]:
    """S_n-classes of absolute involutions of the group dual to
    G(r,p,q,n), i.e. of G(r,q,p,n), grouped by type.

    The parameters name the acting group; the enumerated involutions form
    the basis of its model.  Guarded by r^n·n! <= max_order.
    """
    check_group_parameters(r, p, q, n)
    check_resource("involution enumeration", *_order_measure(r, n), max_order)
    lifts = [w for h in _halves(r, p) for w in _involutions(r, n, h)]
    # one least lift per coset: its first color is below r/p; the lists are
    # sorted and no type mixes the two kinds, so every bucket fills in order.
    # Many raw count vectors name one type, and each is canonicalized once.
    types: dict[tuple, InvolutionClassType] = {}
    buckets: dict[InvolutionClassType, list[ProjectiveElement]] = {}
    for w in lifts:
        if w.colors[0] < r // p and w.color_sum() % q == 0:
            v = ProjectiveElement(w, p)
            raw = _raw_type(v)
            ctype = types.get(raw)
            if ctype is None:
                ctype = types[raw] = InvolutionClassType(r, p, *raw)
            buckets.setdefault(ctype, []).append(v)
    return tuple((ctype, tuple(buckets[ctype])) for ctype in sorted(buckets))
