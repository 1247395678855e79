"""Colored permutations: the groups G(r,n), G(r,p,n) and their quotients.

An element g of G(r,n) is an n x n monomial matrix whose nonzero entries
are r-th roots of unity.  We store it in window form: ``perm[j-1]`` is the
column of the nonzero entry in row j and ``colors[j-1]`` its exponent, so
g = [perm_1^{colors_1}, ..., perm_n^{colors_n}].  Multiplication is matrix
multiplication, which in window terms reads

    (g*h).perm[j]   = h.perm[g.perm[j]]
    (g*h).colors[j] = g.colors[j] + h.colors[g.perm[j]]

G(r,p,n) is the subgroup where the color sum is divisible by p, and
G(r,p,q,n) its quotient by the scalar subgroup C_q of order q.  Elements
of a quotient are represented by ProjectiveElement: a canonical lift plus
the scalar order q.
"""

from __future__ import annotations

import re
from itertools import permutations, product
from math import factorial, gcd

from .errors import UnsupportedGroupError
from .immutable import Value


class ColoredPermutation(Value):
    """An element of G(r,n) in window notation, immutable, and its own
    coset of scalar order q = 1: what takes a coset takes it too."""

    __slots__ = ("r", "perm", "colors")
    q = 1

    def __init__(self, r: int, perm, colors) -> None:
        if r < 1:
            raise ValueError("r must be a positive integer")
        perm = tuple(int(x) for x in perm)
        colors = tuple(int(z) % r for z in colors)
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError("window values must be a permutation of 1..n")
        if len(colors) != n:
            raise ValueError("need one color per window entry")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "colors", colors)

    # -- basic structure --------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def rep(self) -> "ColoredPermutation":
        return self

    @staticmethod
    def identity(r: int, n: int) -> "ColoredPermutation":
        _check_size(r, n)
        return ColoredPermutation(r, range(1, n + 1), [0] * n)

    @staticmethod
    def scalar(r: int, n: int, k: int) -> "ColoredPermutation":
        """The scalar matrix zeta_r^k * Id."""
        _check_size(r, n)
        return ColoredPermutation(r, range(1, n + 1), [k] * n)

    @staticmethod
    def from_permutation(r: int, perm) -> "ColoredPermutation":
        return ColoredPermutation(r, perm, [0] * len(tuple(perm)))

    def image(self, j: int) -> int:
        """|g|(j), the underlying permutation applied to j."""
        return self.perm[j - 1]

    def color(self, j: int) -> int:
        """z_j(g), the color of row j."""
        return self.colors[j - 1]

    def color_sum(self) -> int:
        """z(g) in Z_r, the color homomorphism."""
        return sum(self.colors) % self.r

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "ColoredPermutation") -> "ColoredPermutation":
        if not isinstance(other, ColoredPermutation):
            return NotImplemented
        if self.r != other.r or self.n != other.n:
            raise ValueError("elements live in different groups")
        perm = tuple(other.perm[s - 1] for s in self.perm)
        colors = tuple(
            (zc + other.colors[s - 1]) % self.r
            for zc, s in zip(self.colors, self.perm)
        )
        return ColoredPermutation(self.r, perm, colors)

    def inverse(self) -> "ColoredPermutation":
        n = self.n
        perm = [0] * n
        colors = [0] * n
        for j in range(1, n + 1):
            k = self.perm[j - 1]
            perm[k - 1] = j
            colors[k - 1] = (-self.colors[j - 1]) % self.r
        return ColoredPermutation(self.r, perm, colors)

    def color_conjugate(self) -> "ColoredPermutation":
        """The entrywise complex conjugate matrix (every color negated)."""
        return ColoredPermutation(
            self.r, self.perm, tuple((-z) % self.r for z in self.colors)
        )

    def transpose(self) -> "ColoredPermutation":
        """The transpose matrix: a monomial matrix with root-of-unity
        entries is unitary, so this is the color conjugate of the inverse."""
        return self.inverse().color_conjugate()

    def is_identity(self) -> bool:
        """True iff the coset is trivial: a scalar lift whose exponent is a
        multiple of r/q."""
        return self.rep.is_scalar() and self.rep.scalar_exponent() % (self.r // self.q) == 0

    def is_scalar(self) -> bool:
        return all(s == j + 1 for j, s in enumerate(self.perm)) and len(
            set(self.colors)
        ) <= 1

    def scalar_exponent(self) -> int:
        if not self.is_scalar():
            raise ValueError("element is not a scalar matrix")
        return self.colors[0] if self.colors else 0

    # -- comparison ----------------------------------------------------------

    def _key(self):
        return (self.r, self.perm, self.colors)

    # -- cycle structure -------------------------------------------------------

    def cycles(self) -> list[tuple[tuple[int, int], ...]]:
        """Cycle decomposition.

        Each cycle is a tuple of (element, color) pairs following the orbit
        a -> |g|(a) -> ... starting from the smallest element; cycles are
        listed by smallest element.  Fixed points are length-1 cycles.
        """
        seen = [False] * self.n
        out = []
        for a in range(1, self.n + 1):
            if seen[a - 1]:
                continue
            cyc = []
            b = a
            while not seen[b - 1]:
                seen[b - 1] = True
                cyc.append((b, self.colors[b - 1]))
                b = self.perm[b - 1]
            out.append(tuple(cyc))
        return out

    @staticmethod
    def cycle_color(cycle) -> int:
        return sum(z for _, z in cycle)

    @staticmethod
    def from_cycles(r: int, n: int, cycles) -> "ColoredPermutation":
        """Build an element from (element, color) cycles; omitted points are
        color-0 fixed points."""
        perm = list(range(1, n + 1))
        colors = [0] * n
        touched = set()
        for cyc in cycles:
            elems = [e for e, _ in cyc]
            for e in elems:
                if e in touched:
                    raise ValueError("cycles overlap at %d" % e)
                touched.add(e)
            for i, (e, z) in enumerate(cyc):
                perm[e - 1] = cyc[(i + 1) % len(cyc)][0]
                colors[e - 1] = z % r
        return ColoredPermutation(r, perm, colors)

    # -- symmetry predicates ------------------------------------------------------

    def is_absolute_involution(self) -> bool:
        """True iff v * conj(v) is trivial in the quotient.  For any lift g
        it is a scalar c exactly when g^T = c * g (g is unitary), and then
        c^2 = 1: c = 1 (g symmetric) lies in every C_q, c = -1 (g
        antisymmetric) in C_q exactly when q is even (see _halves)."""
        return self.rep._pair_shift() in _halves(self.r, self.q)

    def _pair_shift(self) -> int | None:
        """The color shift h along the 2-cycles of an involution |g|, read
        off the shifts z_{|g|(j)} - z_j: 0 when every shift is 0 (g equals
        its transpose), r/2 when every shift is r/2 (g equals its negated
        transpose, which leaves no fixed point), None otherwise."""
        perm, colors, r = self.perm, self.colors, self.r
        if any(perm[k - 1] != j for j, k in enumerate(perm, 1)):
            return None
        shifts = {(colors[k - 1] - z) % r for k, z in zip(perm, colors)}
        if shifts <= {0}:
            return 0
        if r % 2 == 0 and shifts == {r // 2}:
            return r // 2
        return None

    def symmetry_kind(self) -> str:
        """'symmetric', 'antisymmetric', or 'neither', as a matrix: the
        2-cycle shift h (see _pair_shift) is 0, r/2, or none."""
        h = self._pair_shift()
        if h is None:
            return "neither"
        return "antisymmetric" if h else "symmetric"

    # -- signature --------------------------------------------------------------------

    def signature(self) -> int:
        """Z_2 statistic for products of even-length, even-color cycles.

        For each cycle (a_1, a_2, ..., a_2d) the contribution is
        z_{a_1} + z_{a_3} + ... + z_{a_2d-1} mod 2; requires r even and every
        cycle of even length with even color sum.
        """
        if self.r % 2 != 0:
            raise ValueError("signature needs an even number of colors")
        total = 0
        for cyc in self.cycles():
            if len(cyc) % 2 != 0 or ColoredPermutation.cycle_color(cyc) % 2 != 0:
                raise ValueError(
                    "signature needs every cycle of even length and even color"
                )
            total += sum(z for (_, z) in cyc[0::2])
        return total % 2

    # -- text forms ----------------------------------------------------------------------

    def window_str(self) -> str:
        return "[" + ",".join(
            "%d^%d" % (s, z) for s, z in zip(self.perm, self.colors)
        ) + "]"

    def cycles_str(self) -> str:
        return "".join(
            "(" + ",".join("%d^%d" % (e, z) for e, z in cyc) + ")"
            for cyc in self.cycles()
        )

    def __str__(self) -> str:
        return self.window_str()

    def __repr__(self) -> str:
        return "ColoredPermutation(r=%d, %s)" % (self.r, self.window_str())


_ENTRY = re.compile(r"^(\d+)\^(-?\d+)$")


def parse_window(text: str, r: int) -> ColoredPermutation:
    """Parse window notation like [3^0,4^1,6^1,2^0,5^2,1^2].

    Every entry must carry an explicit exponent; exponents are reduced
    mod r.
    """
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("window must be wrapped in [ ]: %r" % text)
    body = text[1:-1].strip()
    if not body:
        raise ValueError("empty window")
    perm = []
    colors = []
    for part in body.split(","):
        m = _ENTRY.match(part.strip())
        if not m:
            raise ValueError("malformed window entry %r (need value^color)" % part)
        perm.append(int(m.group(1)))
        colors.append(int(m.group(2)))
    return ColoredPermutation(r, perm, colors)


def absolute_conjugate(g: ColoredPermutation, v: ColoredPermutation) -> ColoredPermutation:
    """|g| v |g|^{-1}: conjugation of v by the plain permutation under g."""
    if g.n != v.n:
        raise ValueError("elements live in different groups")
    n = v.n
    perm = [0] * n
    colors = [0] * n
    inv = [0] * n
    for j in range(1, n + 1):
        inv[g.perm[j - 1] - 1] = j
    for j in range(1, n + 1):
        c = g.perm[j - 1]
        perm[j - 1] = inv[v.perm[c - 1] - 1]
        colors[j - 1] = v.colors[c - 1]
    return ColoredPermutation(v.r, perm, colors)


def check_group_parameters(r: int, p: int, q: int, n: int) -> None:
    """Validate that G(r,p,q,n) exists: p|r, q|r, pq|rn."""
    if r < 1 or n < 1:
        raise UnsupportedGroupError("need r >= 1 and n >= 1")
    if p < 1 or r % p != 0:
        raise UnsupportedGroupError("p must divide r (got r=%d, p=%d)" % (r, p))
    if q < 1 or r % q != 0:
        raise UnsupportedGroupError("q must divide r (got r=%d, q=%d)" % (r, q))
    if (r * n) % (p * q) != 0:
        raise UnsupportedGroupError(
            "pq must divide rn (got r=%d, p=%d, q=%d, n=%d)" % (r, p, q, n)
        )


def check_supported_group(r: int, p: int, q: int, n: int) -> None:
    """Validate G(r,p,q,n) and refuse GCD(p,n) > 2, where the class and
    character theory used here does not apply."""
    check_group_parameters(r, p, q, n)
    if gcd(p, n) not in (1, 2):
        raise UnsupportedGroupError(
            "only groups with GCD(p,n) in {1,2} are supported, got %d" % gcd(p, n)
        )


def group_order(r: int, p: int, q: int, n: int) -> int:
    """|G(r,p,q,n)| = r^n n! / (p q)."""
    check_group_parameters(r, p, q, n)
    return r**n * factorial(n) // (p * q)


class ProjectiveElement(Value):
    """An element of a quotient G(r,p,q,n) = G(r,p,n)/C_q.

    Stored as the lift whose color word is lexicographically least in the
    scalar orbit, together with the scalar order q.  The lifts' first
    colors differ by multiples of r/q, so the least lift is the one whose
    first color is below r/q; a lift that is already least is kept as is.
    """

    __slots__ = ("q", "rep")

    def __init__(self, lift: ColoredPermutation, q: int) -> None:
        if q < 1 or lift.r % q != 0:
            raise ValueError("scalar order q must divide r")
        step = lift.r // q
        shift = lift.colors[0] // step * step if lift.colors else 0
        if shift:
            lift = ColoredPermutation(lift.r, lift.perm, (z - shift for z in lift.colors))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "rep", lift)

    @property
    def r(self) -> int:
        return self.rep.r

    @property
    def n(self) -> int:
        return self.rep.n

    def lifts(self) -> list[ColoredPermutation]:
        step = self.r // self.q
        return [
            ColoredPermutation(
                self.r,
                self.rep.perm,
                tuple((z + k * step) % self.r for z in self.rep.colors),
            )
            for k in range(self.q)
        ]

    def __mul__(self, other: "ProjectiveElement") -> "ProjectiveElement":
        if not isinstance(other, ProjectiveElement):
            return NotImplemented
        if self.q != other.q:
            raise ValueError("elements live in different quotients")
        return ProjectiveElement(self.rep * other.rep, self.q)

    def inverse(self) -> "ProjectiveElement":
        return ProjectiveElement(self.rep.inverse(), self.q)

    def color_conjugate(self) -> "ProjectiveElement":
        return ProjectiveElement(self.rep.color_conjugate(), self.q)

    is_identity = ColoredPermutation.is_identity
    is_absolute_involution = ColoredPermutation.is_absolute_involution

    def symmetry_kind(self) -> str:
        return self.rep.symmetry_kind()

    def _key(self):
        return (self.q, self.rep._key())

    def __str__(self) -> str:
        return self.rep.window_str()

    def __repr__(self) -> str:
        return "ProjectiveElement(q=%d, %s)" % (self.q, self.rep.window_str())


def projective_conjugate(
    g: ColoredPermutation, v: ProjectiveElement
) -> ProjectiveElement:
    """|g| v |g|^{-1} on the quotient; well defined since conjugation by a
    plain permutation commutes with scalars."""
    return ProjectiveElement(absolute_conjugate(g, v.rep), v.q)


# -- enumeration helpers -------------------------------------------------------


def _check_size(r: int, n: int) -> None:
    """Refuse r < 1 and n < 0; n = 0 is the group of the empty window."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")


def all_elements(r: int, n: int):
    """Iterate over all of G(r,n) in a deterministic order."""
    _check_size(r, n)
    for perm in permutations(range(1, n + 1)):
        for colors in product(range(r), repeat=n):
            yield ColoredPermutation(r, perm, colors)


def subgroup_elements(r: int, p: int, n: int):
    """Iterate over G(r,p,n) = elements whose color sum is 0 mod p."""
    if p < 1 or r % p != 0:
        raise ValueError("p must divide r")
    for g in all_elements(r, n):
        if sum(g.colors) % p == 0:
            yield g


def cycle_pairings(lengths):
    """Every split of the indices 0..len(lengths)-1 into singles and pairs
    (i, j), i < j, of equal lengths, as (singles, pairs), both in
    increasing order.

    The least index is left single first and then paired with each later
    index of its length in turn, and the rest is split the same way.  With
    lengths the cycle lengths of a permutation, the splits are the
    skeletons of the involutions that commute with it; with n ones, they
    are the involutions of S_n.
    """

    def rec(remaining):
        if not remaining:
            yield (), ()
            return
        first, rest = remaining[0], remaining[1:]
        for singles, pairs in rec(rest):
            yield (first,) + singles, pairs
        for k, other in enumerate(rest):
            if lengths[other] == lengths[first]:
                for singles, pairs in rec(rest[:k] + rest[k + 1 :]):
                    yield singles, ((first, other),) + pairs

    return rec(tuple(range(len(lengths))))


def _halves(r: int, q: int) -> tuple[int, ...]:
    """The 2-cycle color shifts h of absolute involutions mod C_q: 0
    (symmetric), and r/2 (antisymmetric) when q is even, so -1 is in C_q."""
    return (0, r // 2) if q % 2 == 0 else (0,)


def _involutions(r: int, n: int, h: int) -> list[ColoredPermutation]:
    """The elements of G(r,n) whose perm is an involution and whose two
    rows of each 2-cycle (a, b), a < b, carry colors z and z + h:
    symmetric for h = 0, antisymmetric for h = r/2, which leaves no
    fixed point.  Sorted."""
    out = []
    for singles, pairs in cycle_pairings([1] * n):
        if h and singles:
            continue
        for assignment in product(range(r), repeat=len(singles) + len(pairs)):
            perm = list(range(1, n + 1))
            colors = [0] * n
            for a, z in zip(singles, assignment):
                colors[a] = z
            for (a, b), z in zip(pairs, assignment[len(singles) :]):
                perm[a], perm[b] = b + 1, a + 1
                colors[a] = z
                colors[b] = (z + h) % r
            out.append((tuple(perm), tuple(colors)))
    out.sort()
    return [ColoredPermutation(r, perm, colors) for perm, colors in out]


def symmetric_elements(r: int, n: int):
    """All symmetric elements of G(r,n): g equal to its transpose.

    These are exactly the absolute involutions of G(r,n).  The list comes
    back sorted.
    """
    _check_size(r, n)
    return _involutions(r, n, 0)


def antisymmetric_elements(r: int, n: int):
    """All antisymmetric elements of G(r,n): g equal to minus its transpose.

    Empty unless r is even and n is even; every cycle is a 2-cycle whose
    colors differ by r/2.  The list comes back sorted.
    """
    _check_size(r, n)
    if r % 2 != 0 or n % 2 != 0:
        return []
    return _involutions(r, n, r // 2)
