"""The involution module of G(r,p,q,n) and its exact decomposition.

The module has one basis vector per absolute involution of the dual group
G(r,q,p,n).  A group element acts by conjugating the basis involution with
its underlying permutation and scaling by a root of unity built from a
color pairing, an inversion count (symmetric case) or a color transfer
statistic (antisymmetric case).  Everything here is verified rather than
assumed: each block's trace must equal the sum of the table rows
combinatorially predicted for it, once the rows are certified independent,
and is otherwise decomposed against the table by exact inner products.

A block's trace at g counts the basis vectors that |g| fixes up to a
scalar, and the verification computes it without building the basis.  A
coset with perm pi is fixed exactly when pi commutes with |g| and
conjugation shifts its colors by one multiple s of r/p, so each fixed
coloring is one start color per orbit of <|g|, pi>.  The sweep generates
the involutions pi that commute with |g| once per perm, from the
cycle_pairings of its cycle lengths: each cycle is kept or swapped with
another of its length.  It describes each orbit by a descriptor and each
(pi, s) by the sorted tuple of them, its signature, and computes the
per-block exponent histogram of each distinct signature once per run, by
a dynamic programme over the orbits.  The drivers take the block types
and sizes from the identity column, where each block's trace is its
size.  model_character sums the swept block characters over a scope of
a ModelBasis.
"""

from __future__ import annotations

from itertools import product
from operator import add, itemgetter

from .characters import (
    ClassFunction,
    IrreducibleLabel,
    character_table,
    decompose,
    label_degree,
    rows_independent,
)
from .classes import (
    InvolutionClassType,
    check_enumeration_order,
    enumerate_classes,
    enumerate_involution_classes,
    normal_element,
    predicted_shapes,
)
from .colored import (
    ColoredPermutation,
    ProjectiveElement,
    check_supported_group,
    cycle_pairings,
    projective_conjugate,
)
from .cyclotomic import Cyclotomic, _HistogramValues
from .errors import ENUMERATION_GUARD, InconsistencyError
from .immutable import Immutable
from .shapes import shape_shift


def pairing(g, v) -> int:
    """Color pairing sum_i z_i(g)z_i(v) mod r, computed on lifts; g and v
    are cosets, a plain element being its own with q = 1.

    Well defined because each argument's color sum satisfies the
    divisibility the other side's scalar shifts need; that requirement is
    checked, not assumed, and holds at once when q = 1.
    """
    gl, vl = g.rep, v.rep
    if gl.r != vl.r or gl.n != vl.n:
        raise ValueError("elements live in different groups")
    r = gl.r
    if gl.color_sum() * (r // v.q) % r or vl.color_sum() * (r // g.q) % r:
        raise ValueError("pairing is not lift-independent for this pair")
    return sum(a * b for a, b in zip(gl.colors, vl.colors)) % r


def inv_statistic(g, v) -> int:
    """Number of inversions of |g| located on the 2-cycles of |v|."""
    g_perm = g.rep.perm
    return sum(
        1
        for i, j in enumerate(v.rep.perm, 1)
        if i < j and g_perm[i - 1] > g_perm[j - 1]
    )


def a_statistic(g, v) -> int:
    """Color transferred past position 1: z_1(v) - z_{|g|^{-1}(1)}(v) mod r."""
    vl = v.rep
    return (vl.colors[0] - vl.colors[g.rep.perm.index(1)]) % vl.r


class ModelBasis(Immutable):
    """Ordered basis of the involution module of G(r,p,q,n).

    elements are the absolute involutions of the dual group G(r,q,p,n) as
    scalar cosets, grouped into blocks by conjugation type; the blocks are
    the submodules M(c), and the symmetric/antisymmetric split gives M0
    and M1.
    """

    __slots__ = ("r", "p", "q", "n", "elements", "types", "blocks")

    def __init__(self, r, p, q, n, max_order: int = ENUMERATION_GUARD) -> None:
        classes = enumerate_involution_classes(r, p, q, n, max_order)
        elements = []
        blocks = {}
        for ctype, members in classes:
            blocks[ctype] = tuple(
                range(len(elements), len(elements) + len(members))
            )
            elements.extend(members)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "types", tuple(ctype for ctype, _ in classes))
        object.__setattr__(self, "blocks", blocks)

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def scope_types(self, scope) -> tuple[InvolutionClassType, ...]:
        """Block types of a scope: 'all', 'M0', 'M1', or one type."""
        if isinstance(scope, InvolutionClassType):
            if scope not in self.blocks:
                raise ValueError("no block with type %s" % scope)
            return (scope,)
        if scope == "all":
            return self.types
        if scope in ("M0", "M1"):
            kind = "sym" if scope == "M0" else "asym"
            return tuple(ctype for ctype in self.types if ctype.kind == kind)
        raise ValueError("scope must be 'all', 'M0', 'M1' or a type")

    def scope_indices(self, scope) -> tuple[int, ...]:
        """Basis indices for a scope: 'all', 'M0', 'M1', or one type."""
        return tuple(i for ctype in self.scope_types(scope) for i in self.blocks[ctype])


class ModelAction(Immutable):
    """Monomial matrix of one group element on a ModelBasis: basis index i
    maps to perm[i] with coefficient scalars[i]."""

    __slots__ = ("basis", "perm", "scalars")

    def __init__(self, basis, perm, scalars) -> None:
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "perm", tuple(perm))
        object.__setattr__(self, "scalars", tuple(scalars))

    def compose(self, other: "ModelAction") -> "ModelAction":
        """Action of (this element) * (other element): apply other first."""
        if self.basis is not other.basis:
            raise ValueError("actions live on different bases")
        perm = tuple(self.perm[j] for j in other.perm)
        scalars = tuple(
            other.scalars[i] * self.scalars[other.perm[i]]
            for i in range(len(other.perm))
        )
        return ModelAction(self.basis, perm, scalars)

    def trace(self, indices=None) -> Cyclotomic:
        if indices is None:
            indices = range(len(self.perm))
        total = Cyclotomic.zero(self.basis.r)
        for i in indices:
            if self.perm[i] == i:
                total = total + self.scalars[i]
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModelAction)
            and self.basis is other.basis
            and self.perm == other.perm
            and all(a == b for a, b in zip(self.scalars, other.scalars))
        )

    __hash__ = None


def _action_scalar(g: ColoredPermutation, v: ProjectiveElement, twist: bool) -> Cyclotomic:
    r = g.r
    kind = v.rep.symmetry_kind()
    if kind == "symmetric":
        value = Cyclotomic.root(r, pairing(g, v))
        if inv_statistic(g, v) % 2:
            value = -value
        return value
    if kind == "antisymmetric":
        exponent = pairing(g, v)
        if twist:
            exponent = (exponent + a_statistic(g, v)) % r
        return Cyclotomic.root(r, exponent)
    raise ValueError("basis element is neither symmetric nor antisymmetric")


def model_action(g, basis: ModelBasis, twist: bool = True) -> ModelAction:
    """The monomial action of g (an element of G(r,p,n) or of the quotient)
    on the involution module."""
    gl = g.rep
    if gl.color_sum() % basis.p != 0:
        raise ValueError("element does not lie in the acting group")
    index = {v: i for i, v in enumerate(basis.elements)}
    perm = []
    scalars = []
    for v in basis.elements:
        image = projective_conjugate(gl, v)
        perm.append(index[image])
        # the scalar rides on the image so that composition follows the
        # left-first group product; at fixed points image == v, so traces
        # are unaffected
        scalars.append(_action_scalar(gl, image, twist))
    return ModelAction(basis, perm, scalars)


def _class_window(label):
    """Per-class constants of the sweep, from the canonical representative
    g of the class: its 0-based perm, its cycles as 0-based positions, each
    from its least position and listed in order of it, the pairs (j, z) of
    its nonzero colors z at 0-based positions j, and its color sum."""
    g = normal_element(label)
    return (
        tuple(s - 1 for s in g.perm),
        tuple(tuple(j - 1 for j, _ in cycle) for cycle in g.cycles()),
        tuple((j, z) for j, z in enumerate(g.colors) if z),
        g.color_sum(),
    )


def _orbit(perm0, pairs, fixed, offsets, half: int, r: int):
    """One orbit of <|g|, pi> as (descriptor part, placed offsets, parity).

    pairs lists pi's 2-cycles on the orbit and fixed its fixed points;
    offsets maps each position to its color less the orbit's start color.
    The descriptor part holds the offsets of the fixed points, the offsets
    at the smaller end of each 2-cycle (mod r/2 for an antisymmetric pi,
    where half = r/2), and whether it holds position 0.  The parity counts
    the 2-cycles (a, b), a < b, that |g| inverts.
    """
    modulus = r // 2 if half else r
    return (
        (
            tuple(sorted(offsets[j] for j in fixed)),
            tuple(sorted(offsets[min(a, b)] % modulus for a, b in pairs)),
            0 in offsets,
        ),
        offsets,
        sum(perm0[min(a, b)] > perm0[max(a, b)] for a, b in pairs) % 2,
    )


def _commuting_involutions(perm0, cycles, s: int, half: int, r: int):
    """Every involution pi commuting with the 0-based perm perm0, of the
    given cycles, whose colorings can be fixed up to the shift s, as its
    tuple of orbits (see _orbit).

    pi maps each cycle C of perm0 onto a cycle of the same length: it keeps
    C, fixing it pointwise (symmetric pi only) or turning it by half its
    length L, or swaps C with another L-cycle C' at one of L offsets.  The
    kept cycles and the swapped pairs are the cycle_pairings of the
    lengths; each part's orbits are built once and combined by product.  A
    step along |g| adds s to the color, a step along pi adds half (0, or
    r/2 when pi is antisymmetric); the half-turn closes only when
    (L/2)*s = half mod r.  Each cycle starts at its least position, so each
    orbit does too.
    """

    def walk(cycle, start=0, base=0):
        return {j: (base + (k - start) * s) % r for k, j in enumerate(cycle)}

    def orbit(pairs, fixed, offsets):
        return _orbit(perm0, pairs, fixed, offsets, half, r)

    kept = []
    for cycle in cycles:
        length = len(cycle)
        orbits = [] if half else [orbit((), cycle, walk(cycle))]
        if length % 2 == 0 and length // 2 * s % r == half:
            turned = tuple(zip(cycle[: length // 2], cycle[length // 2 :]))
            orbits.append(orbit(turned, (), walk(cycle)))
        kept.append(orbits)
    swapped = {}
    for singles, pairs in cycle_pairings([len(cycle) for cycle in cycles]):
        for i, j in pairs:
            if (i, j) not in swapped:
                cycle, partner = cycles[i], cycles[j]
                swapped[i, j] = [
                    orbit(
                        tuple(zip(cycle, partner[t:] + partner[:t])),
                        (),
                        walk(cycle) | walk(partner, t, half),
                    )
                    for t in range(len(cycle))
                ]
        yield from product(
            *[kept[i] for i in singles], *[swapped[pair] for pair in pairs]
        )


def _perm_structures(perm0, cycles, r: int, p: int, twist: bool) -> list[tuple]:
    """Every (pi, s) that can fix a basis coset under any g with perm
    perm0, of the given cycles, with what the sweep needs of it for each
    class of that perm.

    s runs over the multiples of r/p that close every cycle of perm0, and
    antisymmetric pi occur only when p is even.  Each entry holds the kind,
    the descriptor parts, the map from a position to its (orbit, offset),
    the sign (-1)^parity of a symmetric pi, and the exponent added to every
    fixed point: s for an antisymmetric pi under the twist, whose transfer
    statistic reads positions 0 and |g|^{-1}(0) on one |g|-cycle.
    """
    lengths = {len(cycle) for cycle in cycles}
    shifts = [
        s for s in range(0, r, r // p) if all(length * s % r == 0 for length in lengths)
    ]
    out = []
    for kind, half in (("sym", 0), ("asym", r // 2)):
        if kind == "asym" and p % 2:
            continue
        for s in shifts:
            extra = s if kind == "asym" and twist else 0
            for orbits in _commuting_involutions(perm0, cycles, s, half, r):
                where = {}
                for o, (_, offsets, _) in enumerate(orbits):
                    for j, offset in offsets.items():
                        where[j] = (o, offset)
                inverted = sum(parity for _, _, parity in orbits) % 2
                sign = -1 if kind == "sym" and inverted else 1
                parts = tuple(part for part, _, _ in orbits)
                out.append((kind, parts, where, sign, extra))
    return out


def _raw_color_sum(r: int, fixed, pair, twist) -> int:
    """The color sum mod r of a raw type's involutions: a fixed point adds
    its color i, a symmetric 2-cycle 2i, and an antisymmetric one
    z + (z + r/2), with z its color at the smaller end mod r/2."""
    if twist is None:
        return sum(i * (f + 2 * g) for i, (f, g) in enumerate(zip(fixed, pair))) % r
    return sum((2 * z + r // 2) * t for z, t in enumerate(twist)) % r


class _Sweep:
    """The per-run state of the block sweep of G(r,p,q,n): each signature's
    histogram, the states of the signature suffixes they are built from,
    and the raw type -> block map.

    A descriptor is an orbit's descriptor part (see _orbit) followed by
    S = sum of g's colors on the orbit and T = sum of each color times its
    offset, both mod r.  A fixed coloring gives the orbit one start color
    c, below r/p on the orbit that holds position 0 (the least lift) and
    free otherwise; its fixed points and 2-cycles then take the colors
    c + offset, and it adds c*S + T to the exponent.  The states of a run
    of orbits map each packed raw type (its fixed-point and 2-cycle color
    counts, one base n+1 digit each) to its counts by exponent mod r.  A
    raw type fixes its color sum, so block applies the basis group's
    condition, color sum 0 mod q, once per raw type.
    """

    def __init__(self, r: int, p: int, q: int, n: int) -> None:
        self.r, self.p, self.q = r, p, q
        self.radix = n + 1
        self.moves: dict[tuple, list] = {}
        # itemgetter returns a bare item, not a 1-tuple, for one index
        self.rotations = [
            itemgetter(*[(e - d) % r for e in range(r)]) if r > 1 else tuple
            for d in range(r)
        ]
        self.states: dict[tuple, dict] = {(): {0: (1,) + (0,) * (r - 1)}}
        self.histograms: dict[tuple, list] = {}
        self.blocks: dict[tuple, int | None] = {}
        self.numbers: dict[InvolutionClassType, int] = {}

    def _moves(self, kind, descriptor) -> list[tuple[int, itemgetter]]:
        """(packed raw type, exponent rotation) added by each start color."""
        key = (kind, descriptor)
        moves = self.moves.get(key)
        if moves is None:
            r, radix = self.r, self.radix
            fixed, pairs, holds_zero, total, weighted = descriptor
            if kind == "sym":
                slot, base = r, r
            else:
                slot, base = r // 2, 0
            moves = self.moves[key] = [
                (
                    sum(radix ** ((c + o) % r) for o in fixed)
                    + sum(radix ** (base + (c + o) % slot) for o in pairs),
                    self.rotations[(c * total + weighted) % r],
                )
                for c in range(r // self.p if holds_zero else r)
            ]
        return moves

    def _extend(self, kind, descriptor, states) -> dict:
        """The states of one more orbit followed by the given ones."""
        out: dict[int, tuple] = {}
        for dcode, shift in self._moves(kind, descriptor):
            for code, counts in states.items():
                moved = shift(counts)
                code += dcode
                old = out.get(code)
                out[code] = moved if old is None else tuple(map(add, old, moved))
        return out

    def _states(self, kind, signature) -> dict:
        """The states of a signature suffix, memoized: suffixes recur."""
        key = (kind, signature) if signature else ()
        states = self.states.get(key)
        if states is None:
            states = self.states[key] = self._extend(
                kind, signature[0], self._states(kind, signature[1:])
            )
        return states

    def histogram(self, kind, signature) -> list[tuple[int, tuple[int, ...]]]:
        """(block number, exponent histogram) for every block met by the
        colorings that one (pi, s) with this signature fixes.  A whole
        signature is no suffix of another, so its states are not kept."""
        key = (kind, signature)
        histogram = self.histograms.get(key)
        if histogram is None:
            merged: dict[int, tuple] = {}
            states = self._extend(kind, signature[0], self._states(kind, signature[1:]))
            for code, counts in states.items():
                number = self.block(kind, code)
                if number is not None:
                    old = merged.get(number)
                    merged[number] = counts if old is None else tuple(map(add, old, counts))
            histogram = self.histograms[key] = list(merged.items())
        return histogram

    def block(self, kind, code) -> int | None:
        """The number of the block of a packed raw type: its
        InvolutionClassType's number in self.numbers, in order of first
        sight, or None when its color sum is not 0 mod q, so that no basis
        coset has it."""
        key = (kind, code)
        if key not in self.blocks:
            r = self.r
            digits = []
            for _ in range(2 * r if kind == "sym" else r // 2):
                code, digit = divmod(code, self.radix)
                digits.append(digit)
            if kind == "sym":
                raw = (tuple(digits[:r]), tuple(digits[r:]), None)
            else:
                raw = (None, None, tuple(digits))
            if _raw_color_sum(r, *raw) % self.q:
                self.blocks[key] = None
            else:
                ctype = InvolutionClassType(r, self.p, kind, *raw)
                self.blocks[key] = self.numbers.setdefault(ctype, len(self.numbers))
        return self.blocks[key]

    def column(self, structures, nonzero) -> dict[int, list[int]]:
        """{block number: exponent histogram} of every block at one class,
        from the structures of its perm and its nonzero colors."""
        r = self.r
        weights: dict[tuple, int] = {}
        for kind, parts, where, sign, extra in structures:
            descriptors = [part + (0, 0) for part in parts]
            touched = {}
            for j, z in nonzero:
                o, offset = where[j]
                total, weighted = touched.get(o, (0, 0))
                touched[o] = (total + z, weighted + z * offset)
            for o, (total, weighted) in touched.items():
                descriptors[o] = parts[o] + (total % r, weighted % r)
            key = (kind, tuple(sorted(descriptors)), extra)
            weights[key] = weights.get(key, 0) + sign
        column: dict[int, list[int]] = {}
        zero = (0,) * r
        for (kind, signature, extra), weight in weights.items():
            if not weight:
                continue
            for number, counts in self.histogram(kind, signature):
                # the exponent e moves to e + extra
                counts = shape_shift(counts, extra)
                if weight != 1:
                    counts = [weight * count for count in counts]
                column[number] = list(map(add, column.get(number, zero), counts))
        return column


def _type_histograms(r: int, p: int, q: int, n: int, twist: bool = True):
    """Every block's exponent histogram at every class of G(r,p,n), in
    enumerate_classes order, as {type: [histogram per class]}.

    A coset v is fixed by g exactly when |v| = pi commutes with |g| and
    conjugation shifts v's colors by one multiple s of r/p; its scalar is
    then the signed pairing, plus s when v is antisymmetric and twisted.
    The fixed colorings of one (pi, s) depend only on the signature of the
    orbits of <|g|, pi> (see _Sweep), so each signature's histogram is
    computed once per run, and each class adds up its (pi, s) by
    signature.  The (pi, s) depend only on |g|: they are built once per
    perm and dropped when its classes are done.
    """
    labels = enumerate_classes(r, p, n)
    windows = [_class_window(label) for label in labels]
    # every basis coset has scalar order p, so a lift changes the colors by
    # a multiple of r/p
    for *_, color_sum in windows:
        if color_sum * (r // p) % r:
            raise ValueError("pairing is not lift-independent for this pair")
    by_perm: dict[tuple, list[int]] = {}
    for k, (perm0, *_) in enumerate(windows):
        by_perm.setdefault(perm0, []).append(k)
    sweep = _Sweep(r, p, q, n)
    columns = [None] * len(labels)
    for perm0, members in by_perm.items():
        cycles = windows[members[0]][1]
        structures = _perm_structures(perm0, cycles, r, p, twist)
        for k in members:
            columns[k] = sweep.column(structures, windows[k][2])
    zero = [0] * r
    return {
        ctype: [column.get(number, zero) for column in columns]
        for ctype, number in sorted(sweep.numbers.items())
    }


def _scope_characters(r: int, p: int, n: int, histograms, groups) -> list[ClassFunction]:
    """The character of each group of blocks, class by class the sum of its
    blocks' histograms; one Cyclotomic per distinct histogram."""
    zero = [(0,) * r] * len(enumerate_classes(r, p, n))
    values = _HistogramValues(r)
    out = []
    for group in groups:
        column = [
            values[tuple(map(sum, zip(*cells)))]
            for cells in zip(*[histograms[ctype] for ctype in group] or [zero])
        ]
        out.append(ClassFunction(r, p, n, column))
    return out


def _block_sizes(histograms) -> dict:
    """Each block's size: its trace at the identity class, which
    enumerate_classes lists last and where every coset is fixed with
    scalar 1."""
    sizes = {}
    for ctype, columns in histograms.items():
        size, *rest = columns[-1]
        if size <= 0 or any(rest):
            raise InconsistencyError(
                "block %s has trace %s at the identity" % (ctype, columns[-1])
            )
        sizes[ctype] = size
    return sizes


def model_character(basis: ModelBasis, scope="all", twist: bool = True) -> ClassFunction:
    """Trace of the action on a scope, as a class function on G(r,p,n):
    the sum of the scope's block characters, from one sweep.

    Every vector of the scope must be symmetric or antisymmetric, and the
    sweep's block sizes must be the basis's.
    """
    for i in basis.scope_indices(scope):
        if basis.elements[i].rep.symmetry_kind() == "neither":
            raise ValueError("basis element is neither symmetric nor antisymmetric")
    histograms = _type_histograms(basis.r, basis.p, basis.q, basis.n, twist)
    sizes = _block_sizes(histograms)
    if sizes != {ctype: len(basis.blocks[ctype]) for ctype in basis.types}:
        raise InconsistencyError("swept block sizes differ from the basis")
    (character,) = _scope_characters(
        basis.r, basis.p, basis.n, histograms, [basis.scope_types(scope)]
    )
    return character


def predicted_labels(ctype: InvolutionClassType) -> tuple[IrreducibleLabel, ...]:
    """Predicted irreducible constituents of the block M(c): the shapes
    combinatorially attached to the type, taking the 0-half on symmetric
    blocks and the 1-half on antisymmetric ones."""
    j = 0 if ctype.kind == "sym" else 1
    labels = [
        IrreducibleLabel(orbit, j if orbit.m > 1 else 0)
        for orbit in predicted_shapes(ctype)
    ]
    labels.sort(key=IrreducibleLabel.sort_key)
    return tuple(labels)


class ClassVerification(Immutable):
    """Outcome of checking one block M(c) against its prediction."""

    __slots__ = ("ctype", "size", "predicted", "computed", "passed")

    def __init__(self, ctype, size, predicted, computed) -> None:
        object.__setattr__(self, "ctype", ctype)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "predicted", tuple(predicted))
        object.__setattr__(self, "computed", tuple(computed))
        object.__setattr__(
            self,
            "passed",
            tuple((label, 1) for label in predicted) == tuple(computed),
        )

    def to_json(self) -> dict:
        return {
            "class_type": str(self.ctype),
            "class_size": self.size,
            "predicted": [str(label) for label in self.predicted],
            "computed": [
                {"label": str(label), "multiplicity": mult}
                for label, mult in self.computed
            ],
            "pass": self.passed,
        }


def _group_pair(r: int, p: int, q: int, n: int) -> dict:
    """The acting_group and basis_group fields of a model report, from
    the acting group G(r,p,q,n): the basis group is its dual G(r,q,p,n)."""
    return {
        "acting_group": {"r": r, "p": p, "q": q, "n": n},
        "basis_group": {"r": r, "p": q, "q": p, "n": n},
    }


class VerificationReport(Immutable):
    __slots__ = ("r", "p", "q", "n", "entries")

    def __init__(self, r, p, q, n, entries) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tuple(entries))

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def to_json(self) -> dict:
        return {
            **_group_pair(self.r, self.p, self.q, self.n),
            "classes": [entry.to_json() for entry in self.entries],
            "pass": self.passed,
        }


def _blocks_and_table(r: int, p: int, q: int, n: int, max_order: int):
    """Every block's histograms (see _type_histograms) and size, and the
    character table of G(r,p,q,n), after the global anchor: the block
    sizes sum to the sum of the irreducible degrees.  Also whether the
    table's rows are certified independent.  Unsupported groups, and
    groups past the guard max_order on r^n*n!, are refused before the
    sweep."""
    check_supported_group(r, p, q, n)
    check_enumeration_order(r, n, max_order)
    histograms = _type_histograms(r, p, q, n)
    sizes = _block_sizes(histograms)
    table = character_table(r, p, q, n)
    dimension = sum(sizes.values())
    degree_sum = sum(label_degree(label) for label, _ in table)
    if degree_sum != dimension:
        raise InconsistencyError(
            "model dimension %d differs from total degree %d"
            % (dimension, degree_sum)
        )
    return histograms, sizes, table, rows_independent(table)


def verify_class_decomposition(
    r: int,
    p: int,
    q: int,
    n: int,
    max_order: int = ENUMERATION_GUARD,
    only: InvolutionClassType | None = None,
) -> VerificationReport:
    """Decompose every block M(c) and compare with the predicted list.

    When the table's rows are certified independent, a block whose
    character equals the sum of its predicted rows is proved to match
    without projecting; any other block is decomposed by inner products.
    Also checks the global consistency anchor: the block sizes, read from
    the identity column, sum to the sum of the irreducible degrees.  Pass
    only=type to restrict the report to one block.
    """
    histograms, sizes, table, certified = _blocks_and_table(r, p, q, n, max_order)
    if only is None:
        targets = tuple(histograms)
    elif only in histograms:
        targets = (only,)
    else:
        raise ValueError("no involution class of type %s" % only)
    characters = _scope_characters(r, p, n, histograms, [(ctype,) for ctype in targets])
    entries = []
    for ctype, character in zip(targets, characters):
        predicted = predicted_labels(ctype)
        computed = decompose(character, table, predicted if certified else None)
        entries.append(ClassVerification(ctype, sizes[ctype], predicted, computed))
    return VerificationReport(r, p, q, n, entries)


def gelfand_check(
    r: int, p: int, q: int, n: int, max_order: int = ENUMERATION_GUARD
):
    """Multiplicity of every irreducible in the full module.

    Returns (rows, passed): rows lists (IrreducibleLabel, multiplicity) for
    every table row, and passed is True exactly when every multiplicity is 1.
    Checks the same dimension anchor as verify_class_decomposition.  The
    full character, the sum of every block's, goes through decompose,
    expecting every row once when the rows are certified independent.
    """
    histograms, _, table, certified = _blocks_and_table(r, p, q, n, max_order)
    labels = [label for label, _ in table]
    (full,) = _scope_characters(r, p, n, histograms, [tuple(histograms)])
    mults = dict(decompose(full, table, labels if certified else None))
    rows = [(label, mults.get(label, 0)) for label in labels]
    return rows, all(mult == 1 for _, mult in rows)
