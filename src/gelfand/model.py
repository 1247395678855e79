"""The involution module of G(r,p,q,n) and its exact decomposition.

The module has one basis vector per absolute involution of the dual group
G(r,q,p,n).  A group element acts by conjugating the basis involution with
its underlying permutation and scaling by a root of unity built from a
color pairing, an inversion count (symmetric case) or a color transfer
statistic (antisymmetric case).  Everything here is verified rather than
assumed: each block's trace must equal the sum of the table rows
combinatorially predicted for it, once the rows are certified independent,
and is otherwise decomposed against the table by exact inner products.

A block's trace at g counts the basis vectors that |g| fixes by
conjugation.  One sweep traces every block a verification needs: it
buckets the vectors of all scopes by their perm, builds each class window
once, keeps only the perms that commute with |g|, and in each such bucket
finds the colorings that conjugation shifts by one scalar (by zero unless
the basis is a quotient) by generating and looking up every such coloring,
or by testing each member, whichever is fewer steps.  Each fixed point
counts toward its own scope; model_character is the one-scope sweep.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter

from .characters import (
    ClassFunction,
    IrreducibleLabel,
    character_table,
    decompose,
    label_degree,
    rows_independent,
)
from .classes import (
    ENUMERATION_GUARD,
    InvolutionClassType,
    enumerate_classes,
    enumerate_involution_classes,
    normal_element,
    predicted_shapes,
)
from .colored import (
    ColoredPermutation,
    ProjectiveElement,
    check_supported_group,
    projective_conjugate,
)
from .cyclotomic import Cyclotomic
from .errors import InconsistencyError
from .immutable import Immutable


def _lift(x) -> ColoredPermutation:
    return x.rep if isinstance(x, ProjectiveElement) else x


def pairing(g, v) -> int:
    """Color pairing sum_i z_i(g)z_i(v) mod r, computed on lifts.

    Well defined on cosets because each argument's color sum satisfies the
    divisibility the other side's scalar shifts need; that requirement is
    checked, not assumed.
    """
    gl, vl = _lift(g), _lift(v)
    if gl.r != vl.r or gl.n != vl.n:
        raise ValueError("elements live in different groups")
    r = gl.r
    if isinstance(v, ProjectiveElement):
        if (gl.color_sum() * (r // v.q)) % r != 0:
            raise ValueError("pairing is not lift-independent for this pair")
    if isinstance(g, ProjectiveElement):
        if (vl.color_sum() * (r // g.q)) % r != 0:
            raise ValueError("pairing is not lift-independent for this pair")
    return _pairing(gl.colors, vl.colors, r)


def inv_statistic(g, v) -> int:
    """Number of inversions of |g| located on the 2-cycles of |v|."""
    return _inversions(_lift(g).perm, _lift(v).perm)


def a_statistic(g, v) -> int:
    """Color transferred past position 1: z_1(v) - z_{|g|^{-1}(1)}(v) mod r."""
    gl, vl = _lift(g), _lift(v)
    return _transfer(vl.colors, gl.perm.index(1), vl.r)


# The statistics on raw windows: colors are tuples of exponents, perms
# 1-based tuples, source the 0-based position |g|^{-1}(1).


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

    def scope_indices(self, scope) -> tuple[int, ...]:
        """Basis indices for a scope: 'all', 'M0', 'M1', or one type."""
        if isinstance(scope, InvolutionClassType):
            if scope not in self.blocks:
                raise ValueError("no block with type %s" % scope)
            return self.blocks[scope]
        if scope == "all":
            return tuple(range(self.dimension))
        if scope in ("M0", "M1"):
            kind = "sym" if scope == "M0" else "asym"
            return tuple(
                i
                for ctype in self.types
                if ctype.kind == kind
                for i in self.blocks[ctype]
            )
        raise ValueError("scope must be 'all', 'M0', 'M1' or a type")


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
    gl = _lift(g)
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


def model_character(basis: ModelBasis, scope="all", twist: bool = True) -> ClassFunction:
    """Trace of the action on a scope, as a class function on G(r,p,n)."""
    return _block_characters(basis, [scope], twist)[0]


def _block_characters(basis: ModelBasis, scopes, twist: bool = True) -> list[ClassFunction]:
    """The traces of the action on disjoint scopes, in one sweep.

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
    _class_window; s = 0 unless the basis is a quotient).  The bucket finds
    them by whichever way takes fewer steps: look up every such coloring,
    or test each member.
    """
    r = basis.r
    step = r // basis.p
    windows = [_class_window(label) for label in enumerate_classes(r, basis.p, basis.n)]
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
            "acting_group": {"r": self.r, "p": self.p, "q": self.q, "n": self.n},
            "basis_group": {"r": self.r, "p": self.q, "q": self.p, "n": self.n},
            "classes": [entry.to_json() for entry in self.entries],
            "pass": self.passed,
        }


def _basis_and_table(r: int, p: int, q: int, n: int, max_order: int):
    """The model basis and the character table of G(r,p,q,n), after the
    global anchor: the basis size equals the sum of the irreducible
    degrees, and whether the table's rows are certified independent.
    Unsupported groups are refused before the basis is built."""
    check_supported_group(r, p, q, n)
    basis = ModelBasis(r, p, q, n, max_order)
    table = character_table(r, p, q, n)
    degree_sum = sum(label_degree(label) for label, _ in table)
    if degree_sum != basis.dimension:
        raise InconsistencyError(
            "model dimension %d differs from total degree %d"
            % (basis.dimension, degree_sum)
        )
    return basis, table, rows_independent(table)


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
    Also checks the global consistency anchors: the basis size equals the
    sum of the irreducible degrees, and block sizes sum to the dimension.
    Pass only=type to restrict the report to one block.
    """
    basis, table, certified = _basis_and_table(r, p, q, n, max_order)
    if only is None:
        targets = basis.types
    elif only in basis.blocks:
        targets = (only,)
    else:
        raise ValueError("no involution class of type %s" % only)
    entries = []
    for ctype, character in zip(targets, _block_characters(basis, targets)):
        predicted = predicted_labels(ctype)
        computed = decompose(character, table, predicted if certified else None)
        entries.append(
            ClassVerification(ctype, len(basis.blocks[ctype]), predicted, computed)
        )
    return VerificationReport(r, p, q, n, entries)


def gelfand_check(
    r: int, p: int, q: int, n: int, max_order: int = ENUMERATION_GUARD
):
    """Multiplicity of every irreducible in the full module.

    Returns (rows, passed): rows lists (IrreducibleLabel, multiplicity) for
    every table row, and passed is True exactly when every multiplicity is 1.
    Checks the same dimension anchor as verify_class_decomposition.  The
    full character goes through decompose, expecting every row once when
    the rows are certified independent.
    """
    basis, table, certified = _basis_and_table(r, p, q, n, max_order)
    labels = [label for label, _ in table]
    mults = dict(
        decompose(model_character(basis, "all"), table, labels if certified else None)
    )
    rows = [(label, mults.get(label, 0)) for label in labels]
    return rows, all(mult == 1 for _, mult in rows)
