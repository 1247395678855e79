"""The involution module of G(r,p,q,n) and its exact decomposition.

The module has one basis vector per absolute involution of the dual group
G(r,q,p,n).  A group element acts by conjugating the basis involution with
its underlying permutation and scaling by a root of unity built from a
color pairing, an inversion count (symmetric case) or a color transfer
statistic (antisymmetric case).  Everything here is verified rather than
assumed: each block's trace must equal the sum of the table rows
combinatorially predicted for it, once the rows are certified independent,
and is otherwise decomposed against the table by exact inner products.
"""

from __future__ import annotations

from functools import lru_cache

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


@lru_cache(maxsize=None)
def _class_window(label):
    """Raw window of the canonical representative g of a class: its
    1-based perm, its 0-based perm, its colors, its color sum, and the
    0-based position |g|^{-1}(1)."""
    g = normal_element(label)
    return (
        g.perm,
        tuple(s - 1 for s in g.perm),
        g.colors,
        g.color_sum(),
        g.perm.index(1),
    )


def model_character(basis: ModelBasis, scope="all", twist: bool = True) -> ClassFunction:
    """Trace of the action on a block, as a class function on G(r,p,n).

    Evaluated at the canonical representative of each class; only basis
    vectors fixed by the conjugation contribute their scalar.  The loop
    runs on raw windows and sums the scalars, which are signed r-th roots
    of unity, as a histogram of exponents per class.
    """
    indices = basis.scope_indices(scope)
    r = basis.r
    labels = enumerate_classes(r, basis.p, basis.n)
    windows = [_class_window(label) for label in labels]
    # every basis coset has scalar order basis.p, so a lift changes the
    # colors by a multiple of step
    step = r // basis.p
    for _, _, _, color_sum, _ in windows:
        if color_sum * step % r:
            raise ValueError("pairing is not lift-independent for this pair")
    histograms = [[0] * r for _ in labels]
    for i in indices:
        rep = basis.elements[i].rep
        kind = rep.symmetry_kind()
        if kind == "neither":
            raise ValueError("basis element is neither symmetric nor antisymmetric")
        v_perm, v_colors = rep.perm, rep.colors
        for histogram, (g_perm, g0, g_colors, _, source) in zip(histograms, windows):
            # |g| v |g|^{-1} has color v_colors[g0[j]] at j, and the same
            # perm as v when v_perm[g0[j]] == |g|(v_perm[j]) for every j; it
            # is v in the quotient when, besides, its colors differ from
            # v's by one multiple of step
            shift = (v_colors[g0[0]] - v_colors[0]) % r
            if shift % step:
                continue
            for j, c in enumerate(g0):
                if (
                    v_perm[c] != g_perm[v_perm[j] - 1]
                    or (v_colors[c] - v_colors[j]) % r != shift
                ):
                    break
            else:
                exponent = _pairing(g_colors, v_colors, r)
                if kind == "symmetric":
                    histogram[exponent] += -1 if _inversions(g_perm, v_perm) % 2 else 1
                else:
                    if twist:
                        exponent = (exponent + _transfer(v_colors, source, r)) % r
                    histogram[exponent] += 1
    return ClassFunction(
        r,
        basis.p,
        basis.n,
        {
            label: Cyclotomic(r, histogram)
            for label, histogram in zip(labels, histograms)
        },
    )


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
    degrees.  Unsupported groups are refused before the basis is built."""
    check_supported_group(r, p, q, n)
    basis = ModelBasis(r, p, q, n, max_order)
    table = character_table(r, p, q, n)
    degree_sum = sum(label_degree(label) for label, _ in table)
    if degree_sum != basis.dimension:
        raise InconsistencyError(
            "model dimension %d differs from total degree %d"
            % (basis.dimension, degree_sum)
        )
    return basis, table


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
    basis, table = _basis_and_table(r, p, q, n, max_order)
    if only is None:
        targets = basis.types
    elif only in basis.blocks:
        targets = (only,)
    else:
        raise ValueError("no involution class of type %s" % only)
    certified = rows_independent(table)
    entries = []
    for ctype in targets:
        predicted = predicted_labels(ctype)
        computed = decompose(
            model_character(basis, ctype), table, predicted if certified else None
        )
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
    basis, table = _basis_and_table(r, p, q, n, max_order)
    labels = [label for label, _ in table]
    mults = dict(
        decompose(
            model_character(basis, "all"),
            table,
            labels if rows_independent(table) else None,
        )
    )
    rows = [(label, mults.get(label, 0)) for label in labels]
    return rows, all(mult == 1 for _, mult in rows)
