"""Cycle-pairing analysis of the antisymmetric half of the involution
module.

For an element g these helpers list the pairings of g's cycles, which
colored.cycle_pairings generates from the cycle lengths, sort the
antisymmetric elements that |g| fixes up to sign by the pairing they
induce, and evaluate the difference of the untwisted and twisted block
characters.  The acceptance tests use them to check the antisymmetric
trace identity; the command line does not.
"""

from __future__ import annotations

from gelfand.classes import ConjugacyClass
from gelfand.colored import (
    ColoredPermutation,
    absolute_conjugate,
    antisymmetric_elements,
    cycle_pairings,
)
from gelfand.cyclotomic import Cyclotomic
from gelfand.errors import ENUMERATION_GUARD, InconsistencyError, check_resource
from gelfand.model import ModelBasis, model_character


def pi21_partitions(g: ColoredPermutation):
    """Partitions of g's cycles into singletons and equal-length pairs.

    Each partition is a sorted tuple of parts; a part is a tuple of cycle
    indices into g.cycles().  They come in the order of cycle_pairings.
    """
    return [
        tuple(sorted([(i,) for i in singles] + list(pairs)))
        for singles, pairs in cycle_pairings([len(cycle) for cycle in g.cycles()])
    ]


def part_color(g: ColoredPermutation, part) -> int:
    """Total color of the cycles in one part, mod r."""
    cycles = g.cycles()
    return sum(ColoredPermutation.cycle_color(cycles[i]) for i in part) % g.r


def _partition_of(g_cycles, w: ColoredPermutation):
    """The cycle partition an antisymmetric w induces on g's cycles: cycles
    are paired when |w| carries one support onto the other."""
    support_index = {}
    for idx, cyc in enumerate(g_cycles):
        support_index[frozenset(e for e, _ in cyc)] = idx
    parts = set()
    for idx, cyc in enumerate(g_cycles):
        image = frozenset(w.perm[e - 1] for e, _ in cyc)
        other = support_index.get(image)
        if other is None:
            return None
        parts.add(tuple(sorted({idx, other})))
    covered = sorted(i for part in parts for i in part)
    if covered != list(range(len(g_cycles))):
        return None
    return tuple(sorted(parts))


def a_sets(g: ColoredPermutation, eps: int, max_count: int = ENUMERATION_GUARD):
    """Brute-force classification of the antisymmetric elements w with
    |g| w |g|^-1 = (-1)^eps w, grouped by the induced cycle partition.

    Returns a dict partition -> sorted tuple of elements; partitions not
    realized by any w are absent.
    """
    r, n = g.r, g.n
    if r % 2 != 0:
        return {}
    if n % 2 == 0:
        check_resource(
            "antisymmetric enumeration",
            "r^(n/2)*(n-1)!! at r=%d, n=%d" % (r, n),
            (r * k for k in range(1, n, 2)),
            max_count,
        )
    cycles = g.cycles()
    target_shift = (eps * (r // 2)) % r
    buckets: dict[tuple, list[ColoredPermutation]] = {}
    for w in antisymmetric_elements(r, n):
        conj = absolute_conjugate(g, w)
        if conj.perm != w.perm:
            continue
        if any(
            (cw + target_shift) % r != cc
            for cw, cc in zip(w.colors, conj.colors)
        ):
            continue
        partition = _partition_of(cycles, w)
        if partition is None:
            raise InconsistencyError(
                "an element commuting with |g| must permute its cycles"
            )
        buckets.setdefault(partition, []).append(w)
    return {part: tuple(sorted(ws)) for part, ws in buckets.items()}


def halfway_difference(basis: ModelBasis, label: ConjugacyClass) -> Cyclotomic:
    """Left side of the antisymmetric trace identity: the difference of the
    untwisted and twisted block characters at one class."""
    untwisted = model_character(basis, "M1", twist=False)
    twisted = model_character(basis, "M1", twist=True)
    return untwisted(label) - twisted(label)
