"""Base classes for the library's value types.

Subclasses declare their own __slots__ and set them once in __init__
through object.__setattr__; any later assignment raises.

A Value compares by the key its subclass returns from _key(): equal
values share a class and a key, a value hashes as its key (computed
once and kept, as a label is hashed many times over nested shape
tuples), and values of one class order by sort_key(), the key unless
the subclass sorts otherwise.  The quotient's value types take their identity up to
the scalar shift this way: a coset by its least lift, an irreducible by
its shift orbit of shapes, an involution type by its least rotation.
"""

from functools import total_ordering


class Immutable:
    __slots__ = ()

    def __setattr__(self, *args) -> None:
        raise AttributeError("%s is immutable" % type(self).__name__)


@total_ordering
class Value(Immutable):
    __slots__ = ("_hash",)

    def sort_key(self):
        return self._key()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._key()))
            return self._hash

    def __lt__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.sort_key() < other.sort_key()
