"""Base class for the library's value types.

Subclasses declare their own __slots__ and set them once in __init__
through object.__setattr__; any later assignment raises.
"""


class Immutable:
    __slots__ = ()

    def __setattr__(self, *args) -> None:
        raise AttributeError("%s is immutable" % type(self).__name__)
