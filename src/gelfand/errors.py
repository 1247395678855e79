"""Shared exception types, and the default of the resource guard.

The library distinguishes three failure modes beyond plain ValueError:
parameters that name a group outside the supported regime, computations
that would exceed an explicit resource guard, and internal consistency
checks (exact identities that must hold) failing.
"""


class UnsupportedGroupError(ValueError):
    """The parameters name a group the algorithms do not cover.

    Raised for example when GCD(p, n) is not 1 or 2, or when p or q does
    not divide r, or pq does not divide rn.
    """


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed a configured size guard."""


# The guard's default bound on the order of an enumerated group.
ENUMERATION_GUARD = 10**6


class InconsistencyError(RuntimeError):
    """An exact identity that must hold by theory failed to hold.

    This signals a bug (or a genuinely non-integral decomposition), never
    bad user input.
    """
