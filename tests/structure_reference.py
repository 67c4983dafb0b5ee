"""The cross-checks of ``acmpts enumerate``, one configuration at a time,
and the tuple routes of the inclusion property and interface sets.

``enumerate`` reads the star verdicts of level unions and interface sets
from its table of decided submasks.  This is the direct route it
replaced, kept as the reference its FAIL lines are held to: every
proper union of levels and every nonempty interface set is built,
canonicalized and star-checked on its own.

``level_structure`` decides inclusion and builds interfaces on cell
masks.  ``reference_inclusion_property`` and ``reference_interface_set``
are the routes they replaced, on point tuples, each projected level
canonicalized before its star check.
"""

from acmpts.grid_model import PointSet, canonicalize
from acmpts.level_structure import inclusion_property, interface_set, level_sets
from acmpts.reisner_oracle import is_cm
from acmpts.star_property import is_acm


def structure_failures(X):
    """Consequence checks for an ACM configuration: proper unions of its
    levels and interface sets must all be ACM.  Single levels and level
    complements are such unions, so each of them is checked once."""
    problems = []
    for i in range(1, X.n + 1):
        parts = [sorted(part) for _, part in level_sets(X, i).levels]
        t = len(parts)
        for mask in range(1, (1 << t) - 1):
            union = [p for k in range(t) if mask >> k & 1 for p in parts[k]]
            if not is_acm(canonicalize(union)):
                problems.append(f"union of levels mask={mask} direction={i} not ACM")
        if t >= 2:
            for j in range(1, t + 1):
                iface = interface_set(X, i, j)
                if iface.size and not is_acm(iface):
                    problems.append(f"interface of level {j} direction {i} not ACM")
    return problems


def cross_check_failures(X):
    """The FAIL messages of one configuration, in ``enumerate``'s order."""
    star, cm = is_acm(X), is_cm(X)
    problems = [f"star={star} but reisner={cm}"] if star != cm else []
    if star and X.n >= 2:
        problems += structure_failures(X)
    if not star and X.n >= 2 and any(inclusion_property(X, i) for i in range(1, X.n + 1)):
        problems.append("inclusion holds but configuration is not ACM")
    return problems


def _shadow(points, i):
    """The points with coordinate i deleted."""
    return frozenset(p[: i - 1] + p[i:] for p in points)


def reference_inclusion_property(X, i):
    """Whether the projected i-level sets of X form an inclusion chain of
    ACM sets: sorted by size, each contains the one before, and each,
    canonicalized, passes ``is_acm``."""
    shadows = sorted((_shadow(part, i) for _, part in level_sets(X, i).levels), key=len)
    if any(not small <= big for small, big in zip(shadows, shadows[1:])):
        return False
    return all(is_acm(canonicalize(sh)) for sh in shadows)


def reference_interface_set(X, i, j):
    """The points of X off level j of direction i lying over the shadow of
    that level, canonicalized, or the empty configuration."""
    level_shadow = _shadow((p for p in X.points if p[i - 1] == j), i)
    rest = [p for p in X.points if p[i - 1] != j and p[: i - 1] + p[i:] in level_shadow]
    return canonicalize(rest) if rest else PointSet.empty(X.n)
