"""The cross-checks of ``acmpts enumerate``, one configuration at a time.

``enumerate`` reads the star verdicts of level unions and interface sets
from its table of decided submasks.  This is the direct route it
replaced, kept as the reference its FAIL lines are held to: every
proper union of levels and every nonempty interface set is built,
canonicalized and star-checked on its own.
"""

from acmpts.grid_model import canonicalize
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
