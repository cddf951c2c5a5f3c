"""Reference answers that do not come from the code paths the benchmark times.

Posets are taken as (n, cover pairs) and compared with an isomorphism test
written here from the definition, so a defect in slimlat's own `poset_iso`
or `poset_double` cannot hide a wrong answer.  Sizes of the `large`
sequences follow from a closed formula instead of from a build.
"""

from __future__ import annotations

# Slim rectangular lattices by length, up to isomorphism and mirror image.
ENUM_COUNTS = {2: 1, 3: 2, 4: 6, 5: 19, 6: 78, 7: 387}

# The 4-element posets with exactly one maximal element: element 3 on top of
# each of the five 3-element posets.  Every lamp poset has at least two
# maximal elements (its p + q >= 2 boundary lamps), so none is realizable.
ONE_MAX_4 = (
    ((0, 3), (1, 3), (2, 3)),
    ((0, 1), (1, 2), (2, 3)),
    ((0, 1), (0, 2), (1, 3), (2, 3)),
    ((0, 2), (1, 2), (2, 3)),
    ((0, 1), (1, 3), (2, 3)),
)


def strict_order(n, covers):
    """Set of pairs (a, b) with a < b, the transitive closure of `covers`."""
    up = {u: set() for u in range(n)}
    for a, b in covers:
        up[a].add(b)
    lt = set()
    for u in range(n):
        stack = list(up[u])
        seen = set()
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(up[v])
        lt.update((u, v) for v in seen)
    return lt


def maximal_count(n, covers):
    return n - len({a for a, _ in covers})


def isomorphic(n1, covers1, n2, covers2):
    """True iff the two posets are order-isomorphic (plain backtracking)."""
    covers1, covers2 = {tuple(c) for c in covers1}, {tuple(c) for c in covers2}
    if n1 != n2 or len(covers1) != len(covers2):
        return False
    lt1, lt2 = strict_order(n1, covers1), strict_order(n2, covers2)
    if len(lt1) != len(lt2):
        return False

    def profile(n, lt):
        return [
            (sum(1 for a, b in lt if b == u), sum(1 for a, b in lt if a == u))
            for u in range(n)
        ]

    prof1, prof2 = profile(n1, lt1), profile(n2, lt2)
    if sorted(prof1) != sorted(prof2):
        return False
    image = {}

    def extend(u):
        if u == n1:
            return True
        for v in range(n2):
            if prof2[v] != prof1[u] or v in image.values():
                continue
            if all(
                ((w, u) in lt1) == ((x, v) in lt2) and ((u, w) in lt1) == ((v, x) in lt2)
                for w, x in image.items()
            ):
                image[u] = v
                if extend(u + 1):
                    return True
                del image[u]
        return False

    return extend(0)


def doubled(n, covers, j):
    """Covers after replacing element j by a two-element chain: the new
    element n sits below j and takes over j's lower covers."""
    out = [(a, n) if b == j else (a, b) for a, b in covers]
    return n + 1, out + [(n, j)]


def large_size(p, q, forks):
    """Element count of grid p q followed by `forks`, given as grid-cell
    bottoms (a, b, k) with a strictly decreasing and b strictly increasing.

    Fork i adds k_i elements on each edge of its two descending paths, the
    C(k_i, 2) leg crossings and its k_i new tube feet.  Its right path has
    a_i + 1 edges; its left path has b_i + 1 grid edges plus k_j more for
    every earlier fork j, whose subdivided column it crosses.
    """
    n = (p + 1) * (q + 1)
    earlier = 0
    for a, b, k in forks:
        n += k * ((b + 1 + earlier) + (a + 1)) + k * (k - 1) // 2 + k
        earlier += k
    return n


def length_bound(n):
    """2n^2 - 10n + 15: the length within which a poset of n >= 3 elements
    is realized if it is realizable at all."""
    return 2 * n * n - 10 * n + 15
