"""Finite posets and lattices, stored as up- and down-set bitmasks.

Elements are dense integers 0..n-1.  Values do not change after
construction; derived data (heights, a built poset's cover set, a
lattice's D relation and Con L) is computed on first use and cached on
the object, so a lattice derives D and Con L once however often it is
asked, and Con L holds no reference back to its lattice.  A poset keeps
its covers as rows, upper_covers(u) and lower_covers(u): a poset from
pairs lists them ascending, a built one (Poset._from_rows) left to right,
as its diagram does.  A poset from pairs or rows derives the order in two
passes (Poset._derive): one forward over a topological order checks the
rows against each other and ORs the down-sets, one backward the up-sets
and tests that each row is reduced against _above, the mask of the
elements strictly above a set.  A poset from closed up-set masks
(Poset._from_up: J(Con L), the lamp rule, poset_double) keeps them, and
one sweep over each strict up-set transposes it into the down-sets and
ORs the strict up-sets of its elements: the cover row is what that mask
misses, and the mask checks that the masks are antisymmetric and closed.
Sets of elements are int bitmasks, bit y for y: `Poset.up[x]` holds the
y >= x, `Poset.down[x]` the y <= x; a loop over a mask of a few bits
takes them lowest bit first.  A FiniteLattice keeps no table; other
modules get elements, not masks, from its point queries.  Five textbook
facts keep the kernels below cubic cost:

- A finite poset with a top in which every pair has a meet is a lattice
  (Graetzer, Lattice Theory: Foundation, 2011, ch. I), and x ^ y exists
  iff the common down-set down[x] & down[y] is some element's down-set.
  So one set lookup per incomparable pair certifies foreign input
  (FiniteLattice._certify), and no table is filled.
- A lattice of finite length is (upper) semimodular iff it satisfies
  Birkhoff's covering condition: any two upper covers a, b of an element
  are both covered by a v b (Graetzer, Lattice Theory: Foundation, 2011,
  ch. V).  Testing it runs over pairs of upper covers, O(sum deg^2).
- By Dilworth's theorem (Ann. Math. 51, 1950), J(L) has width <= 2 iff it
  splits into two chains, that is iff the incomparability graph of J(L) is
  bipartite.  A 2-colouring of that graph decides slimness in O(|J|^2).
- For join-irreducibles j != k with lower covers j_ and k_, say j D k
  when j <= k v x but not j <= k_ v x for some x.  Then con(j_, j) <=
  con(k_, k) iff D steps lead from j to k (Freese, Jezek, Nation, Free
  Lattices, 1995, ch. II), and every con(a, b) of a cover is a con(k_, k).
  D is read off Wille's arrow relations (Ganter and Wille, Formal Concept
  Analysis, 1999, sec. 1.2; see _dependencies), so Con L is read off the
  D order on J(L), with no table and no closure.  A congruence theta is
  its collapsed mask C, the j with j_ theta j: x theta y iff the masks of
  the join-irreducibles below x and y agree outside C, so the Con checks
  compare masks and build no partition (CongruenceLattice).  The
  congruence of a prime interval y < x is join-irreducible in Con L
  (Graetzer, The Congruences of a Finite Lattice, 2nd ed., 2016), so it
  is one con(j_, j).  A coarser congruence has a larger mask, so listing
  the masks by size extends refinement, and the first listed theta that
  collapses a cover is its congruence.
- Sending u to the join-irreducibles below it embeds a finite lattice M
  into the down-sets of its poset J(M) of join-irreducibles, so M is
  distributive iff it has as many elements as J(M) has down-sets
  (Birkhoff; Graetzer, Lattice Theory: Foundation, 2011, sec. II.1).
  A principal ideal is therefore a product of two chains iff its
  join-irreducibles form disjoint chains of sizes a and b and it has
  (a+1)(b+1) elements.

The brute-force versions of these kernels (a cubic table search, a scan
of all pairs for semimodularity, of all triples of J(L) for slimness, D
from join rows, one closure per cover and a cubic distributivity scan of
the rebuilt ideal) are kept in tests/ as reference implementations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress, count

from .errors import BudgetError, OrderError, ParseError

# Largest element count accepted from any input, a JSON file or a DSL
# construction: more than ten times the largest lattice the tests and the
# benchmark build (n <= 171).  --allow-large does not lift it: the limit is
# the certificate of a lattice read from JSON, up to n^2 / 2 ANDs of n-bit
# down-set masks, a cost cubic in n: 0.19 s on `grid 43 44` (1,980
# elements) and 0.22 s on M_1998 (2,000), and `slimlat validate` of `grid
# 43 44` as lattice JSON takes 0.24 s at a peak RSS of 20 MB.  A built
# lattice is certified by its corner coordinates and tests no pairs: the
# grid takes about 0.02 s to build, at a peak RSS of 17 MB, and 0.04 s
# more to report its lamps, at 19 MB; `slimlat build`, which also writes
# its 100 KB of JSON, takes 0.04 s at 20 MB (Python 3.11, 2-vCPU VM).
MAX_ELEMENTS = 2000

_BITS = bytes.maketrans(b"01", b"\0\1")


def _picked(items, mask):
    """The items at the bits of mask, in one C-level pass over its digits."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_BITS))


def _elements(mask):
    """The elements of a mask, ascending."""
    return _picked(count(), mask)


def _above(up, elems):
    """The mask of the elements strictly above some element of elems.  Of
    the elements of a set above a, the covers of a are those outside this
    mask of the set, so a cover row is reduced iff it misses its own."""
    mask = 0
    for c in elems:
        mask |= up[c] ^ (1 << c)
    return mask


def _unclosed(up):
    """OrderError naming the first fault of up-set masks: a mask with
    elements out of range, else, in index order, one that does not hold
    its element a, or holds an element c whose up-set holds a (not
    antisymmetric) or holds an element that a's misses (not closed)."""
    n = len(up)
    for a, m in enumerate(up):
        if m < 0 or m >> n:
            raise OrderError(f"up-set of {a} holds elements out of range 0..{n - 1}")
    for a, m in enumerate(up):
        if not m >> a & 1:
            raise OrderError(f"up-set of {a} does not hold {a}")
        for c in _elements(m ^ (1 << a)):
            if up[c] >> a & 1:
                raise OrderError(f"up-sets of {a} and {c} hold each other")
            if up[c] & ~m:
                d = min(_elements(up[c] & ~m))
                raise OrderError(f"up-set of {a} is not closed: it holds {c} but not {d}")


def _check_listed(upper, lower):
    """OrderError naming the first cover (a, b), in row order, that is out
    of range or missing from b's lower row."""
    n = len(upper)
    for a, row in enumerate(upper):
        for b in row:
            if not 0 <= b < n or a not in lower[b]:
                raise OrderError(f"cover ({a},{b}) is missing from the lower rows")


# ---------------------------------------------------------------------------
# Posets
# ---------------------------------------------------------------------------

class Poset:
    """Finite poset given by its (transitively reduced) cover relation.

    upper_covers(u) and lower_covers(u) are the rows of that relation.  A
    poset from pairs lists each row ascending; a built one (_from_rows)
    keeps the rows it is handed, which list the covers left to right in the
    diagram.  A poset from up-set masks (_from_up) lists each row
    ascending.  `covers`, the set of (lower, upper) pairs, is kept by a
    poset from pairs and derived on first read for the others.
    """

    def __init__(self, n, covers):
        self._unreduced(self._set_covers(n, covers))

    @classmethod
    def _from_rows(cls, upper, lower):
        """The poset whose upper_covers(u) is upper[u] and lower_covers(u) is
        lower[u], the same tuples.  OrderError unless the rows are each
        other's transpose (every upper pair is listed once, the lower rows
        hold the same pairs) and the relation is acyclic and reduced."""
        n = len(upper)
        if len(lower) != n:
            raise OrderError(f"{n} upper rows but {len(lower)} lower rows")
        poset = cls.__new__(cls)
        poset._unreduced(poset._derive(upper, lower))
        return poset

    @classmethod
    def _from_up(cls, up):
        """The poset whose up-sets are the masks up, kept as given, its cover
        rows ascending.  One sweep over a's strict up-set, lowest bit first,
        ORs a into the down-sets of its elements (the transpose) and ORs
        their strict up-sets into `higher`: a's upper covers are the
        elements outside `higher`.  The masks are reflexive, antisymmetric
        and closed iff each up[a] holds a and `higher` lies inside it and
        misses a; OrderError otherwise (_unclosed).  The heights and the
        topological `_order` come from one first-in first-out pass over the
        rows, as in _derive."""
        n = len(up)
        upper, lower, down = [], [[] for _ in range(n)], [0] * n
        for a, m in enumerate(up):
            bit = 1 << a
            if m >> n or not m & bit:
                _unclosed(up)
            down[a] |= bit
            rest, higher = m ^ bit, 0
            while rest:
                low = rest & -rest
                c = low.bit_length() - 1
                down[c] |= bit
                higher |= up[c] ^ low
                rest ^= low
            if higher & ~m or higher & bit:
                _unclosed(up)
            rest, row = (m ^ bit) & ~higher, []
            while rest:
                low = rest & -rest
                b = low.bit_length() - 1
                row.append(b)
                lower[b].append(a)
                rest ^= low
            upper.append(tuple(row))
        poset = cls.__new__(cls)
        poset.n, poset.up, poset.down = n, tuple(up), tuple(down)
        poset._upcov, poset._dncov = tuple(upper), tuple(map(tuple, lower))
        indeg = list(map(len, lower))
        order = [u for u, d in enumerate(indeg) if not d]
        h = [0] * n
        for u in order:  # the loop also visits what it appends
            for v in upper[u]:
                indeg[v] -= 1
                if not indeg[v]:
                    h[v] = h[u] + 1
                    order.append(v)
        poset._order, poset._h, poset._height = order, tuple(h), h[order[-1]] if order else 0
        return poset

    def _set_covers(self, n, pairs):
        """Store the pairs as covers, and as rows listed ascending (_derive)."""
        covers = frozenset((int(a), int(b)) for a, b in pairs)
        upcov = [[] for _ in range(n)]
        dncov = [[] for _ in range(n)]
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise OrderError(f"cover ({a},{b}) out of range 0..{n - 1}")
            if a == b:
                raise OrderError(f"cover ({a},{b}) is a loop")
            upcov[a].append(b)
            dncov[b].append(a)
        self.covers = covers
        return self._derive(tuple(tuple(sorted(c)) for c in upcov),
                            tuple(tuple(sorted(c)) for c in dncov))

    def _derive(self, upper, lower):
        """Store the rows and derive the order in two passes; return the
        elements whose upper row is not reduced.  The forward pass runs
        over a first-in first-out topological order (`_order`) as it grows:
        it checks each cover (u, v) against the lower rows and ORs u's
        down-set into v's, and v joins once its last lower cover has passed,
        whose height, the order listing the elements by rising height, is
        one less than v's.  A cover out of range or missing from the lower
        rows (the first in row order, _check_listed), unequal row counts
        and a cycle raise OrderError, in that order.  The backward pass ORs
        the up-sets and tests each row."""
        n = self.n = len(upper)
        self._upcov, self._dncov = upper, lower
        listed = [*chain.from_iterable(upper)]
        if listed and not (0 <= min(listed) and max(listed) < n):
            _check_listed(upper, lower)
        indeg = list(map(len, lower))
        order = [u for u, d in enumerate(indeg) if not d]
        down, h = list(map((1).__lshift__, range(n))), [0] * n
        for u in order:  # the loop also visits what it appends
            m = down[u]
            for v in upper[u]:
                if u not in lower[v]:
                    _check_listed(upper, lower)
                down[v] |= m
                indeg[v] -= 1
                if not indeg[v]:
                    h[v] = h[u] + 1
                    order.append(v)
        if len(order) != n:  # some rows were not reached
            _check_listed(upper, lower)
        if len(listed) != sum(map(len, lower)):
            raise OrderError("the lower rows list covers that the upper rows do not")
        if len(order) != n:
            raise OrderError("cycle detected in cover relation")
        up, bad = [0] * n, []
        for u in reversed(order):
            row = upper[u]
            if len(row) == 2:
                b, c = row
                ub, uc = up[b], up[c]
                up[u] = ub | uc | 1 << u
                # two distinct incomparable covers; b == c fails the test too
                if (ub >> c | uc >> b) & 1:
                    bad.append(u)
            elif len(row) == 1:
                up[u] = up[row[0]] | 1 << u
            else:
                m = 1 << u
                for v in row:
                    m |= up[v]
                up[u] = m
                # a repeated power of two carries, so the sum has fewer bits
                listed = sum(map((1).__lshift__, row))
                if row and (listed.bit_count() != len(row) or listed & _above(up, row)):
                    bad.append(u)
        self._order, self.down, self.up, self._h = order, tuple(down), tuple(up), tuple(h)
        self._height = h[order[-1]] if order else 0  # `order` lists by rising height
        return bad

    @cached_property
    def covers(self):
        """The cover pairs (a, b), b an upper cover of a, as a frozenset."""
        return frozenset((a, b) for a, row in enumerate(self._upcov) for b in row)

    def _unreduced(self, bad):
        """OrderError for the first of the rows in bad, which are not reduced."""
        if not bad:
            return
        a = min(bad)
        row, up = self._upcov[a], self.up
        if len(set(row)) != len(row):
            b = next(b for i, b in enumerate(row) if b in row[:i])
            raise OrderError(f"cover ({a},{b}) is listed twice")
        above = _above(up, row)
        b = next(b for b in row if above >> b & 1)
        w = min(set(_elements(up[a] & self.down[b])) - {a, b})
        raise OrderError(f"cover ({a},{b}) is not reduced: {a}<{w}<{b}")

    # -- queries ------------------------------------------------------------

    def leq(self, a, b):
        return self.up[a] >> b & 1 == 1

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def upper_covers(self, u):
        return self._upcov[u]

    def lower_covers(self, u):
        return self._dncov[u]

    def maximal_elements(self):
        return tuple(u for u in range(self.n) if not self._upcov[u])

    def minimal_elements(self):
        return tuple(u for u in range(self.n) if not self._dncov[u])

    def _heights(self):
        """Each element's height, derived with the topological order."""
        return self._h

    def height(self):
        """Length (number of covers) of the longest chain of the poset: the
        height of the last element of the topological order, kept."""
        return self._height

    def count_downsets(self):
        """Number of down-sets, by divide and conquer on a maximal element."""
        memo = {0: 1}
        full = (1 << self.n) - 1
        stack = [full]
        while full not in memo:
            s = stack[-1]
            x = s.bit_length() - 1
            parts = (s & ~self.up[x], s & ~self.down[x])
            todo = [t for t in parts if t not in memo]
            stack += todo
            if not todo:
                memo[stack.pop()] = memo[parts[0]] + memo[parts[1]]
        return memo[full]

    # -- serialization, equality --------------------------------------------

    def to_json(self):
        return json.dumps({"n": self.n, "covers": sorted(map(list, self.covers))})

    @staticmethod
    def from_json(text):
        return json_poset(json_object(text, "n", "covers"))

    def __eq__(self, other):
        return isinstance(other, Poset) and self.n == other.n and self.covers == other.covers

    def __hash__(self):
        return hash((self.n, self.covers))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={sorted(self.covers)})"


def json_object(text, *keys):
    """Decoded JSON object holding the given keys; ParseError otherwise."""
    try:
        data = json.loads(text)
    except ValueError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object")
    for key in keys:
        if key not in data:
            raise ParseError(f"missing key {key!r}")
    return data


def json_int_lists(data, key, width=None):
    """data[key] as a list of integer lists, each `width` long if given."""
    rows = data[key]
    if not isinstance(rows, list) or not all(
        isinstance(r, list)
        and (width is None or len(r) == width)
        and all(type(x) is int for x in r)
        for r in rows
    ):
        size = f" of length {width}" if width else ""
        raise ParseError(f"{key!r} must be a list of integer lists{size}")
    return rows


def json_poset(data):
    """Poset from a decoded {"n": ..., "covers": ...} object.

    n is checked against MAX_ELEMENTS before anything is allocated.
    """
    n = data["n"]
    if type(n) is not int or n < 0:
        raise ParseError("'n' must be a non-negative integer")
    if n > MAX_ELEMENTS:
        raise BudgetError(f"'n' is {n}, above the limit of {MAX_ELEMENTS} elements")
    return Poset(n, [tuple(c) for c in json_int_lists(data, "covers", 2)])


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------

class FiniteLattice:
    """A finite lattice: a bounded poset in which every pair has a meet (a
    built lattice is certified by its corner coordinates instead); it keeps
    its masks, and its D relation and Con L once derived, but no table."""

    def __init__(self, poset):
        self.poset = poset
        if poset.n == 0:
            raise OrderError("empty lattice")
        # one scan of the rows: the minimal and maximal elements, the join-
        # and meet-irreducibles, those with one lower or upper cover, and
        # the doubly irreducible ones, with one of each
        bottoms, tops, jir, mir, di = [], [], [], [], []
        for u, above, below in zip(count(), poset._upcov, poset._dncov):
            if len(above) == 1:
                mir.append(u)
                if len(below) == 1:
                    di.append(u)
            elif not above:
                tops.append(u)
            if len(below) == 1:
                jir.append(u)
            elif not below:
                bottoms.append(u)
        bottoms, tops = tuple(bottoms), tuple(tops)
        if len(bottoms) != 1 or len(tops) != 1:
            raise OrderError(
                f"no unique bottom/top: minimals {bottoms}, maximals {tops}"
            )
        self.bottom = bottoms[0]
        self.top = tops[0]
        self._jir, self._mir, self._di = tuple(jir), tuple(mir), tuple(di)
        self._certify()

    def _certify(self):
        """The certificate of foreign input: OrderError unless every pair
        has a meet, that is, unless each down[x] & down[y] is some element's
        down-set.  Comparable pairs pass and the test is symmetric, so each
        x checks, in one C-level pass, the later y incomparable to it."""
        down, up, n = self.poset.down, self.poset.up, self.poset.n
        downs = set(down)
        for x, m in enumerate(down):
            later = ~((m | up[x]) >> x + 1) & ((1 << n - x - 1) - 1)  # bit i: y = x + 1 + i
            if later and not downs.issuperset(map(m.__and__, _picked(down[x + 1:], later))):
                y = next(y for y in _elements(later) if m & down[x + 1 + y] not in downs)
                raise OrderError(f"no glb for pair ({x},{x + 1 + y})")

    # -- basic queries -------------------------------------------------------

    @property
    def n(self):
        return self.poset.n

    def leq(self, a, b):
        return self.poset.leq(a, b)

    def covers(self, a, b):
        return b in self.poset.upper_covers(a)

    def upper_covers(self, u):
        return self.poset.upper_covers(u)

    def lower_covers(self, u):
        return self.poset.lower_covers(u)

    def ideal(self, x):
        return tuple(_elements(self.poset.down[x]))

    def ideal_size(self, x):
        return self.poset.down[x].bit_count()

    def interval(self, a, b):
        """The elements of [a, b]."""
        return frozenset(_elements(self.poset.up[a] & self.poset.down[b]))

    def length(self):
        return self.poset.height()

    def meet_of(self, elems):
        """The greatest element below all of elems: its down-set is their common one."""
        return self._bound(elems, self.poset.down)

    def join_of(self, elems):
        """The least element above all of elems: its up-set is their common one."""
        return self._bound(elems, self.poset.up)

    @staticmethod
    def _bound(elems, cones):
        common = (1 << len(cones)) - 1  # no elems: the top or the bottom
        for x in elems:
            common &= cones[x]
        return cones.index(common)  # cones are distinct

    def is_meet(self, a, b, x):
        """x == a ^ b: x has the lower bounds of a and b."""
        return self.poset.down[a] & self.poset.down[b] == self.poset.down[x]

    def is_join(self, a, b, x):
        """x == a v b: x has the upper bounds of a and b."""
        return self.poset.up[a] & self.poset.up[b] == self.poset.up[x]

    def cover_join(self, a, b):
        """a v b if it covers the distinct elements a and b, else None: two distinct
        elements of a lattice share at most one upper cover, and it is their join."""
        ups = self.upper_covers(b)
        shared = [c for c in self.upper_covers(a) if c in ups]
        return shared[0] if len(shared) == 1 else None

    # -- structural predicates ----------------------------------------------

    def jir(self):
        """Join-irreducible elements: exactly one lower cover."""
        return self._jir

    def mir(self):
        """Meet-irreducible elements: exactly one upper cover."""
        return self._mir

    def doubly_irreducible(self):
        """Doubly irreducible elements: one lower and one upper cover."""
        return self._di

    def is_semimodular(self):
        """Birkhoff's covering condition: two upper covers a, b of any
        element are both covered by a v b."""
        for x in range(self.n):
            ups = self.upper_covers(x)
            if any(self.cover_join(a, b) is None for a, b in combinations(ups, 2)):
                return False
        return True

    def is_slim(self):
        """Join-irreducibles form a union of two chains (no 3-antichain):
        their incomparability graph is 2-coloured by breadth-first search,
        one layer at a time.  Sets are masks: a layer's neighbours are the
        elements outside the intersection of its vertices' comparability
        masks, and `side[c]` holds the vertices coloured c so far.  A
        neighbour of a layer lies in the layer before it, in it or in the
        next, so the graph is bipartite iff no layer of colour c has a
        neighbour in side[c]."""
        up, down = self.poset.up, self.poset.down
        left = sum(map((1).__lshift__, self._jir))  # not yet coloured
        while left:
            layer = left & -left
            left ^= layer
            side, c = [layer, 0], 0
            while layer:
                # both: the elements comparable to every vertex of the layer,
                # taken one lowest bit at a time
                both, rest = -1, layer
                while rest:
                    low = rest & -rest
                    u = low.bit_length() - 1
                    both &= up[u] | down[u]
                    rest ^= low
                if side[c] & ~both:
                    return False
                layer = left & ~both
                left &= ~layer
                c ^= 1
                side[c] |= layer
        return True

    @cached_property
    def _dep(self):
        """D on J(L), derived on first use (_dependencies): principal_congruence
        and Con L read the same value."""
        return _dependencies(self)

    @cached_property
    def _con(self):
        """Con L, derived on first use (congruence_lattice)."""
        return _congruence_lattice(self)

    def __repr__(self):
        return f"FiniteLattice(n={self.n})"


def lattice_from_poset(poset):
    """The lattice on a poset, or OrderError naming the failure."""
    return FiniteLattice(poset)


def _two_disjoint_chains(poset, elems):
    """Sizes (a, b) of the components when the induced order on elems is a
    disjoint union of at most two chains (b = 0 for one chain), else None:
    then each element is comparable to exactly its own component."""
    e = sum(map((1).__lshift__, elems))
    a = (poset.up[elems[0]] | poset.down[elems[0]]) & e if elems else 0
    for u in elems:
        if (poset.up[u] | poset.down[u]) & e != (a if a >> u & 1 else e & ~a):
            return None
    return a.bit_count(), (e & ~a).bit_count()


def is_distributive_ideal_grid(lat, x):
    """True iff the principal ideal of x is a direct product of two chains.

    The join-irreducibles of the ideal are those of lat below x; the ideal
    is a product of two chains iff they form disjoint chains of sizes a and
    b and the ideal has (a+1)(b+1) elements (Birkhoff's count).  The count
    is needed: N5 has the join-irreducible chains {a < c} and {b}, but 5
    elements, not 6.
    """
    below = lat.poset.down[x]
    sizes = _two_disjoint_chains(lat.poset, [u for u in lat.jir() if below >> u & 1])
    return sizes is not None and lat.ideal_size(x) == (sizes[0] + 1) * (sizes[1] + 1)


# ---------------------------------------------------------------------------
# Congruences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Congruence:
    """A lattice congruence as a partition of 0..n-1, canonically encoded.

    block_index[x] is the id of x's block; ids are assigned by least member.
    """

    n: int
    block_index: tuple

    @staticmethod
    def from_parent(parent):
        # the first, least, member of a block gives it the next id
        reps = {}
        return Congruence(len(parent), tuple([reps.setdefault(r, len(reps)) for r in parent]))

    def blocks(self):
        out = {}
        for x, b in enumerate(self.block_index):
            out.setdefault(b, []).append(x)
        return tuple(frozenset(v) for _, v in sorted(out.items()))

    def same(self, a, b):
        return self.block_index[a] == self.block_index[b]


class CongruenceLattice:
    """Join-irreducible congruences of a finite lattice, ordered by refinement.

    Congruence i, theta, is fixed by its collapsed mask collapsed[i], the
    join-irreducibles j with j_ theta j: x theta y iff the masks of the
    join-irreducibles below x and below y agree outside it.
    jir_poset orders them by refinement, which is inclusion of the masks;
    they are listed by mask size, so a congruence comes before every
    coarser one (_congruence_lattice).  |Con L| (con_size) is derived on
    first read; no check reads it, and no partition is built.  It holds
    no reference to its lattice, which keeps it (FiniteLattice._con), so
    a lattice is freed with its last reference, not by the cyclic
    collector."""

    def __init__(self, collapsed, jir_poset):
        self.collapsed, self.jir_poset = collapsed, jir_poset

    def jir_count(self):
        return len(self.collapsed)

    @cached_property
    def con_size(self):
        """|Con L|: Con L is distributive, so it counts the down-sets of jir_poset."""
        return self.jir_poset.count_downsets()


def _dependencies(lat):
    """D as a tuple indexed by element: entry k is the mask of the j with
    j D k, and 0 off J(L).  For join-irreducibles j != k with lower covers
    j_ and k_, j D k when j <= k v x but not j <= k_ v x for some x, that
    is iff some meet-irreducible m, with upper cover m*, has k_ <= m, k
    not <= m, j <= m* and j not <= m:
    - if: take x = m.  Then k v m >= m* >= j, and k_ v m = m.
    - only if: take m maximal above k_ v x with j not <= m.  Then m has
      a single upper cover, and it lies above j.
    """
    p = lat.poset
    up, down = p.up, p.down
    jmask = sum(map((1).__lshift__, lat.jir()))
    # arrow[m]: the join-irreducibles below m* but not below m
    arrow, mmask = [0] * lat.n, 0
    for m in lat.mir():
        arrow[m] = jmask & down[p._upcov[m][0]] & ~down[m]
        mmask |= 1 << m
    dep = [0] * lat.n
    for k in lat.jir():
        d, rest = 0, mmask & up[p._dncov[k][0]] & ~up[k]
        while rest:  # a few bits: lowest first
            low = rest & -rest
            d |= arrow[low.bit_length() - 1]
            rest ^= low
        dep[k] = d & ~(1 << k)
    return tuple(dep)


def _collapsed(dep, todo):
    """The mask of the join-irreducibles from which D steps lead into todo."""
    collapsed = 0
    while todo:
        j = todo.bit_length() - 1
        collapsed |= 1 << j
        todo = (todo | dep[j]) & ~collapsed
    return collapsed


def principal_congruence(lat, a, b):
    """con(a, b), read off the D order as congruence_lattice reads each
    con(k_, k).  Let u = a ^ b, v = a v b and S = {j in J(L) : j <= v, j
    not <= u}.  a = b iff u = v (blocks are convex), so con(a, b) =
    con(u, v), and this is the join theta of the con(j_, j), j in S:
    - u = v gives j = j ^ v = j ^ u <= j_ < j, so j_ = j.
    - While u <= x < v, some j in S is not below x, and a minimal one has
      every join-irreducible below j_ below x, so x = x v j_ theta x v j > x.
    Hence, for any congruence theta with C = {j : j_ theta j}, x theta y
    iff the join-irreducibles below x and below y outside C agree: if x
    theta y, those below x v y and not below x ^ y lie in C; if they agree,
    those below x and not below x ^ y lie in C too, so x theta x ^ y theta
    y.  For theta the join of the con(k_, k), k in S, j lies in C iff D
    steps lead from j into S (_collapsed): z -> (z v j_) ^ j maps a chain
    j_ = z0, ..., zm = j whose steps each lie in one con(k_, k) onto
    {j_, j}, so one con(k_, k) holds (j_, j), that is, con(j_, j) <=
    con(k_, k) (congruence_lattice).
    """
    down, jmask = lat.poset.down, sum(1 << j for j in lat.jir())
    u, v = lat.meet_of((a, b)), lat.join_of((a, b))
    collapsed = _collapsed(lat._dep, down[v] & ~down[u] & jmask)
    return Congruence.from_parent([m & jmask & ~collapsed for m in down])


def congruence_lattice(lat):
    """Con L: all distinct con(a, b) over covering pairs a < b, with their
    order.  A lattice derives it once, on the first call, and keeps it, so
    every later call on the same lattice returns the same object."""
    return lat._con


def _congruence_lattice(lat):
    """Con L, derived (congruence_lattice).

    con(j_, j) <= con(k_, k) iff D steps lead from j to k (_dependencies;
    Freese, Jezek, Nation, Free Lattices, 1995, ch. II).  Every con(a, b)
    of a cover is a con(k_, k), so con(k_, k) collapses exactly the
    join-irreducibles C that reach k (_collapsed), and x, y share a block
    iff the join-irreducibles below them outside C agree
    (principal_congruence).  The masks repeat: two join-irreducibles share
    one exactly when D steps lead from each to the other.  Sets of
    join-irreducibles are int bitmasks, and no partition is built.

    The distinct masks are listed by size, ties in the join-irreducibles'
    order.  A coarser congruence collapses a superset, and a strictly
    coarser one a strictly larger mask, so the listing extends refinement:
    every congruence above theta in jir_poset comes after it, and two
    distinct masks of one size are incomparable, so theta's up-set is
    read off the masks from its own onward.  The first listed congruence
    that collapses a cover y < x is then the least one, con(y, x)
    (lamps._tube_con).
    """
    masks = sorted(dict.fromkeys([_collapsed(lat._dep, 1 << j) for j in lat.jir()]),
                   key=int.bit_count)
    poset = Poset._from_up([sum(1 << k for k, e in enumerate(masks[i:], i) if not c & ~e)
                            for i, c in enumerate(masks)])
    return CongruenceLattice(tuple(masks), poset)


# ---------------------------------------------------------------------------
# Poset utilities
# ---------------------------------------------------------------------------

def poset_iso(p, q):
    """An order isomorphism p -> q as a dict, or None, by backtracking on
    a stack (no recursion limit).  Posets with other sizes or cover counts
    get None.  Otherwise the two must have the same degree classes (up-
    and down-set sizes, cover counts) of the same sizes, and then the same
    component sizes; these invariants are derived per call and not kept.
    An element of p maps into its degree class in q.  p is mapped along
    its covers, breadth first from the smallest class of each component
    (_components), so each element but the first of a component has a
    mapped neighbour.  The mapped elements above and below u give two
    masks of images: v is a candidate if it lies below the first and above
    the second, and fits iff its up- and down-set meet the images so far
    in exactly those.  Nothing prunes symmetry: on non-isomorphic
    connected posets with these invariants and large regular degree
    classes (3-regular bipartite ones of a few hundred elements) it tries
    every image of the first element.  Its one production caller is
    `realize` (explore.py), whose query poset carries no labels; `double`
    and the removals compare J(Con L) by lamp place (lamps._con_by_place).
    """
    if p.n != q.n or sum(map(len, p._upcov)) != sum(map(len, q._upcov)):
        return None
    pkeys, qkeys = ([*zip(map(int.bit_count, r.down), map(int.bit_count, r.up),
                          map(len, r._dncov), map(len, r._upcov))] for r in (p, q))
    if sorted(pkeys) != sorted(qkeys):
        return None
    n, classes = p.n, {}
    for v, key in enumerate(qkeys):
        classes[key] = classes.get(key, 0) | 1 << v
    pclass = [classes[key] for key in pkeys]
    order, sizes = _components(p, sorted(range(n), key=lambda u: pclass[u].bit_count()))
    if sorted(sizes) != sorted(_components(q, range(n))[1]):
        return None
    image, stack, mapped, used, qup, qdown = [0] * n, [], 0, 0, q.up, q.down
    while len(stack) < n:
        u = order[len(stack)]
        left, above, below = pclass[u] & ~used, 0, 0
        rest = p.up[u] & mapped
        while rest:  # a few bits: lowest first
            low = rest & -rest
            v = image[low.bit_length() - 1]
            above |= 1 << v
            left &= qdown[v]
            rest ^= low
        rest = p.down[u] & mapped
        while rest:
            low = rest & -rest
            v = image[low.bit_length() - 1]
            below |= 1 << v
            left &= qup[v]
            rest ^= low
        while left or stack:  # u's next candidate that fits
            if not left:  # none left: back to the last mapped element
                u, left, above, below = stack.pop()
                mapped, used = mapped ^ 1 << u, used ^ 1 << image[u]
                continue
            v = (left & -left).bit_length() - 1
            left ^= 1 << v
            if qup[v] & used == above and qdown[v] & used == below:
                break
        else:
            return None
        stack.append((u, left, above, below))
        image[u] = v
        mapped, used = mapped | 1 << u, used | 1 << v
    return dict(enumerate(image))


def _components(poset, starts):
    """(order, sizes): the elements breadth first along the covers, each
    component from the first of `starts` in it, and the component sizes."""
    order, sizes, seen = [], [], bytearray(poset.n)
    for s in starts:
        if not seen[s]:
            seen[s], comp = 1, [s]
            for u in comp:  # the loop also visits what it appends
                for w in chain(poset._upcov[u], poset._dncov[u]):
                    if not seen[w]:
                        seen[w] = 1
                        comp.append(w)
            order += comp
            sizes.append(len(comp))
    return order, sizes


def poset_double(p, j):
    """Replace element j by a two-element chain j'' < j'.

    j keeps its id and plays j'; the new element n plays j'' and takes j's
    lower covers: n joins the up-sets of the elements below j.
    """
    new = 1 << p.n
    below = p.down[j] ^ (1 << j)
    return Poset._from_up([m | new if below >> a & 1 else m for a, m in enumerate(p.up)]
                          + [p.up[j] | new])


def named_posets(name, n=None):
    """Standard fixture posets: chain, antichain, Y, P_n, Q_n, V."""
    if name == "chain":
        if n is None or n < 1:
            raise OrderError("chain needs n >= 1")
        return Poset(n, {(i, i + 1) for i in range(n - 1)})
    if name == "antichain":
        if n is None or n < 1:
            raise OrderError("antichain needs n >= 1")
        return Poset(n, set())
    if name == "V":
        return Poset(3, {(0, 1), (0, 2)})
    if name == "Y":
        # c < u; u < a; u < b
        return Poset(4, {(0, 1), (1, 2), (1, 3)})
    if name == "P":
        if n is None or n < 4:
            raise OrderError("P_n needs n >= 4")
        u, a, b = n - 3, n - 2, n - 1
        covers = {(c, u) for c in range(n - 3)} | {(u, a), (u, b)}
        return Poset(n, covers)
    if name == "Q":
        if n is None or n < 3:
            raise OrderError("Q_n needs n >= 3")
        a, b = n - 2, n - 1
        covers = {(c, a) for c in range(n - 2)} | {(c, b) for c in range(n - 2)}
        return Poset(n, covers)
    raise OrderError(f"unknown poset name {name!r}")
