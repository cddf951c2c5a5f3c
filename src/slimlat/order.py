"""Finite posets and lattices, stored as up- and down-set bitmasks.

Elements are dense integers 0..n-1.  Values do not change after
construction; derived data (heights, irreducibles) is computed on first
use and cached on the object.  Sets of elements are int bitmasks, bit y
for y: `Poset.up[x]` holds the y >= x, `Poset.down[x]` the y <= x.  A
FiniteLattice keeps no table; other modules get elements, not masks, from
its point queries.  Six textbook facts keep the kernels below cubic cost:

- Meet tables are filled from the bottom up.  If y is not above x, every
  lower bound of x and y lies below some lower cover c of x, so x ^ y is
  the greatest of the c ^ y, and it exists iff one of them lies above all
  the others.  Join tables are the dual.
- A finite poset with a top in which every pair has a meet is a lattice
  (Graetzer, Lattice Theory: Foundation, 2011, ch. I), so filling the meet
  table certifies one; the table is then dropped.
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
  D order on J(L), with no table and no closure.
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
the rebuilt ideal) are kept in tests/ as reference implementations.  The
closure helpers here (_closure and principal_congruence) serve only as
test oracles; the rest of the closure oracles live in tests/oracles.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, compress, count

from .errors import BudgetError, OrderError, ParseError

# Largest element count accepted from any input, a JSON file or a DSL
# construction: more than ten times the largest lattice the tests and the
# benchmark build (n <= 171).  --allow-large does not lift it: the limit is
# the transient n x n meet table that certifies every lattice while it is
# built, and is dropped once it is filled.  `grid 43 44` (1,980 elements)
# takes about 0.5 s to build and 0.1 s to report its lamps, at a peak of
# 48 MB (Python 3.11).
MAX_ELEMENTS = 2000

_BITS = bytes.maketrans(b"01", b"\0\1")


def _elements(mask):
    """The elements of a mask, ascending, in one C-level pass over its digits."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BITS))


# ---------------------------------------------------------------------------
# Posets
# ---------------------------------------------------------------------------

class Poset:
    """Finite poset given by its (transitively reduced) cover relation."""

    def __init__(self, n, covers):
        self._close(n, covers)
        self._check_reduced()

    @classmethod
    def from_relation(cls, n, pairs):
        """The poset on 0..n-1 generated by strict pairs a < b.

        The pairs are closed transitively and reduced to covers: b covers a
        iff a < b is generating and b lies above no other generating
        successor of a.  A cycle raises OrderError.  The poset keeps the
        up- and down-sets of the pairs, which are its own.
        """
        poset = cls.__new__(cls)
        poset._close(n, pairs)
        covers = set()
        for a in range(n):
            succ = poset._upcov[a]
            above = 0
            for c in succ:
                above |= poset.up[c] ^ (1 << c)
            covers.update((a, b) for b in succ if not above >> b & 1)
        poset._set_covers(n, covers)
        poset._check_reduced()
        return poset

    def _set_covers(self, n, pairs):
        """Store the pairs as covers and a topological order (`_order`,
        every element after its lower covers)."""
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
        self.n = n
        self.covers = covers
        self._upcov = tuple(tuple(sorted(c)) for c in upcov)
        self._dncov = tuple(tuple(sorted(c)) for c in dncov)
        self._order = tuple(self._toposort())

    def _close(self, n, pairs):
        """_set_covers, then the up- and down-set masks: one OR per cover."""
        self._set_covers(n, pairs)
        for name, covers, order in (("up", self._upcov, self._order[::-1]),
                                    ("down", self._dncov, self._order)):
            masks = [0] * n
            for u in order:
                m = 1 << u
                for v in covers[u]:
                    m |= masks[v]
                masks[u] = m
            setattr(self, name, tuple(masks))

    def _check_reduced(self):
        """OrderError unless no cover (a, b) has b above another cover of a."""
        up = self.up
        for a, b in self.covers:
            if any(c != b and up[c] >> b & 1 for c in self._upcov[a]):
                w = min(set(_elements(up[a] & self.down[b])) - {a, b})
                raise OrderError(f"cover ({a},{b}) is not reduced: {a}<{w}<{b}")

    def _toposort(self):
        indeg = [0] * self.n
        for _, b in self.covers:
            indeg[b] += 1
        queue = sorted(u for u in range(self.n) if indeg[u] == 0)
        order = []
        i = 0
        while i < len(queue):
            u = queue[i]
            i += 1
            order.append(u)
            for v in self._upcov[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != self.n:
            raise OrderError("cycle detected in cover relation")
        return order

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
        try:
            return self._h
        except AttributeError:
            h = [0] * self.n
            for u in self._order:
                for v in self._upcov[u]:
                    h[v] = max(h[v], h[u] + 1)
            self._h = tuple(h)
            return self._h

    def height(self):
        """Length (number of covers) of the longest chain of the poset."""
        return max(self._heights(), default=0)

    def restrict(self, keep):
        """Induced subposet on `keep`; returns (poset, old ids by new id)."""
        keep = sorted(set(keep))
        idx = {old: new for new, old in enumerate(keep)}
        kept = sum(1 << u for u in keep)
        pairs = [(idx[a], idx[b]) for a in keep for b in _elements(self.up[a] & kept) if b != a]
        return Poset.from_relation(len(keep), pairs), keep

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


def order_from_covers(covers, n=None):
    """Build a validated poset from cover pairs.

    Elements are 0..n-1; when n is omitted it is inferred from the pairs.
    """
    covers = list(covers)
    if n is None:
        n = 1 + max((max(a, b) for a, b in covers), default=-1)
    return Poset(n, covers)


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------

class FiniteLattice:
    """A finite lattice: a bounded poset whose meet table fills; only its masks are kept."""

    def __init__(self, poset):
        self.poset = poset
        n = poset.n
        if n == 0:
            raise OrderError("empty lattice")
        bottoms = poset.minimal_elements()
        tops = poset.maximal_elements()
        if len(bottoms) != 1 or len(tops) != 1:
            raise OrderError(
                f"no unique bottom/top: minimals {bottoms}, maximals {tops}"
            )
        self.bottom = bottoms[0]
        self.top = tops[0]
        self._jir = tuple(u for u in range(n) if len(poset.lower_covers(u)) == 1)
        self._mir = tuple(u for u in range(n) if len(poset.upper_covers(u)) == 1)
        # the certificate: OrderError unless every pair has a meet
        self._table(poset.down, poset.up, poset.lower_covers, poset._order)

    def _table(self, cones, opposite, covers, order):
        """Meet table (cones = down-sets) or join table (cones = up-sets).

        Rows are filled in `order`, where each of x's covers in `cones[x]`
        comes before x.  Entry y of row x is x for y in x's opposite cone,
        else the candidate c * y (c one of those covers) whose cone holds
        all the candidates, as b in cone a iff table[a][b] == b; with none,
        the pair has no bound, and OrderError.  O(n * covers) lookups.
        """
        n = self.poset.n
        table = [None] * n
        size = [m.bit_count() for m in cones]

        def least(cands):
            g = max(cands, key=size.__getitem__)
            return g if all(table[g][c] == c for c in cands) else None

        for x in order:
            rows = [table[c] for c in covers(x)]
            if len(rows) == 1:
                row = list(rows[0])
            elif len(rows) == 2:
                # slim lattices have at most two upper covers per element,
                # but a k-fold fork's peak has k + 2 lower covers; this
                # case spares the others a least() call per entry
                row = [a if table[a][b] == b else b if table[b][a] == a else None
                       for a, b in zip(*rows)]
            elif rows:
                row = [least(cands) for cands in zip(*rows)]
            else:
                row = [None] * n
            row[x] = x
            for y in _elements(opposite[x] ^ (1 << x)):
                row[y] = x
            if None in row:
                kind = "glb" if cones is self.poset.down else "lub"
                raise OrderError(f"no {kind} for pair ({x},{row.index(None)})")
            table[x] = tuple(row)
        return tuple(table)

    # -- basic queries -------------------------------------------------------

    @property
    def n(self):
        return self.poset.n

    def leq(self, a, b):
        return self.poset.leq(a, b)

    def covers(self, a, b):
        return (a, b) in self.poset.covers

    def upper_covers(self, u):
        return self.poset.upper_covers(u)

    def lower_covers(self, u):
        return self.poset.lower_covers(u)

    def ideal(self, x):
        return tuple(_elements(self.poset.down[x]))

    def filter(self, x):
        return tuple(_elements(self.poset.up[x]))

    def ideal_size(self, x):
        return self.poset.down[x].bit_count()

    def interval(self, a, b):
        """The elements of [a, b]."""
        return frozenset(_elements(self.poset.up[a] & self.poset.down[b]))

    def length(self):
        return self.poset.height()

    def shared_ideal_size(self, a, b):
        """The number of elements below both a and b, that is |ideal(a ^ b)|."""
        return (self.poset.down[a] & self.poset.down[b]).bit_count()

    def meet_of(self, elems):
        """The greatest element below all of elems: its down-set is their common one."""
        return self._bound(elems, self.poset.down)

    def join_of(self, elems):
        """The least element above all of elems: its up-set is their common one."""
        return self._bound(elems, self.poset.up)

    @staticmethod
    def _bound(elems, cones):
        common = -1
        for x in elems:
            common &= cones[x]
        return next(g for g in _elements(common) if cones[g] == common)

    def is_meet(self, a, b, x):
        """x == a ^ b: x has the lower bounds of a and b."""
        return self.poset.down[a] & self.poset.down[b] == self.poset.down[x]

    def is_join(self, a, b, x):
        """x == a v b: x has the upper bounds of a and b."""
        return self.poset.up[a] & self.poset.up[b] == self.poset.up[x]

    def cover_join(self, a, b):
        """a v b if it covers the distinct elements a and b, else None: two distinct
        elements of a lattice share at most one upper cover, and it is their join."""
        shared = [c for c in self.upper_covers(a) if (b, c) in self.poset.covers]
        return shared[0] if len(shared) == 1 else None

    # -- structural predicates ----------------------------------------------

    def jir(self):
        """Join-irreducible elements: exactly one lower cover."""
        return self._jir

    def mir(self):
        """Meet-irreducible elements: exactly one upper cover."""
        return self._mir

    def doubly_irreducible(self):
        return tuple(u for u in self.mir() if len(self.lower_covers(u)) == 1)

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
        their incomparability graph is 2-coloured by breadth-first search."""
        j = self.jir()
        up, down = self.poset.up, self.poset.down
        jmask = sum(1 << u for u in j)
        colour = {}
        for root in j:
            if root in colour:
                continue
            colour[root] = 0
            queue = [root]
            for u in queue:
                for v in _elements(jmask & ~(up[u] | down[u])):
                    if v not in colour:
                        colour[v] = 1 - colour[u]
                        queue.append(v)
                    elif colour[v] == colour[u]:
                        return False
        return True

    def sublattice(self, elems):
        """Induced lattice on a meet- and join-closed subset."""
        sub, old_ids = self.poset.restrict(elems)
        return FiniteLattice(sub), old_ids

    def __repr__(self):
        return f"FiniteLattice(n={self.n})"


def lattice_from_poset(poset):
    """The lattice on a poset, or OrderError naming the failure."""
    return FiniteLattice(poset)


def is_semimodular(lat):
    return lat.is_semimodular()


def jir(lat):
    return lat.jir()


def mir(lat):
    return lat.mir()


def is_slim(lat):
    return lat.is_slim()


def _two_disjoint_chains(poset, elems):
    """Sizes (a, b) of the components when the induced order on elems is a
    disjoint union of at most two chains (b = 0 for one chain), else None:
    then each element is comparable to exactly its own component."""
    e = sum(1 << u for u in elems)
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
    sizes = _two_disjoint_chains(lat.poset, [u for u in lat.jir() if lat.leq(u, x)])
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
        n = len(parent)
        reps = {}
        index = []
        for x in range(n):
            r = parent[x]
            if r not in reps:
                reps[r] = len(reps)
            index.append(reps[r])
        return Congruence(n, tuple(index))

    def blocks(self):
        out = {}
        for x, b in enumerate(self.block_index):
            out.setdefault(b, []).append(x)
        return tuple(frozenset(v) for _, v in sorted(out.items()))

    def same(self, a, b):
        return self.block_index[a] == self.block_index[b]

    def block_count(self):
        return len(set(self.block_index))

    def refines(self, other):
        """True iff every block of self is inside a block of other."""
        seen = {}
        for x in range(self.n):
            mine = self.block_index[x]
            if mine in seen:
                if seen[mine] != other.block_index[x]:
                    return False
            else:
                seen[mine] = other.block_index[x]
        return True

    def is_identity(self):
        return self.block_count() == self.n

    def is_full(self):
        return self.block_count() == 1


def _closure(lat, seed_pairs):
    n = lat.n
    p = lat.poset
    meet = lat._table(p.down, p.up, p.lower_covers, p._order)
    join = lat._table(p.up, p.down, p.upper_covers, p._order[::-1])
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = list(seed_pairs)
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        for z in range(n):
            mx, my = meet[x][z], meet[y][z]
            if find(mx) != find(my):
                queue.append((mx, my))
            jx, jy = join[x][z], join[y][z]
            if find(jx) != find(jy):
                queue.append((jx, jy))
    return Congruence.from_parent([find(x) for x in range(n)])


def principal_congruence(lat, a, b):
    """Smallest congruence identifying a and b (fixpoint of compatibility)."""
    return _closure(lat, [(a, b)])


@dataclass(frozen=True)
class CongruenceLattice:
    """Join-irreducible congruences of a finite lattice, ordered by refinement."""

    lattice: FiniteLattice
    jir_congs: tuple
    jir_poset: Poset
    con_size: int

    def jir_count(self):
        return len(self.jir_congs)


def _dependencies(lat):
    """{k: mask of the j with j D k}, k over J(L).  For join-irreducibles
    j != k with lower covers j_ and k_, j D k when j <= k v x but not
    j <= k_ v x for some x, that is iff some meet-irreducible m, with upper
    cover m*, has k_ <= m, k not <= m, j <= m* and j not <= m:
    - if: take x = m.  Then k v m >= m* >= j, and k_ v m = m.
    - only if: take m maximal above k_ v x with j not <= m.  Then m has
      a single upper cover, and it lies above j.
    """
    up, down = lat.poset.up, lat.poset.down
    jmask = sum(1 << j for j in lat.jir())
    # arrow[m]: the join-irreducibles below m* but not below m
    arrow = {m: jmask & down[lat.upper_covers(m)[0]] & ~down[m] for m in lat.mir()}
    mmask = sum(1 << m for m in arrow)
    dep = {}
    for k in lat.jir():
        d = 0
        for m in _elements(mmask & up[lat.lower_covers(k)[0]] & ~up[k]):
            d |= arrow[m]
        dep[k] = d & ~(1 << k)
    return dep


def congruence_lattice(lat):
    """All distinct con(a, b) over covering pairs a < b, with their order.

    con(j_, j) <= con(k_, k) iff D steps lead from j to k (_dependencies;
    Freese, Jezek, Nation, Free Lattices, 1995, ch. II).  Every con(a, b)
    of a cover is a con(k_, k), so con(k_, k) collapses exactly the
    join-irreducibles C that reach k, and x, y share a block iff the
    join-irreducibles below them outside C agree.  Sets of
    join-irreducibles are int bitmasks.

    Con L of a finite lattice is distributive, so |Con L| is the number of
    down-sets of the join-irreducible poset.
    """
    jir = lat.jir()
    jmask = sum(1 << j for j in jir)
    below = [m & jmask for m in lat.poset.down]
    dep = _dependencies(lat)
    congs = {}
    for k in jir:
        collapsed, todo = 0, 1 << k
        while todo:
            j = todo.bit_length() - 1
            collapsed |= 1 << j
            todo = (todo | dep[j]) & ~collapsed
        if collapsed not in congs:
            congs[collapsed] = Congruence.from_parent([b & ~collapsed for b in below])
    masks = sorted(congs, key=lambda c: (congs[c].block_count(), congs[c].block_index),
                   reverse=True)
    m = len(masks)
    poset = Poset.from_relation(m, [
        (i, j) for i in range(m) for j in range(m) if i != j and masks[i] & ~masks[j] == 0
    ])
    return CongruenceLattice(lat, tuple(congs[c] for c in masks), poset, poset.count_downsets())


# ---------------------------------------------------------------------------
# Poset utilities
# ---------------------------------------------------------------------------

def poset_iso(p, q):
    """An order isomorphism p -> q as a dict, or None.

    Colour refinement, then backtracking within colour classes.  Colours
    are ints from one signature table per round shared by p and q, so equal
    colours mean equal invariants; refinement stops at the first round that
    splits no class.
    """
    if p.n != q.n or len(p.covers) != len(q.covers):
        return None

    def relabel(p_sigs, q_sigs):
        table = {}
        return ([table.setdefault(s, len(table)) for s in p_sigs],
                [table.setdefault(s, len(table)) for s in q_sigs])

    def degrees(poset):
        return [
            (poset.down[u].bit_count(), poset.up[u].bit_count(),
             len(poset.lower_covers(u)), len(poset.upper_covers(u)))
            for u in range(poset.n)
        ]

    def signatures(poset, col):
        return [
            (col[u],
             tuple(sorted(col[v] for v in poset.upper_covers(u))),
             tuple(sorted(col[v] for v in poset.lower_covers(u))))
            for u in range(poset.n)
        ]

    pcol, qcol = relabel(degrees(p), degrees(q))
    while True:
        if sorted(pcol) != sorted(qcol):
            return None
        p_next, q_next = relabel(signatures(p, pcol), signatures(q, qcol))
        if len(set(p_next)) == len(set(pcol)) and len(set(q_next)) == len(set(qcol)):
            break
        pcol, qcol = p_next, q_next
    candidates = [
        [v for v in range(q.n) if qcol[v] == pcol[u]] for u in range(p.n)
    ]
    order = sorted(range(p.n), key=lambda u: len(candidates[u]))
    image = {}
    used = set()

    def extend(i):
        if i == len(order):
            return True
        u = order[i]
        for v in candidates[u]:
            if v in used:
                continue
            ok = True
            for w, x in image.items():
                if p.leq(u, w) != q.leq(v, x) or p.leq(w, u) != q.leq(x, v):
                    ok = False
                    break
            if ok:
                image[u] = v
                used.add(v)
                if extend(i + 1):
                    return True
                del image[u]
                used.remove(v)
        return False

    return dict(image) if extend(0) else None


def poset_double(p, j):
    """Replace element j by a two-element chain j'' < j'.

    j keeps its id and plays j'; the new element n plays j'' and takes j's
    lower covers.  All other comparabilities are unchanged.
    """
    n = p.n
    covers = set()
    for a, b in p.covers:
        if b == j:
            covers.add((a, n))
        else:
            covers.add((a, b))
    covers.add((n, j))
    return Poset(n + 1, covers)


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
