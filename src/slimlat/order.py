"""Finite posets and lattices with fully materialized structure.

Elements are dense integers 0..n-1.  All values are immutable after
construction.  Three textbook facts keep the lattice kernels well below
cubic cost:

- Join tables are filled from the top down.  If y is not below x, every
  upper bound of x and y lies above some upper cover c of x, so x v y is
  the least of the c v y, and it exists iff one of them lies below all
  the others.  Meet tables are the dual.
- For join-irreducibles j != k with lower covers j_ and k_, say j D k
  when j <= k v x but not j <= k_ v x for some x.  Then con(j_, j) <=
  con(k_, k) iff D steps lead from j to k (Freese, Jezek, Nation, Free
  Lattices, 1995, ch. II), and every con(a, b) of a cover is a con(k_, k).
  Con L is therefore read off the D order on J(L), with no closure.
- Sending u to the join-irreducibles below it embeds a finite lattice M
  into the down-sets of its poset J(M) of join-irreducibles, so M is
  distributive iff it has as many elements as J(M) has down-sets
  (Birkhoff; Graetzer, Lattice Theory: Foundation, 2011, sec. II.1).
  A principal ideal is therefore a product of two chains iff its
  join-irreducibles form disjoint chains of sizes a and b and it has
  (a+1)(b+1) elements.

The brute-force versions of these kernels (a cubic table search, one
closure per cover and a cubic distributivity scan of the rebuilt ideal)
are kept in tests/ as reference implementations.  The closure helpers
here (_closure and principal_congruence) serve only as test oracles; the
rest of the closure oracles live in tests/oracles.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetError, OrderError, ParseError

# Largest element count accepted from any input, a JSON file or a DSL
# construction: more than ten times the largest lattice the tests and the
# benchmark build (n <= 171).  --allow-large does not lift it: the limit is
# the n x n meet and join tables, not Con.  `grid 43 44` (1,980 elements)
# takes about 1.4 s and 170 MB to build (Python 3.11, 2-vCPU VM).
MAX_ELEMENTS = 2000


# ---------------------------------------------------------------------------
# Posets
# ---------------------------------------------------------------------------

class Poset:
    """Finite poset given by its (transitively reduced) cover relation."""

    def __init__(self, n, covers):
        self._close(n, covers)
        for a, b in self.covers:
            between = (self.up[a] & self.down[b]) - {a, b}
            if between:
                w = min(between)
                raise OrderError(f"cover ({a},{b}) is not reduced: {a}<{w}<{b}")

    @classmethod
    def from_relation(cls, n, pairs):
        """The poset on 0..n-1 generated by strict pairs a < b.

        The pairs are closed transitively and reduced to covers: b covers a
        iff a < b is generating and b lies above no other generating
        successor of a.  A cycle raises OrderError.
        """
        rel = cls.__new__(cls)
        rel._close(n, pairs)
        covers = set()
        for a in range(n):
            succ = rel._upcov[a]
            above = set()
            for c in succ:
                above |= rel.up[c] - {c}
            covers.update((a, b) for b in succ if b not in above)
        return cls(n, covers)

    def _close(self, n, pairs):
        """Store the pairs as covers and compute up- and down-sets."""
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
        order = self._toposort()
        up = [None] * n
        for u in reversed(order):
            s = {u}
            for v in self._upcov[u]:
                s |= up[v]
            up[u] = frozenset(s)
        self.up = tuple(up)
        dn = [None] * n
        for u in order:
            s = {u}
            for v in self._dncov[u]:
                s |= dn[v]
            dn[u] = frozenset(s)
        self.down = tuple(dn)

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
        return b in self.up[a]

    def lt(self, a, b):
        return a != b and b in self.up[a]

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
            for u in self._toposort():
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
        pairs = [
            (idx[a], idx[b]) for a in keep for b in self.up[a] if b != a and b in idx
        ]
        return Poset.from_relation(len(keep), pairs), keep

    def count_downsets(self):
        """Number of down-sets, by divide and conquer on a maximal element."""
        memo = {}

        def count(elems):
            if not elems:
                return 1
            key = elems
            if key in memo:
                return memo[key]
            x = max(elems)
            without = count(elems - (self.up[x] & elems))
            with_x = count(elems - (self.down[x] & elems))
            memo[key] = without + with_x
            return memo[key]

        return count(frozenset(range(self.n)))

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
    """A finite lattice: a poset with total meet and join tables."""

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
        order = poset._toposort()
        self.meet = self._table(poset.down, poset.up, poset.lower_covers, order)
        self.join = self._table(poset.up, poset.down, poset.upper_covers, order[::-1])

    def _table(self, cones, opposite, covers, order):
        """Meet table (cones = down-sets) or join table (cones = up-sets).

        Rows are filled in `order`, where each of x's covers in `cones[x]`
        comes before x.  For y outside both cones of x, the entry is the
        candidate c * y (c one of those covers) whose cone holds all the
        candidates; with no such candidate the pair has no bound, and
        OrderError.  O(n * covers) table lookups.
        """
        n = self.poset.n
        size = [len(c) for c in cones]

        def least(cands):
            g = max(cands, key=size.__getitem__)
            return g if all(c in cones[g] for c in cands) else None

        table = [None] * n
        for x in order:
            rows = [table[c] for c in covers(x)]
            if len(rows) == 1:
                row = list(rows[0])
            elif len(rows) == 2:
                # slim lattices have at most two covers per element; this
                # case spares them a least() call per entry
                row = [a if b in cones[a] else b if a in cones[b] else None
                       for a, b in zip(*rows)]
            elif rows:
                row = [least(cands) for cands in zip(*rows)]
            else:
                row = [None] * n
            for y in cones[x]:
                row[y] = y
            for y in opposite[x]:
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
        return self.poset.down[x]

    def filter(self, x):
        return self.poset.up[x]

    def length(self):
        return self.poset.height()

    def meet_of(self, elems):
        it = iter(elems)
        acc = next(it)
        for x in it:
            acc = self.meet[acc][x]
        return acc

    def join_of(self, elems):
        it = iter(elems)
        acc = next(it)
        for x in it:
            acc = self.join[acc][x]
        return acc

    # -- structural predicates ----------------------------------------------

    def jir(self):
        """Join-irreducible elements: exactly one lower cover (bottom excluded)."""
        return tuple(
            u for u in range(self.n)
            if u != self.bottom and len(self.lower_covers(u)) == 1
        )

    def mir(self):
        """Meet-irreducible elements: exactly one upper cover (top excluded)."""
        return tuple(
            u for u in range(self.n)
            if u != self.top and len(self.upper_covers(u)) == 1
        )

    def doubly_irreducible(self):
        j = set(self.jir())
        return tuple(u for u in self.mir() if u in j)

    def is_semimodular(self):
        for x in range(self.n):
            for y in range(self.n):
                if self.covers(self.meet[x][y], x) and not self.covers(y, self.join[x][y]):
                    return False
        return True

    def is_slim(self):
        """Join-irreducibles form a union of two chains (no 3-antichain)."""
        j = self.jir()
        for a, b, c in combinations(j, 3):
            if (not self.poset.leq(a, b) and not self.poset.leq(b, a)
                    and not self.poset.leq(a, c) and not self.poset.leq(c, a)
                    and not self.poset.leq(b, c) and not self.poset.leq(c, b)):
                return False
        return True

    def sublattice(self, elems):
        """Induced lattice on a meet- and join-closed subset."""
        sub, old_ids = self.poset.restrict(elems)
        return FiniteLattice(sub), old_ids

    def __repr__(self):
        return f"FiniteLattice(n={self.n})"


def lattice_from_poset(poset):
    """Lattice with meet/join tables, or OrderError naming the failure."""
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
    disjoint union of at most two chains (b = 0 for one chain), else None."""

    def comparable(u, v):
        return poset.leq(u, v) or poset.leq(v, u)

    # side[u]: u lies outside the component of the first element
    side = {u: not comparable(elems[0], u) for u in elems}
    for u, v in combinations(elems, 2):
        if comparable(u, v) != (side[u] == side[v]):
            return None
    b = sum(side.values())
    return len(elems) - b, b


def is_distributive_ideal_grid(lat, x):
    """True iff the principal ideal of x is a direct product of two chains.

    The join-irreducibles of the ideal are those of lat below x; the ideal
    is a product of two chains iff they form disjoint chains of sizes a and
    b and the ideal has (a+1)(b+1) elements (Birkhoff's count).  The count
    is needed: N5 has the join-irreducible chains {a < c} and {b}, but 5
    elements, not 6.
    """
    ideal = lat.ideal(x)
    sizes = _two_disjoint_chains(lat.poset, [u for u in lat.jir() if u in ideal])
    return sizes is not None and len(ideal) == (sizes[0] + 1) * (sizes[1] + 1)


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
            mx, my = lat.meet[x][z], lat.meet[y][z]
            if find(mx) != find(my):
                queue.append((mx, my))
            jx, jy = lat.join[x][z], lat.join[y][z]
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


def congruence_lattice(lat):
    """All distinct con(a, b) over covering pairs a < b, with their order.

    For join-irreducibles j != k with lower covers j_ and k_, say j D k
    when j <= k v x but not j <= k_ v x for some x.  Then con(j_, j) <=
    con(k_, k) iff D steps lead from j to k (Freese, Jezek, Nation, Free
    Lattices, 1995, ch. II).  Every con(a, b) of a cover is a con(k_, k),
    so con(k_, k) collapses exactly the join-irreducibles C that reach k,
    and x, y share a block iff the join-irreducibles below them outside C
    agree.  Sets of join-irreducibles are int bitmasks.

    Con L of a finite lattice is distributive, so |Con L| is the number of
    down-sets of the join-irreducible poset.
    """
    jir = lat.jir()
    bit = {j: 1 << i for i, j in enumerate(jir)}
    below = [0] * lat.n
    for x in lat.poset._toposort():
        m = bit.get(x, 0)
        for c in lat.lower_covers(x):
            m |= below[c]
        below[x] = m
    # dep[i]: the j with j D jir[i]
    dep = []
    for k in jir:
        m = 0
        for a, b in zip(lat.join[k], lat.join[lat.lower_covers(k)[0]]):
            m |= below[a] & ~below[b]
        dep.append(m & ~bit[k])
    congs = {}
    for i in range(len(jir)):
        collapsed, todo = 0, 1 << i
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
            (len(poset.down[u]), len(poset.up[u]),
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
