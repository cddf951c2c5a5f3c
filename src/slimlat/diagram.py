"""Planar diagrams of slim rectangular lattices.

A diagram is the lattice plus, for every element, its upper and lower
covers listed left to right.  Planarity is purely combinatorial: the
ordered lists are derived from boundary-height coordinates (meet with the
two corners), never from drawn positions.  The walk table of cells and
trajectories, boundary chains, neon tubes, mirroring and canonical codes
all live here, and so does the certificate of a built lattice.

The certificate of a built lattice tests no pairs: Graetzer and Knapp
(Acta Sci. Math. 75, 2009) place a slim rectangular lattice in the grid
of its boundary heights.  Let the ideals of lc and rc be chains lchain
and rchain, and let x sit at the point (hl(x), hr(x)) = (|ideal(x) &
ideal(lc)| - 1, |ideal(x) & ideal(rc)| - 1).  ideal(x) & ideal(lc) is the
initial segment lchain[:hl(x) + 1], so lchain[i] <= y iff i <= hl(y):
up(lchain[i]) holds the points of left height >= i.  If up(x) =
up(lchain[hl(x)]) & up(rchain[hr(x)]), that is, x is the join of
lchain[hl(x)] and rchain[hr(x)], for every x, then x <= y iff x's point
is below y's coordinatewise, and no two elements share a point.  If the
points are also closed under the coordinatewise minimum, the element at
the minimum of x's and y's points is below both and above every common
lower bound, so it is x ^ y; with the top, the poset is a lattice.  The
minimum test is one right-to-left sweep over the columns: every right
height that occurs right of column a, below the column's top point,
occurs in the column.  Both tests take O(n) mask operations.  In a
lattice ideal(x ^ y) = ideal(x) & ideal(y), so the minimum test holds
whenever the up-set test does; a slim rectangular lattice passes both at
its corners.  boundary_heights computes the points and runs the up-set
test in one loop over the elements: on a built lattice as the
certificate's first half, on a foreign one, which its down-set masks
certified, as the embedding.
_certified_diagram, the one constructor of grids and forks (and of the
tests' fork deletions), is the certificate; its diagram keeps the points
as heights() and the corners as corners(), which embed_rectangular
derives for a foreign lattice.  Both order the cover rows by falling
left height (_falling_rows), keeping every row that already falls, the
same tuple, so a grid or fork step, whose rows are spliced in order,
sorts none.

A diagram computes its walk table, boundary chains, corners, boundary
heights and neon tubes once, on first use, and keeps the lamp data that
the lamps module derives for it and its validation report
(is_slim_rectangular), ok or not; a failure that a derivation raises is
not cached and is raised again on the next call.  The walk table,
chains, tubes and the ends the sweep records are walk caches:
PlanarDiagram._release drops them, as the enumeration's replay does on
each lattice it leaves, and the next read derives them again.

The walk table (_walk_table) indexes the covers by slot: the slot of
cover i in u's upper row is base[u] + i.  One pass over the ordered
upper rows fills it: each two neighbouring covers l, r of u, slots s and
s + 1, bound the cell whose top t is their one common upper cover, and
the table keeps t at s and the slot that crossing the cell east or west
leads to from each of its four sides; the first edge given two east or
two west cells is named, and every walk raises it.  It keeps the neon
tubes' slots too, which the sweep and a fork step's path check read.
Every walk across cells steps through these lists with int arithmetic:
validation checks the lower rows against them and every trajectory in
one sweep (_trajectory_failure), and a fork step walks the trajectories
it needs as two half-walks (_half_walk, _trajectory_slots), from its
cell's lower sides and from each new tube.  The sweep records only the
right-chain peak where each walk ends, one append per trajectory; from
these a valid diagram derives its Jordan-Holder permutation pi, and pi
the key min(pi, pi^-1) (_jh_min), on which the enumeration dedupes
(Czedli and Schmidt, Algebra Universalis 66, 2011, and Acta Sci. Math.
79, 2013).
A k-fold fork at the cell whose bottom has address (a, b) changes pi by
a fixed rule (_forked_permutation): the left- and right-chain edges
a + 1 and b + 1 split into k + 1 pieces each, every old trajectory keeps
the lowest piece, and the k new trajectories pair the new pieces in
reverse order, and the cell rule (_distributive_addresses) reads the
distributive cells off pi; so the enumeration searches permutations with
no lattice built, and _unforked runs it backwards, which multifork._peeled
iterates to decompose a diagram that holds no sequence.
Canonical codes are computed only where something outputs them.  An Edge is a
named (foot, peak) pair, so it equals, hashes and looks up as its plain
tuple; the lamp and tube-record maps take either.  Cells, projections,
trajectories as objects and cell addresses read back into cells are left
to the test oracles, which list them off the rows and the walk table.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, count
from typing import NamedTuple

from .errors import DiagramError
from .lamps import _derive_lamp_list
from .order import (
    FiniteLattice,
    json_int_lists,
    json_object,
    json_poset,
    lattice_from_poset,
)


class Edge(NamedTuple):
    foot: int
    peak: int


class PlanarDiagram:
    """Ordered-cover view of a planar lattice diagram."""

    def __init__(self, lattice, upper, lower):
        """The diagram with the given cover lists, which come from outside, so
        each must list exactly the element's covers in the lattice."""
        self._set(lattice, tuple(map(tuple, upper)), tuple(map(tuple, lower)))
        self._check_order_lists()

    @classmethod
    def _sorted(cls, lattice, upper, lower, corners=None, heights=None):
        """The diagram with cover lists (tuples) ordered from the poset's own
        rows, or reversed from a diagram's: each lists its element's covers
        once, so they are not compared with the cover relation."""
        d = cls.__new__(cls)
        d._set(lattice, upper, lower, corners, heights)
        return d

    def _set(self, lattice, upper, lower, corners=None, heights=None):
        self.lattice, self.upper, self.lower = lattice, upper, lower
        self._corners, self._heights = corners, heights
        self._release()

    def _release(self):
        """Drop the walk caches (the walk table, boundary chains, neon
        tubes, the sweep's ends); the next read derives each again.  Only
        an owner that no one else reads yet may call it, since a read that
        runs meanwhile can find None: the enumeration's replay does, and so
        does multifork.build on each stage it has just extended."""
        self._table = self._chains = self._tubes = self._ends = None

    def _check_order_lists(self):
        n = self.lattice.n
        if len(self.upper) != n or len(self.lower) != n:
            raise DiagramError("cover order lists must cover all elements")
        covers = self.lattice.poset.covers
        for side, pairs in (("upper", [(u, v) for u in range(n) for v in self.upper[u]]),
                            ("lower", [(a, b) for b in range(n) for a in self.lower[b]])):
            # equal sets and equal lengths: no cover is missing or listed twice
            if len(pairs) != len(covers) or set(pairs) != covers:
                raise DiagramError(f"{side} order lists disagree with the cover relation")

    @property
    def n(self):
        return self.lattice.n

    # -- boundaries and corners -----------------------------------------

    def boundary_chains(self):
        """(left chain, right chain): extreme-cover walks from bottom to top."""
        if self._chains is None:
            left = [self.lattice.bottom]
            while self.upper[left[-1]]:
                left.append(self.upper[left[-1]][0])
            right = [self.lattice.bottom]
            while self.upper[right[-1]]:
                right.append(self.upper[right[-1]][-1])
            # one store, so that no read sees the chains without their sets
            self._chains = (tuple(left), tuple(right)), (frozenset(left), frozenset(right))
        return self._chains[0]

    def _boundary_sets(self):
        """The two boundary chains as sets."""
        self.boundary_chains()
        return self._chains[1]

    def boundary(self):
        l, r = self._boundary_sets()
        return l | r

    def corners(self):
        """The two doubly irreducible elements as (lcorner, rcorner)."""
        if self._corners is None:
            di = _two_corners(self.lattice)
            lset, rset = self._boundary_sets()
            in_l = [d for d in di if d in lset]
            in_r = [d for d in di if d in rset]
            if len(in_l) != 1 or len(in_r) != 1 or in_l[0] == in_r[0]:
                raise DiagramError(
                    "doubly irreducible elements are not split over the two boundaries"
                )
            _check_complements(self.lattice, in_l[0], in_r[0])
            self._corners = (in_l[0], in_r[0])
        return self._corners

    def heights(self):
        """boundary_heights at the corners: (hl, hr, lchain, rchain)."""
        if self._heights is None:
            self._heights = boundary_heights(self.lattice, *self.corners())
        return self._heights

    # -- the walk table ---------------------------------------------------

    def _walks(self):
        """The walk table (_walk_table), derived on first use; raises if
        some consecutive-cover pair is not a 4-cell."""
        if self._table is None:
            self._table = _walk_table(self.upper)
        return self._table

    def _steps(self):
        """(west, east) of the walk table; DiagramError if an edge has two
        cells on one side."""
        table = self._walks()
        if table.conflict is not None:
            raise DiagramError(table.conflict)
        return table.west, table.east

    def neon_tubes(self):
        """(boundary tubes, internal tubes): prime intervals with mir foot."""
        if self._tubes is None:
            bnd = self.boundary()
            boundary, internal = [], []
            for f in self.lattice.mir():
                p = self.upper[f][0]
                if f in bnd:
                    boundary.append(Edge(f, p))
                else:
                    internal.append(Edge(f, p))
            self._tubes = (tuple(boundary), tuple(internal))
        return self._tubes

    def antube(self):
        """The number of neon tubes: one above each meet-irreducible element."""
        return len(self.lattice.mir())

    # -- lamps, derived by the lamps module --------------------------------

    @cached_property
    def _lamp_list(self):
        """(lamps, map from each neon tube's (foot, peak) to its (lamp, index))."""
        return _derive_lamp_list(self)

    @cached_property
    def _lamp_order(self):
        """lamps.lamp_poset, the door lattice's (_door_lattice)."""
        return self._door_lattice()._lamp_order

    @cached_property
    def _drawing(self):
        """render's checked drawing, the door lattice's (_door_lattice)."""
        return self._door_lattice()._drawing

    def _door_lattice(self):
        """multifork.reprovenance(self), not kept: its diagram is self."""
        from .multifork import reprovenance  # multifork imports this module
        return reprovenance(self)

    @cached_property
    def _report(self):
        """The validation report (is_slim_rectangular), derived on first use."""
        return _validate(self)

    # -- mirroring and codes -------------------------------------------------

    def mirror(self):
        return PlanarDiagram._sorted(self.lattice, tuple(r[::-1] for r in self.upper),
                                     tuple(r[::-1] for r in self.lower))

    def canonical_code(self):
        """The lesser breadth-first encoding from the bottom, following cover
        order, of the diagram and its mirror image, whose upper cover lists
        are the reversed ones."""
        bottom = self.lattice.bottom
        return min(_bfs_code(bottom, self.upper), _bfs_code(bottom, [r[::-1] for r in self.upper]))

    # -- serialization --------------------------------------------------------

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "covers": sorted(map(list, self.lattice.poset.covers)),
                "upper_order": [list(r) for r in self.upper],
                "lower_order": [list(r) for r in self.lower],
            }
        )

    @staticmethod
    def from_json(text):
        data = json_object(text, "n", "covers", "upper_order", "lower_order")
        return PlanarDiagram(
            lattice_from_poset(json_poset(data)),
            json_int_lists(data, "upper_order"),
            json_int_lists(data, "lower_order"),
        )


class _Walks(NamedTuple):
    """A diagram's walk table (_walk_table), indexed by cover slot: the
    slot of cover i in u's upper row is base[u] + i."""

    base: list       # base[u]: the slot of u's first upper cover; base[n]: the cover count
    peaks: tuple     # peaks[s]: the peak of slot s (the upper rows, flattened)
    tops: list       # tops[s]: the top of the cell whose lower left side is slot s, else -1
    east: list       # east[s]: the slot across the cell east of slot s, else -1
    west: list       # west[s]: the slot across the cell west of it, else -1
    tubes: set       # the slots of the neon tubes: a tube's foot has one upper cover
    conflict: str    # the first edge with two east or two west cells, named, else None

    def edge(self, s):
        """The (foot, peak) pair of slot s: its foot u has base[u] <= s < base[u + 1]."""
        return bisect_right(self.base, s) - 1, self.peaks[s]

    def edges(self, slots):
        """The (foot, peak) pair of each slot."""
        base, peaks = self.base, self.peaks
        return [(bisect_right(base, s) - 1, peaks[s]) for s in slots]

    def cell_ends(self, cells):
        """The (bottom, top) pair of each cell, given by its lower left slot."""
        base, tops = self.base, self.tops
        return tuple([(bisect_right(base, c) - 1, tops[c]) for c in cells])


def _walk_table(upper):
    """The walk table of the ordered upper rows, in one pass over them.

    Neighbouring covers l, r of u, slots s and s + 1, bound the cell whose
    top t is their one common upper cover, and the cell is east of its
    left sides, (u, l) and (l, t), and west of its right sides, (u, r) and
    (r, t).  Crossing it east takes (u, l) to (r, t) and (l, t) to (u, r);
    crossing it west inverts this.  DiagramError if l and r have no one
    common cover (the region between them is not a 4-cell).  The first
    edge given two east or two west cells, in cell order and then in the
    order of the four sides above, is named in `conflict`, which every walk
    raises (PlanarDiagram._steps).  A row of one cover is a neon tube's,
    and its slot goes to `tubes`."""
    base = list(accumulate(map(len, upper), initial=0))
    peaks = tuple(chain.from_iterable(upper))
    tops, east, west = [-1] * len(peaks), [-1] * len(peaks), [-1] * len(peaks)
    tubes = set()
    table = _Walks(base, peaks, tops, east, west, tubes, None)
    for u, row in enumerate(upper):
        if len(row) < 2:
            if row:
                tubes.add(base[u])
            continue
        s = base[u]
        for l, r in (row,) if len(row) == 2 else zip(row, row[1:]):
            ur = upper[r]
            # two distinct elements of a lattice share at most one upper
            # cover, so the first common one is t, the slot lt's peak
            lt = base[l]
            for t in upper[l]:
                if t in ur:
                    break
                lt += 1
            else:
                raise DiagramError(f"region over {u} between covers {l},{r} is not a 4-cell")
            rt = base[r] + ur.index(t)
            # -1 & -1 is -1: some side already crossed if the & of the four is not
            if east[s] & east[lt] & west[s + 1] & west[rt] != -1 and table.conflict is None:
                table = table._replace(conflict=_conflict(table, (s, lt), (s + 1, rt)))
            tops[s] = t
            east[s], east[lt], west[s + 1], west[rt] = rt, s + 1, lt, s
            s += 1
    return table


def _conflict(table, left, right):
    """The message naming the first of a cell's left sides that already has
    an east cell, or else of its right sides that already has a west one."""
    for name, step, sides in (("east", table.east, left), ("west", table.west, right)):
        for x in sides:
            if step[x] >= 0:
                return f"edge {table.edge(x)} has two {name} cells"


def _half_walk(step, s, seen):
    """The slots of the walk from slot s along `step`, the west or the east
    list of a walk table, to the boundary, in walking order, s excluded:
    half a trajectory.  `seen` holds the slots walked so far, and the walk
    adds its own; DiagramError if it revisits one."""
    out = []
    s = step[s]
    while s >= 0:
        if s in seen:
            raise DiagramError("trajectory revisits an edge (diagram corruption)")
        seen.add(s)
        out.append(s)
        s = step[s]
    return out


def _trajectory_slots(d, s):
    """The slots of the trajectory through slot s, from the left boundary
    to the right one: two half-walks."""
    west, east = d._steps()
    seen = {s}
    slots = _half_walk(west, s, seen)
    slots.reverse()
    slots.append(s)
    return slots + _half_walk(east, s, seen)


def _crossed(table, slots):
    """The lower left slots of the cells that a walk east along `slots`
    crosses, one between each two.  The cell east of slot x has x as its
    lower left side if tops[x] is set, else as its upper left side; then
    the walk goes on to the cell's lower right side, whose slot is the
    lower left one + 1."""
    tops, east = table.tops, table.east
    return [x if tops[x] >= 0 else east[x] - 1 for x in slots[:-1]]


def _bfs_code(bottom, upper):
    ids = {bottom: 0}
    queue = [bottom]
    for u in queue:  # the loop also visits what it appends
        for v in upper[u]:
            if v not in ids:
                ids[v] = len(ids)
                queue.append(v)
    return "|".join(",".join(str(ids[v]) for v in upper[u]) for u in queue)


def canonical_code(diagram):
    return diagram.canonical_code()


def _jh_permutation(d):
    """The Jordan-Holder permutation of a valid diagram as the tuple
    (pi(1), ..., pi(n)), n the length: pi(i) = j when the trajectory through
    the i-th edge of the left boundary chain, counted from the bottom, ends
    on the j-th edge of the right one.  Read off the peaks that the
    validation sweep recorded (_trajectory_failure), swept again, with
    the kept report untouched, if d released them; DiagramError unless d's
    report is ok.  Valid, it is graded: right-chain element j has height j."""
    report = d._report
    if not report.ok:
        raise DiagramError("no Jordan-Holder permutation: " + "; ".join(report.failures))
    if d._ends is None:  # released (PlanarDiagram._release): sweep again
        _trajectory_failure(d)
    h = d.lattice.poset._heights()
    return tuple([h[v] for v in d._ends])


def _jh_min(pi):
    """min(pi, pi^-1), the key of a lattice up to isomorphism: pi fixes a
    slim rectangular lattice up to its mirror image, whose permutation is
    pi^-1, so two valid diagrams share their key iff their lattices are
    isomorphic (Czedli and Schmidt, Algebra Universalis 66, 2011, and Acta
    Sci. Math. 79, 2013)."""
    inv = [0] * len(pi)
    for i, j in enumerate(pi, 1):
        inv[j - 1] = i
    return min(pi, tuple(inv))


def _forked_permutation(pi, address, k):
    """The Jordan-Holder permutation of the k-fold fork at the cell whose
    bottom has the given address (a, b), read off the parent's pi with no
    lattice built.  With sigma(j) = j for j <= b + 1 and j + k otherwise:

        pi'(i) = sigma(pi(i))            for i <= a + 1,
        pi'(a + 1 + s) = b + 2 + k - s   for s = 1..k,
        pi'(i + k) = sigma(pi(i))        for i > a + 1.

    Let the cell have bottom w, sides l and r and top t.  Its lower left
    side [w, l] descends to the left-chain edge a + 1, and its lower right
    side [w, r] to the right-chain edge b + 1 (multifork_extend's two
    paths).  The fork splits every edge of these paths, so these two
    boundary edges too, into k + 1 pieces, and the boundary edges above
    them move up by k.  An old trajectory crosses each subdivided edge on
    its lowest piece, so it keeps its two ends, renumbered by the shift
    (sigma on the right).  The k new trajectories run through the new
    lower covers m_1, ..., m_k of t, left to right.  The left leg of m_i
    ends at the i-th subdivision point of [w, l] from the top, its right
    leg at the (k + 1 - i)-th of [w, r] (multifork_extend's
    `i = k + 1 - s`), so its trajectory runs on piece k + 2 - i of each
    left path edge, counted from the bottom, and on piece i + 1 of each
    right path edge.  The new pieces thus pair in reverse order: piece
    s + 1 of edge a + 1, the left-chain edge a + 1 + s, with piece
    k + 2 - s of edge b + 1, the right-chain edge b + 2 + k - s.
    """
    a, b = address
    shifted = [j if j <= b + 1 else j + k for j in pi]
    return (*shifted[:a + 1], *range(b + 1 + k, b + 1, -1), *shifted[a + 1:])


def _unforked(pi):
    """The fork rule run backwards on pi alone: (pi0, (a, b, k)) with (a, b)
    a distributive cell of pi0 and _forked_permutation(pi0, (a, b), k) ==
    pi, or None.  multifork._peeled iterates it down to a grid.

    Positions count left-chain edges and values right-chain edges from 1.
    A k-fold fork at (a, b) puts its k new trajectories at positions
    s = a + 2, ..., s + k - 1 with values hi = b + 1 + k, hi - 1, ...,
    b + 2, and moves the old positions right of them and the old values
    above b + 1 up by k.  Its cell is distributive: the ideal of its top
    is a grid, crossed eastwards by the trajectories of left-chain edges
    1..a + 1, so they end above b + 1, and above hi after the fork.  So
    the rule scans s = 2..n from the left for a value hi = pi(s) below
    every value left of it, takes the longest run hi, hi - 1, ... from s,
    of length kmax, and tries k = kmax down to 1 with b = hi - k - 1 >= 0.
    The residue pi0 is pi with the run's first k entries deleted and the
    values above hi lowered by k, and the first (s, k) whose cell
    (s - 2, b) is distributive in pi0 (_distributive_addresses) is undone.
    The k-fold fork of pi0 there is pi entry for entry, so each undo
    inverts a fork at a distributive cell.  If the undos end at a grid's
    permutation, the forks, each at a distributive cell of a valid
    lattice, rebuild pi, which fixes the lattice and its drawing (Czedli
    and Schmidt, Algebra Universalis 66, 2011); multifork._rebuilt checks
    this by one build.  In a built lattice the newest fork's run is a
    candidate, but that the rule, which undoes the leftmost candidate at
    its longest run first, finds one at every stage rests only on the
    exhaustive tests: every key of length <= 9 and its inverse reach a
    grid, and every lattice of length <= 8 and its mirror image peel to
    their own pi.
    """
    low = pi[0]
    for s in range(2, len(pi) + 1):
        hi = pi[s - 1]
        if hi > low:
            continue
        low, kmax = hi, 1
        while s + kmax <= len(pi) and pi[s - 1 + kmax] == hi - kmax:
            kmax += 1
        for k in range(min(kmax, hi - 1), 0, -1):
            residue = tuple(v - k if v > hi else v for v in pi[:s - 1] + pi[s - 1 + k:])
            if (s - 2, hi - k - 1) in _distributive_addresses(residue):
                return residue, (s - 2, hi - k - 1, k)
    return None


def _forked_labels(left, right, address, new):
    """The trajectory labels of the fork at `address`, listed by left- and
    by right-chain edge from the bottom, from the parent's two lists:
    _forked_permutation's pairing, with the new trajectories' labels `new`
    given in left-chain order.  Every old label keeps its place relative
    to the others."""
    a, b = address
    return left[:a + 1] + new + left[a + 1:], right[:b + 1] + new[::-1] + right[b + 1:]


def _grid_permutation(p, q):
    """pi of the grid p x q: left edge i ends on right edge q + i, p + j on j."""
    return (*range(q + 1, q + p + 1), *range(1, q + 1))


def _distributive_addresses(pi):
    """The sorted addresses of the distributive cells of the lattice whose
    Jordan-Holder permutation is pi, read off pi with no lattice built.

    The corners have heights p = pi^-1(1) - 1 and q = pi(1) - 1.  The
    element at the point (x, y) of S(pi), 0 <= x, y <= n, with x = n or
    pi(x + 1) > y, and y = n or pi^-1(y + 1) > x, lies above the s-th
    element c_s of the left boundary chain iff s <= x, so its corner
    heights, the cell addresses, are (min(x, p), min(y, q)), and it is
    c_hl v d_hr (boundary_heights): these points H list every
    element once.  The join-irreducibles of a slim rectangular lattice lie
    on its two boundary chains, so those below an element t at
    (a + 1, b + 1) are two disjoint chains of sizes a + 1 and b + 1, and
    by Birkhoff's count (order.is_distributive_ideal_grid) the ideal of t
    is a product of two chains iff it has (a + 2)(b + 2) elements, iff H
    holds [0, a + 1] x [0, b + 1].  Then t tops one cell, whose bottom is
    at (a, b).

    Row y of S(pi) is one bit mask over x: `live`, the x with x = n or
    pi(x + 1) > y, loses the x with pi(x + 1) = y as y grows, and the
    second condition keeps its bits below pi^-1(y + 1).  So H's columns
    take O(n) mask steps; tests/oracles.py keeps the (n + 1)^2 point scan.
    """
    n = len(pi)
    inv, drop = [0] * n, [0] * (n + 1)  # drop[v]: the x with pi(x + 1) = v
    for x, v in enumerate(pi):
        inv[v - 1] = x + 1
        drop[v] |= 1 << x
    p, q = inv[0] - 1, pi[0] - 1
    low, corner = (1 << p) - 1, 1 << p
    cols = [0] * (q + 1)  # cols[j]: the mask of the i with (i, j) in H
    live = (1 << n + 1) - 1
    for y in range(n + 1):
        live &= ~drop[y]
        row = live & (1 << inv[y]) - 1 if y < n else live
        cols[min(y, q)] |= row & low | (corner if row >> p else 0)
    tops, rect = [], cols[0]  # tops[b]: the largest i with [0, i] x [0, b + 1] in H
    for col in cols[1:]:
        rect &= col
        tops.append((rect + 1 & ~rect).bit_length() - 2)
    return [(a, b) for a in range(p) for b in range(q) if a < tops[b]]


# ---------------------------------------------------------------------------
# Corner coordinates: the embedding and the certificate
# ---------------------------------------------------------------------------

def boundary_heights(lat, lcorner, rcorner):
    """(hl, hr, lchain, rchain): the corner ideals listed upwards, and each
    element's point hl(x) = |ideal(x) & ideal(lcorner)| - 1, hr(x) (module
    docstring).  DiagramError unless both ideals are chains and each x is
    the join of lchain[hl(x)] and rchain[hr(x)], the up-set test, which one
    loop over the elements runs as it computes the points.  A built
    diagram keeps what its certificate's one call returned; a foreign
    lattice and a mirror image call this on first read of heights()."""
    down, up, lower = lat.poset.down, lat.poset.up, lat.poset._dncov
    chains = []
    for c in (lcorner, rcorner):
        # the ideal of c is a chain iff the walk down c's lower covers meets
        # one at each step until the bottom: then every x < c lies below
        # c's one lower cover, and so on down, so the walk is the ideal
        chain = [c]
        while len(lower[chain[-1]]) == 1:
            chain.append(lower[chain[-1]][0])
        if lower[chain[-1]] or len(chain) != down[c].bit_count():
            raise DiagramError("corner ideal is not a chain")
        chains.append(tuple(reversed(chain)))
    lchain, rchain = chains
    dl, dr = down[lcorner], down[rcorner]
    lup = [up[u] for u in lchain]
    rup = [up[u] for u in rchain]
    hl, hr = [], []
    for x, m, u in zip(count(), down, up):
        a, b = (m & dl).bit_count() - 1, (m & dr).bit_count() - 1
        if lup[a] & rup[b] != u:
            raise DiagramError(f"element {x} is not the join of its two projections")
        hl.append(a)
        hr.append(b)
    return tuple(hl), tuple(hr), lchain, rchain


def _two_corners(lat):
    """The two doubly irreducible elements, unoriented; DiagramError unless
    there are exactly two."""
    di = lat.doubly_irreducible()
    if len(di) != 2:
        raise DiagramError(f"expected exactly 2 doubly irreducible elements, got {len(di)}")
    return di


def _check_complements(lat, lcorner, rcorner):
    if not lat.is_meet(lcorner, rcorner, lat.bottom) or not lat.is_join(lcorner, rcorner, lat.top):
        raise DiagramError("corners are not complements")


def embed_rectangular(lat, lcorner=None):
    """Derive the planar diagram of a slim rectangular lattice.

    The two doubly irreducible elements are the corners; choosing which one
    is the left corner fixes the orientation (the other choice gives the
    mirror image).  Raises DiagramError when the lattice has no such diagram.
    """
    di = _two_corners(lat)
    if lcorner is None:
        lcorner = min(di)
    if lcorner not in di:
        raise DiagramError(f"{lcorner} is not doubly irreducible")
    rcorner = di[0] if di[1] == lcorner else di[1]
    _check_complements(lat, lcorner, rcorner)
    return _sorted_diagram(lat, lcorner, rcorner, boundary_heights(lat, lcorner, rcorner))


class _CornerLattice(FiniteLattice):
    """A built lattice: _certified_diagram certifies it by the coordinates
    of its two corners, in place of the down-set mask certificate."""

    def _certify(self):
        pass


def _certified_diagram(poset, lcorner, rcorner):
    """The diagram of a built lattice on poset with the given corners, and
    the certificate of that lattice (module docstring): boundary_heights,
    the coordinatewise-minimum sweep and the complement check on a lattice
    that fills no table, then the rows sorted by the certified left
    heights.  OrderError unless the poset is bounded, else DiagramError
    naming the failure."""
    lat = _CornerLattice(poset)
    heights = hl, hr, lchain, _ = boundary_heights(lat, lcorner, rcorner)
    columns = [0] * len(lchain)  # column a: the right heights at left height a
    for a, b in zip(hl, hr):
        columns[a] |= 1 << b
    right = 0  # the right heights of the columns right of a
    for a in range(len(columns) - 1, -1, -1):
        top = columns[a].bit_length() - 1
        gap = right & ~columns[a] & ((1 << top) - 1)
        if gap:
            points = list(zip(hl, hr))
            b = gap.bit_length() - 1
            y = next(u for u, (i, j) in enumerate(points) if i > a and j == b)
            raise DiagramError(f"elements {points.index((a, top))} and {y} have no"
                               f" element at their coordinatewise minimum ({a},{b})")
        right |= columns[a]
    _check_complements(lat, lcorner, rcorner)
    return _sorted_diagram(lat, lcorner, rcorner, heights)


def _sorted_diagram(lat, lcorner, rcorner, heights):
    """The diagram whose cover lists run by falling left height, from the
    poset's rows (_falling_rows).  DiagramError if two covers of an element
    share a left height.  The first upper cover of lchain[i] is then
    lchain[i + 1], so the left boundary chain climbs the ideal of lcorner,
    the right one that of rcorner, and the given corners and heights are
    the diagram's corners() and heights()."""
    hl, p = heights[0], lat.poset
    return PlanarDiagram._sorted(lat, _falling_rows(p._upcov, hl), _falling_rows(p._dncov, hl),
                                 (lcorner, rcorner), heights)


def _falling_rows(rows, hl):
    """The rows listed by falling left height.  A row that already falls
    strictly is kept, the same tuple, and so is `rows` if every row is; the
    others are sorted (_falling)."""
    out = None
    for u, row in enumerate(rows):
        # most rows hold one or two covers
        if len(row) < 2 or len(row) == 2 and hl[row[0]] > hl[row[1]]:
            continue
        for a, b in zip(row, row[1:]):
            if hl[a] <= hl[b]:
                if out is None:
                    out = list(rows)
                out[u] = _falling(u, row, hl)
                break
    return rows if out is None else tuple(out)


def _falling(u, row, hl):
    """The covers of u in row, sorted by falling left height; DiagramError
    if two of them share one."""
    row = tuple(sorted(row, key=hl.__getitem__, reverse=True))
    for a, b in zip(row, row[1:]):
        if hl[a] == hl[b]:
            raise DiagramError(f"covers {a},{b} of {u} collide in the embedding")
    return row


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple

    def __bool__(self):
        return self.ok


def is_slim_rectangular(obj):
    """Full validity report for a diagram or abstract lattice.

    A diagram derives its report once, on the first call, and keeps it, ok
    or not; a built diagram's first call is its constructor's self-check.
    A lattice is embedded afresh (embed_rectangular) on every call.
    """
    if not isinstance(obj, PlanarDiagram):
        try:
            obj = embed_rectangular(obj)
        except DiagramError as e:
            return ValidationReport(False, (f"embedding: {e}",))
    return obj._report


def _validate(d):
    """The validation report of d (is_slim_rectangular).

    Checks semimodularity, slimness, the two complementary doubly
    irreducible elements, that every region is a 4-cell with a unique
    bottom, that each two neighbouring lower covers of an element are the
    left and right sides of a cell with that top, and trajectory sanity
    (one neon tube each, count = length) in one sweep, _trajectory_failure.
    Each element's upper-cover join is computed once, by the walk table:
    when no element has three upper covers, the cells decide
    semimodularity too.
    """
    failures = []
    lat = d.lattice
    wide = next((u for u, row in enumerate(d.upper) if len(row) > 2), None)
    try:
        table = d._walks()
        cell_failure = None
    except DiagramError as e:
        cell_failure = str(e)
    # the table takes the join of each two neighbouring upper covers; when
    # no element has three, these are all the joins Birkhoff's condition needs
    if not (lat.is_semimodular() if wide is not None else cell_failure is None):
        failures.append("not semimodular")
    if not lat.is_slim():
        failures.append("not slim: 3-element antichain in join-irreducibles")
    try:
        di = _two_corners(lat)
        # a diagram keeps only corners that passed the complement check
        if d._corners not in (di, di[::-1]):
            _check_complements(lat, *di)
    except DiagramError as e:
        failures.append(str(e))
    if wide is not None:
        failures.append(f"element {wide} has more than 2 upper covers (shared cell bottom)")
    if cell_failure is not None:
        failures.append(cell_failure)
    lchain, rchain = d.boundary_chains()
    if lchain[-1] != lat.top or rchain[-1] != lat.top:
        failures.append("boundary chains do not reach the top")
    if not failures:
        # (a, t) is the upper left side of the cell with sides a, b and top
        # t iff crossing it east leads to that cell's lower right side,
        # which ends at b; the lower left side of a cell, the other way east
        # across one, leads to an edge that ends above t
        base, peaks, east, upper = table.base, table.peaks, table.east, d.upper
        for t, row in enumerate(d.lower):
            if len(row) < 2:
                continue
            for a, b in (row,) if len(row) == 2 else zip(row, row[1:]):
                # a has at most two upper covers, one of them t
                s = east[base[a] + (upper[a][0] != t)]
                if s < 0 or peaks[s] != b:
                    failures.append(
                        f"lower covers {a},{b} of {t} are not the left and right sides of a cell")
        failure = _trajectory_failure(d)
        if failure is not None:
            failures.append(failure)
    return ValidationReport(not failures, tuple(failures))


def _trajectory_failure(d):
    """The first failure of d's trajectories, or None: each must run from
    the left boundary to the right boundary with exactly one neon tube, and
    their number and the number of neon tubes must be the length.

    One sweep checks this: a walk east from the slot of each of the
    len(lchain) - 1 left-chain edges, the first upper cover of each
    element of the chain but the top, along the walk table's east list,
    with one `seen` mark per slot for all walks.  It suffices because a
    cell's east step, (b, l) -> (r, t) and (l, t) -> (b, r), and its west
    step are mutually inverse partial maps on slots, and the table names
    the first slot with two east or two west cells (_steps); so the
    trajectories split the slots into paths and cycles.  If no walk
    revisits a slot (a walk into a start, taken or still to come, is a
    revisit), no left-chain edge has a west neighbour and the walks are
    disjoint whole paths.  There is one slot per cover, so if the walks
    reach as many slots as there are covers they reach every edge: no
    other path or cycle is left, every trajectory starts on the left
    boundary (the left-chain edges are the edges with both ends on it),
    and there are len(lchain) - 1 of them.

    The sweep keeps, as d._ends, the peak of the edge each walk ends on, in
    left-chain order, stored once all walks are done: the Jordan-Holder
    permutation (_jh_permutation) of a diagram whose report is ok.

    The last check, neon tubes against the length, cannot fail once the
    others pass; it stays as a guard on this argument.  A neon tube is the
    one edge above a meet-irreducible foot (neon_tubes), and antube counts
    these feet, the elements with one upper cover in the lattice, and so
    in d.upper, which lists the lattice's covers (the constructors check
    or share them).  The sweep counts the slots of these edges
    (the walk table's `tubes`), and once no walk revisits a slot and the
    walks reach every slot, it counts each of them once.  So the tube
    count is the sum of the per-walk counts, each of which is 1: it is
    len(lchain) - 1, which the check before it compares with the length.
    """
    try:
        east = d._steps()[1]
    except DiagramError as e:
        return str(e)
    table = d._walks()
    base, peaks, tubes_at = table.base, table.peaks, table.tubes
    lchain, _ = d.boundary_chains()
    rset = d._boundary_sets()[1]
    seen = bytearray(len(peaks))
    ends = []
    for x in lchain[:-1]:
        s, tubes = base[x], 0
        while s >= 0:
            if seen[s]:
                return "trajectory revisits an edge (diagram corruption)"
            seen[s] = 1
            tubes += s in tubes_at
            last, s = s, east[s]
        ends.append(peaks[last])
        if tubes != 1:
            return f"trajectory has {tubes} neon tubes, expected 1"
        if not rset.issuperset(table.edge(last)):
            return "trajectory does not end on the right boundary"
    d._ends = ends  # one store, so that no read sees part of the list
    if seen.count(0):
        return "trajectory does not start on the left boundary"
    length = d.lattice.length()
    if len(lchain) - 1 != length:
        return f"{len(lchain) - 1} trajectories but length {length}"
    if d.antube() != length:
        return "neon tube count differs from length"
    return None


# ---------------------------------------------------------------------------
# Cell addressing
# ---------------------------------------------------------------------------

def _address_slot(diagram, address):
    """The slot of the lower left side of the cell whose bottom sits at the
    given boundary heights: of the last such cell, if the bottom has more
    than two upper covers."""
    a, b = address
    hl, hr, lchain, rchain = diagram.heights()
    if not (0 <= a < len(lchain) and 0 <= b < len(rchain)):
        raise DiagramError(f"address {address} is outside the boundary chains")
    bottom = diagram.lattice.join_of((lchain[a], rchain[b]))
    if (hl[bottom], hr[bottom]) != (a, b):
        raise DiagramError(f"no element at address {address}")
    base = diagram._walks().base
    row = diagram.upper[bottom]
    if len(row) < 2:
        raise DiagramError(f"no cell with bottom at address {address}")
    return base[bottom] + len(row) - 2
