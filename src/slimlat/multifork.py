"""Multifork construction of slim rectangular lattices.

A lattice is built from a grid by a sequence of k-fold multifork
extensions at distributive 4-cells.  A grid lists its cover rows left to
right, and an extension splices its child's rows from its parent's: each
path edge gives way to its subdivision chain, the cell's peak gains its
new lower covers between its two old ones, and every other old row is
kept, the same tuple.  The child's poset and diagram share these rows
(order.Poset._from_rows, diagram._certified_diagram), which are checked,
not sorted.  Each extension records its new neon tubes' territories, as
the (bottom, top) ids of the cells their trajectories cross (ids keep
their meaning, because new elements are appended).  It also records, in
a few integers per new element, how to place that element in the
drawing; the exact coordinates that rendering reads are replayed from
these recipes in ints on first use.  A valid diagram is decomposed
back into a sequence read off its Jordan-Holder permutation, which that
sequence's built lattice has too.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd, prod

from .diagram import (
    _address_slot, _certified_diagram, _crossed, _forked_labels, _grid_permutation,
    _half_walk, _jh_permutation, _trajectory_slots, _unforked, is_slim_rectangular)
from .errors import (
    BudgetError,
    DiagramError,
    InternalInconsistencyError,
    OrderError,
    PreconditionError,
)
from .lamps import _congruence_places, _diagram_of, _lamp_places, lamps_of_diagram
from .order import MAX_ELEMENTS, Poset, is_distributive_ideal_grid


@dataclass(frozen=True, slots=True)
class ForkStep:
    a: int
    b: int
    k: int


@dataclass(frozen=True, slots=True)
class MultiforkSequence:
    grid_p: int
    grid_q: int
    steps: tuple

    def extended(self, step):
        return MultiforkSequence(self.grid_p, self.grid_q, self.steps + (step,))


@dataclass(frozen=True, slots=True)
class TubeRecord:
    step: int          # the step that made the tube; 0 for a boundary tube
    cells: tuple       # (bottom, top) of each essential cell at creation, west to east


class ProvenancedLattice:
    """A slim rectangular lattice with construction provenance.

    Immutable after construction; extensions return new values.  The tube
    records are kept as given, so callers hand over fresh ones.  `parent` is
    the built lattice of `seq` without its last step, so a lattice from
    `build` keeps every stage of its sequence.  Only `build` sets it: it is
    None for a grid, for the lattices that `multifork_extend` makes
    elsewhere (the enumeration's) and for reprovenance's.
    """

    def __init__(self, diagram, seq, tube_records, recipes):
        self.diagram = diagram
        self.seq = seq
        self.tube_records = tube_records
        # per fork step: (n0, k, np, edges), n0 its first new id and edges
        # its np left path edges, then its right ones (multifork_extend)
        self.recipes = recipes
        self.parent = None

    @cached_property
    def points(self):
        """(den, xs, ys): element u is drawn at (xs[u] / den, ys[u] / den),
        den the lcm of the reduced denominators: grid element (i, j) at
        (j - i, i + j), then each step's points, s / (k + 1) of the way down
        a path edge from its peak, and its leg crossings, where the
        down-right line through the left leg's end meets the down-left line
        through the right leg's.  Replayed on first read in ints over D, the
        product of 2(k + 1) over the steps, each division exact: if before a
        step the points are multiples of D / D', D' the product over the
        earlier steps, foot - peak is divisible by k + 1, a subdivision point
        is a multiple of 2 D / D'' (D'' = 2(k + 1) D'), a crossing's numerator
        is even, and all are multiples of D / D''.  den = D / gcd(D, all)."""
        scale = prod(2 * (k + 1) for _, k, _, _ in self.recipes)
        pts = [((j - i) * scale, (i + j) * scale)
               for i in range(self.seq.grid_p + 1) for j in range(self.seq.grid_q + 1)]
        for n0, k, np_, edges in self.recipes:
            for foot, peak in edges:
                (fx, fy), (px, py) = pts[foot], pts[peak]
                pts += [(px + s * (fx - px) // (k + 1), py + s * (fy - py) // (k + 1))
                        for s in range(1, k + 1)]
            # the left leg of m_j crossing the right leg of m_i, i < j, then
            # m_i itself: the legs end at point j of the first left edge and
            # point k + 1 - i of the first right one
            y0 = n0 + np_ * k
            for i, j in [*_crossings(k), *((i, i) for i in range(1, k + 1))]:
                (ax, ay), (bx, by) = pts[n0 + j - 1], pts[y0 + k - i]
                x = (ax - ay + bx + by) // 2
                pts.append((x, x - ax + ay))
        g = gcd(scale, *chain.from_iterable(pts))
        return scale // g, [x // g for x, _ in pts], [y // g for _, y in pts]

    @cached_property
    def _drawing(self):
        """render's checked drawing, kept once its slope check passes."""
        from .render import _checked_drawing  # render imports dsl, which imports this module
        return _checked_drawing(self.diagram, *self.points, self.seq)

    @cached_property
    def _lamp_order(self):
        """(lamps, strict order pairs on lamp feet, Poset): lamps.lamp_poset,
        read off the lattice's own sequence."""
        lamps = lamps_of_diagram(self.diagram)
        poset = _sequence_lamp_poset(self.seq, self._lamp_places)
        feet, lt = [l.foot for l in lamps], []
        for i, m in enumerate(poset.up):
            rest, foot = m ^ 1 << i, feet[i]
            while rest:  # a few bits: lowest first
                low = rest & -rest
                lt.append((foot, feet[low.bit_length() - 1]))
                rest ^= low
        return lamps, frozenset(lt), poset

    @cached_property
    def _lamp_places(self):
        """Each lamp's place in the sequence (lamps._lamp_places), kept for
        the lamp order and the removals."""
        return _lamp_places(self)

    @cached_property
    def _con_places(self):
        """Each congruence's lamp place (lamps._congruence_places), kept for _con_by_place."""
        return _congruence_places(self)

    @property
    def lattice(self):
        return self.diagram.lattice

    @property
    def n(self):
        return self.lattice.n

    def length(self):
        return self.lattice.length()

    def antube(self):
        return self.diagram.antube()

    def canonical_code(self):
        return self.diagram.canonical_code()

    def __repr__(self):
        return f"ProvenancedLattice(n={self.n}, len={self.length()}, steps={len(self.seq.steps)})"


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

def grid(p, q):
    """The (p+1) x (q+1) grid with stage-0 provenance."""
    if p < 1 or q < 1:
        raise PreconditionError("grid needs p >= 1 and q >= 1")
    if (p + 1) * (q + 1) > MAX_ELEMENTS:
        raise BudgetError(
            f"grid {p} {q} has {(p + 1) * (q + 1)} elements,"
            f" above the limit of {MAX_ELEMENTS}"
        )
    width = q + 1

    def eid(i, j):
        return i * width + j

    # rows left to right: (i, j) has left height i, and falling left height
    # puts (i + 1, j) before (i, j + 1) above it, (i, j - 1) before (i - 1, j) below
    upper, lower = [], []
    for i in range(p + 1):
        for j in range(width):
            u = eid(i, j)
            upper.append(tuple(v for v, ok in ((u + width, i < p), (u + 1, j < q)) if ok))
            lower.append(tuple(v for v, ok in ((u - 1, j > 0), (u - width, i > 0)) if ok))
    lc = eid(p, 0)
    d = _certified_diagram(Poset._from_rows(tuple(upper), tuple(lower)), lc, eid(0, q))
    # a boundary tube's whole trajectory is essential; the record keys stay
    # plain tuples: their repr is part of a built lattice's recorded output
    # (tests/golden.json)
    boundary, _ = d.neon_tubes()
    table = d._walks()
    records = {}
    for foot, peak in boundary:
        slots = _trajectory_slots(d, table.base[foot])
        records[foot, peak] = TubeRecord(0, table.cell_ends(_crossed(table, slots)))
    return ProvenancedLattice(d, MultiforkSequence(p, q, ()), records, ())


# ---------------------------------------------------------------------------
# Multifork extension
# ---------------------------------------------------------------------------

def multifork_extend(pl, address, k):
    """k-fold multifork extension at the addressed distributive 4-cell.

    Adds k pairwise incomparable lower covers of the cell's peak (the new
    internal neon tubes), subdivides every edge of the two descending
    boundary paths k-fold with cross covers per branch, and meshes the new
    legs inside the cell (legs of distinct branches cross in shared
    elements).  Self-verifying: the result must pass the full slim
    rectangular validation and grow length and tube count by exactly k; a
    failed self-check is an InternalInconsistencyError that names the
    extended sequence, which `slimlat build` replays.
    """
    if k < 1:
        raise PreconditionError("multiplicity must be >= 1")
    d = pl.diagram
    lat = d.lattice
    c = _address_slot(d, address)  # the slot of [w, a], and c + 1 that of [w, b]
    table = d._walks()
    a, b, t = table.peaks[c], table.peaks[c + 1], table.tops[c]
    if not is_distributive_ideal_grid(lat, t):
        raise PreconditionError(f"cell at {address} is not distributive")

    # the trajectory paths that descend from [w, a] to the left boundary and
    # from [w, b] to the right one, each listed from its upper end: half of
    # the trajectory of each lower edge, which holds no neon tube (a tube's
    # foot has one upper cover) and ends on its boundary chain
    west, east = d._steps()
    seen = {c, c + 1}
    left = [c] + _half_walk(west, c, seen)
    right = [c + 1] + _half_walk(east, c + 1, seen)
    left_edges, right_edges = table.edges(left), table.edges(right)
    lset, rset = d._boundary_sets()
    if (not table.tubes.isdisjoint(left + right)
            or not lset.issuperset(left_edges[-1]) or not rset.issuperset(right_edges[-1])):
        raise _step_failure(pl, address, k,
                            "the cell's lower edges do not descend to the boundaries")
    np_, nq = len(left_edges), len(right_edges)
    n0 = lat.n
    total = n0 + (np_ + nq) * k + k * (k - 1) // 2 + k
    if total > MAX_ELEMENTS:
        raise BudgetError(
            f"a {k}-fold fork at {address} gives {total} elements,"
            f" above the limit of {MAX_ELEMENTS}"
        )

    # new ids: point s of path edge e (the left edges, then the right ones)
    # is n0 + e * k + s - 1, then come the leg crossings cid, then m_i
    cpairs = _crossings(k)
    cbase = n0 + (np_ + nq) * k
    cid = {pair: cbase + i for i, pair in enumerate(cpairs)}
    mbase = cbase + len(cpairs)
    y0 = n0 + np_ * k

    # The child's rows, spliced from the parent's, which run left to right:
    # a path edge (f, p) is the first upper cover of f and the last lower
    # cover of p on the left path (the last and the first on the right one),
    # and its subdivision points take its place in both rows; the k new
    # lower covers of t go between a and b.  Every other old row is kept.
    upper, lower = list(d.upper), list(d.lower)
    for new, (foot, peak) in zip(range(n0, y0, k), left_edges):
        upper[foot] = (new + k - 1, *upper[foot][1:])
        lower[peak] = (*lower[peak][:-1], new)
    for new, (foot, peak) in zip(range(y0, cbase, k), right_edges):
        upper[foot] = (*upper[foot][:-1], new + k - 1)
        lower[peak] = (new, *lower[peak][1:])
    row = lower[t]
    at = row.index(a) + 1
    lower[t] = row[:at] + tuple(range(mbase, mbase + k)) + row[at:]
    # The new rows, left to right: north-west before north-east above an
    # element, south-west before south-east below it.  Subdivision point s
    # of left edge j has its edge's upper part north-west and lower part
    # south-east, point s of the edge east of it north-east (on the cell's
    # own edge, the left leg of m_s) and point s of the edge west of it
    # south-west; right edges mirror this.  The left leg of m_j runs
    # south-west, the right leg of m_i south-east, and cid[i, j] is where
    # they cross.
    x = n0  # the id of the point that the next two rows belong to
    for j, (foot, peak) in enumerate(left_edges):
        for s in range(1, k + 1):
            north_east = x - k if j else cid[1, s] if s > 1 else mbase
            south_east = x + 1 if s < k else foot
            upper.append((x - 1 if s > 1 else peak, north_east))
            lower.append((x + k, south_east) if j + 1 < np_ else (south_east,))
            x += 1
    for j, (foot, peak) in enumerate(right_edges):
        for s in range(1, k + 1):
            i = k + 1 - s       # y(0, s) ends the right leg of m_i
            north_west = x - k if j else cid[i, k] if i < k else mbase + k - 1
            south_west = x + 1 if s < k else foot
            upper.append((north_west, x - 1 if s > 1 else peak))
            lower.append((south_west, x + k) if j + 1 < nq else (south_west,))
            x += 1
    for i, j in cpairs:
        upper.append((cid[i, j - 1] if j - 1 > i else mbase + i - 1,
                      cid[i + 1, j] if i + 1 < j else mbase + j - 1))
        lower.append((cid[i - 1, j] if i > 1 else n0 + j - 1,
                      cid[i, j + 1] if j < k else y0 + k - i))
    for i in range(1, k + 1):
        upper.append((t,))
        lower.append((cid[i - 1, i] if i > 1 else n0 + i - 1,
                      cid[i, i + 1] if i < k else y0))

    try:
        d2 = _certified_diagram(Poset._from_rows(tuple(upper), tuple(lower)), *d.corners())
    except (OrderError, DiagramError) as e:
        raise _step_failure(pl, address, k, f"extension produced an invalid lattice: {e}") from e
    report = is_slim_rectangular(d2)
    if not report.ok:
        raise _step_failure(pl, address, k,
                            "extension validation failed: " + "; ".join(report.failures))
    if d2.lattice.length() != lat.length() + k or d2.antube() != d.antube() + k:
        raise _step_failure(pl, address, k, "extension did not add k to length and tube count")

    # the k new tubes' records: every cell of a tube's trajectory but the
    # two that flank the tube, both inside the forked cell, read off the
    # walk table that validation derived; the tubes are the table's tube
    # slots, a tube's foot having one upper cover
    records = dict(pl.tube_records)
    step = len(pl.seq.steps) + 1
    table2 = d2._walks()
    for m in range(mbase, mbase + k):
        x = table2.base[m]  # the slot of the tube [m, t], m's one upper cover
        slots = _trajectory_slots(d2, x)
        if [y for y in slots if y in table2.tubes] != [x]:
            raise _step_failure(pl, address, k, "new tube is not its trajectory's top edge")
        ti = slots.index(x)
        cells = _crossed(table2, slots)
        records[m, t] = TubeRecord(step, table2.cell_ends(cells[:ti - 1] + cells[ti + 1:]))

    return ProvenancedLattice(
        d2,
        pl.seq.extended(ForkStep(address[0], address[1], k)),
        records,
        # the step's drawing recipe, replayed by ProvenancedLattice.points
        pl.recipes + ((n0, k, np_, tuple(left_edges + right_edges)),),
    )


def _crossings(k):
    """(i, j), 1 <= i < j <= k, in id order: the left leg of m_j crosses m_i's right one."""
    return [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]


def _step_failure(pl, address, k, check):
    """The InternalInconsistencyError of a failed self-check of the k-fold
    fork of pl at address, naming the sequence that replays it."""
    from .dsl import emit_dsl  # dsl imports this module

    seq = pl.seq.extended(ForkStep(address[0], address[1], k))
    return InternalInconsistencyError(f"{check}; `slimlat build` replays it on\n{emit_dsl(seq)}")


# sequence -> its built lattice, kept while someone holds that lattice or a
# later stage of it (ProvenancedLattice.parent); only build fills it
_built = weakref.WeakValueDictionary()


def build(seq):
    """Fold a sequence into a built lattice whose `parent` chain holds its
    stages, the lattices of its prefixes.

    The fold starts from the longest prefix of `seq`, `seq` itself
    included, whose built lattice is alive (the memo `_built`), and extends
    the rest, so a bad step is the same PreconditionError as in a cold
    build.  A built lattice is a function of its sequence, since new ids
    are appended in construction order, so a stage found in the memo is
    the lattice a fresh fold would give.  Each stage built here is
    extended, then released of its walk caches (PlanarDiagram._release),
    which no one but that extension has read, then published; a stage
    found in the memo is never released, since its holder may be reading
    it.
    """
    p, q, steps = seq.grid_p, seq.grid_q, tuple(seq.steps)
    for m in range(len(steps), -1, -1):
        pl = _built.get(MultiforkSequence(p, q, steps[:m]))
        if pl is not None:
            break
    found = pl
    if found is None:  # then m == 0: not even the grid is alive
        pl = grid(p, q)
    for i in range(m + 1, len(steps) + 1):
        st = steps[i - 1]
        try:
            child = multifork_extend(pl, (st.a, st.b), st.k)
        except (PreconditionError, DiagramError) as e:
            raise PreconditionError(f"step {i}: {e}") from e
        child.parent = pl
        if pl is not found:
            pl.diagram._release()
            _built[pl.seq] = pl
        pl = child
    if pl is not found:
        _built[pl.seq] = pl
    return pl


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def decompose(diagram_or_pl):
    """Recover a multifork sequence: build(decompose(L)) has L's own
    Jordan-Holder permutation, so it is L, drawn the same way.  The
    sequence is read off that permutation (_peeled) and checked by one
    build (_rebuilt).  Only a bare diagram, such as lattice JSON, needs
    this: a removal edits its input's sequence (reduce._removed_sequence)."""
    return _rebuilt(_diagram_of(diagram_or_pl)).seq


def reprovenance(diagram):
    """The built lattice of the given diagram's decomposition, on that
    diagram itself: the door by which a bare diagram reaches what reads a
    sequence, such as its lamp order, its removals and its drawing, in its
    own ids.  The build (_rebuilt) has the diagram's Jordan-Holder
    permutation, so it places its elements at the diagram's points
    (hl, hr) (Czedli and Schmidt, Algebra Universalis 66, 2011), and its
    tube records and drawing points are carried through them.  Its recipes
    stay in the build's ids, where its points were replayed.  `parent`
    stays None: only build sets it."""
    d = _diagram_of(diagram)
    pl = _rebuilt(d)
    at = {point: x for x, point in enumerate(zip(*d.heights()[:2]))}
    ids = [at[point] for point in zip(*pl.diagram.heights()[:2])]  # the build's u is d's ids[u]
    records = {(ids[f], ids[p]): TubeRecord(r.step, tuple((ids[b], ids[t]) for b, t in r.cells))
               for (f, p), r in pl.tube_records.items()}
    door = ProvenancedLattice(d, pl.seq, records, pl.recipes)
    den, xs, ys = pl.points
    back = sorted(range(d.n), key=ids.__getitem__)  # the build's element at x's point
    door.points = den, [xs[u] for u in back], [ys[u] for u in back]
    return door


def _rebuilt(d):
    """build(_peeled(pi)), pi the Jordan-Holder permutation of d, validated
    first, which the build must have: a stuck peel or a rejected step fails too."""
    report = is_slim_rectangular(d)
    if not report.ok:
        raise PreconditionError("not slim rectangular: " + "; ".join(report.failures))
    pi = _jh_permutation(d)
    seq = _peeled(pi)
    try:
        pl = None if seq is None else build(seq)
    except PreconditionError:
        pl = None
    if pl is None or _jh_permutation(pl.diagram) != pi:
        raise InternalInconsistencyError("no multifork decomposition found")
    return pl


def _peeled(pi):
    """The sequence that diagram._unforked reads off the Jordan-Holder
    permutation pi, newest fork first, or None if it gets stuck before a
    grid's pi is left.  Only the door, _rebuilt, runs it."""
    steps = []
    while pi != _grid_permutation(len(pi) - pi[0] + 1, pi[0] - 1):
        if (undone := _unforked(pi)) is None:
            return None
        pi, (a, b, k) = undone
        steps.append(ForkStep(a, b, k))
    return MultiforkSequence(len(pi) - pi[0] + 1, pi[0] - 1, tuple(reversed(steps)))


def _sequence_lamp_poset(seq, names):
    """The lamp poset of seq's lattice, read off its forks with no lattice
    built, its lamps named by `names`, distinct ints below their count:
    names[i] for the grid's i-th boundary lamp in left-chain order,
    i < p + q, then names[p + q + t - 1] for step t's.  `realize` reads
    each candidate with it, and lamps.lamp_poset a built lattice's own
    sequence (lamps._lamp_places names its lamps).

    Every trajectory passes through exactly one neon tube, and a fork
    keeps it there with its two ends (doubling's module docstring), so
    the lamp of the tube on each trajectory, listed by left-chain edge
    and by right-chain edge, from the bottom, only grows by insertion, as
    the trajectory labels do (diagram._forked_labels).  The grid's p + q
    trajectories cross its p + q boundary tubes, one each.  A k-fold fork
    at (a, b) splits the cell with bottom w, sides l and r and top t: its
    k new trajectories cross the k new tubes below t, which make one new
    lamp.  The cell is the new lamp's circumscribed rectangle, and a
    trajectory crosses a cell through opposite sides: the one through the
    upper right edge [r, t] crosses [w, l], which descends to left-chain
    edge a + 1, and the one through the upper left edge [l, t] crosses
    [w, r], which descends to right-chain edge b + 1
    (diagram._forked_permutation).  Their lamps, left[a] and right[b],
    are the new lamp's Nel and Nwl lamps.  A fork adds its lamp below
    these two and leaves the older lamps and their order as they were
    (Czedli, Acta Sci. Math. 87, 2021), so its up-set is itself and
    theirs, which no later fork changes.  The tests compare it with the
    Nwl/Nel order of trajectory walks (tests/oracles.py) on every lattice
    of length <= 7 and its mirror image, and <= 8 under `slow`.
    """
    p, q = seq.grid_p, seq.grid_q
    left = list(names[:p + q])
    right = left[p:] + left[:p]
    up = [1 << x for x in range(len(names))]
    for new, st in zip(names[p + q:], seq.steps):
        up[new] = 1 << new | up[left[st.a]] | up[right[st.b]]
        left, right = _forked_labels(left, right, (st.a, st.b), [new] * st.k)
    return Poset._from_up(up)
