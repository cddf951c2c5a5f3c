"""Multifork construction of slim rectangular lattices.

A lattice is built from a grid by a sequence of k-fold multifork
extensions at distributive 4-cells.  Each extension keeps full
provenance: a cell-subdivision forest, per-neon-tube territory records,
and exact rational coordinates for rendering.  A built lattice can be
decomposed back into a sequence (round-trip stable up to isomorphism).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import (
    Edge,
    PlanarDiagram,
    boundary_heights,
    cell_address,
    embed_rectangular,
    is_slim_rectangular,
    resolve_address,
)
from .errors import (
    BudgetError,
    DiagramError,
    InternalInconsistencyError,
    OrderError,
    PreconditionError,
)
from .lamps import fork_interval, lamp_poset
from .order import MAX_ELEMENTS, FiniteLattice, Poset, is_distributive_ideal_grid


@dataclass(frozen=True)
class ForkStep:
    a: int
    b: int
    k: int


@dataclass(frozen=True)
class MultiforkSequence:
    grid_p: int
    grid_q: int
    steps: tuple

    def extended(self, step):
        return MultiforkSequence(self.grid_p, self.grid_q, self.steps + (step,))


@dataclass(frozen=True)
class ForestNode:
    cell: tuple        # (bottom, left, right, top) element ids at creation
    stage: int
    parent: int        # node id or None


@dataclass(frozen=True)
class TubeRecord:
    kind: str          # "boundary" | "internal"
    side: str          # boundary only: "L" | "R"
    step: int
    ot: tuple          # forest node ids, west to east
    leot: tuple
    reot: tuple


class ProvenancedLattice:
    """A slim rectangular lattice with construction provenance.

    Immutable after construction; extensions return new values.  Only the
    final lattice is kept: an earlier one is rebuilt from a prefix of `seq`.
    """

    def __init__(self, diagram, seq, forest, leaf_by_bottom, tube_records,
                 lamp_step_by_peak, step_origin, coords):
        self.diagram = diagram
        self.seq = seq
        self.forest = forest
        self.leaf_by_bottom = dict(leaf_by_bottom)
        self.tube_records = dict(tube_records)
        self.lamp_step_by_peak = dict(lamp_step_by_peak)
        self.step_origin = dict(step_origin)
        self.coords = dict(coords)
        self._code = None

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
        if self._code is None:
            self._code = self.diagram.canonical_code()
        return self._code

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

    covers = set()
    for i in range(p + 1):
        for j in range(q + 1):
            if i < p:
                covers.add((eid(i, j), eid(i + 1, j)))
            if j < q:
                covers.add((eid(i, j), eid(i, j + 1)))
    lat = FiniteLattice(Poset((p + 1) * (q + 1), covers))
    d = embed_rectangular(lat, lcorner=eid(p, 0))
    coords = {
        eid(i, j): (Fraction(j - i), Fraction(i + j))
        for i in range(p + 1)
        for j in range(q + 1)
    }
    forest = []
    leaf = {}
    for c in d.four_cells():
        leaf[c.bottom] = len(forest)
        forest.append(ForestNode((c.bottom, c.left, c.right, c.top), 0, None))
    pl = ProvenancedLattice(
        d, MultiforkSequence(p, q, ()), tuple(forest), leaf, {}, {}, {}, coords
    )
    records = {}
    boundary, _ = d.neon_tubes()
    lc, rc = d.corners()
    for e in boundary:
        traj = d.trajectory_through(e)
        nodes = tuple(leaf[c.bottom] for c in d.trajectory_cells(traj))
        side = "L" if lat.leq(lc, e.foot) else "R"
        leot = () if side == "L" else nodes
        reot = nodes if side == "L" else ()
        records[(e.foot, e.peak)] = TubeRecord("boundary", side, 0, nodes, leot, reot)
    pl.tube_records = records
    return pl


# ---------------------------------------------------------------------------
# Multifork extension
# ---------------------------------------------------------------------------

def _walk_left_path(d, w, a):
    """Edges of the descending trajectory path from [w, a] to the left
    boundary, with the cells traversed."""
    edges = [Edge(w, a)]
    cells = []
    maps = d._side_maps()
    while True:
        cur = edges[-1]
        c = maps["NE"].get((cur.foot, cur.peak))
        if c is None:
            break
        cells.append(c)
        edges.append(Edge(c.bottom, c.left))
    lchain, _ = d.boundary_chains()
    last = edges[-1]
    if not (last.foot in lchain and last.peak in lchain):
        raise InternalInconsistencyError("left path did not reach the left boundary")
    return edges, cells


def _walk_right_path(d, w, b):
    edges = [Edge(w, b)]
    cells = []
    maps = d._side_maps()
    while True:
        cur = edges[-1]
        c = maps["NW"].get((cur.foot, cur.peak))
        if c is None:
            break
        cells.append(c)
        edges.append(Edge(c.bottom, c.right))
    _, rchain = d.boundary_chains()
    last = edges[-1]
    if not (last.foot in rchain and last.peak in rchain):
        raise InternalInconsistencyError("right path did not reach the right boundary")
    return edges, cells


def multifork_extend(pl, address, k):
    """k-fold multifork extension at the addressed distributive 4-cell.

    Adds k pairwise incomparable lower covers of the cell's peak (the new
    internal neon tubes), subdivides every edge of the two descending
    boundary paths k-fold with cross covers per branch, and meshes the new
    legs inside the cell (legs of distinct branches cross in shared
    elements).  Self-verifying: the result must pass the full slim
    rectangular validation and grow length and tube count by exactly k.
    Each new cell subdivides the one destroyed cell whose interval
    [bottom, top] contains its own; old ids keep their meaning, because
    new elements are appended.
    """
    if k < 1:
        raise PreconditionError("multiplicity must be >= 1")
    d = pl.diagram
    lat = d.lattice
    cell = resolve_address(d, address)
    w, a, b, t = cell.bottom, cell.left, cell.right, cell.top
    if not is_distributive_ideal_grid(lat, t):
        raise PreconditionError(f"cell at {address} is not distributive")

    left_edges, left_cells = _walk_left_path(d, w, a)
    right_edges, right_cells = _walk_right_path(d, w, b)
    np_, nq = len(left_edges), len(right_edges)
    n0 = lat.n
    total = n0 + (np_ + nq) * k + k * (k - 1) // 2 + k
    if total > MAX_ELEMENTS:
        raise BudgetError(
            f"a {k}-fold fork at {address} gives {total} elements,"
            f" above the limit of {MAX_ELEMENTS}"
        )

    def xid(j, s):
        return n0 + j * k + (s - 1)

    def yid(j, s):
        return n0 + np_ * k + j * k + (s - 1)

    cpairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    cbase = n0 + (np_ + nq) * k
    cindex = {pair: cbase + i for i, pair in enumerate(cpairs)}
    mbase = cbase + len(cpairs)

    def cid(i, j):
        return cindex[(i, j)]

    def mid(i):
        return mbase + (i - 1)

    covers = set(lat.poset.covers)
    for edges, ids in ((left_edges, xid), (right_edges, yid)):
        for j, e in enumerate(edges):
            covers.remove((e.foot, e.peak))
            chain = [e.peak] + [ids(j, s) for s in range(1, k + 1)] + [e.foot]
            for upper, lower in zip(chain, chain[1:]):
                covers.add((lower, upper))
        for j in range(len(edges) - 1):
            for s in range(1, k + 1):
                covers.add((ids(j + 1, s), ids(j, s)))
    for i in range(1, k + 1):
        covers.add((mid(i), t))
    for j in range(1, k + 1):       # left leg of m_j
        leg = [mid(j)] + [cid(i, j) for i in range(j - 1, 0, -1)] + [xid(0, j)]
        for upper, lower in zip(leg, leg[1:]):
            covers.add((lower, upper))
    for i in range(1, k + 1):       # right leg of m_i
        leg = [mid(i)] + [cid(i, jj) for jj in range(i + 1, k + 1)] + [yid(0, k + 1 - i)]
        for upper, lower in zip(leg, leg[1:]):
            covers.add((lower, upper))

    try:
        lat2 = FiniteLattice(Poset(total, covers))
        lc, _ = d.corners()
        d2 = embed_rectangular(lat2, lcorner=lc)
    except (OrderError, DiagramError) as e:
        raise InternalInconsistencyError(f"extension produced an invalid lattice: {e}")
    report = is_slim_rectangular(d2)
    if not report.ok:
        raise InternalInconsistencyError(f"extension validation failed: {report.failures}")
    if lat2.length() != lat.length() + k or d2.antube() != d.antube() + k:
        raise InternalInconsistencyError("extension did not add k to length and tube count")

    # coordinates
    coords = dict(pl.coords)
    for edges, ids in ((left_edges, xid), (right_edges, yid)):
        for j, e in enumerate(edges):
            fx, fy = coords[e.foot]
            px, py = coords[e.peak]
            for s in range(1, k + 1):
                f = Fraction(s, k + 1)
                coords[ids(j, s)] = (px + f * (fx - px), py + f * (fy - py))

    def legs_cross(left_anchor, right_anchor):
        (ax, ay), (bx, by) = left_anchor, right_anchor
        px = (ax - ay + bx + by) / 2
        return (px, px - ax + ay)

    for i in range(1, k + 1):
        coords[mid(i)] = legs_cross(coords[xid(0, i)], coords[yid(0, k + 1 - i)])
    for i, j in cpairs:
        coords[cid(i, j)] = legs_cross(coords[xid(0, j)], coords[yid(0, k + 1 - i)])

    # forest update
    old_cells = {(c.bottom, c.left, c.right, c.top) for c in d.four_cells()}
    destroyed = [cell] + left_cells + right_cells
    destroyed_keys = {(c.bottom, c.left, c.right, c.top) for c in destroyed}
    destroyed_nodes = {
        key: pl.leaf_by_bottom[key[0]] for key in destroyed_keys
    }
    forest = list(pl.forest)
    stage = len(pl.seq.steps) + 1
    leaf = {}
    for c2 in d2.four_cells():
        key = (c2.bottom, c2.left, c2.right, c2.top)
        if key in old_cells and key not in destroyed_keys:
            leaf[c2.bottom] = pl.leaf_by_bottom[c2.bottom]
            continue
        parents = [
            node for dk, node in destroyed_nodes.items()
            if lat2.leq(dk[0], key[0]) and lat2.leq(key[3], dk[3])
        ]
        if len(parents) != 1:
            raise InternalInconsistencyError(
                f"new cell {key} has {len(parents)} candidate parents"
            )
        leaf[c2.bottom] = len(forest)
        forest.append(ForestNode(key, stage, parents[0]))

    # tube records for the k new tubes
    records = dict(pl.tube_records)
    for i in range(1, k + 1):
        tube = Edge(mid(i), t)
        traj = d2.trajectory_through(tube)
        nodes = tuple(leaf[c.bottom] for c in d2.trajectory_cells(traj))
        ti = traj.top_index
        if traj.edges[ti] != tube:
            raise InternalInconsistencyError("new tube is not its trajectory's top edge")
        records[(mid(i), t)] = TubeRecord(
            "internal", None, stage, nodes, nodes[: ti - 1], nodes[ti + 1:]
        )

    lamp_steps = dict(pl.lamp_step_by_peak)
    lamp_steps[t] = stage
    step_origin = dict(pl.step_origin)
    step_origin[stage] = destroyed_nodes[(w, a, b, t)]

    return ProvenancedLattice(
        d2,
        pl.seq.extended(ForkStep(address[0], address[1], k)),
        tuple(forest),
        leaf,
        records,
        lamp_steps,
        step_origin,
        coords,
    )


def build(seq):
    """Fold a sequence into a built lattice."""
    pl = grid(seq.grid_p, seq.grid_q)
    for i, st in enumerate(seq.steps, start=1):
        pl = extend_by_step(pl, i, st)
    return pl


def extend_by_step(pl, i, st):
    """Apply step i (1-based) of a sequence; a bad step is a PreconditionError."""
    try:
        return multifork_extend(pl, (st.a, st.b), st.k)
    except (PreconditionError, DiagramError) as e:
        raise PreconditionError(f"step {i}: {e}") from e


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def _grid_dims(d):
    lc, rc = d.corners()
    lat = d.lattice
    p = len(lat.ideal(lc)) - 1
    q = len(lat.ideal(rc)) - 1
    if (p + 1) * (q + 1) != lat.n:
        raise InternalInconsistencyError("tube-free lattice is not a grid")
    return p, q


def decompose(diagram_or_pl):
    """Recover a multifork sequence: build(decompose(L)) is isomorphic to L.

    Strategy: repeatedly pick a minimal internal lamp, delete all its fork
    branches, validate the remainder and check that re-forking the merged
    cell rebuilds the current lattice (canonical codes); backtrack across
    candidate lamps otherwise.
    """
    d = diagram_or_pl.diagram if hasattr(diagram_or_pl, "diagram") else diagram_or_pl
    report = is_slim_rectangular(d)
    if not report.ok:
        raise PreconditionError(f"not slim rectangular: {report.failures}")
    memo = {}
    seq = _decompose(d, memo)
    if seq is None:
        raise InternalInconsistencyError("no multifork decomposition found")
    return seq


def _decompose(d, memo):
    code = d.canonical_code()
    if code in memo:
        return memo[code]
    lat = d.lattice
    _, internal = d.neon_tubes()
    if not internal:
        p, q = _grid_dims(d)
        seq = MultiforkSequence(p, q, ())
        memo[code] = seq
        return seq

    # boundary lamps are maximal, so an internal lamp is minimal among the
    # internal lamps iff it is minimal in the lamp poset
    lamps, _, poset = lamp_poset(d)
    minimal = [lamps[i] for i in poset.minimal_elements() if lamps[i].kind == "internal"]
    rest = [l for l in lamps if l.kind == "internal" and l not in minimal]
    lc, _ = d.corners()

    for cand in sorted(minimal, key=lambda l: l.foot) + sorted(rest, key=lambda l: l.foot):
        removed = set()
        for tube in cand.tubes:
            removed |= fork_interval(d, tube.foot)
        keep = sorted(set(range(lat.n)) - removed)
        try:
            sublat, old_ids = lat.sublattice(keep)
            idx = {old: new for new, old in enumerate(old_ids)}
            subd = embed_rectangular(sublat, lcorner=idx[lc])
        except (OrderError, DiagramError, KeyError):
            continue
        if not is_slim_rectangular(subd).ok:
            continue
        peak2 = idx.get(cand.peak)
        if peak2 is None:
            continue
        lowers = sublat.lower_covers(peak2)
        if len(lowers) != 2:
            continue
        bottom = sublat.meet[lowers[0]][lowers[1]]
        subcell = subd.cells_by_bottom().get(bottom)
        if subcell is None or sublat.join[subcell.left][subcell.right] != peak2:
            continue
        addr = cell_address(subd, subcell)
        subseq = _decompose(subd, memo)
        if subseq is None:
            continue
        k = len(cand.tubes)
        for a2 in dict.fromkeys([addr, (addr[1], addr[0])]):
            try:
                built = build(subseq.extended(ForkStep(a2[0], a2[1], k)))
            except (PreconditionError, DiagramError, InternalInconsistencyError):
                continue
            if built.canonical_code() == code:
                seq = subseq.extended(ForkStep(a2[0], a2[1], k))
                memo[code] = seq
                return seq
    memo[code] = None
    return None


def reprovenance(diagram):
    """A fresh built lattice isomorphic to the given diagram."""
    return build(decompose(diagram))
