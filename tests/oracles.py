"""Test oracles: independent, brute-force derivations that production code
does not use.

- Territories and their usage by geometry: each tube's territory walked
  at the stage that made it, each fork's cell resolved at the stage
  before it, and a cell inside another when its centroid lies in the
  other's quadrilateral, on the final drawing coordinates.  From these,
  the usage patterns (`usage_patterns`), the lamp order from territories,
  rho_foot (vertex membership) and rho_circr (cell descent), and the
  lamp covers read off the Nwl/Nel rule directly.  Production records
  each tube's essential cells as (bottom, top) pairs and tests interval
  containment on the final lattice's order (`slimlat.lamps.is_used`).
- The lamp order by Nwl/Nel (`nwl_nel_lamp_order`): each internal lamp
  below the lamps of the two trajectories through the upper edges of its
  circumscribed rectangle, each trajectory walked whole, and the peel
  that chose a lamp minimal in that order, each lamp's tube run found by
  walking its tubes west to the left chain (`peeled_by_lamp_order`).
  Production runs the fork-sequence rule over a built lattice's own
  sequence (`slimlat.lamps.lamp_poset`), and over the peel of a bare
  diagram, which undoes forks on the Jordan-Holder permutation alone,
  leftmost run first, and reads no lamp, walk or element id
  (`slimlat.diagram._unforked`, iterated by `slimlat.multifork._peeled`).
  The two peels give the same sequence on every built lattice of length
  <= 8; on a mirror image they may give two sequences with its pi.
- Meet tables filled from the bottom up, and join tables from the top
  down (`bound_table`, `tables`).  If y is not above x, every lower bound
  of x and y lies below some lower cover c of x, so x ^ y is the greatest
  of the c ^ y, and it exists iff one of them lies above all the others;
  join tables are the dual.  A pair with no bound raises OrderError.
  Production fills no table: a foreign lattice is certified by its
  down-set masks, one set lookup per incomparable pair
  (`slimlat.order.FiniteLattice._certify`), and its point queries read
  the masks.
- Congruences by closure: the union-find closure of seed pairs over the
  meet and join tables (`_closure`), joins of congruences, the
  compatibility laws and the join-irreducibility of listed congruences.
  Production closes no pairs over tables: it reads Con L and each
  principal congruence off the join-dependency order on J(L)
  (`slimlat.order.congruence_lattice`, `slimlat.order.principal_congruence`).
- The join-dependency relation D from whole rows of the join table.
  Production reads D off the arrow relations
  (`slimlat.order._dependencies`).
- Semimodularity and slimness by definition: a scan of all pairs for the
  covering law and of all triples of join-irreducibles for an antichain.
  Production tests Birkhoff's covering condition and 2-colours the
  incomparability graph of J(L) (`slimlat.order.FiniteLattice`).
- Induced sublattices, certified by their down-set masks as foreign input
  is.
- The removal by geometry (`removal_by_deletion`): the tube's fork
  deleted, the order restricted to the rest and certified by its corner
  coordinates (`delete_fork`), and every lamp followed through the old ->
  new id map, with its assertions (the reduced lamp keeps its peak and
  loses one tube, every other lamp keeps its foot and tube count, and a
  peak that the fork deleted, which only the neighboring rule allows, is
  re-peaked at a join).  Production edits the fork sequence, dropping
  the tube's trajectory label, and builds only the edited sequence
  (`slimlat.reduce._removed_sequence`).
- Up- and down-sets as frozensets, by a search along the covers from each
  element.  Production ORs bitmasks along a topological order
  (`slimlat.order.Poset`).
- A poset from closed up-set masks by its cover rows, the order derived
  again from them (`poset_from_up_by_rows`).  Production keeps the masks
  and reads the rows, down-sets and heights off them
  (`slimlat.order.Poset._from_up`).
- A poset's order and a built lattice's certificate by one pass per
  derivation and check (`order_by_passes`, `certified_by_passes`), as they
  were before production fused them into a forward and a backward pass
  over the order (`slimlat.order.Poset._derive`) and two loops over the
  elements (`slimlat.diagram.boundary_heights`,
  `slimlat.diagram._certified_diagram`).
- The trajectory listing: every cover as an edge, every trajectory walked
  with `trajectory_through`, and the east step of one edge across the
  cell side maps, dicts from each (foot, peak) pair to the cell on each
  side of it (`side_maps`, `cross`).  Production lists no trajectory; a
  fork step walks the ones it needs on the int-indexed slots of its walk
  table (`slimlat.diagram._walk_table`).
- The trajectory check by whole trajectories: every trajectory listed,
  then one neon tube each, the two boundary ends and count = length.
  Production checks them in one sweep along the walk table's east list
  (`slimlat.diagram._trajectory_failure`).
- A slim rectangular lattice rebuilt from its Jordan-Holder permutation
  alone, as the point set S(pi) (`lattice_of_permutation`).  Production
  reads pi off the validation sweep and dedupes on min(pi, pi^-1)
  (`slimlat.diagram._jh_min`); it never builds S(pi).
- Every fork child of an enumeration, duplicates included, built
  (`every_child`), as the enumeration built them before it predicted each
  child's key from its parent's permutation.  Production searches
  permutations and builds no child in the search
  (`slimlat.diagram._forked_permutation`, `slimlat.explore._visit`); a
  read of an entry's lattice replays only the children whose key was new.
- The distributive cells of a diagram by Birkhoff's count on the ideal of
  each cell's top (`distributive_cells`), and off the Jordan-Holder
  permutation by a scan of all (n + 1)^2 points of S(pi)
  (`distributive_addresses_by_scan`).  Production reads them off pi with
  no lattice built, one bit mask per row of S(pi)
  (`slimlat.diagram._distributive_addresses`).
- The doubled sequence by geometry (`doubled_sequence_by_crossings`):
  each later step's cell named by the tubes of the two trajectories
  through its upper sides, at the stage before it (`locate_retarget`),
  and found again in the doubled lattice as the cell where the descending
  part of one crosses the ascending part of the other (`_crossing_cell`);
  step t's multiplicity goes to the cell under the new lamp's leftmost
  tube foot.  Production reads the sequence off the fork rule, on
  trajectory labels (`slimlat.doubling._doubled_sequence`).
- Drawing coordinates by the eager `Fraction` fold that computes them
  with each step, from the step's own trajectories (`eager_coords`).
  Production records a recipe per new element and replays the recipes
  in ints over one common denominator on first read
  (`slimlat.multifork.ProvenancedLattice.points`).
- The slope check and the SVG and TikZ renders in `Fraction` arithmetic
  on `coords_of`, as they were before production drew the integer points
  and kept its checked drawing (`slimlat.render._checked_drawing`).
- Views that no production path reads: the cells off the rows
  (`four_cells`; production keeps each top in its walk table), cell
  addresses (`cell_address`, `resolve_address`), trajectories walked on
  the walk table (`trajectory_through`), `projections`, `fork_interval`,
  induced subposets (`restrict`), the partitions of Con L (`jir_congs`)
  and the points as `Fraction`s (`coords_of`).
- The lamp rule's order by closing the pairs that each fork adds
  (`sequence_lamp_poset_by_closure`).  Production carries each lamp's
  up-set mask along the forks (`slimlat.multifork._sequence_lamp_poset`).
- The posets that the tests write down: the one that strict pairs
  generate (`from_relation`), and the one on cover pairs, its size read
  off them if not given (`order_from_covers`).
- Predicates that only tests ask: the block count, refinement, identity
  and fullness of a congruence, and whether a built lattice is a fixpoint
  of the reduction rules (`slimlat.reduce.minimize` runs the rules
  themselves).
"""

from fractions import Fraction
from itertools import combinations, permutations
from typing import NamedTuple

from slimlat.diagram import (
    _certified_diagram,
    _crossed,
    _forked_labels,
    _half_walk,
    _jh_permutation,
    _trajectory_slots,
    is_slim_rectangular,
)
from slimlat.errors import DiagramError, InternalInconsistencyError, OrderError
from slimlat.lamps import (
    lamp_creation_step,
    lamp_poset,
    lamps_of_diagram,
    tube_lamp,
    usage_stats,
)
from slimlat.multifork import ForkStep, MultiforkSequence, build, grid, multifork_extend
from slimlat.order import (
    Congruence,
    FiniteLattice,
    Poset,
    _above,
    _collapsed,
    _elements,
    is_distributive_ideal_grid,
)


class FourCell(NamedTuple):
    """A cell as its (bottom, left, right, top) quadruple."""
    bottom: int
    left: int
    right: int
    top: int


class Trajectory(NamedTuple):
    """Edges, (foot, peak) pairs, from the left boundary to the right one,
    the index of its neon tube, and the cells it crosses: cells[i] lies
    between edges[i] and edges[i + 1]."""
    edges: tuple
    top_index: int
    cells: tuple

    @property
    def tube(self):
        return self.edges[self.top_index]


def four_cells(d):
    """The cells of d read off its rows, in row order: each two
    neighbouring upper covers l, r of an element, with their one common
    upper cover as the top.  DiagramError if they have none."""
    out = []
    for u, row in enumerate(d.upper):
        for l, r in zip(row, row[1:]):
            tops = set(d.upper[l]) & set(d.upper[r])
            if len(tops) != 1:
                raise DiagramError(f"region over {u} between covers {l},{r} is not a 4-cell")
            out.append(FourCell(u, l, r, *tops))
    return tuple(out)


def cell_address(d, cell):
    """(left height, right height) of the cell's bottom."""
    hl, hr, _, _ = d.heights()
    return hl[cell.bottom], hr[cell.bottom]


def resolve_address(d, address):
    """The one cell whose bottom sits at the given boundary heights."""
    [cell] = [c for c in four_cells(d) if cell_address(d, c) == tuple(address)]
    return cell


def trajectory_through(d, edge):
    """The trajectory through `edge`, a (foot, peak) pair, walked on d's
    walk table as a fork step walks it; its tube is the first edge whose
    foot has one upper cover (trajectory_failure_by_walks counts them)."""
    foot, peak = edge
    table = d._walks()
    slots = _trajectory_slots(d, table.base[foot] + d.upper[foot].index(peak))
    edges = tuple(table.edges(slots))
    cells = tuple(FourCell(*table.edge(c), table.peaks[c + 1], table.tops[c])
                  for c in _crossed(table, slots))
    return Trajectory(edges, next((i for i, (f, _) in enumerate(edges)
                                   if len(d.upper[f]) == 1), None), cells)


def projections(d, x):
    """(the meet of x with the left corner, with the right one), read off
    the boundary heights."""
    hl, hr, lchain, rchain = d.heights()
    return lchain[hl[x]], rchain[hr[x]]


def fork_interval(d, foot):
    """[l_proj(foot), foot] union [r_proj(foot), foot]: the elements that
    deleting the fork of a tube with this foot deletes."""
    lat = d.lattice
    lp, rp = projections(d, foot)
    return lat.interval(lp, foot) | lat.interval(rp, foot)


def restrict(poset, keep):
    """(the subposet induced on `keep`, old ids by new id): a kept a is
    covered by the minimal kept elements strictly above it."""
    keep = sorted(set(keep))
    idx = {old: new for new, old in enumerate(keep)}
    kept, up, covers = sum(1 << u for u in keep), poset.up, []
    for a in keep:
        above = up[a] & kept & ~(1 << a)
        covers += [(idx[a], idx[b]) for b in _elements(above & ~_above(up, _elements(above)))]
    return Poset(len(keep), covers), keep


def jir_congs(cl):
    """Each join-irreducible congruence of the CongruenceLattice cl, in its
    order, as the partition of its lattice."""
    return tuple(Congruence.from_parent([m & ~c for m in cl.below]) for c in cl.collapsed)


def coords_of(pl):
    """element -> (x, y): the integer points of a built lattice as Fractions."""
    den, xs, ys = pl.points
    return {u: (Fraction(x, den), Fraction(y, den)) for u, (x, y) in enumerate(zip(xs, ys))}


def nwl_nel(d, lamp):
    """Lamps owning the trajectories through the upper-left and upper-right
    edges of the circumscribed rectangle of an internal lamp, each walked
    whole."""
    lowers = d.lower[lamp.peak]
    return tuple(tube_lamp(d, trajectory_through(d, (x, lamp.peak)).tube)[0]
                 for x in (lowers[0], lowers[-1]))


def nwl_nel_lamp_order(d):
    """The strict order pairs on lamp feet generated by U < Nwl U and
    U < Nel U over internal lamps U, closed (the order that lamp_poset
    derived before it read the fork rule off a sequence)."""
    lamps = lamps_of_diagram(d)
    idx = {l.foot: i for i, l in enumerate(lamps)}
    poset = from_relation(len(lamps), {
        (idx[u.foot], idx[v.foot])
        for u in lamps
        if u.kind == "internal"
        for v in nwl_nel(d, u)
        if v.foot != u.foot
    })
    return frozenset((lamps[i].foot, lamps[j].foot)
                     for i in range(poset.n) for j in _elements(poset.up[i] ^ (1 << i)))


def peeled_by_lamp_order(d):
    """The peel on lamps, as it chose its candidates before it read nothing
    but pi: an internal lamp minimal among those left in d's Nwl/Nel order
    (nwl_nel_lamp_order) whose run sits as a fork's does, the least foot
    first; the sequence, or None if stuck."""
    pi = list(_jh_permutation(d))
    position = {v: i for i, v in enumerate(d.boundary_chains()[0])}
    table, west = d._walks(), d._steps()[0]

    def start(tube):
        x = table.base[tube.foot]
        return position[table.peaks[_half_walk(west, x, {x})[-1]]]

    lt = nwl_nel_lamp_order(d)
    runs = {l.foot: sorted(map(start, l.tubes))
            for l in lamps_of_diagram(d) if l.kind == "internal"}
    steps = []
    while runs:
        for foot in sorted(runs):
            pos = runs[foot]
            s, k = pos[0], len(pos)
            hi = pi[s - 1]
            if (all((u, foot) not in lt for u in runs)
                    and pos == list(range(s, s + k))
                    and pi[s - 1:s - 1 + k] == list(range(hi, hi - k, -1))
                    and all(v > hi for v in pi[:s - 1])):
                break
        else:
            return None
        steps.append(ForkStep(s - 2, hi - k - 1, k))
        del runs[foot]
        pi = [v - k if v > hi else v for v in pi[:s - 1] + pi[s - 1 + k:]]
        runs = {f: [x - k if x > s else x for x in p] for f, p in runs.items()}
    q = pi[0] - 1
    if pi != [*range(q + 1, len(pi) + 1), *range(1, q + 1)]:
        return None
    return MultiforkSequence(len(pi) - q, q, tuple(reversed(steps)))


def covers_via_nwl_nel(d):
    """Cover pairs of the lamp poset from the Nwl/Nel rule directly:
    U is covered exactly by the minimal elements of {Nwl U, Nel U}."""
    lamps, lt, _ = lamp_poset(d)
    covers = set()
    for u in lamps:
        if u.kind != "internal":
            continue
        cand = {l.foot for l in nwl_nel(d, u)}
        covers.update((u.foot, f) for f in cand if not any((g, f) in lt for g in cand))
    return frozenset(covers)


def point_in_quad(quad, p):
    """True iff p lies in the convex quadrilateral (boundary included)."""
    sign = 0
    for i in range(4):
        ax, ay = quad[i]
        bx, by = quad[(i + 1) % 4]
        cr = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
        if cr == 0:
            continue
        s = 1 if cr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def quad(coords, cell):
    """The corners of a cell, (bottom, left, right, top), around its
    quadrilateral."""
    bottom, left, right, top = cell
    return [coords[v] for v in (bottom, left, top, right)]


def centroid(coords, cell):
    return tuple(sum(coords[v][i] for v in cell) / 4 for i in (0, 1))


def stages(pl):
    """The built lattices of pl's sequence and its prefixes, the grid first,
    from the parent chain of build(pl.seq)."""
    out = [build(pl.seq)]
    while out[-1].parent is not None:
        out.append(out[-1].parent)
    return out[::-1]


def _lamp_id(pl, lamp):
    """Build-independent lamp identity: ("s", creation step) for an internal
    lamp, ("b", foot) for a boundary one.  A fork appends new ids and
    subdivides only the edges on its two paths, which descend to the lower
    boundary chains, so the upper-boundary tubes keep their ids at every
    stage and in the doubled lattice."""
    if lamp.kind == "internal":
        return ("s", lamp_creation_step(pl, lamp))
    return ("b", lamp.foot)


def locate_retarget(stage_pl, address):
    """(u, alpha, v, beta): the trajectory through the upper-left edge of the
    cell at `address` descends from tube alpha of the lamp with id u, the
    one through its upper-right edge ascends to tube beta of lamp v."""
    d = stage_pl.diagram
    cell = resolve_address(d, address)
    lamp_u, alpha = tube_lamp(d, trajectory_through(d, (cell.left, cell.top)).tube)
    lamp_v, beta = tube_lamp(d, trajectory_through(d, (cell.right, cell.top)).tube)
    return _lamp_id(stage_pl, lamp_u), alpha, _lamp_id(stage_pl, lamp_v), beta


def _crossing_cell(pl, record, t):
    """The one cell where the descending part of the trajectory through
    tube alpha of lamp u crosses the ascending part through tube beta of
    v, in a lattice whose step t was doubled, which moves the steps from
    t on one later."""
    u, alpha, v, beta = record
    by_id = {_lamp_id(pl, l): l for l in lamps_of_diagram(pl.diagram)}

    def moved(lamp_id):
        kind, key = lamp_id
        return (kind, key + (key >= t)) if kind == "s" else lamp_id

    traj_p = trajectory_through(pl.diagram, by_id[moved(u)].tubes[alpha])
    traj_q = trajectory_through(pl.diagram, by_id[moved(v)].tubes[beta])
    common = set(traj_p.cells[traj_p.top_index:]) & set(traj_q.cells[: traj_q.top_index])
    assert len(common) == 1, common
    return common.pop()


def doubled_sequence_by_crossings(seq, t):
    """The sequence that doubles step t's lamp, found on built lattices: a
    2-fold fork at step t's cell, step t's multiplicity at the cell whose
    top is the foot of the new lamp's leftmost tube, and each later step
    at the crossing of the trajectories that flanked its cell at the stage
    before it in build(seq)."""
    chain = stages(build(seq))
    records = {s: locate_retarget(chain[s - 1], (st.a, st.b))
               for s, st in enumerate(seq.steps[t:], start=t + 1)}
    step = seq.steps[t - 1]
    pl = multifork_extend(chain[t - 1], (step.a, step.b), 2)
    new_lamp = next(l for l in lamps_of_diagram(pl.diagram) if lamp_creation_step(pl, l) == t)
    [anchor] = [c for c in four_cells(pl.diagram) if c.top == new_lamp.tubes[0].foot]
    pl = multifork_extend(pl, cell_address(pl.diagram, anchor), step.k)
    for s in range(t + 1, len(seq.steps) + 1):
        cell = _crossing_cell(pl, records[s], t)
        pl = multifork_extend(pl, cell_address(pl.diagram, cell), seq.steps[s - 1].k)
    return pl.seq


def _territories(chain, lamps):
    """{tube: (stage that made it, essential parts)}: the tube's trajectory
    walked at the first stage that holds both its ends; a boundary tube's
    part is the whole trajectory, an internal tube's two parts the cells
    west and east of the two that flank it."""
    out = {}
    for lamp in lamps:
        for tube in lamp.tubes:
            s = next(s for s, st in enumerate(chain) if max(tube) < st.n)
            traj = trajectory_through(chain[s].diagram, tube)
            ti = traj.top_index
            out[tube] = (s, (traj.cells,) if lamp.kind == "boundary"
                         else (traj.cells[:ti - 1], traj.cells[ti + 1:]))
    return out


def _origins(chain, lamps):
    """{internal lamp foot: (its step s, the cell that step s forked, as
    resolve_address names it at stage s - 1)}; step s is the first stage
    that holds the lamp's tube feet."""
    steps = chain[-1].seq.steps
    out = {}
    for lamp in lamps:
        if lamp.kind == "internal":
            s = next(s for s, st in enumerate(chain) if lamp.tubes[0].foot < st.n)
            st = steps[s - 1]
            out[lamp.foot] = (s, resolve_address(chain[s - 1].diagram, (st.a, st.b)))
    return out


def _geometry(pl):
    """(lamps, final coordinates, territories, origins) of a built lattice."""
    chain = stages(pl)
    lamps = lamps_of_diagram(pl.diagram)
    return lamps, coords_of(chain[-1]), _territories(chain, lamps), _origins(chain, lamps)


def _uses(coords, origin, territory):
    """True iff the fork of origin (step, cell) split a cell inside the
    territory: a later fork, whose cell's centroid lies in one of the
    territory's cells."""
    s, cell = origin
    made, parts = territory
    c = centroid(coords, cell)
    return made < s and any(point_in_quad(quad(coords, t), c) for part in parts for t in part)


def usage_patterns(pl):
    """usage_stats(pl).patterns by geometry: a tube is used when another
    internal lamp's fork split a cell inside its essential territory."""
    lamps, coords, terr, origins = _geometry(pl)
    return {
        l.foot: "".join(
            "u" if any(_uses(coords, origins[f], terr[tube]) for f in origins if f != l.foot)
            else "0"
            for tube in l.tubes
        )
        for l in lamps if l.kind == "internal"
    }


def _interior_vertices(d, coords, cells):
    """Vertices strictly inside the region tiled by the final cells of d
    whose centroids lie in the given cells.

    A vertex on the region's boundary polygon is excluded: region borders
    are whole edges, so the boundary vertices are exactly the endpoints of
    sides whose across-the-edge neighbor cell lies outside the region.
    """
    quads = [quad(coords, c) for c in cells]
    leaves = [c for c in four_cells(d)
              if any(point_in_quad(q, centroid(coords, c)) for q in quads)]
    in_region = set(leaves)
    west, east = side_maps(d)
    verts = set()
    boundary_pts = set()
    for c in leaves:
        verts.update(c)
        for edge in (
            (c.bottom, c.left),
            (c.bottom, c.right),
            (c.left, c.top),
            (c.right, c.top),
        ):
            # the cell on the other side of this edge, west or east of it
            others = {o for o in (west.get(edge), east.get(edge)) if o is not None} - {c}
            if not others & in_region:
                boundary_pts.update(edge)
    return frozenset(verts - boundary_pts)


def rho_circr(pl):
    """(I, J) pairs: internal I whose fork split a cell inside the
    essential territory of some tube of J (cell descent by centroids)."""
    lamps, coords, terr, origins = _geometry(pl)
    return frozenset(
        (i_foot, j_lamp.foot)
        for i_foot, origin in origins.items()
        for j_lamp in lamps
        if j_lamp.foot != i_foot
        and any(_uses(coords, origin, terr[tube]) for tube in j_lamp.tubes)
    )


def rho_foot(pl):
    """(I, J) pairs by direct vertex membership: Foot I lies strictly inside
    one essential part of the territory of some tube of J."""
    lamps, coords, terr, _ = _geometry(pl)
    d = pl.diagram
    pairs = set()
    for j_lamp in lamps:
        verts = set()
        for tube in j_lamp.tubes:
            for part in terr[tube][1]:
                verts |= _interior_vertices(d, coords, part)
        for i_lamp in lamps:
            if i_lamp.kind != "internal" or i_lamp.foot == j_lamp.foot:
                continue
            if i_lamp.foot in verts:
                pairs.add((i_lamp.foot, j_lamp.foot))
    return frozenset(pairs)


def refines(c, other):
    """True iff every block of the congruence c is inside a block of other."""
    seen = {}
    for x in range(c.n):
        mine = c.block_index[x]
        if mine in seen:
            if seen[mine] != other.block_index[x]:
                return False
        else:
            seen[mine] = other.block_index[x]
    return True


def from_relation(n, pairs):
    """The poset on 0..n-1 generated by strict pairs a < b: the up-sets of
    the pairs taken as covers (Poset._derive; a cycle raises OrderError)
    are the transitive closure, which Poset._from_up reduces to covers."""
    poset = Poset.__new__(Poset)
    poset._set_covers(n, pairs)
    return Poset._from_up(poset.up)


def block_count(c):
    return len(set(c.block_index))


def is_identity(c):
    return block_count(c) == c.n


def is_full(c):
    return block_count(c) == 1


def is_reduction_fixpoint(pl):
    """No internal lamp's usage pattern has a 00 or 0u0 that minimize removes."""
    stats = usage_stats(pl)
    return not any(
        "00" in pat or "0u0" in pat for pat in stats.patterns.values()
    )


def order_from_covers(covers, n=None):
    """The poset on 0..n-1 with the given cover pairs; n defaults to one
    more than the largest element named."""
    covers = list(covers)
    if n is None:
        n = 1 + max((max(a, b) for a, b in covers), default=-1)
    return Poset(n, covers)


def bound_table(poset, cones, opposite, covers, order):
    """Meet table (cones = down-sets) or join table (cones = up-sets).

    Rows are filled in `order`, where each of x's covers in `cones[x]`
    comes before x.  Entry y of row x is x for y in x's opposite cone,
    else the candidate c * y (c one of those covers) whose cone holds
    all the candidates, as b in cone a iff table[a][b] == b; with none,
    the pair has no bound, and OrderError.  O(n * covers) lookups.
    """
    n = poset.n
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
            kind = "glb" if cones is poset.down else "lub"
            raise OrderError(f"no {kind} for pair ({x},{row.index(None)})")
        table[x] = tuple(row)
    return tuple(table)


def tables(lat):
    """(meet, join) tables by the recurrence (bound_table), which the tests
    check against the cubic reference tables."""
    p = lat.poset
    return (bound_table(p, p.down, p.up, p.lower_covers, p._order),
            bound_table(p, p.up, p.down, p.upper_covers, p._order[::-1]))


def _closure(meet, join, seed_pairs):
    """The smallest congruence holding the seed pairs, from the meet and join tables."""
    n = len(meet)
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


def congruence_join(lat, congs):
    pairs = []
    for c in congs:
        rep = {}
        for x in range(c.n):
            bid = c.block_index[x]
            if bid in rep:
                pairs.append((rep[bid], x))
            else:
                rep[bid] = x
    if not pairs:
        return Congruence.from_parent(list(range(lat.n)))
    return _closure(*tables(lat), pairs)


def sublattice(lat, elems):
    """(the lattice induced on elems, old ids by new id), certified by its
    down-set masks, as foreign input is; OrderError if it is no lattice."""
    sub, old_ids = restrict(lat.poset, elems)
    return FiniteLattice(sub), old_ids


def delete_fork(d, tube):
    """(sub-diagram, old id -> new id) left when the fork of the given
    internal neon tube is deleted from d: the order restricted to the
    rest (`lamps.fork_interval`), certified at the same corners and
    validated.  Raises DiagramError or OrderError naming the failure."""
    lat = d.lattice
    sub, old_ids = restrict(lat.poset, set(range(lat.n)) - fork_interval(d, tube.foot))
    idx = {old: new for new, old in enumerate(old_ids)}
    # the fork lies below an internal foot, which lies above neither corner
    # (what does is on an upper boundary), so both corners are kept
    lc, rc = (idx[c] for c in d.corners())
    subd = _certified_diagram(sub, lc, rc)
    report = is_slim_rectangular(subd)
    if not report.ok:
        raise DiagramError(f"validation failed: {report.failures}")
    return subd, idx


def removal_by_deletion(pl, lamp, tube, rule):
    """The reference removal of `tube` from the internal `lamp` of a built
    lattice by the named rule: (the diagram that delete_fork leaves, old
    lamp foot -> new lamp foot).  Each lamp is followed through the id
    map, and the map is asserted: the reduced lamp keeps its peak and
    loses one tube, every other lamp keeps its foot and tube count, and a
    lamp whose peak the fork deleted, which only the neighboring rule
    allows, is re-peaked at the join of its old peak with the projection
    of the flanking lower cover of the reduced lamp's peak."""
    d = pl.diagram
    lat = d.lattice
    subd, idx = delete_fork(d, tube)
    lowers = d.lower[lamp.peak]
    pos = lowers.index(tube.foot)
    lp, rp = projections(d, tube.foot)
    left_chain, right_chain = lat.interval(lp, tube.foot), lat.interval(rp, tube.foot)

    def repeaked(old_peak):
        if old_peak in left_chain:
            return lat.join_of((old_peak, projections(d, lowers[pos - 1])[0]))
        assert old_peak in right_chain, "deleted peak is off both fork chains"
        return lat.join_of((old_peak, projections(d, lowers[pos + 1])[1]))

    new_lamps = {l.foot: l for l in lamps_of_diagram(subd)}
    new_by_peak = {l.peak: l for l in new_lamps.values()}
    followed = {}
    for l in lamps_of_diagram(d):
        if l.foot == lamp.foot:
            img = new_by_peak.get(idx[l.peak])
            assert img is not None and len(img.tubes) == len(l.tubes) - 1, (
                "reduced lamp lost more than one tube")
        else:
            img = new_lamps.get(idx.get(l.foot))
            assert img is not None and len(img.tubes) == len(l.tubes), (
                f"lamp with foot {l.foot} did not keep its foot and tube count")
            if l.peak not in idx:
                assert rule == "neighboring", (
                    "a foreign lamp peak was deleted outside the neighboring rule")
            peak = idx[l.peak] if l.peak in idx else idx[repeaked(l.peak)]
            assert img.peak == peak, f"lamp with foot {l.foot} was re-peaked against the join rule"
        followed[l.foot] = img.foot
    return subd, followed


def is_congruence(lat, cong):
    """Check the compatibility laws directly (used as a test oracle)."""
    n = lat.n
    meet, join = tables(lat)
    for x in range(n):
        for y in range(n):
            if not cong.same(x, y):
                continue
            for z in range(n):
                if not cong.same(meet[x][z], meet[y][z]):
                    return False
                if not cong.same(join[x][z], join[y][z]):
                    return False
    return True


def verify_jir_congruences(lat, cl):
    """Each congruence that cl, Con of lat, lists must not be the join of
    strictly smaller ones."""
    congs = jir_congs(cl)
    for c in congs:
        below = [d for d in congs if d != c and refines(d, c)]
        if congruence_join(lat, below).block_index == c.block_index:
            return False
    return True


class ConListing(NamedTuple):
    """Con L as the oracles list it: each join-irreducible congruence's
    collapsed mask and partition, the refinement order on them and |Con L|."""
    collapsed: tuple
    jir_congs: tuple
    jir_poset: Poset
    con_size: int


def con_listing(congs, lower):
    """The ConListing of the distinct join-irreducible partitions congs
    (lower maps j to j_, in jir order): each with the mask of the j with
    j_ theta j, ordered by refinement and sorted by the number of those j,
    ties by the first j whose own congruence con(j_, j), the least one
    that collapses j_ < j, is theta."""
    congs = list(dict.fromkeys(congs))
    m = len(congs)
    finer = {(i, k) for i in range(m) for k in range(m) if i != k and refines(congs[i], congs[k])}
    holding = {j: [i for i, c in enumerate(congs) if c.same(j_, j)] for j, j_ in lower.items()}
    own = {j: next(i for i in held if all(i == k or (i, k) in finer for k in held))
           for j, held in holding.items()}
    first = {}
    for x, i in enumerate(own.values()):
        first.setdefault(i, x)
    order = sorted(range(m), key=lambda i: (sum(i in held for held in holding.values()), first[i]))
    congs = [congs[i] for i in order]
    poset = from_relation(m, [(a, b) for a in range(m) for b in range(m)
                              if (order[a], order[b]) in finer])
    collapsed = tuple(sum(1 << j for j, j_ in lower.items() if c.same(j_, j)) for c in congs)
    return ConListing(collapsed, tuple(congs), poset, poset.count_downsets())


def congruence_lattice_by_partitions(lat):
    """Con L by the eager partition sort: D's collapsed masks (as
    production reads them), each turned into its partition, which the
    sort and the refinement order compare, as production did before it
    compared masks and derived the partitions on first read."""
    jmask = sum(1 << j for j in lat.jir())
    below = [m & jmask for m in lat.poset.down]
    congs = [Congruence.from_parent([b & ~_collapsed(lat._dep, 1 << k) for b in below])
             for k in lat.jir()]
    return con_listing(congs, {j: lat.lower_covers(j)[0] for j in lat.jir()})


def verify_lamp_con_iso_by_partitions(pl):
    """verify_lamp_con_iso's (ok, witness) from the eager partitions: each
    tube's first listed congruence that puts its foot and peak in one
    block, and the order compared one lamp pair at a time."""
    lamps, lt, _ = lamp_poset(pl)
    cl = congruence_lattice_by_partitions(pl.lattice)
    if len(lamps) != len(cl.jir_congs):
        return False, None
    witness = {}
    for l in lamps:
        found = {next((i for i, c in enumerate(cl.jir_congs) if c.same(e.foot, e.peak)), None)
                 for e in l.tubes}
        if len(found) != 1 or None in found:
            return False, None
        witness[l.foot] = found.pop()
    if len(set(witness.values())) != len(lamps):
        return False, None
    for a in lamps:
        for b in lamps:
            if a.foot != b.foot and ((a.foot, b.foot) in lt) != cl.jir_poset.leq(
                    witness[a.foot], witness[b.foot]):
                return False, None
    return True, witness


def poset_iso_by_permutations(p, q):
    """An order isomorphism p -> q as a dict, or None, by trying all n!
    maps: an injective map that sends each strict pair of p to one of q,
    which has as many, is an isomorphism."""
    if p.n != q.n:
        return None
    mine = [(a, b) for a in range(p.n) for b in _elements(p.up[a]) if a != b]
    theirs = {(a, b) for a in range(q.n) for b in _elements(q.up[a]) if a != b}
    if len(mine) != len(theirs):
        return None
    for image in permutations(range(q.n)):
        if all((image[a], image[b]) in theirs for a, b in mine):
            return dict(enumerate(image))
    return None


def is_semimodular_by_pairs(lat):
    """Upper semimodularity over all pairs: if x ^ y is covered by x, then
    y is covered by x v y."""
    meet, join = tables(lat)
    for x in range(lat.n):
        for y in range(lat.n):
            if lat.covers(meet[x][y], x) and not lat.covers(y, join[x][y]):
                return False
    return True


def join_row_dependencies(lat):
    """{k: mask of the join-irreducibles j with j D k}, k over J(L), from
    whole join rows: j D k when j != k, j <= k v x and not j <= k_ v x for
    some x, k_ the lower cover of k."""
    join = tables(lat)[1]
    jmask = sum(1 << j for j in lat.jir())
    below = [m & jmask for m in lat.poset.down]
    dep = {}
    for k in lat.jir():
        m = 0
        for a, b in zip(join[k], join[lat.lower_covers(k)[0]]):
            m |= below[a] & ~below[b]
        dep[k] = m & ~(1 << k)
    return dep


def lattice_of_permutation(pi):
    """(points, lattice) of the permutation pi = (pi(1), ..., pi(n)): the
    points S(pi) = {(i, j) in {0..n}^2 : (i = n or pi(i+1) > j) and (j = n
    or pi^-1(j+1) > i)} in sorted order, and the lattice of S(pi) under the
    componentwise order, element k at points[k].  A slim rectangular
    lattice of length n with left and right boundary chains c_0 < ... < c_n
    and d_0 < ... < d_n is isomorphic to S(pi) of its Jordan-Holder
    permutation by x -> (max{i : c_i <= x}, max{j : d_j <= x}) (Czedli and
    Schmidt, "The Jordan-Holder theorem with uniqueness for groups and
    semimodular lattices", Algebra Universalis 66 (2011), and "Composition
    series in groups and the structure of slim semimodular lattices", Acta
    Sci. Math. (Szeged) 79 (2013)).  Its down-set masks certify S(pi) as
    a lattice, as they do foreign input."""
    n = len(pi)
    inv = [0] * n
    for i, j in enumerate(pi, 1):
        inv[j - 1] = i
    points = tuple((i, j) for i in range(n + 1) for j in range(n + 1)
                   if (i == n or pi[i] > j) and (j == n or inv[j] > i))
    pairs = [(a, b) for a, p in enumerate(points) for b, q in enumerate(points)
             if a != b and p[0] <= q[0] and p[1] <= q[1]]
    return points, FiniteLattice(from_relation(len(points), pairs))


def is_slim_by_triples(lat):
    """No three pairwise incomparable join-irreducibles."""
    leq = lat.poset.leq
    for a, b, c in combinations(lat.jir(), 3):
        if (not leq(a, b) and not leq(b, a)
                and not leq(a, c) and not leq(c, a)
                and not leq(b, c) and not leq(c, b)):
            return False
    return True


def reachability(poset):
    """(up-sets, down-sets) of a poset as frozensets: the elements reached
    from each element by upward, respectively downward, cover steps."""

    def reach(step):
        sets = []
        for x in range(poset.n):
            seen, stack = {x}, [x]
            while stack:
                for v in step(stack.pop()):
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            sets.append(frozenset(seen))
        return tuple(sets)

    return reach(poset.upper_covers), reach(poset.lower_covers)


def mask_sets(masks):
    """Bitmasks over 0..len(masks)-1 as frozensets, one bit test per element."""
    return tuple(frozenset(y for y in range(len(masks)) if m >> y & 1) for m in masks)


def all_edges(d):
    """Every cover of d, a (foot, peak) pair, in ascending order."""
    return tuple(sorted(d.lattice.poset.covers))


def side_maps(d):
    """(west, east): (foot, peak) -> the cell on that side of the edge;
    DiagramError naming the first edge with two cells on one side."""
    west, east = {}, {}
    for c in four_cells(d):
        for side, e in (
            (east, (c.bottom, c.left)),
            (east, (c.left, c.top)),
            (west, (c.bottom, c.right)),
            (west, (c.right, c.top)),
        ):
            if e in side:
                name = "west" if side is west else "east"
                raise DiagramError(f"edge {e} has two {name} cells")
            side[e] = c
    return west, east


def cross(side, edge, east):
    """(next edge, shared cell) across the cell that the side map gives the
    (foot, peak) pair, or (None, None) at the boundary: the pair of the
    cell's opposite side at the same height.  Crossing a cell east, (b, l)
    goes to (r, t) and (l, t) to (b, r); crossing it west inverts this."""
    c = side.get(edge)
    if c is None:
        return None, None
    far = c.right if east else c.left
    return ((c.bottom, far) if edge[1] == c.top else (far, c.top)), c


def east_step(d, edge):
    """(next edge, shared cell) east of edge, or (None, None) at the right
    boundary."""
    return cross(side_maps(d)[1], edge, True)


def trajectories(d):
    """All trajectories of d, each listed from left boundary to right boundary."""
    out, done = [], set()
    for e in all_edges(d):
        if e not in done:
            t = trajectory_through(d, e)
            out.append(t)
            done.update(t.edges)
    return tuple(out)


def trajectory_failure_by_walks(d):
    """The first failure of d's trajectories, or None, from the list of
    whole trajectories: each must have one neon tube (its foot
    meet-irreducible), start on the left boundary and end on the right one,
    and their number and the number of neon tubes must be the length."""
    try:
        trajs = trajectories(d)
    except DiagramError as e:
        return str(e)
    lset, rset = map(set, d.boundary_chains())
    mir = set(d.lattice.mir())
    for t in trajs:
        tubes = sum(foot in mir for foot, _ in t.edges)
        if tubes != 1:
            return f"trajectory has {tubes} neon tubes, expected 1"
        if not set(t.edges[0]) <= lset:
            return "trajectory does not start on the left boundary"
        if not set(t.edges[-1]) <= rset:
            return "trajectory does not end on the right boundary"
    length = d.lattice.length()
    if len(trajs) != length:
        return f"{len(trajs)} trajectories but length {length}"
    if d.antube() != length:
        return "neon tube count differs from length"
    return None


def distributive_cells(d):
    """The sorted addresses of the diagram's cells whose top has an ideal
    that is a product of two chains."""
    return sorted(cell_address(d, c) for c in four_cells(d)
                  if is_distributive_ideal_grid(d.lattice, c.top))


def every_child(index):
    """(entry, address, k, child) for every fork within the budget of the
    enumeration index, duplicates included: each entry that has room left,
    forked k-fold, for k = 1 up to that room, at each of its distributive
    cells, in the enumeration's order."""
    for entry in index.entries():
        pl = entry.pl
        ks = range(1, index.max_len - pl.length() + 1)
        for address in distributive_cells(pl.diagram) if ks else ():
            for k in ks:
                yield entry, address, k, multifork_extend(pl, address, k)


def eager_coords(seq):
    """Drawing coordinates of build(seq), element -> (x, y), folded step by
    step: grid element (i, j) at (j - i, i + j); a k-fold fork puts k
    points evenly on each edge of the trajectory paths that descend from
    its cell's lower edges to the boundaries, and each new tube foot and
    leg crossing where the down-right line through one left-path point
    meets the down-left line through one right-path point.  The new ids
    follow multifork_extend: left-path points, right-path points, leg
    crossings, tube feet."""
    pl = grid(seq.grid_p, seq.grid_q)
    width = seq.grid_q + 1
    coords = {i * width + j: (Fraction(j - i), Fraction(i + j))
              for i in range(seq.grid_p + 1) for j in range(width)}

    def cross(left, right):
        (ax, ay), (bx, by) = left, right
        x = (ax - ay + bx + by) / 2
        return (x, x - ax + ay)

    for st in seq.steps:
        d, k, n0 = pl.diagram, st.k, pl.n
        cell = resolve_address(d, (st.a, st.b))
        lower_left, lower_right = (cell.bottom, cell.left), (cell.bottom, cell.right)
        left = trajectory_through(d, lower_left).edges
        right = trajectory_through(d, lower_right).edges
        paths = (left[left.index(lower_left)::-1], right[right.index(lower_right):])
        new = n0
        points = []                 # per path, per edge: its k points from the peak down
        for path in paths:
            points.append([])
            for foot, peak in path:
                (fx, fy), (px, py) = coords[foot], coords[peak]
                row = []
                for s in range(1, k + 1):
                    f = Fraction(s, k + 1)
                    coords[new] = (px + f * (fx - px), py + f * (fy - py))
                    row.append(new)
                    new += 1
                points[-1].append(row)
        xs, ys = points[0][0], points[1][0]     # the points on the cell's lower edges
        pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
        for i, j in pairs:
            coords[new] = cross(coords[xs[j - 1]], coords[ys[k - i]])
            new += 1
        for i in range(1, k + 1):
            coords[new] = cross(coords[xs[i - 1]], coords[ys[k - i]])
            new += 1
        pl = multifork_extend(pl, (st.a, st.b), k)
        assert new == pl.n
    return coords


def sequence_lamp_poset_by_closure(seq, names):
    """`slimlat.multifork._sequence_lamp_poset` as it was before it
    carried up-set masks: the pairs that each fork adds, its lamp below
    its Nel and Nwl lamps, closed and reduced by `from_relation`."""
    p, q = seq.grid_p, seq.grid_q
    left = list(names[:p + q])
    right = left[p:] + left[:p]
    pairs = set()
    for new, st in zip(names[p + q:], seq.steps):
        pairs.add((new, left[st.a]))
        pairs.add((new, right[st.b]))
        left, right = _forked_labels(left, right, (st.a, st.b), [new] * st.k)
    return from_relation(len(names), pairs)


def same_poset(p, q):
    """Whether two posets are equal with the same cover rows, in order."""
    return (p == q and all(p.upper_covers(u) == q.upper_covers(u)
                           and p.lower_covers(u) == q.lower_covers(u) for u in range(p.n)))


def _internal_mir(pl):
    return {e.foot for e in pl.diagram.neon_tubes()[1]}


def validate_slopes_by_fractions(pl):
    """The slope discipline on the exact `Fraction` coordinates, with the
    fault texts and order of `slimlat.render.validate_slopes`."""
    internal_mir = _internal_mir(pl)
    uv = {u: (y + x, y - x) for u, (x, y) in coords_of(pl).items()}
    for foot, peak in sorted(pl.lattice.poset.covers):
        (uf, vf), (up, vp) = uv[foot], uv[peak]
        if up < uf or vp < vf or (up == uf and vp == vf):
            fault = "does not ascend" if up + vp <= uf + vf else "has a slight slope"
            raise InternalInconsistencyError(f"edge ({foot},{peak}) {fault}")
        if (up > uf and vp > vf) != (foot in internal_mir):
            raise InternalInconsistencyError(
                f"edge ({foot},{peak}) breaks the precipitous-foot rule"
            )
    return True


def _decimal(x, places=6):
    return f"{float(x):.{places}f}".rstrip("0").rstrip(".") or "0"


def svg_by_fractions(pl, scale=40, margin=30):
    """`slimlat.render.render_svg`, each number folded as a `Fraction`."""
    validate_slopes_by_fractions(pl)
    coords = coords_of(pl)
    xs = [c[0] for c in coords.values()]
    ys = [c[1] for c in coords.values()]
    minx, maxy = min(xs), max(ys)
    pts = []
    for u in range(pl.n):
        x, y = coords[u]
        pts.append((float((x - minx) * scale) + margin, float((maxy - y) * scale) + margin))
    width = float((max(xs) - minx) * scale) + 2 * margin
    height = float((maxy - min(ys)) * scale) + 2 * margin
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_decimal(width)}" '
        f'height="{_decimal(height)}" viewBox="0 0 {_decimal(width)} {_decimal(height)}">'
    ]
    internal_mir = _internal_mir(pl)
    for a, b in sorted(pl.lattice.poset.covers):
        (x1, y1), (x2, y2) = pts[a], pts[b]
        w = 3 if a in internal_mir else 1
        out.append(
            f'<line x1="{_decimal(x1)}" y1="{_decimal(y1)}" x2="{_decimal(x2)}" '
            f'y2="{_decimal(y2)}" stroke="black" stroke-width="{w}"/>'
        )
    for u in range(pl.n):
        x, y = pts[u]
        out.append(f'<circle cx="{_decimal(x)}" cy="{_decimal(y)}" r="4" fill="black"/>')
        out.append(
            f'<text x="{_decimal(x + 6)}" y="{_decimal(y - 6)}" font-size="10">{u}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def tikz_by_fractions(pl):
    """`slimlat.render.render_tikz`, each coordinate a `Fraction` to float."""
    validate_slopes_by_fractions(pl)
    coords = coords_of(pl)
    out = ["\\begin{tikzpicture}[scale=0.8]"]
    for u in range(pl.n):
        x, y = coords[u]
        out.append(
            f"  \\node[circle,fill,inner sep=1.2pt,label=above right:{{\\tiny {u}}}] "
            f"(n{u}) at ({_decimal(x)},{_decimal(y)}) {{}};"
        )
    internal_mir = _internal_mir(pl)
    for a, b in sorted(pl.lattice.poset.covers):
        style = "very thick" if a in internal_mir else "thin"
        out.append(f"  \\draw[{style}] (n{a}) -- (n{b});")
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


def distributive_addresses_by_scan(pi):
    """The sorted distributive cell addresses of S(pi) by a scan of all
    (n + 1)^2 points: each point (x, y) with x = n or pi(x + 1) > y, and
    y = n or pi^-1(y + 1) > x, goes to the cell column min(y, q) at row
    min(x, p), and the cell at (a, b) is distributive iff these points hold
    [0, a + 1] x [0, b + 1] (the argument in
    `slimlat.diagram._distributive_addresses`, which builds each row as
    one bit mask instead)."""
    n = len(pi)
    inv = [0] * n
    for i, j in enumerate(pi, 1):
        inv[j - 1] = i
    p, q = inv[0] - 1, pi[0] - 1
    cols = [0] * (q + 1)  # cols[j]: the mask of the i with (i, j) in H
    for x in range(n + 1):
        for y in range(n + 1):
            if (x == n or pi[x] > y) and (y == n or inv[y] > x):
                cols[min(y, q)] |= 1 << min(x, p)
    tops, rect = [], cols[0]  # tops[b]: the largest i with [0, i] x [0, b + 1] in H
    for col in cols[1:]:
        rect &= col
        tops.append((rect + 1 & ~rect).bit_length() - 2)
    return [(a, b) for a in range(p) for b in range(q) if a < tops[b]]


def poset_from_up_by_rows(up):
    """The poset whose up-sets are the closed masks up, its cover rows
    ascending, as Poset._from_up built it before it kept the masks: each
    row the elements of a's strict up-set above no other of them
    (_above), and the order derived again from the rows (Poset._from_rows),
    which closes masks that are not closed.  Production keeps the masks,
    transposes them and reads each row off one sweep
    (`slimlat.order.Poset._from_up`)."""
    upper, lower = [], [[] for _ in up]
    for a, m in enumerate(up):
        above = m ^ (1 << a)
        row = tuple(_elements(above & ~_above(up, _elements(above))))
        upper.append(row)
        for b in row:
            lower[b].append(a)
    return Poset._from_rows(tuple(upper), tuple(map(tuple, lower)))


def order_by_passes(upper, lower):
    """(down, up, heights) of a poset's rows by one pass per derivation, as
    a poset from rows made them before its passes were fused: the transpose
    check, a topological order with the down-sets and each height raised
    over every lower cover, the up-sets against the order reversed, then
    the check that each upper row is reduced.  OrderError as they raised
    it.  Production derives all of these in a forward and a backward pass
    (`slimlat.order.Poset._derive`)."""
    n = len(upper)
    if len(lower) != n:
        raise OrderError(f"{n} upper rows but {len(lower)} lower rows")
    for a, row in enumerate(upper):
        for b in row:
            if not 0 <= b < n or a not in lower[b]:
                raise OrderError(f"cover ({a},{b}) is missing from the lower rows")
    if sum(map(len, upper)) != sum(map(len, lower)):
        raise OrderError("the lower rows list covers that the upper rows do not")
    indeg = list(map(len, lower))
    order = [u for u, d in enumerate(indeg) if not d]
    down, h = [0] * n, [0] * n
    for u in order:
        down[u] = 1 << u
        for v in lower[u]:
            down[u] |= down[v]
        for v in upper[u]:
            h[v] = max(h[v], h[u] + 1)
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    if len(order) != n:
        raise OrderError("cycle detected in cover relation")
    up = [0] * n
    for u in reversed(order):
        up[u] = 1 << u
        for v in upper[u]:
            up[u] |= up[v]
    for a, row in enumerate(upper):
        if len(set(row)) != len(row):
            raise OrderError(f"cover ({a},{next(b for i, b in enumerate(row) if b in row[:i])})"
                             " is listed twice")
        for b in row:
            between = [w for w in range(n) if w not in (a, b)
                       and up[a] >> w & 1 and down[b] >> w & 1]
            if between:
                raise OrderError(f"cover ({a},{b}) is not reduced: {a}<{min(between)}<{b}")
    return tuple(down), tuple(up), tuple(h)


def certified_by_passes(poset, lcorner, rcorner):
    """(upper, lower, heights) of the diagram that certifies a built lattice
    at the given corners, by one pass per check, as the certificate made
    them before its passes were fused: the lattice's bottom and top, the
    corner chains, both lists of heights, then the up-set test, the
    columns and their sweep for the coordinatewise minimum, the complement
    check, and each side's rows sorted by falling left height.  OrderError
    or DiagramError as they raised it.  Production computes the heights
    and the up-set test in one loop (`slimlat.diagram.boundary_heights`)
    and the columns and the falling rows in another
    (`slimlat.diagram._certified_diagram`)."""
    lat = FiniteLattice.__new__(FiniteLattice)
    lat.poset = poset
    ends = [tuple(u for u in range(poset.n) if not rows[u])
            for rows in (poset._dncov, poset._upcov)]
    if len(ends[0]) != 1 or len(ends[1]) != 1:
        raise OrderError(f"no unique bottom/top: minimals {ends[0]}, maximals {ends[1]}")
    down, up, lower = poset.down, poset.up, poset._dncov
    chains = []
    for c in (lcorner, rcorner):
        chain = [c]
        while len(lower[chain[-1]]) == 1:
            chain.append(lower[chain[-1]][0])
        if lower[chain[-1]] or len(chain) != down[c].bit_count():
            raise DiagramError("corner ideal is not a chain")
        chains.append(tuple(reversed(chain)))
    lchain, rchain = chains
    hl = tuple((m & down[lcorner]).bit_count() - 1 for m in down)
    hr = tuple((m & down[rcorner]).bit_count() - 1 for m in down)
    for x in range(poset.n):
        if up[lchain[hl[x]]] & up[rchain[hr[x]]] != up[x]:
            raise DiagramError(f"element {x} is not the join of its two projections")
    points = list(zip(hl, hr))
    for a in range(len(lchain) - 1, -1, -1):
        top = max(j for i, j in points if i == a)
        for b in range(top - 1, -1, -1):
            if (a, b) not in points and any(i > a and j == b for i, j in points):
                y = next(u for u, (i, j) in enumerate(points) if i > a and j == b)
                raise DiagramError(f"elements {points.index((a, top))} and {y} have no"
                                   f" element at their coordinatewise minimum ({a},{b})")
    (bottom,), (top,) = ends
    if down[lcorner] & down[rcorner] != down[bottom] or up[lcorner] & up[rcorner] != up[top]:
        raise DiagramError("corners are not complements")
    rows = []
    for side in (poset._upcov, poset._dncov):
        rows.append(tuple(row if all(hl[a] > hl[b] for a, b in zip(row, row[1:]))
                          else _falling_by_sort(u, row, hl) for u, row in enumerate(side)))
    return rows[0], rows[1], (hl, hr, lchain, rchain)


def _falling_by_sort(u, row, hl):
    """The covers of u in row by falling left height; DiagramError if two
    share one."""
    row = tuple(sorted(row, key=hl.__getitem__, reverse=True))
    for a, b in zip(row, row[1:]):
        if hl[a] == hl[b]:
            raise DiagramError(f"covers {a},{b} of {u} collide in the embedding")
    return row
