"""Test oracles: independent, brute-force derivations that production code
does not use.

- The lamp order from territories: rho_foot (vertex membership) and
  rho_circr (forest descent), and the lamp covers read off the Nwl/Nel
  rule directly.  Production derives the order from Nwl/Nel alone
  (`slimlat.lamps.lamp_poset`).
- Congruences by closure: joins of congruences, the compatibility laws and
  the join-irreducibility of listed congruences.  Production reads Con L
  off the join-dependency order on J(L) (`slimlat.order.congruence_lattice`).
  `_closure` and `principal_congruence` stay in `slimlat.order`, where the
  benchmark's span tracer wraps `principal_congruence` by name.
"""

from slimlat.lamps import (
    _essential_nodes,
    _node_is_desc_or_eq,
    circ_r,
    lamp_poset,
    lamps_of_diagram,
    nwl_nel,
)
from slimlat.order import Congruence, _closure


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


def _interior_vertices_under(pl, nodes):
    """Vertices strictly inside the region tiled by the current leaf cells
    descending from the given forest nodes.

    A vertex on the region's boundary polygon is excluded: region borders
    are whole edges, so the boundary vertices are exactly the endpoints of
    sides whose across-the-edge neighbor cell lies outside the region.
    """
    targets = frozenset(nodes)
    if not targets:
        return frozenset()
    d = pl.diagram
    cells = d.cells_by_bottom()
    leaves = [
        cells[bottom]
        for bottom, leaf in pl.leaf_by_bottom.items()
        if _node_is_desc_or_eq(pl, leaf, targets)
    ]
    in_region = {(c.bottom, c.left, c.right, c.top) for c in leaves}
    maps = d._side_maps()
    verts = set()
    boundary_pts = set()
    for c in leaves:
        verts.update((c.bottom, c.left, c.right, c.top))
        for edge in (
            (c.bottom, c.left),
            (c.bottom, c.right),
            (c.left, c.top),
            (c.right, c.top),
        ):
            # the cell on the other side of this edge, whatever role it
            # plays there (precipitous edges pair NE with NW)
            others = {
                (o.bottom, o.left, o.right, o.top)
                for role in ("SW", "SE", "NW", "NE")
                if (o := maps[role].get(edge)) is not None
            } - {(c.bottom, c.left, c.right, c.top)}
            if not others & in_region:
                boundary_pts.update(edge)
    return frozenset(verts - boundary_pts)


def rho_circr(pl):
    """(I, J) pairs: internal I whose origin cell sits inside the essential
    territory of some tube of J (forest descendant test)."""
    d = pl.diagram
    lamps = lamps_of_diagram(d)
    pairs = set()
    for i_lamp in lamps:
        if i_lamp.kind != "internal":
            continue
        _, origin = circ_r(pl, i_lamp)
        for j_lamp in lamps:
            if j_lamp.foot == i_lamp.foot:
                continue
            for tube in j_lamp.tubes:
                if _node_is_desc_or_eq(pl, origin, frozenset(_essential_nodes(pl, tube))):
                    pairs.add((i_lamp.foot, j_lamp.foot))
                    break
    return frozenset(pairs)


def rho_foot(pl):
    """(I, J) pairs by direct vertex membership: Foot I lies strictly inside
    the left or right essential territory of some tube of J."""
    d = pl.diagram
    lamps = lamps_of_diagram(d)
    pairs = set()
    vert_cache = {}
    for j_lamp in lamps:
        verts = set()
        for tube in j_lamp.tubes:
            key = (tube.foot, tube.peak)
            if key not in vert_cache:
                rec = pl.tube_records[key]
                vert_cache[key] = _interior_vertices_under(pl, rec.leot) | \
                    _interior_vertices_under(pl, rec.reot)
            verts |= vert_cache[key]
        for i_lamp in lamps:
            if i_lamp.kind != "internal" or i_lamp.foot == j_lamp.foot:
                continue
            if i_lamp.foot in verts:
                pairs.add((i_lamp.foot, j_lamp.foot))
    return frozenset(pairs)


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
    return _closure(lat, pairs)


def is_congruence(lat, cong):
    """Check the compatibility laws directly (used as a test oracle)."""
    n = lat.n
    for x in range(n):
        for y in range(n):
            if not cong.same(x, y):
                continue
            for z in range(n):
                if not cong.same(lat.meet[x][z], lat.meet[y][z]):
                    return False
                if not cong.same(lat.join[x][z], lat.join[y][z]):
                    return False
    return True


def verify_jir_congruences(cl):
    """Each listed congruence must not be the join of strictly smaller ones."""
    for i, c in enumerate(cl.jir_congs):
        below = [d for d in cl.jir_congs if d != c and d.refines(c)]
        if congruence_join(cl.lattice, below).block_index == c.block_index:
            return False
    return True
