"""Lamps, territories, the rho relations and the lamp poset.

A lamp is a boundary neon tube, or the interval from the meet of the feet
of all internal neon tubes sharing a peak up to that peak.  Diagram-level
functions need only a PlanarDiagram; territory usage also needs the
per-tube territory records of a built lattice, the (bottom, top) ids of
each tube's essential cells, which it tests for interval containment in
the lattice's own order.  A lamp's creation step is its tube records'
step.  Each diagram keeps its lamp list, with the map from each neon
tube to its (lamp, index), in a cached property; the lamp order
(lamps, lt, poset) is the fork rule that `realize` reads, run over a
built lattice's own sequence, read in any ids (_boundary_tubes); a bare
diagram crosses one door into its own ids (multifork.reprovenance).
A built lattice keeps each lamp's and each congruence's place in its
sequence (_lamp_places, _congruence_places): Lamp L = J(Con L) by place.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistencyError
from .order import _picked, congruence_lattice


@dataclass(frozen=True)
class Lamp:
    kind: str          # "boundary" | "internal"
    foot: int
    peak: int
    tubes: tuple       # Edge list, left to right
    side: str = None   # for boundary lamps: "L" | "R"


def lamps_of_diagram(d):
    """All lamps of a diagram, keyed by foot; boundary lamps first."""
    return d._lamp_list[0]


def tube_lamp(d, tube):
    """(lamp, index of the tube among the lamp's tubes) of a neon tube of d,
    an Edge or its (foot, peak) pair."""
    return d._lamp_list[1][tube]


def _derive_lamp_list(d):
    """(lamps, tube map) of d, kept as its _lamp_list: the map sends each
    neon tube to its (lamp, index).  The check sees a bare diagram: no sequence."""
    boundary, internal = d.neon_tubes()
    lat = d.lattice
    lc, rc = d.corners()
    out = []
    for e in boundary:
        side = "L" if lat.leq(lc, e.foot) else "R"
        if side == "R" and not lat.leq(rc, e.foot):
            raise InternalInconsistencyError(f"boundary tube {e} on neither upper boundary")
        out.append(Lamp("boundary", e.foot, e.peak, (e,), side))
    by_peak = {}
    for e in internal:
        by_peak.setdefault(e.peak, []).append(e)
    for peak, tubes in sorted(by_peak.items()):
        pos = {f: i for i, f in enumerate(d.lower[peak])}
        tubes.sort(key=lambda e: pos[e.foot])
        foot = lat.meet_of(e.foot for e in tubes)
        out.append(Lamp("internal", foot, peak, tuple(tubes)))
    tmap = {e: (l, i) for l in out for i, e in enumerate(l.tubes)}
    return tuple(out), tmap


def _diagram_of(obj):
    return obj.diagram if hasattr(obj, "diagram") else obj


def lamp_poset(obj):
    """(lamps, strict order pairs on lamp feet, Poset) of a built lattice or
    a bare diagram, derived once and kept.

    Element i of the Poset is lamps[i], in lamps_of_diagram order: boundary
    lamps first, then internal lamps by peak.  The order is the fork rule
    (multifork._sequence_lamp_poset: a fork adds its lamp below its Nwl
    and Nel lamps) run over a built lattice's own sequence (_lamp_places);
    a bare diagram (lattice JSON, a mirror image, `embed_rectangular`
    output) keeps its door lattice's (PlanarDiagram._door_lattice).  The
    Nwl/Nel order of trajectory walks and the closures of rho_foot and
    rho_circr give the same order (tests/oracles.py).
    """
    return obj._lamp_order


def _boundary_tubes(d):
    """d's boundary tubes in left-chain order: the grid's left-chain edge
    i <= p crosses the i-th tube of the upper right side, counted upward,
    and edge p + j the j-th tube of the upper left side.  Forks subdivide
    only the paths down to the corner ideals, so the upper sides keep
    their tubes in order: no fork splits a tube (its foot has one upper
    cover), and none adds one there.  Along the upper right side hr is
    the top's and hl climbs; along the upper left side hl is the top's
    and hr climbs.  So the feet sorted by (hl, hr) list the right side
    upward, then the left side, in any ids."""
    hl, hr, _, _ = d.heights()
    return sorted(d.neon_tubes()[0], key=lambda e: (hl[e.foot], hr[e.foot]))


def _lamp_places(pl):
    """Each lamp's index in lamps_of_diagram order, listed by its place in
    pl.seq as _sequence_lamp_poset names them: the grid's p + q boundary
    lamps in left-chain order (_boundary_tubes), then step t's lamp, read
    off its tube records, at place p + q + t - 1."""
    lamps, boundary = lamps_of_diagram(pl.diagram), _boundary_tubes(pl.diagram)
    index = {l.foot: i for i, l in enumerate(lamps)}
    return [index[e.foot] for e in boundary] + sorted(
        range(len(boundary), len(lamps)), key=lambda i: lamp_creation_step(pl, lamps[i]))


# ---------------------------------------------------------------------------
# Creation steps and the lamp-Con check
# ---------------------------------------------------------------------------

def lamp_creation_step(pl, lamp):
    """The step that made the lamp, as its first tube record holds it."""
    return pl.tube_records[lamp.tubes[0]].step


def _tube_con(cl, d):
    """The index in the CongruenceLattice cl of the congruence of a neon
    tube, or None, d the mask of the join-irreducibles below its peak and
    not below its foot.  A tube is a prime interval, so its congruence is
    join-irreducible and listed, and Con L lists a congruence before every
    coarser one (its mask is smaller): it is the first whose mask holds d."""
    return next((i for i, c in enumerate(cl.collapsed) if not d & ~c), None)


def _order_by_place(pl, lt):
    """({lamp foot: place}, up-set masks): lt, strict order pairs on pl's
    lamp feet (lamp_poset), with each lamp named by its place in pl.seq
    (_lamp_places, kept as pl._lamp_places), in _con_by_place's form."""
    lamps = lamps_of_diagram(pl.diagram)
    name = {lamps[i].foot: x for x, i in enumerate(pl._lamp_places)}
    up = [1 << x for x in range(len(name))]
    for a, b in lt:
        up[name[a]] |= 1 << name[b]
    return name, tuple(up)


def _con_by_place(pl, names):
    """J(Con L)'s up-set masks, each congruence renamed names[x], x its
    place (_congruence_places, kept as pl._con_places), or None.  Lamp L =
    J(Con L) by place (Czedli, Acta Sci. Math. 87, 2021), so lattices whose
    lamps correspond by place compare Con L with no isomorphism search."""
    place = pl._con_places
    if place is None:
        return None
    bits = [1 << names[x] for x in place]
    up = [0] * len(place)
    for x, mask in zip(place, congruence_lattice(pl.lattice).jir_poset.up):
        up[names[x]] = sum(_picked(bits, mask))
    return tuple(up)


def _congruence_places(pl):
    """For each congruence of J(Con L), the place x in pl.seq of the lamp
    whose tubes it collapses (_tube_con), or None unless lamps and
    congruences correspond one to one.  Each tube's place is read off its
    record: step t's tubes sit at place p + q + t - 1, and the boundary
    tubes (step 0) take places 0..p + q - 1 in left-chain order
    (_boundary_tubes)."""
    lat, pq = pl.lattice, pl.seq.grid_p + pl.seq.grid_q
    cl, down, jmask = congruence_lattice(lat), lat.poset.down, sum(map((1).__lshift__, lat.jir()))
    m = pq + len(pl.seq.steps)
    boundary, place = {e: x for x, e in enumerate(_boundary_tubes(pl.diagram))}, {}
    for e, r in pl.tube_records.items():
        x = r.step + pq - 1 if r.step else boundary[e]
        i = _tube_con(cl, jmask & down[e[1]] & ~down[e[0]])
        if i is None or place.setdefault(i, x) != x:
            return None
    # the places lie below m, so m distinct ones are all of them
    if not len(place) == cl.jir_count() == m == len(set(place.values())):
        return None
    return tuple(place[i] for i in range(m))


def verify_lamp_con_iso(obj):
    """Check Lamp L = J(Con L) by place on a built lattice, or on a bare
    diagram's door lattice (PlanarDiagram._door_lattice), as its lamp
    order is read: each tube's record must carry its lamp's place (step t
    at p + q + t - 1, a boundary tube step 0), and J(Con L) named by place
    (_con_by_place) must be lamp_poset's order named by place
    (_order_by_place).  Returns (ok, witness) where witness maps lamp foot
    -> index of its congruence in Con L.
    """
    pl = obj if hasattr(obj, "diagram") else obj._door_lattice()
    lamps, lt, _ = lamp_poset(obj)
    name, up = _order_by_place(pl, lt)
    pq, records = pl.seq.grid_p + pl.seq.grid_q, pl.tube_records
    if (any(records[e].step != max(name[l.foot] - pq + 1, 0) for l in lamps for e in l.tubes)
            or _con_by_place(pl, range(len(up))) != up):
        return False, None
    return True, {l.foot: pl._con_places.index(name[l.foot]) for l in lamps}


# ---------------------------------------------------------------------------
# Territory usage
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class UsageStats:
    """Per internal lamp: left-to-right used/unused pattern over its tubes."""

    patterns: dict     # lamp foot -> str over {"u", "0"}


def is_used(pl, tube):
    """A tube's territory is used when another internal lamp's fork split
    one of the tube's essential cells or a cell inside one.

    The essential cells are the cells the tube's trajectory crossed when
    the tube was made, less the two that flank an internal tube (its
    record's (bottom, top) pairs).  Forks append their ids and keep the old
    comparabilities, so a cell keeps its ids, and a later cell lies inside
    it exactly when the later cell's interval lies in [bottom, top] in the
    final lattice.  The cell that a lamp's fork split is its circumscribed
    rectangle [meet of the peak's lower covers, peak], and that meet is the
    meet of the first and last lower covers, so each (lamp, cell) takes
    three bit tests on the up-sets: the cell's top is above the peak and
    its bottom below both covers.  A lamp whose peak is below no cell's
    top is passed over with one mask test.

    Self-check: every such lamp lies below the tube's lamp in the lamp
    order, else InternalInconsistencyError naming pl's sequence, which
    `slimlat lamps` replays.
    """
    cells = pl.tube_records[tube].cells
    if not cells:
        return False
    d = pl.diagram
    up = d.lattice.poset.up
    tops = 0
    for _, t in cells:
        tops |= 1 << t
    owner, _ = tube_lamp(d, tube)
    lamps, lt, _ = lamp_poset(pl)
    for i_lamp in lamps:
        above = up[i_lamp.peak]
        if i_lamp.kind != "internal" or i_lamp.foot == owner.foot or not above & tops:
            continue
        lowers = d.lower[i_lamp.peak]
        first, last = lowers[0], lowers[-1]
        if any(above >> t & 1 and up[b] >> first & 1 and up[b] >> last & 1 for b, t in cells):
            if (i_lamp.foot, owner.foot) not in lt:
                from .dsl import emit_dsl  # dsl imports multifork, which imports this module
                raise InternalInconsistencyError(
                    "a using lamp is not below the owner in the lamp order;"
                    f" `slimlat lamps` replays it on\n{emit_dsl(pl.seq)}")
            return True
    return False


def usage_stats(pl):
    """Per internal lamp, its tubes' territories left to right, "u" if
    used (is_used), else "0"; a built lattice keeps it
    (ProvenancedLattice._usage), derived on the first call."""
    return pl._usage


def _derive_usage(pl):
    """usage_stats of pl, derived."""
    patterns = {}
    for l in lamps_of_diagram(pl.diagram):
        if l.kind != "internal":
            continue
        patterns[l.foot] = "".join("u" if is_used(pl, tube) else "0" for tube in l.tubes)
    return UsageStats(patterns)


def lamp_report(pl):
    """JSON-ready lamp summary: lamps, poset covers, iso witness, patterns."""
    lamps, _, poset = lamp_poset(pl)
    stats = usage_stats(pl)
    ok, witness = verify_lamp_con_iso(pl)
    return {
        "lamps": [
            {
                "kind": l.kind,
                "foot": l.foot,
                "peak": l.peak,
                "tubes": [list(e) for e in l.tubes],
                "pattern": stats.patterns.get(l.foot),
            }
            for l in lamps
        ],
        "poset_covers": sorted(map(list, poset.covers)),
        "congruence_iso_ok": ok,
        "iso_witness": witness,
    }
