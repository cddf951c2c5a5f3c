"""Lamps, territories, the rho relations and the lamp poset.

A lamp is a boundary neon tube, or the interval from the meet of the feet
of all internal neon tubes sharing a peak up to that peak.  Diagram-level
functions need only a PlanarDiagram; territory usage also needs the
per-tube territory records of a built lattice, the (bottom, top) ids of
each tube's essential cells, which it tests for interval containment in
the lattice's own order.  A lamp's creation step is its tube records'
step.  Each diagram keeps its lamp list, with the map from each neon
tube to its (lamp, index), and its lamp order (lamps, lt, poset), in
cached properties that call this module's derivations once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistencyError, PreconditionError
from .order import Poset, _elements, congruence_lattice


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
    """(lamps, tube map) of d, which keeps them as its _lamp_list: the map
    sends each neon tube to its (lamp, index)."""
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


def circ_r(obj, lamp):
    """The circumscribed interval [meet of lower covers of peak, peak]: in
    a built lattice, the cell that the lamp's fork split."""
    if lamp.kind != "internal":
        raise PreconditionError("boundary lamps have no circumscribed rectangle")
    lat = _diagram_of(obj).lattice
    return lat.interval(lat.meet_of(lat.lower_covers(lamp.peak)), lamp.peak)


def nwl_nel(d, lamp):
    """Lamps owning the trajectories through the upper-left and upper-right
    edges of the circumscribed rectangle of an internal lamp."""
    if lamp.kind != "internal":
        raise PreconditionError("nwl/nel are defined for internal lamps")
    lowers = d.lower[lamp.peak]
    return tuple(tube_lamp(d, d.trajectory_through((x, lamp.peak)).tube)[0]
                 for x in (lowers[0], lowers[-1]))


def lamp_poset(obj):
    """(lamps, strict order pairs on lamp feet, Poset) of a built lattice or
    a bare diagram.

    Element i of the Poset is lamps[i], in lamps_of_diagram order: boundary
    lamps first, then internal lamps by peak.  The order is generated by
    U < Nwl U and U < Nel U over internal lamps U, which needs no
    provenance; boundary lamps are maximal.  The closures of the territory
    relations rho_foot and rho_circr give the same order; they are kept in
    tests/oracles.py.  Each diagram derives it once (_derive_lamp_order)
    and keeps it.
    """
    return _diagram_of(obj)._lamp_order


def _derive_lamp_order(d):
    lamps = lamps_of_diagram(d)
    idx = {l.foot: i for i, l in enumerate(lamps)}
    poset = Poset.from_relation(len(lamps), {
        (idx[u.foot], idx[v.foot])
        for u in lamps
        if u.kind == "internal"
        for v in nwl_nel(d, u)
        if v.foot != u.foot
    })
    lt = frozenset((lamps[i].foot, lamps[j].foot)
                   for i in range(poset.n) for j in _elements(poset.up[i] ^ (1 << i)))
    return lamps, lt, poset


# ---------------------------------------------------------------------------
# Territory-based relations (need provenance)
# ---------------------------------------------------------------------------

def fork_interval(d, foot):
    """Elements of [l_proj(foot), foot] union [r_proj(foot), foot]."""
    lat = d.lattice
    lp, rp = d.l_proj(foot), d.r_proj(foot)
    return lat.interval(lp, foot) | lat.interval(rp, foot)


def lamp_creation_step(pl, lamp):
    """The step that made the lamp, as its first tube record holds it."""
    return pl.tube_records[lamp.tubes[0]].step


def verify_lamp_con_iso(pl):
    """Check Lamp L = Jir(Con L) via the congruences of the neon tubes.

    Returns (ok, witness) where witness maps lamp foot -> index of its
    congruence in the independently computed list.
    """
    lamps, lt, _ = lamp_poset(pl)
    cl = congruence_lattice(pl.lattice)
    if len(lamps) != len(cl.jir_congs):
        return False, None
    witness = {}
    for l in lamps:
        # a tube is a prime interval, so its congruence is join-irreducible
        # and listed; listed coarser congruences have fewer blocks, so it is
        # the first listed one that collapses the tube
        found = {
            next((i for i, c in enumerate(cl.jir_congs) if c.same(e.foot, e.peak)), None)
            for e in l.tubes
        }
        if len(found) != 1 or None in found:
            return False, None
        witness[l.foot] = found.pop()
    if len(set(witness.values())) != len(lamps):
        return False, None
    # order preservation both ways
    for a in lamps:
        for b in lamps:
            if a.foot == b.foot:
                continue
            lamp_le = (a.foot, b.foot) in lt
            if lamp_le != cl.jir_poset.leq(witness[a.foot], witness[b.foot]):
                return False, None
    return True, witness


# ---------------------------------------------------------------------------
# Territory usage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UsageStats:
    """Per internal lamp: left-to-right used/unused pattern over its tubes."""

    patterns: dict     # lamp foot -> str over {"u", "0"}

    def t_plus(self, foot):
        return self.patterns[foot].count("u")

    def t_minus(self, foot):
        return self.patterns[foot].count("0")


def is_used(pl, tube):
    """A tube's territory is used when another internal lamp's fork split
    one of the tube's essential cells or a cell inside one.

    The essential cells are the cells the tube's trajectory crossed when
    the tube was made, less the two that flank an internal tube (its
    record's (bottom, top) pairs).  Forks append their ids and keep the old
    comparabilities, so a cell keeps its ids, and a later cell lies inside
    it exactly when the later cell's interval lies in [bottom, top] in the
    final lattice.  The cell that a lamp's fork split is [meet of the
    peak's lower covers, peak] (circ_r), and that meet is the meet of the
    first and last lower covers, so each (lamp, cell) takes three bit tests
    on the up-sets: the cell's top is above the peak and its bottom below
    both covers.  A lamp whose peak is below no cell's top is passed over
    with one mask test.

    Self-check: every such lamp lies below the tube's lamp in the lamp
    order, else InternalInconsistencyError.
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
                raise InternalInconsistencyError(
                    "a using lamp is not below the owner in the lamp order"
                )
            return True
    return False


def usage_stats(pl):
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
