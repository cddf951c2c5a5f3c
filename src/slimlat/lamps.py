"""Lamps, territories, the rho relations and the lamp poset.

A lamp is a boundary neon tube, or the interval from the meet of the feet
of all internal neon tubes sharing a peak up to that peak.  Diagram-level
functions need only a PlanarDiagram; territory-based functions (usage)
also need the provenance carried by a built lattice (cell forest and
per-tube territory records).
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Edge
from .errors import InternalInconsistencyError, PreconditionError
from .order import Poset, congruence_lattice


@dataclass(frozen=True)
class Lamp:
    kind: str          # "boundary" | "internal"
    foot: int
    peak: int
    tubes: tuple       # Edge list, left to right
    side: str = None   # for boundary lamps: "L" | "R"


def lamps_of_diagram(d):
    """All lamps of a diagram, keyed by foot; boundary lamps first."""
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
    return tuple(out)


def _diagram_of(obj):
    return obj.diagram if hasattr(obj, "diagram") else obj


def lamps(obj):
    """Lamps of a built lattice or a bare diagram."""
    return lamps_of_diagram(_diagram_of(obj))


def _tube_to_lamp(lamps):
    return {(e.foot, e.peak): l for l in lamps for e in l.tubes}


def circ_r(obj, lamp):
    """The circumscribed interval [meet of lower covers of peak, peak].

    With a built lattice, also returns the forest node of the cell at which
    the lamp's multifork was performed.
    """
    d = _diagram_of(obj)
    if lamp.kind != "internal":
        raise PreconditionError("boundary lamps have no circumscribed rectangle")
    lat = d.lattice
    x = lat.meet_of(lat.lower_covers(lamp.peak))
    interval = frozenset(lat.filter(x) & lat.ideal(lamp.peak))
    if hasattr(obj, "lamp_step_by_peak"):
        step = obj.lamp_step_by_peak[lamp.peak]
        return interval, obj.step_origin[step]
    return interval, None


def nwl_nel(d, lamp):
    """Lamps owning the trajectories through the upper-left and upper-right
    edges of the circumscribed rectangle of an internal lamp."""
    return _nwl_nel(d, lamp, _tube_to_lamp(lamps_of_diagram(d)))


def _nwl_nel(d, lamp, tmap):
    if lamp.kind != "internal":
        raise PreconditionError("nwl/nel are defined for internal lamps")
    lowers = d.lower[lamp.peak]
    out = []
    for e in (Edge(lowers[0], lamp.peak), Edge(lowers[-1], lamp.peak)):
        tube = d.trajectory_through(e).tube
        out.append(tmap[(tube.foot, tube.peak)])
    return out[0], out[1]


def lamp_poset(obj):
    """(lamps, strict order pairs on lamp feet, Poset) of a built lattice or
    a bare diagram.

    Element i of the Poset is lamps[i], in lamps_of_diagram order: boundary
    lamps first, then internal lamps by peak.  The order is generated by
    U < Nwl U and U < Nel U over internal lamps U, which needs no
    provenance; boundary lamps are maximal.  The closures of the territory
    relations rho_foot and rho_circr give the same order; they are kept in
    tests/oracles.py.
    """
    d = _diagram_of(obj)
    lamps = lamps_of_diagram(d)
    tmap = _tube_to_lamp(lamps)
    idx = {l.foot: i for i, l in enumerate(lamps)}
    poset = Poset.from_relation(len(lamps), {
        (idx[u.foot], idx[v.foot])
        for u in lamps
        if u.kind == "internal"
        for v in _nwl_nel(d, u, tmap)
        if v.foot != u.foot
    })
    lt = frozenset(
        (lamps[i].foot, lamps[j].foot) for i in range(poset.n) for j in poset.up[i] if j != i
    )
    return lamps, lt, poset


# ---------------------------------------------------------------------------
# Territory-based relations (need provenance)
# ---------------------------------------------------------------------------

def fork_interval(d, foot):
    """Elements of [l_proj(foot), foot] union [r_proj(foot), foot]."""
    lat = d.lattice
    lp, rp = d.l_proj(foot), d.r_proj(foot)
    ideal = lat.ideal(foot)
    return frozenset((lat.filter(lp) & ideal) | (lat.filter(rp) & ideal))


def _node_is_desc_or_eq(pl, node, targets):
    cur = node
    while cur is not None:
        if cur in targets:
            return True
        cur = pl.forest[cur].parent
    return False


def _essential_nodes(pl, tube):
    rec = pl.tube_records[(tube.foot, tube.peak)]
    return rec.leot + rec.reot


def lamp_creation_step(pl, lamp):
    if lamp.kind == "boundary":
        return 0
    return pl.lamp_step_by_peak[lamp.peak]


def verify_lamp_con_iso(pl):
    """Check Lamp L = Jir(Con L) via the congruences of the neon tubes.

    Returns (ok, witness) where witness maps lamp foot -> index of its
    congruence in the independently computed list.
    """
    lamps, lt, _ = lamp_poset(pl)
    return _verify_lamp_con_iso(pl, lamps, lt)


def _verify_lamp_con_iso(pl, lamps, lt):
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
    """A tube's territory is used when another internal lamp's origin cell
    sits inside its left or right essential part.

    Self-check: every such lamp lies below the tube's lamp in the lamp
    order, else InternalInconsistencyError.
    """
    lamps, lt, _ = lamp_poset(pl)
    return _is_used(pl, tube, _tube_to_lamp(lamps)[(tube.foot, tube.peak)], lamps, lt)


def _is_used(pl, tube, owner, lamps, lt):
    targets = frozenset(_essential_nodes(pl, tube))
    if not targets:
        return False
    for i_lamp in lamps:
        if i_lamp.kind != "internal" or i_lamp.foot == owner.foot:
            continue
        _, origin = circ_r(pl, i_lamp)
        if _node_is_desc_or_eq(pl, origin, targets):
            if (i_lamp.foot, owner.foot) not in lt:
                raise InternalInconsistencyError(
                    "a using lamp is not below the owner in the lamp order"
                )
            return True
    return False


def usage_stats(pl):
    lamps, lt, _ = lamp_poset(pl)
    return _usage_stats(pl, lamps, lt)


def _usage_stats(pl, lamps, lt):
    patterns = {}
    for l in lamps:
        if l.kind != "internal":
            continue
        patterns[l.foot] = "".join(
            "u" if _is_used(pl, tube, l, lamps, lt) else "0" for tube in l.tubes
        )
    return UsageStats(patterns)


def lamp_report(pl):
    """JSON-ready lamp summary: lamps, poset covers, iso witness, patterns."""
    lamps, lt, poset = lamp_poset(pl)
    stats = _usage_stats(pl, lamps, lt)
    ok, witness = _verify_lamp_con_iso(pl, lamps, lt)
    return {
        "lamps": [
            {
                "kind": l.kind,
                "foot": l.foot,
                "peak": l.peak,
                "tubes": [[e.foot, e.peak] for e in l.tubes],
                "pattern": stats.patterns.get(l.foot),
            }
            for l in lamps
        ],
        "poset_covers": sorted(map(list, poset.covers)),
        "congruence_iso_ok": ok,
        "iso_witness": witness,
    }
