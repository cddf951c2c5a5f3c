"""Length reduction without changing the congruence lattice.

Two removal rules on an internal lamp's neon tubes: a used tube whose two
neighbors are unused (the sandwiched rule), and two adjacent unused tubes
(the neighboring rule).  Each removal deletes the fork of one tube,
restricts the order, validates the result once, and rebuilds it from the
sequence read off its Jordan-Holder permutation (multifork._rebuilt).
`minimize` drives the rules to a fixpoint; `check_bounds` evaluates the
length and size bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import embed_rectangular, is_slim_rectangular
from .dsl import emit_dsl
from .errors import (
    DiagramError,
    InternalInconsistencyError,
    OrderError,
    PreconditionError,
)
from .lamps import (
    _diagram_of,
    is_used,
    lamp_creation_step,
    lamp_poset,
    lamps_of_diagram,
    usage_stats,
)
from .multifork import _delete_fork, _rebuilt
from .order import FiniteLattice, congruence_lattice, poset_iso


@dataclass(frozen=True)
class ReductionStep:
    rule: str                  # "sandwiched" | "neighboring"
    lamp_foot: int
    removed_tube: tuple        # (foot, peak), ids of the pre-removal lattice
    size_before: int
    size_after: int
    antube_before: int
    antube_after: int
    con_preserved: bool

    def to_dict(self):
        return {
            "rule": self.rule,
            "lamp_foot": self.lamp_foot,
            "removed_tube": list(self.removed_tube),
            "size_before": self.size_before,
            "size_after": self.size_after,
            "antube_before": self.antube_before,
            "antube_after": self.antube_after,
            "con_preserved": self.con_preserved,
        }


def _lamp_with_foot(lamps, foot):
    for l in lamps:
        if l.foot == foot:
            return l
    raise PreconditionError(f"no lamp with foot {foot}")


def _con_isomorphic(lat_a, lat_b):
    """Con L is distributive, so J(Con L) determines it up to isomorphism."""
    ca, cb = congruence_lattice(lat_a), congruence_lattice(lat_b)
    return poset_iso(ca.jir_poset, cb.jir_poset) is not None


def _remove_fork(pl, lamp, tube, rule):
    """Core removal: delete F(tube), restrict, validate, check guarantees."""
    d = pl.diagram
    lat = d.lattice
    try:
        subd, idx = _delete_fork(d, tube)
    except (OrderError, DiagramError) as e:
        raise InternalInconsistencyError(f"removal produced an invalid lattice: {e}")
    sublat = subd.lattice
    if not (sublat.n < lat.n and subd.antube() == d.antube() - 1):
        raise InternalInconsistencyError("removal did not shrink size and tube count by 1")

    # re-peaking rule for lamps whose peak sat on a deleted fork chain:
    # join with the projection of the flanking lower cover of the owner's
    # peak (only the neighboring rule can hit this; the sandwiched
    # preconditions keep all foreign peaks off the fork)
    lowers = d.lower[lamp.peak]
    pos = lowers.index(tube.foot)
    left_chain = lat.interval(d.l_proj(tube.foot), tube.foot)
    right_chain = lat.interval(d.r_proj(tube.foot), tube.foot)

    def repeaked(old_peak):
        if old_peak in left_chain:
            supp = d.l_proj(lowers[pos - 1])
        elif old_peak in right_chain:
            supp = d.r_proj(lowers[pos + 1])
        else:
            raise InternalInconsistencyError("deleted peak is off both fork chains")
        return lat.join_of((old_peak, supp))

    # per-lamp bookkeeping through the id map
    old_lamps = {l.foot: l for l in lamps_of_diagram(d)}
    new_lamps = {l.foot: l for l in lamps_of_diagram(subd)}
    new_by_peak = {l.peak: l for l in new_lamps.values()}
    phi = {}
    for foot, l in old_lamps.items():
        if foot == lamp.foot:
            img = new_by_peak.get(idx[l.peak])
            if img is None or len(img.tubes) != len(l.tubes) - 1:
                raise InternalInconsistencyError("reduced lamp lost more than one tube")
        else:
            img = new_lamps.get(idx.get(foot))
            if img is None or len(img.tubes) != len(l.tubes):
                raise InternalInconsistencyError(
                    f"lamp with foot {foot} did not keep its foot and tube count"
                )
            if l.peak in idx:
                expected_peak = idx[l.peak]
            else:
                if rule != "neighboring":
                    raise InternalInconsistencyError(
                        "a foreign lamp peak was deleted outside the neighboring rule"
                    )
                expected_peak = idx[repeaked(l.peak)]
            if img.peak != expected_peak:
                raise InternalInconsistencyError(
                    f"lamp with foot {foot} was re-peaked against the join rule"
                )
        phi[foot] = img.foot
    _, lt, _ = lamp_poset(pl)
    _, new_lt, _ = lamp_poset(subd)
    if {(phi[a], phi[b]) for a, b in lt} != new_lt:
        raise InternalInconsistencyError("lamp poset changed under the removal")

    con_ok = _con_isomorphic(lat, sublat)
    if not con_ok:
        raise InternalInconsistencyError("congruence lattice changed under the removal")

    new_pl = _rebuilt(subd)
    step = ReductionStep(
        rule,
        lamp.foot,
        tube,
        lat.n,
        sublat.n,
        d.antube(),
        subd.antube(),
        con_ok,
    )
    return new_pl, step


def remove_sandwiched(pl, lamp_foot, tube):
    """Remove a used tube sandwiched between two unused tubes of its lamp."""
    lamp = _lamp_with_foot(lamps_of_diagram(pl.diagram), lamp_foot)
    if lamp.kind != "internal":
        raise PreconditionError("sandwiched removal needs an internal lamp")
    tubes = list(lamp.tubes)
    if tube not in tubes:
        raise PreconditionError("tube does not belong to the lamp")
    i = tubes.index(tube)
    if i == 0 or i == len(tubes) - 1:
        raise PreconditionError("tube has no neighbor on one side")
    n1, n2 = tubes[i - 1], tubes[i + 1]
    if not is_used(pl, tube):
        raise PreconditionError("the middle tube's territory is not used")
    if is_used(pl, n1):
        raise PreconditionError("left neighbor's territory is used")
    if is_used(pl, n2):
        raise PreconditionError("right neighbor's territory is used")
    return _remove_fork(pl, lamp, tube, "sandwiched")


def remove_neighboring(pl, lamp_foot, n1, n2):
    """Remove one of two adjacent unused tubes of an internal lamp.

    The fork of `n2` is deleted.  When n2 lies to the left of n1 this is
    the mirrored application; the deleted element set is mirror-invariant,
    so a single code path serves both orientations.
    """
    lamp = _lamp_with_foot(lamps_of_diagram(pl.diagram), lamp_foot)
    if lamp.kind != "internal":
        raise PreconditionError("neighboring removal needs an internal lamp")
    tubes = list(lamp.tubes)
    if n1 not in tubes or n2 not in tubes:
        raise PreconditionError("tubes do not belong to the lamp")
    if abs(tubes.index(n1) - tubes.index(n2)) != 1:
        raise PreconditionError("tubes are not adjacent")
    if is_used(pl, n1) or is_used(pl, n2):
        raise PreconditionError("a tube of the pair has a used territory")
    return _remove_fork(pl, lamp, n2, "neighboring")


# ---------------------------------------------------------------------------
# Fixpoint minimization
# ---------------------------------------------------------------------------

def find_removable(pl):
    """(lamp, kind, position) for the first removable pattern, scanning
    internal lamps by creation step and patterns left to right."""
    d = pl.diagram
    stats = usage_stats(pl)
    lamps = [l for l in lamps_of_diagram(d) if l.kind == "internal"]
    lamps.sort(key=lambda l: (lamp_creation_step(pl, l), l.foot))
    for lamp in lamps:
        pattern = stats.patterns[lamp.foot]
        hits = []
        i = pattern.find("00")
        if i >= 0:
            hits.append((i, "00"))
        j = pattern.find("0u0")
        if j >= 0:
            hits.append((j, "0u0"))
        if hits:
            pos, kind = min(hits)
            return lamp, kind, pos
    return None


def _reduce_once(pl):
    """(lattice, ReductionStep) of the removal that find_removable picks, or
    None: a '00' deletes the fork of its second tube, a '0u0' its middle's.
    A failed self-check names the sequence that replays it."""
    target = find_removable(pl)
    if target is None:
        return None
    lamp, kind, pos = target
    try:
        if kind == "00":
            return remove_neighboring(pl, lamp.foot, lamp.tubes[pos], lamp.tubes[pos + 1])
        return remove_sandwiched(pl, lamp.foot, lamp.tubes[pos + 1])
    except InternalInconsistencyError as e:
        raise InternalInconsistencyError(
            f"{e}; `slimlat reduce` replays it on\n{emit_dsl(pl.seq)}"
        ) from e


def minimize(pl):
    """Apply removals until no '00' or '0u0' pattern remains.

    Terminates because the total neon tube count strictly decreases.
    Returns (fixpoint lattice, trace of ReductionStep).
    """
    trace = []
    while (removal := _reduce_once(pl)) is not None:
        pl, step = removal
        trace.append(step)
    return pl, tuple(trace)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def length_bound(n):
    """Upper bound on the length of a minimal representation with n
    join-irreducible congruences (meaningful for n >= 3)."""
    return 2 * n * n - 10 * n + 15


@dataclass(frozen=True)
class BoundReport:
    n: int                 # join-irreducible congruences (oracle)
    m: int                 # boundary lamps
    k: int                 # internal lamps
    s: int                 # minimal internal lamps
    length: int
    antube: int
    bound: int             # 2n^2 - 10n + 15
    size_bound: int        # length^2
    assertions: tuple      # (name, ok, detail)

    @property
    def ok(self):
        """Every evaluated assertion holds."""
        return all(ok for _, ok, _ in self.assertions)

    def to_dict(self):
        return {
            "n": self.n,
            "boundary_lamps": self.m,
            "internal_lamps": self.k,
            "minimal_internal_lamps": self.s,
            "length": self.length,
            "antube": self.antube,
            "length_bound": self.bound,
            "size_bound": self.size_bound,
            "assertions": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.assertions
            ],
        }


def check_bounds(obj, at_fixpoint=False):
    """Evaluate the length/size bounds; failures are reported, not raised.

    Accepts a built lattice, a diagram, or a semimodular FiniteLattice.
    The minimal-length bound is only asserted for reduction fixpoints with
    at least one internal lamp (at_fixpoint=True); the size bound
    |L| <= 4n^4 is asserted for every reduction fixpoint.
    """
    if isinstance(obj, FiniteLattice):
        lat = obj
        try:
            d = embed_rectangular(lat)
        except DiagramError:
            d = None
    else:
        d = _diagram_of(obj)
        lat = d.lattice

    n = congruence_lattice(lat).jir_count()
    length = lat.length()
    assertions = [(
        "length >= n",
        length >= n,
        f"length {length}, n {n}",
    )]
    m = k = s = 0
    antube = 0
    rectangular = d is not None and is_slim_rectangular(d).ok
    if rectangular:
        antube = d.antube()
        lamps, _, poset = lamp_poset(d)
        m = sum(1 for l in lamps if l.kind == "boundary")
        k = len(lamps) - m
        # boundary lamps are maximal: minimal internal = minimal and internal
        s = sum(1 for i in poset.minimal_elements() if lamps[i].kind == "internal")
        assertions.append((
            "length == total neon tubes",
            length == antube,
            f"length {length}, tubes {antube}",
        ))
        # every element is c v u with c, u drawn from the two irreducible
        # chains or absent
        assertions.append((
            "size <= length^2",
            lat.n <= length ** 2,
            f"size {lat.n}, bound {length ** 2}",
        ))
        if at_fixpoint and k >= 1:
            assertions.append((
                "fixpoint length <= 2n^2 - 10n + 15",
                length <= length_bound(n),
                f"length {length}, bound {length_bound(n)}",
            ))
        if at_fixpoint:
            # the paper's size bound |L| <= 4n^4 = (2n^2)^2 for the short L
            assertions.append((
                "fixpoint size <= 4n^4",
                lat.n <= 4 * n ** 4,
                f"size {lat.n}, bound {4 * n ** 4}",
            ))
    return BoundReport(
        n, m, k, s, length, antube,
        length_bound(n), length ** 2, tuple(assertions),
    )
