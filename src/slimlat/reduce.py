"""Length reduction without changing the congruence lattice.

Two removal rules on an internal lamp's neon tubes: a used tube whose two
neighbors are unused (the sandwiched rule), and two adjacent unused tubes
(the neighboring rule).  Each removal edits the fork sequence
(_removed_sequence) and builds only the edited sequence, from the
input's stage before the edited fork when the input holds its stages.
It checks what a removal keeps: one tube less, from that lamp alone, the
lamp order and J(Con L), both labelled by lamp place.  The geometric fork
deletion is the test oracle (tests/oracles.py).
`minimize` drives the rules to a fixpoint; `check_bounds` evaluates the
length and size bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import embed_rectangular, is_slim_rectangular
from .doubling import _relabelled
from .dsl import emit_dsl
from .errors import DiagramError, InternalInconsistencyError, PreconditionError
from .lamps import (
    _con_by_place,
    _diagram_of,
    _order_by_place,
    is_used,
    lamp_creation_step,
    lamp_poset,
    lamps_of_diagram,
    usage_stats,
)
from .multifork import build
from .order import FiniteLattice, congruence_lattice


@dataclass(frozen=True)
class ReductionStep:
    rule: str                  # "sandwiched" | "neighboring"
    lamp_foot: int
    removed_tube: tuple        # (foot, peak), ids of the pre-removal lattice
    size_before: int
    size_after: int
    antube_before: int
    antube_after: int

    def to_dict(self):
        return {
            "rule": self.rule,
            "lamp_foot": self.lamp_foot,
            "removed_tube": list(self.removed_tube),
            "size_before": self.size_before,
            "size_after": self.size_after,
            "antube_before": self.antube_before,
            "antube_after": self.antube_after,
        }


def _lamp_with_foot(lamps, foot):
    for l in lamps:
        if l.foot == foot:
            return l
    raise PreconditionError(f"no lamp with foot {foot}")


def _removed_sequence(seq, s, i):
    """seq with tube i, counted left to right, of step s's lamp removed:
    step s loses the tube's trajectory label, and every later step forks
    after the same kept labels (doubling._relabelled).

    A k-fold fork's tubes, left to right, lie on its labels in falling
    left-chain order (diagram._forked_permutation), so tube i has label
    x = k - 1 - i.  Deleting its fork deletes the feet of x's edges (the
    fork interval of the tests' oracles: they share the foot's left height
    west of the tube and its right height east of it).  So x goes, each boundary edge
    it starts or ends on merges with the one below, and every other
    trajectory keeps its ends: the result's Jordan-Holder permutation is
    the input's with x's pair deleted.  The edited sequence keeps every
    other label in its place relative to the rest in both lists, so it
    has that permutation too, which fixes the lattice and its drawing
    (Czedli and Schmidt, Algebra Universalis 66, 2011).  That it builds,
    each moved cell distributive, rests on `build`, which checks it, and
    on the tests: on every applicable removal of every lattice of length
    <= 8 the result has the fork deletion's permutation, labelled lamp
    order and tube counts.  Only sandwiched removals meet a later step
    labelled x there.
    """
    return _relabelled(seq, s, lambda a, b, labels: [
        ((a, b), labels[:-1 - i] + labels[len(labels) - i:])])


def _labelled_lamps(pl):
    """(tube count, up-set masks) of pl's lamps, each named by its place in
    pl.seq (lamps._order_by_place), which a removal keeps: it keeps the
    grid and every fork."""
    lamps, lt, _ = lamp_poset(pl)
    name, up = _order_by_place(pl, lt)
    return {name[l.foot]: len(l.tubes) for l in lamps}, up


def _remove_fork(pl, lamp, tube, rule):
    """Core removal: build the edited sequence (_removed_sequence), from
    pl's stage before the lamp's fork when pl holds its stages, and check
    what a removal keeps: a smaller lattice, one tube less, taken from
    that lamp alone, the labelled lamp order (_labelled_lamps) and Con L.
    Both lamp orders run one fork rule over a sequence (lamps.lamp_poset),
    so comparing them checks the edit against that rule; Con L, read off
    the built lattice with no lamp rule, is the independent check.  Con L
    is distributive, so J(Con L) fixes it, and a removal keeps every
    place, so the two J(Con L), each congruence named by its lamp's place
    (lamps._con_by_place), must be equal, not just isomorphic."""
    s = lamp_creation_step(pl, lamp)
    at = pl.seq.grid_p + pl.seq.grid_q + s - 1
    try:
        new_pl = build(_removed_sequence(pl.seq, s, lamp.tubes.index(tube)))
    except PreconditionError as e:
        raise InternalInconsistencyError(f"the reduced sequence fails at {e}") from e
    if not new_pl.n < pl.n:
        raise InternalInconsistencyError("removal did not shrink the lattice")
    tubes, order = _labelled_lamps(pl)
    new_tubes, new_order = _labelled_lamps(new_pl)
    if new_tubes.get(at) != tubes[at] - 1:
        raise InternalInconsistencyError(f"the lamp of step {s} did not lose exactly one tube")
    tubes[at] -= 1
    if new_tubes != tubes:
        raise InternalInconsistencyError(f"a lamp other than step {s}'s lost or gained a tube")
    if new_order != order:
        raise InternalInconsistencyError("lamp poset changed under the removal")
    con = _con_by_place(pl, range(len(tubes)))
    if con is None or _con_by_place(new_pl, range(len(tubes))) != con:
        raise InternalInconsistencyError("congruence lattice changed under the removal")
    step = ReductionStep(rule, lamp.foot, tube, pl.n, new_pl.n, pl.antube(), new_pl.antube())
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

    `n2` is removed.  When n2 lies to the left of n1 this is the mirrored
    application; the same sequence edit serves both orientations.
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
    stats = usage_stats(pl)
    lamps = lamps_of_diagram(pl.diagram)
    for lamp in (lamps[i] for i in pl._lamp_places[pl.seq.grid_p + pl.seq.grid_q:]):
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
    None: a '00' removes its second tube, a '0u0' its middle one.
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
            obj = d = embed_rectangular(lat)
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
        lamps, _, poset = lamp_poset(obj)
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
