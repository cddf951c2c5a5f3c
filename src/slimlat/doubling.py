"""Doubling a non-maximal element of the lamp poset.

Given a sequence and a step index t, produce a sequence whose lattice has
the original lamp poset with step t's lamp doubled and exactly two extra
neon tubes: replace step t by a 2-fold fork at the same cell followed by
the original multiplicity at the cell under the new lamp's leftmost tube
foot, then re-locate every later step by crossing the two trajectories
that flanked its original cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import cell_address, resolve_address
from .errors import InternalInconsistencyError, PreconditionError
from .lamps import lamp_creation_step, lamp_poset, lamps_of_diagram, tube_lamp
from .multifork import build, multifork_extend
from .order import poset_double, poset_iso


@dataclass(frozen=True)
class RetargetRecord:
    """Which tube flanks a step's cell: the trajectory through the cell's
    upper-left edge descends from tube alpha of lamp u; the one through the
    upper-right edge ascends to tube beta of lamp v."""

    u: tuple
    alpha: int
    v: tuple
    beta: int


def _lamp_id(pl, lamp):
    """Build-independent lamp identity: ("s", creation step) for an internal
    lamp, ("b", foot) for a boundary one.  A fork appends new ids and
    subdivides only the edges on its two paths, which descend to the lower
    boundary chains; the cell's bottom lies above neither corner, since
    above a corner the cell's two sides would both lie on that corner's
    upper chain and so be comparable.  `_swap` keeps every old element's
    count of upper covers.  So the upper-boundary tubes are the grid's,
    with the same ids, at every stage and in the lattice `double` rebuilds.
    """
    if lamp.kind == "internal":
        return ("s", lamp_creation_step(pl, lamp))
    return ("b", lamp.foot)


def _lamps_by_id(pl):
    return {_lamp_id(pl, l): l for l in lamps_of_diagram(pl.diagram)}


def locate_retarget(stage_pl, address):
    """Identify the flanking tubes of the cell at `address` in a stage
    lattice, as (lamp id, tube index) pairs for the two upper edges."""
    d = stage_pl.diagram
    cell = resolve_address(d, address)
    lamp_u, alpha = tube_lamp(d, d.trajectory_through((cell.left, cell.top)).tube)
    lamp_v, beta = tube_lamp(d, d.trajectory_through((cell.right, cell.top)).tube)
    return RetargetRecord(
        _lamp_id(stage_pl, lamp_u), alpha, _lamp_id(stage_pl, lamp_v), beta
    )


def _crossing_cell(pl, rec, t):
    """The unique 4-cell where the descending part of the trajectory through
    tube alpha of lamp u crosses the ascending part through tube beta of v."""
    d = pl.diagram
    by_id = _lamps_by_id(pl)

    def primed_id(lamp_id):
        if lamp_id[0] == "s":
            s = lamp_id[1]
            return ("s", s + (s >= t))
        return lamp_id

    lamp_u = by_id[primed_id(rec.u)]
    lamp_v = by_id[primed_id(rec.v)]
    p_tube = lamp_u.tubes[rec.alpha]
    q_tube = lamp_v.tubes[rec.beta]
    traj_p = d.trajectory_through(p_tube)
    traj_q = d.trajectory_through(q_tube)
    desc = set(traj_p.cells[traj_p.top_index:])
    asc = set(traj_q.cells[: traj_q.top_index])
    common = desc & asc
    if len(common) != 1:
        raise InternalInconsistencyError(
            f"trajectories cross in {len(common)} cells, expected exactly 1"
        )
    return common.pop()


def double(seq, t):
    """Sequence realizing the lamp poset with step t's lamp doubled.

    Returns (new sequence, its built lattice).  The stages of `seq` are
    the `parent` chain of build(seq), which reuses the caller's lattice
    while the caller holds it: the lattice after t - 1 steps is forked,
    and the stage before each later step gives the flanking tubes of that
    step's cell.  Verifies the guarantees: tube count and length grow by
    exactly 2, and the new lamp poset is the doubling of the old one at
    the position of step t's lamp in lamp_poset order.
    """
    if not (1 <= t <= len(seq.steps)):
        raise PreconditionError(f"step {t} out of range 1..{len(seq.steps)}")
    orig = stage = build(seq)
    stages = []
    while stage is not None:
        stages.append(stage)
        stage = stage.parent
    stages.reverse()  # stages[s] is the lattice after s steps
    prefix = stages[t - 1]
    records = {s: locate_retarget(stages[s - 1], (st.a, st.b))
               for s, st in enumerate(seq.steps[t:], start=t + 1)}

    step_t = seq.steps[t - 1]
    pl = multifork_extend(prefix, (step_t.a, step_t.b), 2)

    # the cell whose peak is the foot of the new lamp's leftmost tube
    j_prime = next(
        l for l in lamps_of_diagram(pl.diagram) if lamp_creation_step(pl, l) == t
    )
    anchor = j_prime.tubes[0].foot
    cells = [c for c in pl.diagram.four_cells() if c.top == anchor]
    if len(cells) != 1:
        raise InternalInconsistencyError(
            f"{len(cells)} cells under the leftmost tube foot, expected 1"
        )
    pl = multifork_extend(pl, cell_address(pl.diagram, cells[0]), step_t.k)

    for s in range(t + 1, len(seq.steps) + 1):
        cell = _crossing_cell(pl, records[s], t)
        pl = multifork_extend(pl, cell_address(pl.diagram, cell), seq.steps[s - 1].k)

    if pl.antube() != orig.antube() + 2 or pl.length() != orig.length() + 2:
        raise InternalInconsistencyError("doubling did not add exactly 2 tubes")
    lamps_o, _, poset_o = lamp_poset(orig)
    target = next(i for i, l in enumerate(lamps_o) if lamp_creation_step(orig, l) == t)
    doubled = poset_double(poset_o, target)
    _, _, poset_n = lamp_poset(pl)
    if poset_iso(poset_n, doubled) is None:
        raise InternalInconsistencyError("lamp poset is not the doubled poset")
    return pl.seq, pl
