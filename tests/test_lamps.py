import sys

import pytest

from slimlat.dsl import parse_dsl
from slimlat.errors import PreconditionError
from slimlat.lamps import (
    _verify_lamp_con_iso,
    circ_r,
    fork_interval,
    lamp_poset,
    lamp_report,
    lamps_of_diagram,
    nwl_nel,
    usage_stats,
    verify_lamp_con_iso,
)
from slimlat.explore import enumerate_index
from slimlat.multifork import build, grid, multifork_extend
from slimlat.order import Poset, named_posets, poset_iso

from oracles import covers_via_nwl_nel, rho_circr, rho_foot


def s7():
    return multifork_extend(grid(1, 1), (0, 0), 1)


def g22_fork2():
    return multifork_extend(grid(2, 2), (1, 1), 2)


def rho_order(pl):
    """(strict order pairs, cover pairs) on lamp feet from the
    Poset.from_relation closure of rho_foot."""
    lamps = lamps_of_diagram(pl.diagram)
    idx = {l.foot: i for i, l in enumerate(lamps)}
    poset = Poset.from_relation(len(lamps), {(idx[a], idx[b]) for a, b in rho_foot(pl)})
    lt = {(lamps[i].foot, lamps[j].foot) for i in range(poset.n) for j in poset.up[i] if j != i}
    covers = {(lamps[a].foot, lamps[b].foot) for a, b in poset.covers}
    return frozenset(lt), frozenset(covers)


# Lamps -------------------------------------------------------------------------

def test_grid_lamps_all_boundary():
    lamps = lamps_of_diagram(grid(2, 3).diagram)
    assert len(lamps) == 5
    assert all(l.kind == "boundary" for l in lamps)


def test_s7_lamps():
    pl = s7()
    lamps = lamps_of_diagram(pl.diagram)
    kinds = sorted(l.kind for l in lamps)
    assert kinds == ["boundary", "boundary", "internal"]
    internal = next(l for l in lamps if l.kind == "internal")
    # the internal lamp's foot is the foot of its single tube
    assert internal.foot == internal.tubes[0].foot
    assert internal.peak == pl.lattice.top


def test_g22_fork2_lamps():
    pl = g22_fork2()
    lamps = lamps_of_diagram(pl.diagram)
    internal = [l for l in lamps if l.kind == "internal"]
    assert len(internal) == 1 and len(internal[0].tubes) == 2
    assert sum(1 for l in lamps if l.kind == "boundary") == 4
    # foot of a 2-tube lamp is the meet of its tube feet
    lat = pl.lattice
    i = internal[0]
    assert i.foot == lat.meet[i.tubes[0].foot][i.tubes[1].foot]


def test_lamp_feet_distinct():
    for pl in [s7(), g22_fork2(), build(parse_dsl("grid 1 1\nfork 0 0 3\nfork 2 0 1"))]:
        lamps = lamps_of_diagram(pl.diagram)
        feet = [l.foot for l in lamps]
        assert len(set(feet)) == len(feet)


# CircR -------------------------------------------------------------------------

def test_circ_r_s7():
    pl = s7()
    internal = next(l for l in lamps_of_diagram(pl.diagram) if l.kind == "internal")
    interval, origin = circ_r(pl, internal)
    assert interval == frozenset(range(7))  # the whole lattice
    assert pl.forest[origin].stage == 0     # the original square cell


def test_circ_r_g22():
    pl = g22_fork2()
    internal = next(l for l in lamps_of_diagram(pl.diagram) if l.kind == "internal")
    _, origin = circ_r(pl, internal)
    node = pl.forest[origin]
    assert node.stage == 0
    boundary = next(l for l in lamps_of_diagram(pl.diagram) if l.kind == "boundary")
    with pytest.raises(PreconditionError):
        circ_r(pl, boundary)


# rho relations --------------------------------------------------------------------

def test_rho_s7():
    pl = s7()
    lamps = lamps_of_diagram(pl.diagram)
    internal = next(l for l in lamps if l.kind == "internal")
    boundary_feet = {l.foot for l in lamps if l.kind == "boundary"}
    expected = {(internal.foot, f) for f in boundary_feet}
    assert rho_foot(pl) == expected
    assert rho_circr(pl) == expected


def test_rho_empty_on_grids():
    pl = grid(3, 2)
    assert rho_foot(pl) == frozenset()
    assert rho_circr(pl) == frozenset()


def test_rho_foot_equals_rho_circr_on_fixtures():
    fixtures = [
        "grid 1 1\nfork 0 0 1",
        "grid 2 2\nfork 1 1 2",
        "grid 1 1\nfork 0 0 3\nfork 2 0 1",
        "grid 3 1\nfork 2 0 1\nfork 0 0 1",
        "grid 1 1\nfork 0 0 1\nfork 0 0 1",
    ]
    for text in fixtures:
        pl = build(parse_dsl(text))
        assert rho_foot(pl) == rho_circr(pl), text


def test_rho_points_younger_to_older():
    pl = build(parse_dsl("grid 1 1\nfork 0 0 3\nfork 2 0 1"))
    lamps = {l.foot: l for l in lamps_of_diagram(pl.diagram)}
    from slimlat.lamps import lamp_creation_step
    for a, b in rho_foot(pl):
        assert lamp_creation_step(pl, lamps[a]) > lamp_creation_step(pl, lamps[b])


def test_g22_fork2_rho_targets():
    pl = g22_fork2()
    lamps = lamps_of_diagram(pl.diagram)
    internal = next(l for l in lamps if l.kind == "internal")
    ups = {b for a, b in rho_foot(pl) if a == internal.foot}
    # below exactly the two boundary lamps whose stage-0 territory contains cell (1,1)
    assert len(ups) == 2


# Lamp poset ----------------------------------------------------------------------

def test_lamp_poset_s7_is_v():
    _, _, poset = lamp_poset(s7())
    assert poset_iso(poset, named_posets("V")) is not None


def test_lamp_poset_grid_antichain():
    _, lt, poset = lamp_poset(grid(2, 3))
    assert not lt
    assert poset.covers == frozenset()
    assert poset.n == 5


def test_maximal_lamps_are_boundary():
    for text in ["grid 1 1\nfork 0 0 2", "grid 2 2\nfork 1 1 1\nfork 0 0 1"]:
        pl = build(parse_dsl(text))
        lamps, lt, _ = lamp_poset(pl)
        maximal = {
            l.foot for l in lamps
            if not any(a == l.foot for a, b in lt)
        }
        boundary = {l.foot for l in lamps if l.kind == "boundary"}
        assert maximal == boundary
        assert len(boundary) == pl.seq.grid_p + pl.seq.grid_q


# Nwl / Nel ------------------------------------------------------------------------

def test_nwl_nel_s7():
    pl = s7()
    lamps = lamps_of_diagram(pl.diagram)
    internal = next(l for l in lamps if l.kind == "internal")
    nwl, nel = nwl_nel(pl.diagram, internal)
    assert {nwl.kind, nel.kind} == {"boundary"}
    assert nwl.side == "L" and nel.side == "R"


def test_covers_via_nwl_nel_match_rho_closure():
    fixtures = [
        "grid 1 1\nfork 0 0 1",
        "grid 2 2\nfork 1 1 2",
        "grid 1 1\nfork 0 0 3\nfork 2 0 1",
        "grid 2 1\nfork 1 0 1\nfork 0 0 2",
    ]
    for text in fixtures:
        pl = build(parse_dsl(text))
        assert covers_via_nwl_nel(pl.diagram) == rho_order(pl)[1], text


def test_diagram_lamp_order_matches_rho_order():
    entries = enumerate_index(6).entries()
    assert len(entries) == 106
    for entry in entries:
        assert lamp_poset(entry.pl)[1] == rho_order(entry.pl)[0], entry.seq


# Lamp-congruence isomorphism --------------------------------------------------------

def test_lamp_con_iso_s7():
    ok, witness = verify_lamp_con_iso(s7())
    assert ok and len(witness) == 3


def test_lamp_con_iso_grid():
    ok, witness = verify_lamp_con_iso(grid(2, 1))
    assert ok and len(witness) == 3


def test_lamp_con_iso_various():
    for text in [
        "grid 2 2\nfork 1 1 2",
        "grid 1 1\nfork 0 0 3\nfork 2 0 1",
        "grid 2 1\nfork 1 0 1\nfork 0 0 2",
    ]:
        ok, _ = verify_lamp_con_iso(build(parse_dsl(text)))
        assert ok, text


def test_lamp_con_iso_rejects_a_dropped_or_added_order_pair():
    pl = build(parse_dsl("grid 1 1\nfork 0 0 3\nfork 2 0 1"))
    lamps, lt, _ = lamp_poset(pl)
    assert _verify_lamp_con_iso(pl, lamps, lt)[0]
    feet = [l.foot for l in lamps]
    absent = [(a, b) for a in feet for b in feet if a != b and (a, b) not in lt]
    assert lt and absent
    for pair in lt:
        assert _verify_lamp_con_iso(pl, lamps, lt - {pair}) == (False, None), pair
    for pair in absent:
        assert _verify_lamp_con_iso(pl, lamps, lt | {pair}) == (False, None), pair


def test_lamp_report_flags_a_wrong_lamp_order(monkeypatch):
    pl = g22_fork2()
    lamps, lt, poset = lamp_poset(pl)
    # boundary lamps are maximal, so no two of them are comparable
    boundary = [l.foot for l in lamps if l.kind == "boundary"]
    wrong = lt | {(boundary[0], boundary[1])}
    # the module itself: slimlat.lamps names the function lamps()
    monkeypatch.setattr(sys.modules["slimlat.lamps"], "lamp_poset",
                        lambda obj: (lamps, wrong, poset))
    rep = lamp_report(pl)
    assert rep["congruence_iso_ok"] is False and rep["iso_witness"] is None


# Usage --------------------------------------------------------------------------

def test_usage_s7_single_zero():
    pl = s7()
    stats = usage_stats(pl)
    assert list(stats.patterns.values()) == ["0"]


def test_usage_g22_fork2():
    stats = usage_stats(g22_fork2())
    assert list(stats.patterns.values()) == ["00"]


def test_usage_sandwich_fixture():
    pl = build(parse_dsl("grid 1 1\nfork 0 0 3\nfork 2 0 1"))
    stats = usage_stats(pl)
    lamps = lamps_of_diagram(pl.diagram)
    three = next(l for l in lamps if l.kind == "internal" and len(l.tubes) == 3)
    assert stats.patterns[three.foot] == "0u0"
    assert stats.t_plus(three.foot) == 1 and stats.t_minus(three.foot) == 2


def test_lamp_report_shape():
    rep = lamp_report(g22_fork2())
    assert rep["congruence_iso_ok"]
    assert len(rep["lamps"]) == 5
    assert all("tubes" in l for l in rep["lamps"])


# Fork intervals -----------------------------------------------------------------

def test_fork_interval_s7():
    pl = s7()
    internal = next(l for l in lamps_of_diagram(pl.diagram) if l.kind == "internal")
    f = fork_interval(pl.diagram, internal.foot)
    assert len(f) == 3  # foot plus its two projections
    assert internal.foot in f
