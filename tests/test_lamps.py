import json
import random
import re
import types

import pytest

import slimlat.lamps as lamps_module
from slimlat import multifork, order
from slimlat.cli import main
from slimlat.doubling import double
from slimlat.dsl import parse_dsl
from slimlat.errors import InternalInconsistencyError, PreconditionError
from slimlat.diagram import PlanarDiagram, _jh_permutation
from slimlat.lamps import (
    lamp_creation_step,
    lamp_poset,
    lamp_report,
    lamps_of_diagram,
    tube_lamp,
    usage_stats,
    verify_lamp_con_iso,
)
from slimlat.explore import enumerate_index
from slimlat.reduce import check_bounds, minimize
from slimlat.multifork import (
    TubeRecord,
    build,
    decompose,
    grid,
    multifork_extend,
    reprovenance,
)
from slimlat.order import Congruence, Poset, congruence_lattice, named_posets, poset_iso

from oracles import (
    congruence_lattice_by_partitions,
    covers_via_nwl_nel,
    fork_interval,
    from_relation,
    nwl_nel,
    nwl_nel_lamp_order,
    peeled_by_lamp_order,
    resolve_address,
    rho_circr,
    rho_foot,
    same_poset,
    stages,
    usage_patterns,
    verify_lamp_con_iso_by_partitions,
)


def s7():
    return multifork_extend(grid(1, 1), (0, 0), 1)


def test_import_gives_the_lamps_module():
    """The package exports no name that hides its lamps submodule."""
    import slimlat.lamps as m
    assert isinstance(m, types.ModuleType) and m.__name__ == "slimlat.lamps"
    assert m.lamp_poset is lamp_poset


def g22_fork2():
    return multifork_extend(grid(2, 2), (1, 1), 2)


def rho_order(pl):
    """(strict order pairs, cover pairs) on lamp feet from the
    from_relation closure of rho_foot."""
    lamps = lamps_of_diagram(pl.diagram)
    idx = {l.foot: i for i, l in enumerate(lamps)}
    poset = from_relation(len(lamps), {(idx[a], idx[b]) for a, b in rho_foot(pl)})
    lt = {(lamps[i].foot, lamps[j].foot)
          for i in range(poset.n) for j in range(poset.n) if poset.lt(i, j)}
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
    assert i.foot == lat.meet_of((i.tubes[0].foot, i.tubes[1].foot))


def test_lamp_feet_distinct():
    for pl in [s7(), g22_fork2(), build(parse_dsl("grid 1 1\nfork 0 0 3\nfork 2 0 1"))]:
        lamps = lamps_of_diagram(pl.diagram)
        feet = [l.foot for l in lamps]
        assert len(set(feet)) == len(feet)


# CircR -------------------------------------------------------------------------

def circumscribed(pl, lamp):
    """[meet of the peak's first and last lower covers, peak], as is_used reads it."""
    lowers = pl.diagram.lower[lamp.peak]
    return pl.lattice.interval(pl.lattice.meet_of((lowers[0], lowers[-1])), lamp.peak)


def test_circ_r_s7():
    pl = s7()
    internal = next(l for l in lamps_of_diagram(pl.diagram) if l.kind == "internal")
    square = resolve_address(grid(1, 1).diagram, (0, 0))
    assert circumscribed(pl, internal) == frozenset(range(7))  # the whole lattice
    assert circumscribed(pl, internal) == pl.lattice.interval(square.bottom, square.top)


def test_circ_r_g22():
    pl = g22_fork2()
    internal = next(l for l in lamps_of_diagram(pl.diagram) if l.kind == "internal")
    cell = resolve_address(grid(2, 2).diagram, (1, 1))
    assert circumscribed(pl, internal) == pl.lattice.interval(cell.bottom, cell.top)


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


def _renumbered(text, perm):
    """Lattice JSON with every id x renumbered perm[x]: the same drawing."""
    data = json.loads(text)
    rows = {key: [None] * data["n"] for key in ("upper_order", "lower_order")}
    for key, out in rows.items():
        for x, row in enumerate(data[key]):
            out[perm[x]] = [perm[v] for v in row]
    return json.dumps({"n": data["n"], "covers": [[perm[a], perm[b]] for a, b in data["covers"]],
                       **rows})


def _check_the_lamp_order_against_nwl_nel(entries):
    """lamp_poset, the fork rule, equals the Nwl/Nel order read off
    trajectory walks, as strict pairs on lamp feet, by both routes: on each
    built lattice, which reads its own sequence, and through the door on
    its diagram, the mirror image and the diagram read back from lattice
    JSON, none of which holds a sequence.  On the built diagram the door
    gives the same Poset, element i being lamp i, and the peel, which
    reads nothing but pi, gives the sequence that the peel on the Nwl/Nel
    order gives; on the mirror image both peels' sequences build to its
    own pi.  The built diagram and its mirror image decompose as they do
    read back from lattice JSON with their ids reversed: the peel ignores
    element ids.  Returns the number of lamp orders checked."""
    checked = 0
    for entry in entries:
        pl = entry.pl
        d = pl.diagram
        mirror = d.mirror()
        assert lamp_poset(pl)[1] == nwl_nel_lamp_order(d), entry.seq
        assert lamp_poset(d)[2] == lamp_poset(pl)[2], entry.seq
        for drawn in (d, mirror, PlanarDiagram.from_json(d.to_json())):
            assert lamp_poset(drawn)[1] == nwl_nel_lamp_order(drawn), (entry.seq, drawn)
        assert multifork._peeled(_jh_permutation(d)) == peeled_by_lamp_order(d), entry.seq
        pi = _jh_permutation(mirror)
        for seq in (multifork._peeled(pi), peeled_by_lamp_order(mirror)):
            assert _jh_permutation(build(seq).diagram) == pi, (entry.seq, seq)
        for drawn in (d, mirror):
            reversed_ids = range(drawn.n - 1, -1, -1)
            relabelled = PlanarDiagram.from_json(_renumbered(drawn.to_json(), reversed_ids))
            assert decompose(relabelled) == decompose(drawn), (entry.seq, drawn)
        checked += 4
    return checked


def test_the_lamp_order_equals_nwl_nel_to_length_seven():
    assert _check_the_lamp_order_against_nwl_nel(enumerate_index(7).entries()) == 1972


@pytest.mark.slow
def test_the_lamp_order_equals_nwl_nel_to_length_eight():
    entries = enumerate_index(8, allow_large=True).entries()
    assert _check_the_lamp_order_against_nwl_nel(entries) == 11280


def test_lattice_json_reads_its_lamps_and_removals_in_its_own_ids():
    """The door (multifork.reprovenance) puts the built lattice of a bare
    diagram's decomposition on the diagram itself.  On each lattice of
    length <= 6, read back from lattice JSON renumbered by a seeded
    permutation and from its mirror image's, the lamp report checks
    Lamp L = J(Con L) and names the bare diagram's lamps and lamp order
    (lamp_poset).  On the renumbered copy the lamps, their tubes, their
    usage patterns and the lamp order are the built lattice's, carried
    through the permutation, and so are the lamp and the tube that
    minimize removes first."""
    rng = random.Random(50)
    entries = enumerate_index(6).entries()
    for entry in entries:
        pl = entry.pl
        perm = list(range(pl.n))
        rng.shuffle(perm)
        renumbered = PlanarDiagram.from_json(_renumbered(pl.diagram.to_json(), perm))
        mirror = PlanarDiagram.from_json(pl.diagram.mirror().to_json())
        for d in (renumbered, mirror):
            door = reprovenance(d)
            report = lamp_report(door)
            lamps, lt, _ = lamp_poset(d)
            assert door.diagram is d and report["congruence_iso_ok"], entry.seq
            assert [(l["foot"], l["peak"]) for l in report["lamps"]] == [
                (l.foot, l.peak) for l in lamps], entry.seq
            assert lamp_poset(door)[1] == lt, entry.seq
        door = reprovenance(renumbered)
        carried = sorted((perm[l["foot"]], perm[l["peak"]],
                          [[perm[a], perm[b]] for a, b in l["tubes"]], l["pattern"])
                         for l in lamp_report(pl)["lamps"])
        assert carried == sorted((l["foot"], l["peak"], l["tubes"], l["pattern"])
                                 for l in lamp_report(door)["lamps"]), entry.seq
        assert {(perm[a], perm[b]) for a, b in lamp_poset(pl)[1]} == lamp_poset(door)[1]
        want, got = minimize(pl)[1][:1], minimize(door)[1][:1]
        assert [(perm[s.lamp_foot], tuple(perm[x] for x in s.removed_tube)) for s in want] == [
            (s.lamp_foot, s.removed_tube) for s in got], entry.seq
    assert len(entries) == 106


def test_a_stuck_peel_in_a_lamp_order_is_reported(monkeypatch, tmp_path, capsys):
    """A peel that gets stuck leaves a bare diagram's lamp order underived:
    lamp_poset raises the door's message (multifork.reprovenance).  A built
    lattice reads its own sequence, so `slimlat lamps` on a sequence file
    peels nothing and succeeds."""
    monkeypatch.setattr(multifork, "_peeled", lambda d: None)
    text = "grid 1 1\nfork 0 0 3\nfork 0 2 1\n"
    with pytest.raises(InternalInconsistencyError) as info:
        lamp_poset(build(parse_dsl(text)).diagram.mirror())
    assert str(info.value) == "no multifork decomposition found"
    seq = tmp_path / "sandwiched.seq"
    seq.write_text(text)
    assert main(["lamps", "--input", str(seq)]) == 0
    assert '"pattern": "0u0"' in capsys.readouterr().out


def test_an_invalid_bare_diagram_has_no_lamp_order(tmp_path, capsys):
    """The door validates a bare diagram before it peels: with one lower
    order row reversed, the top's two lower covers bound no cell.  Each
    command that reads lattice JSON through the door prints its failures
    joined by semicolons."""
    data = json.loads(build(parse_dsl("grid 1 1\nfork 0 0 1")).diagram.to_json())
    data["lower_order"][6].reverse()
    d = PlanarDiagram.from_json(json.dumps(data))
    with pytest.raises(PreconditionError) as info:
        lamp_poset(d)
    assert str(info.value) == (
        "not slim rectangular: lower covers 5,4 of 6 are not the left and right"
        " sides of a cell")
    # the four lower covers of element 3 of `fork 0 0 2`, reversed
    data = json.loads(build(parse_dsl("grid 1 1\nfork 0 0 2")).diagram.to_json())
    data["lower_order"][3].reverse()
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(data))
    failures = [f"lower covers {a},{b} of 3 are not the left and right sides of a cell"
                for a, b in ((1, 10), (10, 9), (9, 2))]
    for command in ("lamps", "bounds", "render", "decompose", "minimize", "reduce"):
        assert main([command, "--input", str(path), "--format", "json"]) == 1
        assert capsys.readouterr().err == f"error: not slim rectangular: {'; '.join(failures)}\n"


def test_no_lamp_order_of_a_built_lattice_peels(monkeypatch, empty_memo):
    """lamp_report, minimize, double and check_bounds read each built
    lattice's lamp order off its own sequence: over the lattices of length
    <= 6, every doubling and every fixpoint, the peel never runs."""
    peels = []
    peeled = multifork._peeled
    monkeypatch.setattr(multifork, "_peeled", lambda d: peels.append(d) or peeled(d))
    entries = enumerate_index(6).entries()
    for entry in entries:
        pl = entry.pl
        assert lamp_report(pl)["congruence_iso_ok"]
        fixed, _ = minimize(pl)
        assert check_bounds(pl).ok and check_bounds(fixed, at_fixpoint=True).ok
        for t in range(1, len(pl.seq.steps) + 1):
            double(pl.seq, t)
    assert len(entries) == 106 and peels == []


def _check_con_against_the_partitions(built):
    """Con L on collapsed masks, read lazily, and the lamp-Con check against
    the eager partition sort, on each built lattice, its mirror image as a
    bare diagram and the door lattice on the mirror image, which reads its
    tube records in the mirror image's ids; returns the number of checks."""
    checked = 0
    for start in built:
        mirror = start.diagram.mirror()
        for pl in (start, mirror, reprovenance(mirror)):
            got = congruence_lattice(pl.lattice)
            want = congruence_lattice_by_partitions(pl.lattice)
            assert got.collapsed == want.collapsed, start.seq
            assert same_poset(got.jir_poset, want.jir_poset), start.seq
            assert got.con_size == want.con_size, start.seq
            assert verify_lamp_con_iso(pl) == verify_lamp_con_iso_by_partitions(pl), start.seq
            checked += 1
    return checked


def test_con_on_masks_matches_the_partitions_to_length_seven():
    entries = enumerate_index(7).entries()
    assert _check_con_against_the_partitions(e.pl for e in entries) == 3 * 493


@pytest.mark.slow
def test_con_on_masks_matches_the_partitions_at_length_eight():
    entries = enumerate_index(8, allow_large=True).entries(8)
    assert _check_con_against_the_partitions(e.pl for e in entries) == 3 * 2327


def test_con_on_masks_matches_the_partitions_at_benchmark_scale():
    """The same checks on lattices of 110 to 244 elements, the scale of the
    benchmark's `large` workload (n up to 171).  Between them they hold
    congruences whose masks have one size, which the join-irreducibles'
    order puts in order (every mask of `grid 9 10` has one element)."""
    built = [build(parse_dsl(text)) for text in (
        "grid 2 1\nfork 1 0 2\nfork 2 0 4\nfork 0 0 6\nfork 4 0 4\nfork 0 1 6\nfork 3 1 2",
        "grid 12 9\nfork 10 2 2\nfork 6 4 1\nfork 3 6 2\nfork 1 10 3",
        "grid 9 10")]
    assert [pl.n for pl in built] == [162, 244, 110]
    assert _check_con_against_the_partitions(built) == 3 * 3
    tied = []
    for pl in built:
        sizes = [c.bit_count() for c in congruence_lattice_by_partitions(pl.lattice).collapsed]
        tied.append(len(sizes) - len(set(sizes)))
    assert tied == [0, 18, 18]


def test_no_con_check_builds_a_partition(monkeypatch, empty_memo):
    """lamp_report, minimize, double and check_bounds check Con L on
    collapsed masks: over the lattices of length <= 6, every doubling and
    every fixpoint, Con L is derived for each, and no partition is built
    and no down-set counted."""
    calls = []
    from_parent, count_downsets, derive = (
        Congruence.from_parent, Poset.count_downsets, order._congruence_lattice)
    monkeypatch.setattr(Congruence, "from_parent", staticmethod(
        lambda parent: calls.append("partition") or from_parent(parent)))
    monkeypatch.setattr(Poset, "count_downsets",
                        lambda self: calls.append("count") or count_downsets(self))
    monkeypatch.setattr(order, "_congruence_lattice",
                        lambda lat: calls.append("Con") or derive(lat))
    entries = enumerate_index(6).entries()
    for entry in entries:
        pl = entry.pl
        assert lamp_report(pl)["congruence_iso_ok"]
        fixed, _ = minimize(pl)
        assert check_bounds(pl).ok and check_bounds(fixed, at_fixpoint=True).ok
        for t in range(1, len(pl.seq.steps) + 1):
            double(pl.seq, t)
    assert len(entries) == 106 and set(calls) == {"Con"} and len(calls) > 106


def test_lamp_data_is_derived_once_per_diagram():
    d = build(parse_dsl("grid 1 1\nfork 0 0 3\nfork 2 0 1")).diagram
    lamps, lt, _ = lamp_poset(d)
    m = d.mirror()
    for diagram in (d, m):
        assert lamp_poset(diagram) is lamp_poset(diagram)
        assert lamps_of_diagram(diagram) is lamps_of_diagram(diagram)
        assert lamp_poset(diagram)[0] is lamps_of_diagram(diagram)
    # the mirror derives its own: same lamps and order, tubes reversed and
    # boundary sides swapped
    swap = {"L": "R", "R": "L", None: None}
    mirrored = {l.foot: l for l in lamps_of_diagram(m)}
    assert lamp_poset(m)[1] == lt and len(mirrored) == len(lamps)
    for l in lamps:
        ml = mirrored[l.foot]
        assert (ml.kind, ml.peak, ml.side) == (l.kind, l.peak, swap[l.side])
        assert ml.tubes == l.tubes[::-1]
        for i, tube in enumerate(l.tubes):
            assert tube_lamp(d, tube) == (l, i)
            assert tube_lamp(m, tube) == (ml, len(l.tubes) - 1 - i)


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


def test_lamp_con_iso_rejects_a_dropped_or_added_order_pair(monkeypatch):
    pl = build(parse_dsl("grid 1 1\nfork 0 0 3\nfork 2 0 1"))
    lamps, lt, poset = lamp_poset(pl)
    assert verify_lamp_con_iso(pl)[0]
    feet = [l.foot for l in lamps]
    absent = [(a, b) for a in feet for b in feet if a != b and (a, b) not in lt]
    assert lt and absent

    def with_order(order):
        monkeypatch.setattr(lamps_module, "lamp_poset", lambda obj: (lamps, order, poset))
        return verify_lamp_con_iso(pl)

    for pair in lt:
        assert with_order(lt - {pair}) == (False, None), pair
    for pair in absent:
        assert with_order(lt | {pair}) == (False, None), pair


def test_lamp_report_flags_a_wrong_lamp_order(monkeypatch):
    pl = g22_fork2()
    lamps, lt, poset = lamp_poset(pl)
    # boundary lamps are maximal, so no two of them are comparable
    boundary = [l.foot for l in lamps if l.kind == "boundary"]
    wrong = lt | {(boundary[0], boundary[1])}
    monkeypatch.setattr(lamps_module, "lamp_poset", lambda obj: (lamps, wrong, poset))
    rep = lamp_report(pl)
    assert rep["congruence_iso_ok"] is False and rep["iso_witness"] is None


def test_lamp_report_flags_congruences_at_swapped_places(monkeypatch):
    """With the congruence places (lamps._congruence_places) of the
    first boundary lamp and step 1's lamp swapped, J(Con L) by place is
    no longer the lamp order by place: the boundary lamp is maximal and
    step 1's lamp is not."""
    place_con = multifork._congruence_places

    def swapped(pl):
        places = list(place_con(pl))
        i, j = places.index(0), places.index(pl.seq.grid_p + pl.seq.grid_q)
        places[i], places[j] = places[j], places[i]
        return tuple(places)

    assert lamp_report(g22_fork2())["congruence_iso_ok"]
    monkeypatch.setattr(multifork, "_congruence_places", swapped)
    rep = lamp_report(g22_fork2())
    assert rep["congruence_iso_ok"] is False and rep["iso_witness"] is None


def test_lamp_con_iso_rejects_a_tube_whose_record_is_not_its_lamps():
    """Each tube's record must carry its lamp's step: with the congruence
    places kept, one tube of the internal lamp moved to step 0, the
    boundary tubes' step, fails the check, and so does one boundary tube
    moved to step 1."""
    for internal in (True, False):
        pl = g22_fork2()
        assert pl._con_places is not None
        lamp = next(l for l in lamps_of_diagram(pl.diagram) if (l.kind == "internal") == internal)
        tube = lamp.tubes[-1]
        record = pl.tube_records[tube]
        pl.tube_records = {**pl.tube_records, tube: TubeRecord(1 - record.step, record.cells)}
        assert verify_lamp_con_iso(pl) == (False, None), lamp


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


def test_usage_matches_the_geometric_oracle_up_to_length_six():
    """usage_stats tests interval containment on the lattice's order; the
    oracle walks each territory at its own stage and tests centroids in
    quadrilaterals on the final drawing."""
    entries = enumerate_index(6).entries()
    doubles = [build(double(e.seq, step)[0])
               for e in entries for step in range(1, len(e.seq.steps) + 1)]
    assert len(entries) == 106 and len(doubles) == 182
    used = 0
    for pl in [e.pl for e in entries] + doubles:
        patterns = usage_stats(pl).patterns
        assert patterns == usage_patterns(pl), pl.seq
        used += sum(p.count("u") for p in patterns.values())
    assert used


@pytest.mark.slow
def test_usage_matches_the_geometric_oracle_at_lengths_seven_and_eight():
    checked = 0
    for entry in enumerate_index(8, allow_large=True).entries():
        if entry.pl.length() >= 7:
            assert usage_stats(entry.pl).patterns == usage_patterns(entry.pl), entry.seq
            checked += 1
    assert checked == 387 + 2327


def test_a_using_lamp_outside_the_lamp_order_is_reported(monkeypatch, tmp_path, capsys):
    """With the lamp order planted empty, the used middle tube of the
    sandwiched fixture fails is_used's self-check, which names the sequence
    that replays it, and slimlat lamps exits 1 with its message."""
    text = "grid 1 1\nfork 0 0 3\nfork 0 2 1\n"
    pl = build(parse_dsl(text))
    lamps, _, poset = lamp_poset(pl)
    monkeypatch.setattr(lamps_module, "lamp_poset",
                        lambda obj: (lamps, frozenset(), from_relation(poset.n, ())))
    message = ("a using lamp is not below the owner in the lamp order;"
               f" `slimlat lamps` replays it on\n{text}")
    with pytest.raises(InternalInconsistencyError, match=f"^{re.escape(message)}$"):
        usage_stats(pl)
    seq = tmp_path / "sandwiched.seq"
    seq.write_text(text)
    capsys.readouterr()
    assert main(["lamps", "--input", str(seq)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_boundary_tube_off_both_upper_boundaries_is_reported(monkeypatch, tmp_path, capsys):
    """With the first internal neon tube listed among the boundary tubes,
    the lamp list's boundary-side check fires: an internal tube's foot lies
    above neither corner.  `slimlat lamps` exits 1 with its message on the
    sequence that replays it."""
    neon_tubes = PlanarDiagram.neon_tubes

    def one_internal_tube_on_the_boundary(d):
        boundary, internal = neon_tubes(d)
        return boundary + internal[:1], internal[1:]

    monkeypatch.setattr(PlanarDiagram, "neon_tubes", one_internal_tube_on_the_boundary)
    text = "grid 1 1\nfork 0 0 3\nfork 0 2 1\n"
    message = "boundary tube Edge(foot=13, peak=3) on neither upper boundary"
    with pytest.raises(InternalInconsistencyError, match=f"^{re.escape(message)}$"):
        lamp_report(build(parse_dsl(text)))
    seq = tmp_path / "sandwiched.seq"
    seq.write_text(text)
    capsys.readouterr()
    assert main(["lamps", "--input", str(seq)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.slow
def test_lamp_report_at_the_element_budget():
    """`grid 43 44` has 1,980 elements, the largest grid within the budget."""
    pl = build(parse_dsl("grid 43 44"))
    assert pl.lattice.n == 1980
    assert lamp_report(pl)["congruence_iso_ok"] is True


def test_lamp_creation_step_names_the_step_that_forked_the_lamps_peak():
    # oracle: step s forks the cell (a, b) of stage s - 1, whose top is the
    # peak of step s's lamp from then on, and whose interval is the lamp's
    # circumscribed one, as is_used reads it; a boundary lamp's step is 0
    checked = 0
    for entry in enumerate_index(6).entries():
        chain = stages(entry.pl)
        cells = {}
        for s, st in enumerate(entry.seq.steps, start=1):
            cell = resolve_address(chain[s - 1].diagram, (st.a, st.b))
            cells[cell.top] = s, cell
        assert len(cells) == len(entry.seq.steps)
        for m, pl in enumerate(chain):
            assert len(pl.seq.steps) == m
            lamps = lamps_of_diagram(pl.diagram)
            assert {l.peak for l in lamps if l.kind == "internal"} == {
                peak for peak, (s, _) in cells.items() if s <= m}
            for l in lamps:
                if l.kind == "internal":
                    s, cell = cells[l.peak]
                    assert lamp_creation_step(pl, l) == s
                    assert circumscribed(pl, l) == pl.lattice.interval(cell.bottom, cell.top)
                else:
                    assert lamp_creation_step(pl, l) == 0
                checked += 1
    assert checked == 1202
