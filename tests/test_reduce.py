import pytest

import slimlat.multifork as multifork_module
import slimlat.reduce as reduce_module
from slimlat.cli import main
from slimlat.diagram import is_slim_rectangular
from slimlat.dsl import parse_dsl
from slimlat.errors import InternalInconsistencyError, PreconditionError
from slimlat.explore import enumerate_index
from slimlat.lamps import fork_interval, lamp_poset, lamps_of_diagram, usage_stats
from slimlat.multifork import (
    ForkStep,
    MultiforkSequence,
    build,
    grid,
    multifork_extend,
    reprovenance,
)
from slimlat.order import congruence_lattice, poset_iso
from slimlat.reduce import (
    check_bounds,
    length_bound,
    minimize,
    remove_neighboring,
    remove_sandwiched,
)

from oracles import is_reduction_fixpoint

SANDWICH = "grid 1 1\nfork 0 0 3\nfork 2 0 1"


def internal_lamp(pl, ntubes=None):
    for l in lamps_of_diagram(pl.diagram):
        if l.kind == "internal" and (ntubes is None or len(l.tubes) == ntubes):
            return l
    raise AssertionError("no such internal lamp")


# Meet closure -----------------------------------------------------------------

def test_meet_closure_of_fork_removal():
    for text in ["grid 1 1\nfork 0 0 1", "grid 2 2\nfork 1 1 2", SANDWICH]:
        pl = build(parse_dsl(text))
        lat = pl.lattice
        boundary, internal = pl.diagram.neon_tubes()
        for tube in boundary + internal:
            removed = fork_interval(pl.diagram, tube.foot)
            keep = set(range(lat.n)) - removed
            for x in keep:
                for y in keep:
                    assert lat.meet_of((x, y)) in keep, (text, tube)


# Sandwiched removal -------------------------------------------------------------

def test_sandwich_fixture_pattern():
    pl = build(parse_dsl(SANDWICH))
    lamp = internal_lamp(pl, ntubes=3)
    assert usage_stats(pl).patterns[lamp.foot] == "0u0"


def test_remove_sandwiched():
    pl = build(parse_dsl(SANDWICH))
    lamp = internal_lamp(pl, ntubes=3)
    before_cl = congruence_lattice(pl.lattice)
    pl2, step = remove_sandwiched(pl, lamp.foot, lamp.tubes[1])
    assert step.rule == "sandwiched"
    assert step.size_after < step.size_before
    assert step.antube_after == step.antube_before - 1
    assert step.con_preserved
    after_cl = congruence_lattice(pl2.lattice)
    assert poset_iso(before_cl.jir_poset, after_cl.jir_poset) is not None
    assert is_slim_rectangular(pl2.diagram).ok
    # the reduced lamp kept its peak and lost exactly one tube
    reduced = internal_lamp(pl2, ntubes=2)
    assert reduced is not None


def test_remove_sandwiched_rejects_single_tube():
    pl = multifork_extend(grid(1, 1), (0, 0), 1)
    lamp = internal_lamp(pl)
    with pytest.raises(PreconditionError):
        remove_sandwiched(pl, lamp.foot, lamp.tubes[0])


def test_remove_sandwiched_rejects_unused_middle():
    pl = multifork_extend(grid(1, 1), (0, 0), 3)
    lamp = internal_lamp(pl)
    with pytest.raises(PreconditionError, match="not used"):
        remove_sandwiched(pl, lamp.foot, lamp.tubes[1])


# Neighboring removal --------------------------------------------------------------

def test_remove_neighboring_g22():
    pl = multifork_extend(grid(2, 2), (1, 1), 2)
    lamp = internal_lamp(pl, ntubes=2)
    assert usage_stats(pl).patterns[lamp.foot] == "00"
    pl2, step = remove_neighboring(pl, lamp.foot, lamp.tubes[0], lamp.tubes[1])
    assert step.rule == "neighboring"
    assert pl2.n == 14 and pl2.length() == 5
    # identical to building the 1-fold sequence directly
    expected = multifork_extend(grid(2, 2), (1, 1), 1)
    assert pl2.canonical_code() == expected.canonical_code()


def test_remove_neighboring_mirrored_arguments():
    pl = multifork_extend(grid(2, 2), (1, 1), 2)
    lamp = internal_lamp(pl, ntubes=2)
    pl2, _ = remove_neighboring(pl, lamp.foot, lamp.tubes[1], lamp.tubes[0])
    assert is_slim_rectangular(pl2.diagram).ok
    assert pl2.antube() == pl.antube() - 1


def test_remove_neighboring_rejects_used():
    pl = build(parse_dsl(SANDWICH))
    lamp = internal_lamp(pl, ntubes=3)
    with pytest.raises(PreconditionError, match="used"):
        remove_neighboring(pl, lamp.foot, lamp.tubes[0], lamp.tubes[1])


def test_remove_neighboring_rejects_non_adjacent():
    pl = multifork_extend(grid(1, 1), (0, 0), 3)
    lamp = internal_lamp(pl)
    with pytest.raises(PreconditionError, match="adjacent"):
        remove_neighboring(pl, lamp.foot, lamp.tubes[0], lamp.tubes[2])


# Minimize --------------------------------------------------------------------------

def test_minimize_g22_two_tubes():
    pl = multifork_extend(grid(2, 2), (1, 1), 2)
    fixed, trace = minimize(pl)
    assert len(trace) == 1
    expected = multifork_extend(grid(2, 2), (1, 1), 1)
    assert fixed.canonical_code() == expected.canonical_code()


def test_minimize_already_minimal_is_identity():
    pl = multifork_extend(grid(1, 1), (0, 0), 1)
    fixed, trace = minimize(pl)
    assert not trace
    assert fixed.canonical_code() == pl.canonical_code()


def test_minimize_terminates_and_preserves_con():
    for text in [SANDWICH, "grid 1 1\nfork 0 0 4", "grid 2 1\nfork 1 0 2\nfork 0 0 2"]:
        pl = build(parse_dsl(text))
        before = congruence_lattice(pl.lattice)
        fixed, trace = minimize(pl)
        assert len(trace) <= pl.antube()
        assert all(s.con_preserved for s in trace)
        after = congruence_lattice(fixed.lattice)
        assert poset_iso(before.jir_poset, after.jir_poset) is not None
        assert before.con_size == after.con_size
        assert is_reduction_fixpoint(fixed)


def test_minimize_validates_each_diagram_once(monkeypatch):
    import sys
    validated = []     # the diagrams themselves, so that no id is reused

    def counting(obj):
        validated.append(obj)
        return is_slim_rectangular(obj)

    for name in ("slimlat.multifork", "slimlat.reduce"):
        monkeypatch.setattr(sys.modules[name], "is_slim_rectangular", counting)
    removals = 0
    for text in [SANDWICH, "grid 1 1\nfork 0 0 4", "grid 2 1\nfork 1 0 2\nfork 0 0 2"]:
        removals += len(minimize(build(parse_dsl(text)))[1])
    assert removals >= 5
    assert len({id(d) for d in validated}) == len(validated)


def test_one_fork_deletion_per_removal_and_none_per_decomposition(monkeypatch):
    """A removal deletes one fork; recovering a sequence, for a removal's
    result or for a diagram, deletes none."""
    calls = []
    delete = multifork_module._delete_fork

    def counted(*args):
        calls.append(args)
        return delete(*args)

    for module in (multifork_module, reduce_module):
        monkeypatch.setattr(module, "_delete_fork", counted)
    entries = enumerate_index(6).entries()
    removals = 0
    for entry in entries:
        before = len(calls)
        _, trace = minimize(build(entry.seq))
        assert len(calls) - before == len(trace), entry.seq
        removals += len(trace)
    assert removals > 0
    calls.clear()
    for entry in entries:
        reprovenance(entry.pl.diagram)
    assert calls == []


def test_fixpoint_minimal_lamps_have_one_tube():
    for text in [SANDWICH, "grid 1 1\nfork 0 0 4", "grid 2 2\nfork 1 1 3"]:
        fixed, _ = minimize(build(parse_dsl(text)))
        lamps, lt, _ = lamp_poset(fixed.diagram)
        internal_feet = {l.foot for l in lamps if l.kind == "internal"}
        stats = usage_stats(fixed)
        for l in lamps:
            if l.kind != "internal":
                continue
            minimal = not any(f != l.foot and (f, l.foot) in lt for f in internal_feet)
            if minimal:
                assert len(l.tubes) == 1
            tp = stats.t_plus(l.foot)
            if tp > 0:
                assert len(l.tubes) <= 2 * tp


# Bounds -----------------------------------------------------------------------------

def test_length_bound_values():
    assert length_bound(4) == 7
    assert length_bound(3) == 3


def test_check_bounds_s7():
    pl = multifork_extend(grid(1, 1), (0, 0), 1)
    rep = check_bounds(pl, at_fixpoint=True)
    assert rep.n == 3 and rep.length == 3
    assert rep.antube == 3
    by_name = {name: ok for name, ok, _ in rep.assertions}
    assert by_name["length >= n"]
    assert by_name["length == total neon tubes"]
    assert by_name["fixpoint length <= 2n^2 - 10n + 15"]
    assert by_name["size <= length^2"]
    # the paper's size bound for the short lattice: 7 <= 4 * 3^4
    assert by_name["fixpoint size <= 4n^4"]
    assert rep.ok


def test_check_bounds_on_plain_lattice():
    from slimlat.order import lattice_from_poset, named_posets
    rep = check_bounds(lattice_from_poset(named_posets("chain", 4)))
    assert rep.n == 3
    assert rep.length == 3
    assert rep.ok


def test_check_bounds_reports_alike_on_a_built_lattice_its_diagram_and_its_lattice():
    for entry in enumerate_index(5).entries():
        pl = entry.pl
        expected = check_bounds(pl).to_dict()
        assert check_bounds(pl.diagram).to_dict() == expected
        assert check_bounds(pl.lattice).to_dict() == expected


def test_check_bounds_fixpoint_flag():
    pl = build(parse_dsl(SANDWICH))
    fixed, _ = minimize(pl)
    rep = check_bounds(fixed, at_fixpoint=True)
    assert rep.k >= 1
    by_name = {name: ok for name, ok, _ in rep.assertions}
    assert by_name["fixpoint length <= 2n^2 - 10n + 15"]
    assert by_name["length >= n"] and by_name["size <= length^2"]


# Replaying a failed removal ----------------------------------------------------

# its first removal is a sandwiched one
REPLAYED = "grid 1 1\nfork 0 0 3\nfork 0 2 1\n"


def _orderless_on_bare_diagrams(obj):
    """lamp_poset, with no order pairs for a bare diagram: _remove_fork
    reads the removal's result as one."""
    lamps, lt, poset = lamp_poset(obj)
    return (lamps, lt, poset) if hasattr(obj, "diagram") else (lamps, frozenset(), poset)


# a neighboring removal leaves grid 2 2 / fork 1 1 1
PEELED = "grid 2 2\nfork 1 1 2\n"
# a neighboring removal whose lamp's peak is no other lamp's foot or peak
UNSHARED = "grid 2 2\nfork 0 0 2\n"


def _first_boundary_lamp(d):
    return next(l for l in lamps_of_diagram(d) if l.kind == "boundary")


def _id_map_planted(move):
    """A fork deletion whose old -> new id map is then changed by
    move(map, d, tube) in place."""
    def planted(d, tube, delete=multifork_module._delete_fork):
        subd, idx = delete(d, tube)
        idx = dict(idx)
        move(idx, d, tube)
        return subd, idx

    return planted


def _deletes_nothing(d, tube):
    """A fork deletion that returns the diagram it was given."""
    return d, {i: i for i in range(d.lattice.n)}


def _left_chain_only(d, foot):
    """A fork interval without the right chain [r_proj(foot), foot]."""
    return d.lattice.interval(d.l_proj(foot), foot)


def _peak_unmapped(idx, d, tube):
    idx[tube.peak] = -1


def _foreign_foot_unmapped(idx, d, tube):
    idx[_first_boundary_lamp(d).foot] = -1


def _foreign_peak_on_its_foot(idx, d, tube):
    lamp = _first_boundary_lamp(d)
    idx[lamp.peak] = idx[lamp.foot]


def _foreign_peak_deleted(idx, d, tube):
    del idx[_first_boundary_lamp(d).peak]


@pytest.mark.parametrize("module, name, planted, text, check", [
    (reduce_module, "_con_isomorphic", lambda a, b: False, REPLAYED,
     "congruence lattice changed under the removal"),
    (reduce_module, "lamp_poset", _orderless_on_bare_diagrams, REPLAYED,
     "lamp poset changed under the removal"),
    (multifork_module, "fork_interval", _left_chain_only, REPLAYED,
     "removal produced an invalid lattice: validation failed: ('not semimodular',"
     " 'region over 9 between covers 11,10 is not a 4-cell')"),
    (reduce_module, "_delete_fork", _deletes_nothing, REPLAYED,
     "removal did not shrink size and tube count by 1"),
    (reduce_module, "_delete_fork", _id_map_planted(_foreign_peak_deleted), PEELED,
     "deleted peak is off both fork chains"),
    (reduce_module, "_delete_fork", _id_map_planted(_peak_unmapped), UNSHARED,
     "reduced lamp lost more than one tube"),
    (reduce_module, "_delete_fork", _id_map_planted(_foreign_foot_unmapped), REPLAYED,
     "lamp with foot 1 did not keep its foot and tube count"),
    (reduce_module, "_delete_fork", _id_map_planted(_foreign_peak_deleted), REPLAYED,
     "a foreign lamp peak was deleted outside the neighboring rule"),
    (reduce_module, "_delete_fork", _id_map_planted(_foreign_peak_on_its_foot), REPLAYED,
     "lamp with foot 1 was re-peaked against the join rule"),
], ids=["congruence", "lamp_poset", "invalid", "no_shrink", "off_chains", "lost_tube",
        "foot_kept", "foreign_peak", "repeaked"])
def test_a_failed_removal_self_check_names_the_sequence_that_replays_it(
        monkeypatch, tmp_path, capsys, module, name, planted, text, check):
    """Each of the nine removal self-checks fires on a defect planted in
    one helper, and names the sequence that `slimlat reduce` replays it on:
    a fork deletion that keeps half the fork or nothing, or whose id map
    loses or moves one lamp's peak or foot."""
    monkeypatch.setattr(module, name, planted)
    message = f"{check}; `slimlat reduce` replays it on\n{text}"
    with pytest.raises(InternalInconsistencyError) as info:
        minimize(build(parse_dsl(text)))
    assert str(info.value) == message
    assert str(info.value.__cause__) == check
    seq = tmp_path / "replayed.seq"
    seq.write_text(text)
    assert main(["reduce", "--input", str(seq)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_failed_decomposition_names_the_sequence_that_replays_it(
        monkeypatch, tmp_path, capsys):
    peeled = multifork_module._peeled

    def one_tube_too_many(d):
        seq = peeled(d)
        *rest, last = seq.steps
        return MultiforkSequence(
            seq.grid_p, seq.grid_q, (*rest, ForkStep(last.a, last.b, last.k + 1)))

    monkeypatch.setattr(multifork_module, "_peeled", one_tube_too_many)
    check = "no multifork decomposition found"
    message = f"{check}; `slimlat reduce` replays it on\n{PEELED}"
    pl = build(parse_dsl(PEELED))
    with pytest.raises(InternalInconsistencyError) as info:
        reduce_module._reduce_once(pl)
    assert str(info.value) == message
    seq = tmp_path / "peeled.seq"
    seq.write_text(PEELED)
    assert main(["reduce", "--input", str(seq)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    lattice = tmp_path / "peeled.json"
    lattice.write_text(pl.diagram.to_json())
    assert main(["decompose", "--input", str(lattice), "--format", "json"]) == 1
    assert capsys.readouterr().err == f"error: {check}\n"
