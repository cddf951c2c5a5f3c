import pytest

import oracles
import slimlat.doubling as doubling_module
import slimlat.lamps as lamps_module
import slimlat.multifork as multifork_module
import slimlat.reduce as reduce_module
from slimlat.cli import main
from slimlat.diagram import _jh_permutation, is_slim_rectangular
from slimlat.dsl import emit_dsl, parse_dsl
from slimlat.errors import InternalInconsistencyError, PreconditionError
from slimlat.explore import enumerate_index
from slimlat.lamps import (
    lamp_creation_step,
    lamp_poset,
    lamps_of_diagram,
    usage_stats,
)
from slimlat.multifork import (
    ForkStep,
    MultiforkSequence,
    build,
    grid,
    multifork_extend,
)
from slimlat.order import congruence_lattice, poset_iso
from slimlat.reduce import (
    check_bounds,
    find_removable,
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
            removed = oracles.fork_interval(pl.diagram, tube.foot)
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


def removals_extend_only_their_steps(monkeypatch, seqs):
    """Minimize each sequence's built lattice, which holds its stages, and
    check that each removal decomposes nothing (never `_rebuilt`), and
    that a removal from the lamp of step s of an m-step sequence extends only
    steps from s on, each once and up to m: the edited sequence shares the
    input's steps before s (reduce._removed_sequence), and `build` may find
    a longer prefix alive.  Returns the numbers of removals and of steps
    extended."""
    events = []
    rebuilt = multifork_module._rebuilt
    extend, removed = multifork_module.multifork_extend, reduce_module._removed_sequence

    def counted_extend(pl, address, k):
        events.append(len(pl.seq.steps) + 1)
        return extend(pl, address, k)

    def counted_removal(seq, s, i):
        events.append(("removal", s, len(seq.steps)))
        return removed(seq, s, i)

    monkeypatch.setattr(multifork_module, "_rebuilt", lambda d: events.append("rebuild") or rebuilt(d))
    monkeypatch.setattr(multifork_module, "multifork_extend", counted_extend)
    monkeypatch.setattr(reduce_module, "_removed_sequence", counted_removal)
    removals = extended_steps = 0
    for seq in seqs:
        pl = build(seq)
        events.clear()
        _, trace = minimize(pl)
        marks = [i for i, e in enumerate(events) if isinstance(e, tuple)]
        assert len(marks) == len(trace), seq
        for i, j in zip(marks, marks[1:] + [len(events)]):
            _, s, m = events[i]
            extended = events[i + 1:j]
            assert extended == list(range(m + 1 - len(extended), m + 1)), (seq, events)
            assert len(extended) <= m + 1 - s, (seq, events)
            extended_steps += len(extended)
        removals += len(trace)
    return removals, extended_steps


def test_a_removal_deletes_no_fork_and_decomposes_nothing(monkeypatch, empty_memo):
    """A removal builds only its edited sequence, from the input's stage
    before the lamp's fork."""
    entries = enumerate_index(6).entries()
    removals, extended = removals_extend_only_their_steps(monkeypatch, [e.seq for e in entries])
    assert removals == 39 and extended > 0


def test_minimize_names_j_con_l_by_place_once_per_lattice(monkeypatch, empty_memo):
    """Each removal compares J(Con L) by lamp place before and after
    (lamps._con_by_place); each lattice derives it once and keeps it, so
    the 14 removals of minimize on the 162-element lattice derive it for
    the input and each result, 15 times, not twice per removal."""
    derived = []
    place_con = multifork_module._congruence_places
    monkeypatch.setattr(multifork_module, "_congruence_places",
                        lambda pl: derived.append(pl.seq) or place_con(pl))
    pl = build(parse_dsl(
        "grid 2 1\nfork 1 0 2\nfork 2 0 4\nfork 0 0 6\nfork 4 0 4\nfork 0 1 6\nfork 3 1 2"))
    fixed, trace = minimize(pl)
    assert len(trace) == 14 and len(derived) == 15 == len(set(derived))
    assert derived[0] == pl.seq and derived[-1] == fixed.seq


def test_minimize_places_the_lamps_once_per_lattice(monkeypatch, empty_memo):
    """find_removable, the labelled lamp order of each removal and the
    lamp order of its result read each lattice's lamp places
    (lamps._lamp_places); each lattice derives them once and keeps them,
    so minimize on the 162-element lattice derives them 15 times, once
    for the input and once for each of the 14 results."""
    derived = []
    lamp_places = lamps_module._lamp_places
    # every module that holds the derivation under its name counts it
    for module in (lamps_module, multifork_module, reduce_module):
        if hasattr(module, "_lamp_places"):
            monkeypatch.setattr(module, "_lamp_places",
                                lambda pl: derived.append(pl.seq) or lamp_places(pl))
    pl = build(parse_dsl(
        "grid 2 1\nfork 1 0 2\nfork 2 0 4\nfork 0 0 6\nfork 4 0 4\nfork 0 1 6\nfork 3 1 2"))
    fixed, trace = minimize(pl)
    assert len(trace) == 14 and len(derived) == 15 == len(set(derived))
    assert derived[0] == pl.seq and derived[-1] == fixed.seq


@pytest.mark.slow
def test_removals_extend_only_their_steps_at_lengths_seven_and_eight(monkeypatch, empty_memo, index8):
    seqs = [e.seq for e in index8.entries(7) + index8.entries(8)]
    removals, extended = removals_extend_only_their_steps(monkeypatch, seqs)
    assert removals == 1322 and extended > 0


def applicable_removals(pl):
    """(rule, lamp, tube removed, the call's tube arguments) of every
    removal that applies to pl: each '00' pair in both orientations and
    each '0u0'."""
    patterns = usage_stats(pl).patterns
    for lamp in lamps_of_diagram(pl.diagram):
        if lamp.kind != "internal":
            continue
        pattern, tubes = patterns[lamp.foot], lamp.tubes
        for i in range(len(tubes) - 1):
            if pattern[i:i + 2] == "00":
                yield "neighboring", lamp, tubes[i + 1], (tubes[i], tubes[i + 1])
                yield "neighboring", lamp, tubes[i], (tubes[i + 1], tubes[i])
            if pattern[i:i + 3] == "0u0":
                yield "sandwiched", lamp, tubes[i + 1], (tubes[i + 1],)


def lamp_names(pl):
    """Lamp foot -> name: an internal lamp's creation step, a boundary
    lamp's side and its rank among that side's feet by height."""
    lamps = lamps_of_diagram(pl.diagram)
    names = {l.foot: lamp_creation_step(pl, l) for l in lamps if l.kind == "internal"}
    down = pl.lattice.poset.down
    for side in "LR":
        feet = sorted((l.foot for l in lamps if l.side == side), key=lambda f: down[f].bit_count())
        names.update((foot, (side, rank)) for rank, foot in enumerate(feet))
    return names


def labelled_lamps(d, names):
    """(tube count by name, strict order pairs of names) of d's lamps."""
    lamps, lt, _ = lamp_poset(d)
    return {names[l.foot]: len(l.tubes) for l in lamps}, {(names[a], names[b]) for a, b in lt}


def assert_removals_equal_the_fork_deletion(entries):
    """Every applicable removal of each entry's built lattice has the
    Jordan-Holder permutation, the labelled lamp order and the tube counts
    of the fork deletion (oracles.removal_by_deletion), whose lamps are
    named through its id map.  Returns the number of removals."""
    removals = 0
    for entry in entries:
        pl = build(entry.seq)
        names = lamp_names(pl)
        for rule, lamp, tube, args in list(applicable_removals(pl)):
            if rule == "neighboring":
                got, _ = remove_neighboring(pl, lamp.foot, *args)
            else:
                got, _ = remove_sandwiched(pl, lamp.foot, *args)
            subd, followed = oracles.removal_by_deletion(pl, lamp, tube, rule)
            context = (emit_dsl(entry.seq), rule, tube)
            assert _jh_permutation(got.diagram) == _jh_permutation(subd), context
            sub_names = {followed[foot]: name for foot, name in names.items()}
            assert labelled_lamps(got, lamp_names(got)) == labelled_lamps(subd, sub_names), context
            removals += 1
    return removals


def test_removals_equal_the_fork_deletion_to_length_seven():
    assert assert_removals_equal_the_fork_deletion(enumerate_index(7).entries()) == 423


@pytest.fixture(scope="module")
def index8():
    return enumerate_index(8, allow_large=True)


@pytest.mark.slow
def test_removals_equal_the_fork_deletion_at_length_eight(index8):
    assert assert_removals_equal_the_fork_deletion(index8.entries(8)) == 2155


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
            tp = stats.patterns[l.foot].count("u")
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

# its first removal is a sandwiched one, whose later step names the tube
REPLAYED = "grid 1 1\nfork 0 0 3\nfork 0 2 1\n"
# its first removal is a neighboring one at step 1, and step 2 is 2-fold
TWO = "grid 1 1\nfork 0 0 2\nfork 0 0 2\n"
# its first removal's lamp has a 3-tube neighbour to keep, not the tube's
NEIGHBOUR = "grid 1 1\nfork 0 0 3\nfork 0 1 1\n"


def _returns_its_input(seq, s, i):
    """A removal rule that edits nothing."""
    return seq


def _upper_neighbour(old, new, i):
    """A label in place of a dropped one: the nearest kept label above it,
    not below."""
    while old[i] not in new:
        i += 1
    return new.index(old[i])


def _the_next_forks_tube(seq, s, i, removed=reduce_module._removed_sequence):
    """A removal rule that takes its tube from the next fork."""
    return removed(seq, s + 1, i)


def _also_the_next_forks_tube(seq, s, i, removed=reduce_module._removed_sequence):
    """A removal rule that takes one tube more, from the next fork."""
    return removed(removed(seq, s, i), s + 1, 0)


def _the_neighbour_tube(seq, s, i, removed=reduce_module._removed_sequence):
    """A removal rule that takes the tube's right neighbour instead."""
    return removed(seq, s, (i + 1) % seq.steps[s - 1].k)


@pytest.mark.parametrize("module, name, planted, text, check", [
    (reduce_module, "_con_by_place", lambda pl, names: pl.n, REPLAYED,
     "congruence lattice changed under the removal"),
    (reduce_module, "_removed_sequence", _the_neighbour_tube, NEIGHBOUR,
     "lamp poset changed under the removal"),
    (doubling_module, "_kept_place", _upper_neighbour, REPLAYED,
     "the reduced sequence fails at step 2: cell at (0, 2) is not distributive"),
    (reduce_module, "_removed_sequence", _returns_its_input, REPLAYED,
     "removal did not shrink the lattice"),
    (reduce_module, "_removed_sequence", _the_next_forks_tube, TWO,
     "the lamp of step 1 did not lose exactly one tube"),
    (reduce_module, "_removed_sequence", _also_the_next_forks_tube, TWO,
     "a lamp other than step 1's lost or gained a tube"),
], ids=["congruence", "lamp_poset", "invalid", "no_shrink", "lost_tube", "foot_kept"])
def test_a_failed_removal_self_check_names_the_sequence_that_replays_it(
        monkeypatch, tmp_path, capsys, module, name, planted, text, check):
    """Each of the six removal self-checks fires on a defect planted in
    one helper, and names the sequence that `slimlat reduce` replays it on:
    a removal rule that edits nothing, takes the wrong tube or one more, or
    puts a later step by the wrong neighbour of the dropped label, and a
    labelled J(Con L) that reads the lattice's size, which every removal
    changes."""
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


# a neighboring removal leaves grid 2 2 / fork 1 1 1
PEELED = "grid 2 2\nfork 1 1 2\n"
# a neighboring removal whose lamp's peak is no other lamp's foot or peak
UNSHARED = "grid 2 2\nfork 0 0 2\n"


def _first_boundary_lamp(d):
    return next(l for l in lamps_of_diagram(d) if l.kind == "boundary")


def _id_map_planted(move):
    """A fork deletion whose old -> new id map is then changed by
    move(map, d, tube) in place."""
    def planted(d, tube, delete=oracles.delete_fork):
        subd, idx = delete(d, tube)
        idx = dict(idx)
        move(idx, d, tube)
        return subd, idx

    return planted


def _peak_unmapped(idx, d, tube):
    idx[tube.peak] = -1


def _foreign_foot_unmapped(idx, d, tube):
    idx[_first_boundary_lamp(d).foot] = -1


def _foreign_peak_on_its_foot(idx, d, tube):
    lamp = _first_boundary_lamp(d)
    idx[lamp.peak] = idx[lamp.foot]


def _foreign_peak_deleted(idx, d, tube):
    del idx[_first_boundary_lamp(d).peak]


def _first_removal(pl):
    """(lamp, tube, rule) of the removal that minimize applies first: a
    '00' or a '0u0' takes the tube after its first."""
    lamp, kind, pos = find_removable(pl)
    return lamp, lamp.tubes[pos + 1], "neighboring" if kind == "00" else "sandwiched"


@pytest.mark.parametrize("move, text, check", [
    (_foreign_peak_deleted, PEELED, "deleted peak is off both fork chains"),
    (_peak_unmapped, UNSHARED, "reduced lamp lost more than one tube"),
    (_foreign_foot_unmapped, REPLAYED, "lamp with foot 1 did not keep its foot and tube count"),
    (_foreign_peak_deleted, REPLAYED,
     "a foreign lamp peak was deleted outside the neighboring rule"),
    (_foreign_peak_on_its_foot, REPLAYED, "lamp with foot 1 was re-peaked against the join rule"),
], ids=["off_chains", "lost_tube", "foot_kept", "foreign_peak", "repeaked"])
def test_the_reference_removal_asserts_its_id_map(monkeypatch, move, text, check):
    """The fork deletion follows each lamp through its old -> new id map
    (oracles.removal_by_deletion); each assertion on that map fires when
    the map loses or moves one lamp's peak or foot."""
    pl = build(parse_dsl(text))
    removal = _first_removal(pl)
    oracles.removal_by_deletion(pl, *removal)
    monkeypatch.setattr(oracles, "delete_fork", _id_map_planted(move))
    with pytest.raises(AssertionError) as info:
        oracles.removal_by_deletion(pl, *removal)
    assert str(info.value) == check


def test_a_failed_decomposition_exits_one_on_lattice_json(monkeypatch, tmp_path, capsys):
    """A peel that gives a sequence with the wrong permutation fails the
    decomposition's check, which lattice JSON input reaches in `slimlat
    reduce` and `slimlat decompose`.  A removal of a built lattice, whose
    lamp orders read its own sequence and the edited one, peels nothing,
    so it still succeeds."""
    peeled = multifork_module._peeled

    def one_tube_too_many(d):
        seq = peeled(d)
        *rest, last = seq.steps
        return MultiforkSequence(
            seq.grid_p, seq.grid_q, (*rest, ForkStep(last.a, last.b, last.k + 1)))

    monkeypatch.setattr(multifork_module, "_peeled", one_tube_too_many)
    check = "no multifork decomposition found"
    pl = build(parse_dsl(PEELED))
    assert reduce_module._reduce_once(pl)[1].rule == "neighboring"
    lattice = tmp_path / "peeled.json"
    lattice.write_text(pl.diagram.to_json())
    for command in ("reduce", "decompose"):
        assert main([command, "--input", str(lattice), "--format", "json"]) == 1
        assert capsys.readouterr().err == f"error: {check}\n"
