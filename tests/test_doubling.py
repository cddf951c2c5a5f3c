import pytest

from slimlat import doubling, multifork
from slimlat.cli import main
from slimlat.diagram import _forked_labels, _forked_permutation, _jh_min, _jh_permutation
from slimlat.doubling import double
from slimlat.dsl import emit_dsl, parse_dsl
from slimlat.errors import InternalInconsistencyError, PreconditionError, SlimlatError
from slimlat.explore import enumerate_index
from slimlat.lamps import _con_by_place, lamp_poset, lamps_of_diagram
from slimlat.multifork import ForkStep, MultiforkSequence, _sequence_lamp_poset, build, grid
from slimlat.order import (
    congruence_lattice,
    named_posets,
    poset_double,
    poset_iso,
)

from oracles import doubled_sequence_by_crossings, locate_retarget


def _boundary_feet(pl):
    return {(l.side, l.foot) for l in lamps_of_diagram(pl.diagram) if l.kind == "boundary"}


def test_locate_retarget_on_grid_step():
    pl = grid(1, 1)
    # a boundary lamp is named by its foot: 2 on the left upper chain, 1 on
    # the right one
    assert _boundary_feet(pl) == {("L", 2), ("R", 1)}
    assert locate_retarget(pl, (0, 0)) == (("b", 2), 0, ("b", 1), 0)
    # the boundary feet are the grid's at every stage of every lattice of
    # length <= 6, and in the lattice that doubling its first step gives
    checked = 0
    for entry in enumerate_index(6).entries():
        stage = build(entry.seq)
        feet = _boundary_feet(grid(entry.seq.grid_p, entry.seq.grid_q))
        if entry.seq.steps:
            assert _boundary_feet(double(entry.seq, 1)[1]) == feet
        while stage is not None:
            assert _boundary_feet(stage) == feet
            stage = stage.parent
            checked += 1
    assert checked == 288


def assert_double_matches_the_crossings(entries):
    """double at every step of each entry's sequence gives the sequence
    that the geometric relocation finds on built lattices."""
    pairs = [(e.seq, t) for e in entries for t in range(1, len(e.seq.steps) + 1)]
    for seq, t in pairs:
        assert double(seq, t)[0] == doubled_sequence_by_crossings(seq, t), (emit_dsl(seq), t)
    return len(pairs)


def test_double_matches_the_crossings_to_length_six():
    assert assert_double_matches_the_crossings(enumerate_index(6).entries()) == 182


@pytest.mark.slow
def test_double_matches_the_crossings_at_lengths_seven_and_eight():
    index = enumerate_index(8, allow_large=True)
    assert [assert_double_matches_the_crossings(index.entries(n)) for n in (7, 8)] == [985, 7438]


def test_j_con_l_is_the_doubled_lamp_poset_under_the_lamp_places():
    """On every (sequence, step) pair of length <= 7, J(Con L) of the
    doubled lattice, each congruence named by its lamp's place
    (lamps._con_by_place), is the input's lamp poset named by place and
    doubled at step t's lamp: j' keeps place at = p + q + t - 1, and j'',
    the new element n, is step t + 1's lamp.  With j' and j'' swapped the
    map fails on every pair, so the check fixes more than the isomorphism
    type."""
    pairs = 0
    for e in enumerate_index(7).entries():
        seq = e.seq
        n = seq.grid_p + seq.grid_q + len(seq.steps)
        for t in range(1, len(seq.steps) + 1):
            at = n - len(seq.steps) + t - 1
            doubled = poset_double(_sequence_lamp_poset(seq, range(n)), at).up
            pl = double(seq, t)[1]
            assert _con_by_place(pl, [*range(at + 1), n, *range(at + 1, n)]) == doubled
            assert _con_by_place(pl, [*range(at), n, at, *range(at + 1, n)]) != doubled
            pairs += 1
    assert pairs == 1167


def test_label_lists_read_pi_as_the_fork_rule():
    """At every step of every sequence of length <= 7, the permutation read
    off the two label lists, each left label's place in the right list, is
    the chain of _forked_permutation from the grid's."""
    entries = enumerate_index(7).entries()
    for e in entries:
        p, q = e.seq.grid_p, e.seq.grid_q
        left, right = list(range(p + q)), [*range(p, p + q), *range(p)]
        pi = (*range(q + 1, p + q + 1), *range(1, q + 1))
        fresh = p + q
        for st in e.seq.steps:
            left, right = _forked_labels(left, right, (st.a, st.b), list(range(fresh, fresh + st.k)))
            fresh += st.k
            pi = _forked_permutation(pi, (st.a, st.b), st.k)
            place = {label: j for j, label in enumerate(right, 1)}
            assert tuple(place[label] for label in left) == pi, emit_dsl(e.seq)
    assert len(entries) == 493


def test_double_s7():
    seq = parse_dsl("grid 1 1\nfork 0 0 1")
    new_seq, pl = double(seq, 1)
    assert pl.length() == 5 and pl.antube() == 5
    assert len(new_seq.steps) == 2
    # lamp poset is V with its bottom doubled: a 2-chain under two tops
    _, _, poset = lamp_poset(pl)
    expected = poset_double(named_posets("V"), 0)
    assert poset_iso(poset, expected) is not None
    # congruence oracle agrees
    cl = congruence_lattice(pl.lattice)
    assert poset_iso(cl.jir_poset, expected) is not None


def test_double_single_step_needs_no_retargeting():
    seq = parse_dsl("grid 2 2\nfork 1 1 2")
    new_seq, pl = double(seq, 1)
    assert len(new_seq.steps) == 2
    orig = build(seq)
    assert pl.antube() == orig.antube() + 2


def test_double_g22_fork2_poset():
    seq = parse_dsl("grid 2 2\nfork 1 1 2")
    _, pl = double(seq, 1)
    assert pl.antube() == 8
    orig = build(seq)
    _, _, poset_o = lamp_poset(orig)
    _, _, poset_n = lamp_poset(pl)
    assert poset_n.n == poset_o.n + 1
    cl = congruence_lattice(pl.lattice)
    assert poset_iso(cl.jir_poset, poset_n) is not None


def test_double_with_retargeted_later_step():
    seq = parse_dsl("grid 1 1\nfork 0 0 3\nfork 2 0 1")
    for t in (1, 2):
        new_seq, pl = double(seq, t)
        orig = build(seq)
        assert pl.antube() == orig.antube() + 2
        assert pl.length() == orig.length() + 2
        _, _, poset_n = lamp_poset(pl)
        cl = congruence_lattice(pl.lattice)
        assert poset_iso(cl.jir_poset, poset_n) is not None


def test_double_bad_step_index():
    seq = parse_dsl("grid 1 1\nfork 0 0 1")
    with pytest.raises(PreconditionError):
        double(seq, 2)
    with pytest.raises(PreconditionError):
        double(seq, 0)


def assert_doubling_a_held_lattice_matches_a_cold_call(entries):
    """double on each entry's seq, at every step, with nothing of it built
    (the caller's memo starts empty), and again with the caller's build of
    it held: the same DSL and Jordan-Holder key, or the same error."""
    pairs = [(e.seq, t) for e in entries for t in range(1, len(e.seq.steps) + 1)]

    def outcome(seq, t):
        try:
            new_seq, pl = double(seq, t)
        except SlimlatError as e:
            return type(e), str(e)
        return emit_dsl(new_seq), _jh_min(_jh_permutation(pl.diagram))

    cold = [outcome(seq, t) for seq, t in pairs]
    held = []
    for seq, t in pairs:
        pl = build(seq)
        held.append(outcome(pl.seq, t))
        assert build(seq) is pl
    assert held == cold
    return len(pairs)


def test_doubling_a_held_lattice_matches_a_cold_call(empty_memo):
    assert assert_doubling_a_held_lattice_matches_a_cold_call(enumerate_index(6).entries()) == 182


@pytest.mark.slow
def test_doubling_a_held_lattice_matches_a_cold_call_at_length_seven(empty_memo):
    assert assert_doubling_a_held_lattice_matches_a_cold_call(enumerate_index(7).entries(7)) == 985


def test_double_replays_no_step_of_a_held_lattice(monkeypatch, empty_memo):
    """double builds its input, then the doubled sequence, which forks step
    t's cell twice, then each later step once, from the input's stage
    t - 1; the fold of its input costs one step per fork unless the caller
    holds it."""
    steps = []
    extend = multifork.multifork_extend

    def counted(pl, address, k):
        steps.append(address)
        return extend(pl, address, k)

    monkeypatch.setattr(multifork, "multifork_extend", counted)
    seq = parse_dsl("grid 1 1\nfork 0 0 3\nfork 2 0 1")
    expected = "grid 1 1\nfork 0 0 2\nfork 1 0 3\nfork 3 0 1\n"
    assert emit_dsl(double(seq, 1)[0]) == expected
    cold = len(steps)
    pl = build(seq)
    steps.clear()
    assert emit_dsl(double(pl.seq, 1)[0]) == expected
    assert (cold, len(steps)) == (5, 3)


# Replaying a failed self-check -----------------------------------------------

# doubling its first step moves its second: fork 0 0 2, fork 1 0 3, fork 3 0 1
REPLAYED = "grid 1 1\nfork 0 0 3\nfork 2 0 1\n"


def _moved_last_step(a=0, k=0):
    """_doubled_sequence with its last step shifted by a and its k raised by k."""
    computed = doubling._doubled_sequence

    def planted(seq, t):
        new = computed(seq, t)
        *rest, last = new.steps
        return MultiforkSequence(
            new.grid_p, new.grid_q, (*rest, ForkStep(last.a + a, last.b, last.k + k)))

    return "_doubled_sequence", planted


@pytest.mark.parametrize("planted, check", [
    (_moved_last_step(a=1),
     "the doubled sequence fails at step 3: cell at (4, 0) is not distributive"),
    (_moved_last_step(k=1), "doubling added 3 tubes and 3 to the length, not 2"),
    (("poset_double", lambda p, j: p), "J(Con L) is not the doubled lamp poset"),
], ids=["build", "tubes", "poset_double"])
def test_a_failed_doubling_self_check_names_the_input_that_replays_it(
        monkeypatch, tmp_path, capsys, planted, check):
    monkeypatch.setattr(doubling, *planted)
    message = f"{check}; `slimlat double --step 1` replays it on\n{REPLAYED}"
    with pytest.raises(InternalInconsistencyError) as info:
        double(parse_dsl(REPLAYED), 1)
    assert str(info.value) == message
    assert parse_dsl(str(info.value).split("replays it on\n")[1]) == parse_dsl(REPLAYED)
    seq = tmp_path / "replayed.seq"
    seq.write_text(REPLAYED)
    assert main(["double", "--input", str(seq), "--step", "1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
