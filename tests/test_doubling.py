import gc

import pytest

from slimlat import doubling, multifork
from slimlat.diagram import _jh_min, _jh_permutation, resolve_address
from slimlat.doubling import RetargetRecord, double, locate_retarget
from slimlat.dsl import emit_dsl, parse_dsl
from slimlat.errors import PreconditionError, SlimlatError
from slimlat.explore import enumerate_index
from slimlat.lamps import lamp_poset, lamps_of_diagram
from slimlat.multifork import build, grid
from slimlat.order import (
    congruence_lattice,
    named_posets,
    poset_double,
    poset_iso,
)


def _boundary_feet(pl):
    return {(l.side, l.foot) for l in lamps_of_diagram(pl.diagram) if l.kind == "boundary"}


def test_locate_retarget_on_grid_step():
    pl = grid(1, 1)
    # a boundary lamp is named by its foot: 2 on the left upper chain, 1 on
    # the right one
    assert _boundary_feet(pl) == {("L", 2), ("R", 1)}
    assert locate_retarget(pl, (0, 0)) == RetargetRecord(("b", 2), 0, ("b", 1), 0)
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
    """double on each entry's seq, at every step, with nothing of it built,
    and again with the caller's build of it held: the same DSL and
    Jordan-Holder key, or the same error."""
    pairs = [(e.seq, t) for e in entries for t in range(1, len(e.seq.steps) + 1)]

    def outcome(seq, t):
        try:
            new_seq, pl = double(seq, t)
        except SlimlatError as e:
            return type(e), str(e)
        return emit_dsl(new_seq), _jh_min(_jh_permutation(pl.diagram))

    gc.collect()
    cold = [outcome(seq, t) for seq, t in pairs]
    held = []
    for seq, t in pairs:
        pl = build(seq)
        held.append(outcome(pl.seq, t))
        assert build(seq) is pl
    assert held == cold
    return len(pairs)


def test_doubling_a_held_lattice_matches_a_cold_call():
    assert assert_doubling_a_held_lattice_matches_a_cold_call(enumerate_index(6).entries()) == 182


@pytest.mark.slow
def test_doubling_a_held_lattice_matches_a_cold_call_at_length_seven():
    assert assert_doubling_a_held_lattice_matches_a_cold_call(enumerate_index(7).entries(7)) == 985


def test_double_replays_no_step_of_a_held_lattice(monkeypatch):
    """double forks step t's cell twice, then each later step once; the
    fold of its input costs one step per fork unless the caller holds it."""
    steps = []
    extend = multifork.multifork_extend

    def counted(pl, address, k):
        steps.append(address)
        return extend(pl, address, k)

    for module in (multifork, doubling):
        monkeypatch.setattr(module, "multifork_extend", counted)
    seq = parse_dsl("grid 1 1\nfork 0 0 3\nfork 2 0 1")
    expected = "grid 1 1\nfork 0 0 2\nfork 1 0 3\nfork 3 0 1\n"
    gc.collect()
    assert emit_dsl(double(seq, 1)[0]) == expected
    cold = len(steps)
    pl = build(seq)
    steps.clear()
    assert emit_dsl(double(pl.seq, 1)[0]) == expected
    assert (cold, len(steps)) == (5, 3)
