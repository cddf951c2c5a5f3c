import gc
import types
from functools import cached_property
from math import lcm

import pytest

from slimlat import diagram, explore, multifork
from slimlat.diagram import (
    Edge,
    PlanarDiagram,
    boundary_heights,
    is_slim_rectangular,
)
from slimlat.doubling import double
from slimlat.dsl import emit_dsl, parse_dsl
from slimlat.cli import main
from slimlat.errors import (
    InternalInconsistencyError,
    ParseError,
    PreconditionError,
    SlimlatError,
)
from slimlat.explore import enumerate_index
from slimlat.lamps import lamps_of_diagram, tube_lamp
from slimlat.multifork import (
    ForkStep,
    MultiforkSequence,
    ProvenancedLattice,
    build,
    decompose,
    grid,
    multifork_extend,
)
from slimlat.order import FiniteLattice, Poset, lattice_from_poset
from slimlat.reduce import minimize
from slimlat.render import render

import oracles
from oracles import (
    delete_fork, distributive_cells, eager_coords, every_child, order_from_covers)
from test_order import S7_COVERS


def s7_diagram():
    from slimlat.diagram import embed_rectangular
    return embed_rectangular(lattice_from_poset(order_from_covers(S7_COVERS)))


# Certificates ----------------------------------------------------------------

def test_only_foreign_input_runs_the_mask_certificate(monkeypatch, tmp_path, capsys):
    """Building, minimizing and doubling the lattices of length <= 6 run no
    mask certificate: each step is certified by its corner coordinates.  A
    lattice read from JSON is still certified by its down-set masks, and a
    non-lattice exits 1 with the certificate's one-line message."""
    seqs = [e.pl.seq for e in enumerate_index(6).entries()]
    filled = []
    certify = FiniteLattice._certify

    def counted(lat):
        filled.append(lat.n)
        return certify(lat)

    monkeypatch.setattr(FiniteLattice, "_certify", counted)
    for seq in seqs:
        minimize(build(seq))
        for t in range(1, len(seq.steps) + 1):
            try:
                double(seq, t)
            except SlimlatError:
                pass
    assert filled == []

    # 1 v 2 has the two minimal upper bounds 3 and 4
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 6, "covers": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3], [2, 4],'
                   ' [3, 5], [4, 5]], "upper_order": [[1, 2], [3, 4], [3, 4], [5], [5], []],'
                   ' "lower_order": [[], [0], [0], [1, 2], [1, 2], [3, 4]]}')
    assert main(["validate", "--input", str(bad), "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no glb for pair (") and err.count("\n") == 1
    assert filled == [6]


def test_built_lattices_run_boundary_heights_once_as_their_certificate(monkeypatch):
    """Building, minimizing and doubling the lattices of length <= 6 run
    boundary_heights exactly once per built lattice, inside the certificate
    (_certified_diagram), and never the order-list comparison: a built
    diagram keeps the coordinates that certified its lattice, and sorts its
    lists from the cover relation.  A diagram read from JSON compares its
    lists once, and derives its heights on first use."""
    seqs = [e.pl.seq for e in enumerate_index(6).entries()]
    calls, certified = [], []
    heights, compare = diagram.boundary_heights, PlanarDiagram._check_order_lists
    certify = multifork._certified_diagram

    def counted_heights(lat, lc, rc):
        calls.append(("heights", lat))
        return heights(lat, lc, rc)

    def counted_compare(d):
        calls.append("order lists")
        return compare(d)

    def counted_certify(poset, lc, rc, *spliced):
        before = len(calls)
        d = certify(poset, lc, rc, *spliced)
        assert calls[before:] == [("heights", d.lattice)]
        certified.append(d.lattice)
        return d

    monkeypatch.setattr(diagram, "boundary_heights", counted_heights)
    monkeypatch.setattr(PlanarDiagram, "_check_order_lists", counted_compare)
    monkeypatch.setattr(multifork, "_certified_diagram", counted_certify)
    for seq in seqs:
        minimize(build(seq))
        for t in range(1, len(seq.steps) + 1):
            try:
                double(seq, t)
            except SlimlatError:
                pass
    # every call ran in a certificate, each on its own lattice
    assert calls == [("heights", lat) for lat in certified]
    assert len(set(map(id, certified))) == len(certified) > 1000, len(certified)

    built = build(seqs[-1]).diagram
    calls.clear()
    read = PlanarDiagram.from_json(built.to_json())
    assert calls == ["order lists"]
    assert read.heights() == built.heights()
    assert calls == ["order lists", ("heights", read.lattice)]


def test_steps_list_no_trajectories_and_draw_nothing(monkeypatch):
    """Enumerating the lattices of length <= 6, then building, minimizing
    and doubling them, walks no trajectory in a grid or a fork step but a
    step's two path descents, and computes no drawing coordinates: the
    trajectory check sweeps them all along the walk table's east list,
    the tube records are read off a grid's coordinates and a step's
    splice, and a built lattice keeps only the recipes of its points.
    One svg render replays them once, for its slope check and its
    drawing."""
    calls, walks, steps, grids = [], [], [], []
    sweeps = {"count": 0}
    sweep, half_walk = diagram._trajectory_failure, diagram._half_walk
    extend, make_grid = multifork.multifork_extend, multifork.grid
    points = ProvenancedLattice.points.func

    def counted_sweep(d):
        sweeps["count"] += 1
        return sweep(d)

    def counted_walk(step, s, seen):
        walks.append(s)
        return half_walk(step, s, seen)

    def counted_extend(pl, address, k):
        before = len(walks)
        child = extend(pl, address, k)
        steps.append(len(walks) - before)
        return child

    def counted_grid(p, q):
        before = len(walks)
        g = make_grid(p, q)
        grids.append(len(walks) - before)
        return g

    def counted_points(pl):
        calls.append("points")
        return points(pl)

    counted = cached_property(counted_points)
    counted.__set_name__(ProvenancedLattice, "points")
    monkeypatch.setattr(diagram, "_trajectory_failure", counted_sweep)
    for module in (multifork, diagram):
        monkeypatch.setattr(module, "_half_walk", counted_walk)
    for module in (multifork, explore):
        monkeypatch.setattr(module, "multifork_extend", counted_extend)
        monkeypatch.setattr(module, "grid", counted_grid)
    monkeypatch.setattr(ProvenancedLattice, "points", counted)
    seqs = [e.pl.seq for e in enumerate_index(6).entries()]
    for seq in seqs:
        minimize(build(seq))
        for t in range(1, len(seq.steps) + 1):
            try:
                double(seq, t)
            except SlimlatError:
                pass
    # every half-walk is one of a step's two path descents: no grid or step
    # walks a trajectory for its records
    assert set(steps) == {2} and set(grids) == {0}
    assert len(walks) - 2 * len(steps) == 0 and len(steps) > len(seqs)
    assert calls == [] and sweeps["count"] > len(seqs)

    pl = build(seqs[-1])
    render(pl, "svg")
    assert calls == ["points"]


def test_steps_sort_no_row_and_derive_no_cover_set(monkeypatch):
    """Enumerating the lattices of length <= 6, then building, minimizing
    and doubling them, sorts no row: a grid or fork step splices its rows
    in order from the parent's, and a removal builds a sequence.  Only a
    fork deletion, the test oracle whose rows come ascending from
    the oracles' restrict, sorts.  No built lattice derives its cover set: one
    JSON write derives it once."""
    events = []
    falling, covers = diagram._falling, Poset.covers.func

    def counted_falling(u, row, hl):
        events.append("sort")
        return falling(u, row, hl)

    def counted_covers(poset):
        events.append("covers")
        return covers(poset)

    counted = cached_property(counted_covers)
    counted.__set_name__(Poset, "covers")
    monkeypatch.setattr(diagram, "_falling", counted_falling)
    monkeypatch.setattr(Poset, "covers", counted)
    seqs = [e.pl.seq for e in enumerate_index(6).entries()]
    for seq in seqs:
        minimize(build(seq))
        for t in range(1, len(seq.steps) + 1):
            try:
                double(seq, t)
            except SlimlatError:
                pass
    assert events == []
    pl = build(parse_dsl("grid 2 2\nfork 1 1 2"))
    delete_fork(pl.diagram, pl.diagram.neon_tubes()[1][0])
    assert "sort" in events    # the counter sees the sorts that happen

    events.clear()
    d = build(seqs[-1]).diagram
    d.to_json()
    d.to_json()
    assert events == ["covers"]


def assert_rows_spliced(parent, child):
    """The child's rows are its covers sorted by falling left height, read
    off its masks (b covers a iff [a, b] has two elements); its upper and
    lower rows are each other's transpose and its poset's own rows; and
    each old element whose covers the fork left alone keeps the parent's
    row, the same tuple.  Returns the number of rows kept."""
    d, p = child.diagram, child.lattice.poset
    n, lc = p.n, d.corners()[0]
    hl = [(m & p.down[lc]).bit_count() - 1 for m in p.down]
    ups = [[b for b in range(n) if b != a and (p.up[a] & p.down[b]).bit_count() == 2]
           for a in range(n)]
    downs = [[a for a in range(n) if b in ups[a]] for b in range(n)]
    assert d.upper == tuple(tuple(sorted(r, key=lambda v: -hl[v])) for r in ups)
    assert d.lower == tuple(tuple(sorted(r, key=lambda v: -hl[v])) for r in downs)
    pairs = sorted((a, b) for a in range(n) for b in d.upper[a])
    assert pairs == sorted((a, b) for b in range(n) for a in d.lower[b])
    assert d.upper is p._upcov and d.lower is p._dncov
    kept = 0
    for old, new in ((parent.diagram.upper, d.upper), (parent.diagram.lower, d.lower)):
        for u, row in enumerate(old):
            if set(row) == set(new[u]):
                assert new[u] is row, (emit_dsl(child.seq), u)
                kept += 1
    return kept


def test_a_fork_shifts_the_old_left_heights_monotonically():
    """The argument that a fork step's kept rows still fall
    (diagram._check_spliced): the k-fold fork at (a, b) adds k to each old
    left height above a and keeps the others, on all 15,234 old elements
    of the 894 forks, k = 1 and 2, at the distributive cells of the
    lattices of length <= 6."""
    old = forks = 0
    for entry in enumerate_index(6).entries():
        hl = entry.pl.diagram.heights()[0]
        for a, b in distributive_cells(entry.pl.diagram):
            for k in (1, 2):
                child = multifork_extend(entry.pl, (a, b), k).diagram.heights()[0]
                assert child[:len(hl)] == tuple(h + k if h > a else h for h in hl)
                old, forks = old + len(hl), forks + 1
    assert (old, forks) == (15234, 894)


def test_fork_steps_splice_their_rows_from_the_parent(monkeypatch, empty_memo):
    """Every fork child of enumerate_index(6), duplicates included
    (every_child), every fork step of the 182 doublings of its lattices and
    of one lattice of the benchmark's large size."""
    steps = []
    extend = multifork.multifork_extend

    def checked(pl, address, k):
        child = extend(pl, address, k)
        steps.append(assert_rows_spliced(pl, child))
        return child

    index = enumerate_index(6)
    for module in (oracles, multifork):
        monkeypatch.setattr(module, "multifork_extend", checked)
    children = sum(1 for _ in every_child(index))
    entries = index.entries()
    doubled = sum(1 for e in entries for step in range(1, len(e.seq.steps) + 1)
                  if double(e.seq, step))
    assert len(entries) == 106 and doubled == 182
    assert build(parse_dsl("grid 7 6\nfork 5 0 2\nfork 3 4 1\nfork 1 7 2\n")).n == 106
    # every step keeps some old rows; 37 doubled sequences share more than
    # t - 1 steps with their input, whose live stages build reuses
    assert children == 107 and len(steps) == 937 and all(steps)


# Grid ------------------------------------------------------------------------

def test_grid_basics():
    g = grid(1, 1)
    assert g.n == 4 and g.length() == 2
    g22 = grid(2, 2)
    assert g22.n == 9
    assert len(oracles.four_cells(g22.diagram)) == 4
    boundary, internal = g22.diagram.neon_tubes()
    assert len(boundary) == 4 and len(internal) == 0


def test_grid_formulas():
    for p, q in [(1, 1), (2, 1), (3, 2)]:
        g = grid(p, q)
        assert g.length() == p + q
        assert g.n == (p + 1) * (q + 1)
        assert g.antube() == p + q


def test_grid_rejects_degenerate():
    with pytest.raises(PreconditionError):
        grid(0, 2)


def test_grid_tube_records():
    """A grid's tubes are its boundary tubes, made at step 0, and each
    one's whole trajectory is essential."""
    g = grid(2, 3)
    assert len(g.tube_records) == 5
    for tube, rec in g.tube_records.items():
        assert rec.step == 0
        cells = oracles.trajectory_through(g.diagram, tube).cells
        assert rec.cells == tuple((c.bottom, c.top) for c in cells) and rec.cells


# the benchmark's ten `large` lattices at seed 1 (perfbench/workloads.py)
LARGE_SEED_1 = (
    "grid 4 4\nfork 2 0 1\nfork 1 2 1\nfork 0 4 1\n",
    "grid 5 4\nfork 2 0 1\nfork 1 2 1\nfork 0 4 1\n",
    "grid 4 6\nfork 2 0 1\nfork 1 3 1\nfork 0 5 1\n",
    "grid 5 6\nfork 4 0 1\nfork 1 3 1\nfork 0 6 1\n",
    "grid 7 5\nfork 2 0 2\nfork 1 4 1\nfork 0 6 1\n",
    "grid 6 7\nfork 3 0 1\nfork 2 3 1\nfork 1 5 2\n",
    "grid 7 7\nfork 5 0 1\nfork 4 4 2\nfork 1 7 1\n",
    "grid 8 8\nfork 4 0 2\nfork 3 8 1\nfork 0 10 1\n",
    "grid 10 7\nfork 6 0 2\nfork 4 5 2\nfork 3 8 1\n",
    "grid 10 9\nfork 9 1 1\nfork 2 5 2\nfork 1 8 2\n",
)


def assert_new_records_walked(pl):
    """The records that pl's last step made (a grid's: all of them) are
    the cells that each new tube's trajectory crosses, walked on pl's own
    walk table (oracles.trajectory_through), less the two that flank an
    internal tube; the older records are its parent's."""
    step, seq = len(pl.seq.steps), pl.seq
    new = {tube: r.cells for tube, r in pl.tube_records.items() if r.step == step}
    assert len(new) == (seq.steps[-1].k if step else seq.grid_p + seq.grid_q)
    for tube, cells in new.items():
        walk = oracles.trajectory_through(pl.diagram, tube)
        assert walk.edges[walk.top_index] == tube
        walked = tuple((c.bottom, c.top) for c in walk.cells)
        if step:
            walked = walked[:walk.top_index - 1] + walked[walk.top_index + 1:]
        assert cells == walked, (emit_dsl(seq), tube)
    if pl.parent is not None:
        assert {t: r for t, r in pl.tube_records.items() if r.step < step} == pl.parent.tube_records


def test_records_are_the_walked_trajectories_to_length_seven():
    """Each of the 493 lattices of length <= 7 (each a grid or one step
    from another), and each stage of the benchmark's ten `large` lattices
    at seed 1."""
    entries = enumerate_index(7).entries()
    for entry in entries:
        assert_new_records_walked(entry.pl)
    stages = 0
    for text in LARGE_SEED_1:
        pl = build(parse_dsl(text))
        while pl is not None:
            assert_new_records_walked(pl)
            pl, stages = pl.parent, stages + 1
    assert len(entries) == 493 and stages == 40


@pytest.mark.slow
def test_records_are_the_walked_trajectories_at_length_eight():
    entries = enumerate_index(8, allow_large=True).entries(8)
    for entry in entries:
        assert_new_records_walked(entry.pl)
    assert len(entries) == 2327


def test_edges_and_cells_are_their_tuples():
    """An Edge is its (foot, peak) pair, so maps keyed by either answer the
    other; the tube records' keys and cells are stored as plain tuples."""
    assert Edge(3, 6) == (3, 6) and hash(Edge(3, 6)) == hash((3, 6))
    pl = build(parse_dsl("grid 2 2\nfork 1 1 2\nfork 0 0 1\n"))
    d = pl.diagram
    tubes = [(l, i, e) for l in lamps_of_diagram(d) for i, e in enumerate(l.tubes)]
    assert len(tubes) == pl.antube() == 7
    for lamp, i, (f, p) in tubes:
        assert tube_lamp(d, (f, p)) == (lamp, i)
        assert pl.tube_records[f, p] is pl.tube_records[Edge(f, p)]
    assert {type(key) for key in pl.tube_records} == {tuple}
    assert {type(c) for rec in pl.tube_records.values() for c in rec.cells} == {tuple}
    assert len(pl.tube_records) == 7


# Extension ---------------------------------------------------------------------

def test_fork_b2_gives_s7():
    pl = multifork_extend(grid(1, 1), (0, 0), 1)
    assert pl.n == 7
    assert pl.length() == 3
    assert pl.antube() == 3
    assert pl.canonical_code() == s7_diagram().canonical_code()


def test_twofold_fork_of_b2():
    pl = multifork_extend(grid(1, 1), (0, 0), 2)
    assert pl.length() == 4
    assert pl.antube() == 4
    # 4 old + k new chain elements per side + k tube feet + k(k-1)/2 crossings
    assert pl.n == 11
    assert is_slim_rectangular(pl.diagram).ok


def test_kfold_fork_sizes():
    # standalone k-fold fork of the square: (k^2 + 5k + 8) / 2 elements
    for k in (1, 2, 3, 4):
        pl = multifork_extend(grid(1, 1), (0, 0), k)
        assert pl.n == (k * k + 5 * k + 8) // 2
        assert pl.length() == 2 + k
        assert pl.antube() == 2 + k


def test_fork_g22_counts():
    pl = multifork_extend(grid(2, 2), (1, 1), 2)
    # 9 old + 2 tube feet + 2*2 left-path + 2*2 right-path + 1 crossing
    assert pl.n == 20
    assert pl.length() == 6
    boundary, internal = pl.diagram.neon_tubes()
    assert len(boundary) == 4 and len(internal) == 2


def test_every_extension_adds_k_everywhere():
    pl = grid(2, 1)
    for addr, k in [((1, 0), 1), ((0, 0), 2)]:
        before_len, before_tubes = pl.length(), pl.antube()
        pl = multifork_extend(pl, addr, k)
        assert pl.length() == before_len + k
        assert pl.antube() == before_tubes + k
        assert is_slim_rectangular(pl.diagram).ok


def test_extension_rejects_bad_cells():
    pl = multifork_extend(grid(1, 1), (0, 0), 1)  # S_7
    # the two upper cells have non-distributive peak ideals
    for addr in [(1, 0), (0, 1)]:
        with pytest.raises(PreconditionError, match="not distributive"):
            multifork_extend(pl, addr, 1)
    from slimlat.errors import DiagramError
    with pytest.raises(DiagramError):
        multifork_extend(pl, (5, 5), 1)


# Replaying a failed fork self-check ----------------------------------------------

# each defect is planted in the one fork step of this sequence
REPLAYED = "grid 2 2\nfork 1 1 1\n"


def _swapped_boundaries(real):
    """The boundary sets, left and right swapped: no path ends on its own."""
    return "_boundary_sets", lambda d: real(d)[::-1]


def _rows_edited(upper=(), lower=(), added=(), cut=0):
    """A stand-in for Poset whose _from_rows takes the rows that a fork step
    hands it with the given rows, {element: row}, in place, one (upper,
    lower) pair of rows appended per added element, and the last `cut`
    lower rows dropped."""
    def from_rows(up, low):
        up, low = list(up), list(low[:len(low) - cut])
        for rows, edits in ((up, upper), (low, lower)):
            for u, row in dict(edits).items():
                rows[u] = row
        for a, b in added:
            up.append(a)
            low.append(b)
        return Poset._from_rows(tuple(up), tuple(low))

    return "Poset", types.SimpleNamespace(_from_rows=from_rows)


def _certified_then(plant):
    """_certified_diagram, with `plant` applied to the diagram it returns."""
    real = multifork._certified_diagram

    def planted(poset, lc, rc, *spliced):
        d = real(poset, lc, rc, *spliced)
        return plant(d) or d

    return "_certified_diagram", planted


def _unforked(d):
    """The parent lattice, certified again: the fork added nothing."""
    parent = build(parse_dsl("grid 2 2"))
    return diagram._certified_diagram(parent.lattice.poset, *d.corners())


def _reversed_peak_row(d):
    """The new tube's peak lists its lower covers right to left."""
    t = d.upper[d.n - 1][0]
    lower = list(d.lower)
    lower[t] = lower[t][::-1]
    d.lower = tuple(lower)


def _tube_moved_east(d):
    """After validation, the walk table moves the new tube one edge east
    along its trajectory: crossing the tube west or east leads where
    crossing the next edge east does."""
    assert is_slim_rectangular(d).ok
    table = d._walks()
    x = table.base[d.n - 1]
    y = table.east[x]
    table.west[x], table.east[x] = table.west[y], table.east[y]


@pytest.mark.parametrize("planted, check", [
    (_swapped_boundaries(PlanarDiagram._boundary_sets),
     "the cell's lower edges do not descend to the boundaries"),
    (_rows_edited(lower={7: (6,)}),
     "extension produced an invalid lattice: cover (9,7) is missing from the lower rows"),
    (_certified_then(_reversed_peak_row),
     "extension validation failed: lower covers 5,13 of 8 are not the left and right"
     " sides of a cell; lower covers 13,7 of 8 are not the left and right sides of a cell"),
    (_certified_then(_unforked), "extension did not add k to length and tube count"),
    (_certified_then(_tube_moved_east), "new tube is not its trajectory's top edge"),
    (_rows_edited(upper={0: (1, 3)}),
     "extension produced an invalid lattice: the upper row of 0 is not the parent's,"
     " which the fork keeps"),
    (_rows_edited(lower={8: (5, 13, 7)}),
     "extension produced an invalid lattice: covers 5,13 of 8 do not fall in left height"),
], ids=["paths", "rows", "validation", "growth", "tube", "kept row", "rebuilt row"])
def test_a_failed_fork_self_check_names_the_sequence_that_replays_it(
        monkeypatch, planted, check):
    """Each self-check of a fork step fires on a defect planted in one
    helper, and names the extended sequence, which parses back.  The kept
    row is element 0's upper row, reversed, and the rebuilt row the cell
    top's lower row, reversed: a sort would put either back in order, and
    the child would pass every other check."""
    pl = build(parse_dsl(REPLAYED)).parent
    name, helper = planted
    owner = PlanarDiagram if name == "_boundary_sets" else multifork
    monkeypatch.setattr(owner, name, helper)
    with pytest.raises(InternalInconsistencyError) as info:
        multifork_extend(pl, (1, 1), 1)
    message = f"{check}; `slimlat build` replays it on\n{REPLAYED}"
    assert str(info.value) == message
    assert parse_dsl(str(info.value).split("replays it on\n")[1]) == parse_dsl(REPLAYED)


def _raised_left_height(lat, lc, rc):
    """The points, with element 13 moved one left height up, from (2, 2) to
    (3, 2), beside 7 at (3, 1) among the upper covers of 9: no rows that
    pass the up-set test put two covers of one element at one left height."""
    hl, hr, lchain, rchain = boundary_heights(lat, lc, rc)
    return hl[:13] + (hl[13] + 1,) + hl[14:], hr, lchain, rchain


# The child of REPLAYED's fork has 14 elements: the grid's 0..8 at their
# points, bottom 0, top 8, corners 6 and 2, and the fork's 9..13
@pytest.mark.parametrize("planted, check", [
    (_rows_edited(cut=1), "14 upper rows but 13 lower rows"),
    (_rows_edited(upper={13: (14,)}), "cover (13,14) is missing from the lower rows"),
    (_rows_edited(lower={8: (7, 13, 5, 0)}),
     "the lower rows list covers that the upper rows do not"),
    (_rows_edited(upper={8: (0,)}, lower={0: (8,)}), "cycle detected in cover relation"),
    (_rows_edited(upper={13: (8, 8)}, lower={8: (7, 13, 13, 5)}), "cover (13,8) is listed twice"),
    (_rows_edited(upper={0: (3, 1, 4)}, lower={4: (3, 1, 0)}),
     "cover (0,4) is not reduced: 0<1<4"),
    (_rows_edited(added=[((), ())]), "no unique bottom/top: minimals (0, 14), maximals (8, 14)"),
    (_rows_edited(upper={12: (11, 2, 6)}, lower={6: (10, 12)}), "corner ideal is not a chain"),
    (_rows_edited(upper={2: (5, 7)}, lower={7: (6, 9, 2)}),
     "element 5 is not the join of its two projections"),
    # element 4, at (1, 1), moved onto the edge from 0 to 3: 9 now covers 1
    # and 11 covers 3, so (2, 1), below both, is left empty
    (_rows_edited(upper={0: (4, 1), 4: (3,), 3: (10, 11), 1: (9, 12)},
                  lower={4: (0,), 3: (4,), 9: (10, 1), 11: (3, 12)}),
     "elements 5 and 7 have no element at their coordinatewise minimum (2,1)"),
    # a new bottom 14 below 0: both corner ideals hold 0 and 14
    (_rows_edited(added=[((0,), ())], lower={0: (14,)}), "corners are not complements"),
    (("boundary_heights", _raised_left_height), "covers 7,13 of 9 collide in the embedding"),
], ids=["row count", "range", "lower count", "cycle", "twice", "reduced",
        "bounds", "corner chain", "up-set", "minimum", "complements", "collide"])
def test_each_check_of_the_fused_passes_names_the_sequence_that_replays_it(
        monkeypatch, planted, check):
    """Each OrderError and DiagramError of a fork step's poset and
    certificate fires on a defect planted in the rows that the step hands
    them, or, for the collision, in the points, and the step names the
    extended sequence, which `slimlat build` replays."""
    pl = build(parse_dsl(REPLAYED)).parent
    name, helper = planted
    monkeypatch.setattr(diagram if name == "boundary_heights" else multifork, name, helper)
    with pytest.raises(InternalInconsistencyError) as info:
        multifork_extend(pl, (1, 1), 1)
    assert str(info.value) == (f"extension produced an invalid lattice: {check};"
                               f" `slimlat build` replays it on\n{REPLAYED}")


def inside(lat, outer, cell):
    """True iff cell's interval [bottom, top] lies in outer's, in lat."""
    return lat.leq(outer[0], cell[0]) and lat.leq(cell[-1], outer[-1])


def test_forest_children_counts():
    """The cells a fork of grid 2 2 makes, counted by interval containment:
    the forked cell holds 2k + 1 + k(k - 1) / 2 of them, each of the two
    cells its paths cross k + 1, and every other grid cell only itself."""
    base = grid(2, 2)
    origin = oracles.resolve_address(base.diagram, (1, 1))
    for k in (1, 2, 3):
        pl = multifork_extend(base, (1, 1), k)
        lat, cells = pl.lattice, oracles.four_cells(pl.diagram)
        counts = sorted(sum(inside(lat, c, c2) for c2 in cells)
                        for c in oracles.four_cells(base.diagram) if c != origin)
        assert sum(inside(lat, origin, c2) for c2 in cells) == 2 * k + 1 + k * (k - 1) // 2
        assert counts == [1, k + 1, k + 1]


def assert_cells_nest(pl):
    """Each cell of each stage lies by interval containment, on the final
    lattice's order, in exactly one cell of the stage before: itself if
    the fork left it alone, else the one whose quadrilateral holds its
    centroid on the final drawing."""
    stages = oracles.stages(pl)
    lat, coords = pl.lattice, oracles.coords_of(stages[-1])
    for before, after in zip(stages, stages[1:]):
        old = oracles.four_cells(before.diagram)
        for c in oracles.four_cells(after.diagram):
            holders = [o for o in old if inside(lat, o, c)]
            if c in old:
                assert holders == [c], (emit_dsl(pl.seq), c)
            else:
                centroid = oracles.centroid(coords, c)
                assert len(holders) == 1, (emit_dsl(pl.seq), c)
                assert holders == [
                    o for o in old if oracles.point_in_quad(oracles.quad(coords, o), centroid)]


def assert_points_match_the_eager_fold(pl):
    """The integer points replayed from the recipes are the coordinates
    that the step by step fold gives, as ints over the lcm of their
    reduced denominators."""
    eager = eager_coords(pl.seq)
    assert sorted(eager) == list(range(pl.n))
    den = lcm(*(c.denominator for xy in eager.values() for c in xy))
    assert pl.points == (den, [int(eager[u][0] * den) for u in range(pl.n)],
                         [int(eager[u][1] * den) for u in range(pl.n)]), emit_dsl(pl.seq)


def test_forest_parents_match_geometry_up_to_length_six():
    """The cell forest, each cell's parent the cell of the stage before whose
    interval holds its own, agrees with the drawing, and the drawing with
    the eager fold, on the lattices of length <= 6, their doublings and one
    lattice of the benchmark's large size (a grid and three forks, 106
    elements)."""
    entries = enumerate_index(6).entries()
    doubles = [
        build(double(e.seq, step)[0])
        for e in entries for step in range(1, len(e.seq.steps) + 1)
    ]
    assert len(entries) == 106 and len(doubles) == 182
    for pl in [e.pl for e in entries] + doubles:
        assert_cells_nest(pl)
        assert_points_match_the_eager_fold(pl)
    large = build(parse_dsl("grid 7 6\nfork 5 0 2\nfork 3 4 1\nfork 1 7 2\n"))
    assert large.n == 106
    assert_points_match_the_eager_fold(large)


# n = 162, common denominator 3^2 * 5^2 * 7^2 = 11025
FINE = "grid 2 1\nfork 1 0 2\nfork 2 0 4\nfork 0 0 6\nfork 4 0 4\nfork 0 1 6\nfork 3 1 2\n"
# 30 one-fold forks, each at the bottom cell: D = 2^30 before the gcd
CHAIN = "grid 1 1\n" + "fork 0 0 1\n" * 30


def test_integer_points_match_the_eager_fold_up_to_length_seven():
    """On the 493 lattices of length <= 7, the lattice with denominator
    11025 and a chain of 30 forks."""
    entries = enumerate_index(7).entries()
    assert len(entries) == 493
    for entry in entries:
        assert_points_match_the_eager_fold(entry.pl)
    fine, chain = build(parse_dsl(FINE)), build(parse_dsl(CHAIN))
    assert (fine.n, fine.points[0]) == (162, 11025)
    assert len(chain.seq.steps) == 30
    for pl in (fine, chain):
        assert_points_match_the_eager_fold(pl)


@pytest.mark.slow
def test_integer_points_match_the_eager_fold_at_length_eight():
    entries = enumerate_index(8, allow_large=True).entries(8)
    assert len(entries) == 2327
    for entry in entries:
        assert_points_match_the_eager_fold(entry.pl)


def test_lower_covers_of_peak_stable_across_stages():
    pl = build(parse_dsl("grid 2 2\nfork 1 1 2\nfork 0 0 1\n"))
    stage1 = build(parse_dsl("grid 2 2\nfork 1 1 2\n"))
    peak = stage1.lattice.top
    assert stage1.lattice.lower_covers(peak) == pl.lattice.lower_covers(peak)


# Addresses --------------------------------------------------------------------

def test_s7_cell_addresses():
    pl = multifork_extend(grid(1, 1), (0, 0), 1)
    addrs = sorted(oracles.cell_address(pl.diagram, c) for c in oracles.four_cells(pl.diagram))
    assert addrs == [(0, 0), (0, 1), (1, 0)]


# Build / decompose ---------------------------------------------------------------

def test_build_s7_sequence():
    pl = build(MultiforkSequence(1, 1, (ForkStep(0, 0, 1),)))
    assert pl.canonical_code() == s7_diagram().canonical_code()


def test_build_plain_grid():
    pl = build(MultiforkSequence(3, 2, ()))
    assert pl.n == 12 and not pl.seq.steps


def test_build_errors_name_step():
    seq = MultiforkSequence(1, 1, (ForkStep(0, 0, 1), ForkStep(9, 9, 1)))
    with pytest.raises(PreconditionError, match="step 2"):
        build(seq)


def test_build_links_its_stages_and_reuses_a_held_one():
    seq = parse_dsl("grid 2 3\nfork 1 2 2\nfork 0 1 1\nfork 3 0 2")
    pl = build(seq)
    assert build(seq) is pl
    chain = [pl]
    while chain[0].parent is not None:
        chain.insert(0, chain[0].parent)
    assert [s.seq for s in chain] == [
        MultiforkSequence(2, 3, seq.steps[:m]) for m in range(len(seq.steps) + 1)
    ]
    assert build(pl.parent.seq) is pl.parent
    # what build did not return keeps no stage
    assert multifork_extend(pl, (0, 0), 1).parent is None and grid(2, 3).parent is None
    # the grid is a stage of the longer sequence, so it stays while pl does
    assert build(MultiforkSequence(2, 3, ())) is chain[0]


def test_the_memo_holds_only_what_someone_holds():
    seq = parse_dsl("grid 3 3\nfork 2 1 1\nfork 0 3 2")
    keys = [MultiforkSequence(3, 3, seq.steps[:m]) for m in range(len(seq.steps) + 1)]
    pl = build(seq)
    assert all(multifork._built[key].seq == key for key in keys)
    del pl
    gc.collect()
    assert not any(key in multifork._built for key in keys)


def test_build_extends_a_held_prefix_without_releasing_it():
    """A stage built here is released after its extension; a held one keeps
    the walk caches its holder derived."""
    prefix = build(parse_dsl("grid 2 2\nfork 1 1 2"))
    d = prefix.diagram
    table, chains = d._walks(), d.boundary_chains()
    pl = build(prefix.seq.extended(ForkStep(0, 1, 1)).extended(ForkStep(2, 0, 1)))
    assert pl.parent.parent is prefix
    # the same objects: none was dropped and derived again
    assert d._walks() is table and d.boundary_chains() is chains
    fresh = pl.parent.diagram
    assert fresh._table is None and fresh._chains is None


def test_a_bad_step_after_a_held_prefix_fails_as_in_a_cold_build():
    bad = parse_dsl("grid 1 1\nfork 0 0 3\nfork 2 0 1\nfork 9 9 1")
    with pytest.raises(PreconditionError) as cold:
        build(bad)
    prefix = build(MultiforkSequence(1, 1, bad.steps[:2]))
    with pytest.raises(PreconditionError) as warm:
        build(bad)
    assert str(warm.value) == str(cold.value)
    assert str(cold.value).startswith("step 3: ")
    assert build(MultiforkSequence(1, 1, bad.steps[:2])) is prefix


def test_decompose_s7():
    pl = multifork_extend(grid(1, 1), (0, 0), 1)
    seq = decompose(pl)
    assert seq.grid_p == 1 and seq.grid_q == 1
    assert len(seq.steps) == 1 and seq.steps[0].k == 1


def test_decompose_grid_is_trivial():
    seq = decompose(grid(3, 2).diagram)
    assert (seq.grid_p, seq.grid_q) in {(3, 2), (2, 3)}
    assert not seq.steps


def test_decompose_roundtrip_small():
    fixtures = [
        "grid 1 1\nfork 0 0 1",
        "grid 1 1\nfork 0 0 2",
        "grid 2 1\nfork 1 0 1",
        "grid 2 1\nfork 0 0 1",
        "grid 2 2\nfork 1 1 2",
        "grid 2 2\nfork 1 1 1\nfork 0 0 1",
        "grid 3 1\nfork 2 0 1\nfork 0 0 1",
    ]
    for text in fixtures:
        pl = build(parse_dsl(text))
        seq = decompose(pl)
        assert build(seq).canonical_code() == pl.canonical_code()


def test_decompose_with_nested_forks():
    # second fork inside the first fork's region
    pl = build(parse_dsl("grid 1 1\nfork 0 0 3\nfork 2 0 1"))
    seq = decompose(pl)
    assert build(seq).canonical_code() == pl.canonical_code()


@pytest.mark.slow
def test_the_undo_rule_reaches_a_grid_from_every_key_to_length_nine():
    """The fork rule run backwards (diagram._unforked), iterated on pi
    alone, never gets stuck: from every key of length <= 9 and its
    inverse, 38,408 permutations, it reaches a grid, and its forks,
    applied to that grid's pi by the fork rule, give back the key."""
    entries = enumerate_index(9, allow_large=True).entries()
    assert len(entries) == 19204
    for entry in entries:
        key = entry.key
        inverse = [0] * len(key)
        for i, j in enumerate(key, 1):
            inverse[j - 1] = i
        for pi in (key, tuple(inverse)):
            seq = multifork._peeled(pi)
            assert seq is not None, pi
            got = diagram._grid_permutation(seq.grid_p, seq.grid_q)
            for st in seq.steps:
                got = diagram._forked_permutation(got, (st.a, st.b), st.k)
            assert got == pi, (pi, seq)


def test_a_peel_without_its_cell_test_fails_the_decomposition(monkeypatch, tmp_path, capsys):
    """The peel undoes a run only where its fork's cell is a distributive
    cell of the residue (diagram._unforked).  With a cell rule that lists
    every cell, the lattice of `grid 1 1 / fork 0 0 3 / fork 1 1 1`
    (pi = (6, 5, 3, 4, 2, 1)) peels to `grid 1 1 / fork 0 0 2 /
    fork 0 1 1 / fork 0 3 1`, whose third cell is not distributive, and
    `slimlat decompose` exits 1 on its lattice JSON; without the cell
    test, 323 of the 986 diagrams to length 7, each lattice and its
    mirror image, peel wrongly."""
    text = "grid 1 1\nfork 0 0 3\nfork 1 1 1\n"
    lattice = tmp_path / "lattice.json"
    lattice.write_text(build(parse_dsl(text)).diagram.to_json())
    command = ["decompose", "--input", str(lattice), "--format", "json"]
    assert main(command) == 0
    assert capsys.readouterr().out == text
    monkeypatch.setattr(diagram, "_distributive_addresses", lambda pi: [
        (a, b) for a in range(list(pi).index(1)) for b in range(pi[0] - 1)])
    assert main(command) == 1
    assert capsys.readouterr().err == "error: no multifork decomposition found\n"


# DSL -----------------------------------------------------------------------------

def test_parse_dsl_builds_s7():
    seq = parse_dsl("grid 1 1\nfork 0 0 1\n")
    pl = build(seq)
    assert pl.canonical_code() == s7_diagram().canonical_code()


def test_parse_dsl_comments_and_blanks():
    seq = parse_dsl("grid 2 2\n# comment line\n\nfork 1 1 2  # trailing\n")
    assert seq.steps == (ForkStep(1, 1, 2),)


def test_parse_dsl_errors():
    with pytest.raises(ParseError, match="grid must come first"):
        parse_dsl("fork 0 0 1\n")
    with pytest.raises(ParseError, match="integer"):
        parse_dsl("grid 1 x\n")
    with pytest.raises(ParseError, match="below minimum"):
        parse_dsl("grid 0 1\n")
    with pytest.raises(ParseError, match="integer -1 below minimum 0"):
        parse_dsl("grid 1 1\nfork -1 0 1\n")
    # int() takes these; the grammar's INT is ASCII digits, with a minus sign
    for text in ("grid +1 1", "grid 1_0 1", "grid \u0661 1", "grid 1 1\nfork 0 0 \uff12",
                 "grid 1 -", "grid 1 1.0"):
        with pytest.raises(ParseError, match="expected an integer"):
            parse_dsl(text)
    try:
        parse_dsl("grid 1 1\nfork 0 0 zero\n")
    except ParseError as e:
        assert e.line == 2 and e.col == 10


def test_emit_dsl_canonical_roundtrip():
    text = "grid 2 2\nfork 1 1 2\nfork 0 0 1\n"
    seq = parse_dsl(text)
    assert emit_dsl(seq) == text
    assert parse_dsl(emit_dsl(seq)) == seq


def test_parse_dsl_any_whitespace_separates_tokens():
    text = "grid 2 1\nfork 1 0 1\nfork 0 1 1\n"
    for variant in (text.replace(" ", "\t"), text.replace(" ", "  \t ")):
        assert parse_dsl(variant) == parse_dsl(text)
    with pytest.raises(ParseError) as e:
        parse_dsl("grid\t2\t1\nfork\t0\t0\tzero\n")
    assert (e.value.line, e.value.col) == (2, 10)
