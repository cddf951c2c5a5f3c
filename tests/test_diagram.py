import copy

import pytest

from slimlat import diagram, order
from slimlat.diagram import (
    Edge,
    PlanarDiagram,
    _address_slot,
    _certified_diagram,
    _jh_permutation,
    _sorted_diagram,
    _trajectory_failure,
    boundary_heights,
    canonical_code,
    embed_rectangular,
    is_slim_rectangular,
)
from slimlat.dsl import parse_dsl
from slimlat.errors import DiagramError
from slimlat.explore import enumerate_index
from slimlat.lamps import lamp_report
from slimlat.multifork import build, grid
from slimlat.order import FiniteLattice, Poset, lattice_from_poset, named_posets
from slimlat.reduce import check_bounds

from oracles import (
    cell_address,
    east_step,
    four_cells,
    order_from_covers,
    projections,
    trajectories,
    trajectory_failure_by_walks,
    trajectory_through,
)
from test_order import B2_COVERS, S7_COVERS, counted_calls, grid_poset


def embed(covers):
    return embed_rectangular(lattice_from_poset(order_from_covers(covers)))


def grid_diagram(p, q):
    return embed_rectangular(lattice_from_poset(grid_poset(p, q)))


def table_cells(table):
    """(bottom, left, right, top) of each cell that a walk table keeps, in
    slot order."""
    return [(*table.edge(s), table.peaks[s + 1], t) for s, t in enumerate(table.tops) if t >= 0]


# Boundaries and corners ------------------------------------------------------

def test_b2_boundaries_and_corners():
    d = embed(B2_COVERS)
    l, r = d.boundary_chains()
    assert len(l) == 3 and len(r) == 3
    assert set(d.corners()) == {1, 2}


def test_grid21_left_boundary_four_elements():
    d = grid_diagram(2, 1)
    l, _ = d.boundary_chains()
    assert len(l) == 4


def test_s7_left_boundary():
    d = embed(S7_COVERS)
    l, r = d.boundary_chains()
    # 0 < z_l < l < top on the left
    assert l == (0, 1, 4, 6)
    assert r == (0, 2, 5, 6)
    assert d.corners() == (4, 5)


def test_corners_error_on_chain():
    lat = lattice_from_poset(named_posets("chain", 3))
    with pytest.raises(DiagramError):
        embed_rectangular(lat)


def test_failed_corners_are_not_cached():
    lat = lattice_from_poset(named_posets("chain", 4))
    d = PlanarDiagram(lat, [[1], [2], [3], []], [[], [0], [1], [2]])
    for _ in range(2):
        with pytest.raises(DiagramError, match="not split"):
            d.corners()


# Derived data computed once --------------------------------------------------

def derived(d):
    """Everything a diagram and its lattice compute once, and the
    trajectories, which are walked afresh."""
    return {
        "corners": d.corners(),
        "boundary_chains": d.boundary_chains(),
        "heights": d.heights(),
        "jir": d.lattice.jir(),
        "mir": d.lattice.mir(),
        "neon_tubes": d.neon_tubes(),
        "trajectories": trajectories(d),
    }


def test_a_read_while_a_cache_is_stored_gets_both_values():
    """The boundary chains are stored with their sets, the walk table with
    all its lists, and the sweep's ends once all walks are done, as one
    value each: a read that runs right after the store, as a concurrent
    one may, gets the whole value."""
    reads = {}

    class Reading(PlanarDiagram):
        def __setattr__(self, name, value):
            super().__setattr__(name, value)
            # the first store of each is read
            if name == "_chains" and value is not None and "chains" not in reads:
                reads["chains"] = (self.boundary_chains(), self._boundary_sets())
            if name == "_table" and value is not None and "table" not in reads:
                # copied at the store: the table's lists are filled in place
                reads["table"] = (table_cells(self._walks()), tuple(map(tuple, self._steps())))
            if name == "_ends" and value is not None and "ends" not in reads:
                reads["ends"] = tuple(self._ends)

    g = grid(2, 2).diagram
    d = Reading._sorted(g.lattice, g.upper, g.lower)
    chains, table = d.boundary_chains(), d._walks()
    assert reads["chains"] == (chains, tuple(map(frozenset, chains)))
    assert len(table_cells(table)) == 4
    assert reads["table"] == (table_cells(table), (tuple(table.west), tuple(table.east)))
    assert is_slim_rectangular(d).ok
    assert len(reads["ends"]) == 4 and reads["ends"] == tuple(d._ends)


def test_cached_structure_matches_a_fresh_embedding():
    """On every lattice of length <= 6 and its mirror, the cached values
    read back after validation equal those of a freshly embedded copy."""
    diagrams = [e.pl.diagram for e in enumerate_index(6).entries()]
    assert len(diagrams) == 106
    for d in diagrams + [d.mirror() for d in diagrams]:
        assert is_slim_rectangular(d).ok
        first = derived(d)
        again = derived(d)
        for key in first:
            if key != "trajectories":
                assert again[key] is first[key], key
        lat = d.lattice
        fresh = embed_rectangular(
            FiniteLattice(Poset(lat.n, lat.poset.covers)), lcorner=d.corners()[0]
        )
        assert (fresh.upper, fresh.lower) == (d.upper, d.lower)
        assert derived(fresh) == again
        assert again["heights"] == boundary_heights(fresh.lattice, *fresh.corners())


# Projections -----------------------------------------------------------------

def test_projections():
    """The boundary heights place each element's meets with the two
    corners on the boundary chains, and the element is their join."""
    d = grid_diagram(2, 2)
    lat = d.lattice
    lc, rc = d.corners()
    assert projections(d, lat.top) == (lc, rc)
    for x in range(lat.n):
        lp, rp = projections(d, x)
        assert lp == lat.meet_of((x, lc)) and rp == lat.meet_of((x, rc))
        assert lat.join_of((lp, rp)) == x


def test_s7_projection_of_internal_foot():
    d = embed(S7_COVERS)
    # foot of the internal tube is m=3; its projections are z_l=1 and z_r=2
    assert projections(d, 3) == (1, 2)


# Cells -----------------------------------------------------------------------

def test_cell_counts():
    assert len(four_cells(embed(B2_COVERS))) == 1
    assert len(four_cells(grid_diagram(2, 3))) == 6
    assert len(four_cells(embed(S7_COVERS))) == 3


def test_cell_addresses_s7():
    d = embed(S7_COVERS)
    assert sorted(cell_address(d, c) for c in four_cells(d)) == [(0, 0), (0, 1), (1, 0)]


def test_resolve_address_error():
    d = embed(B2_COVERS)
    with pytest.raises(DiagramError, match="outside the boundary chains"):
        _address_slot(d, (5, 5))


def test_the_walk_table_holds_the_cells_of_the_rows():
    """On every lattice of length <= 6 and its mirror image, the cells
    that the walk table keeps, each top at its lower left slot, and the
    slot that each cell's address names are those read off the rows: each
    two neighbouring upper covers of an element, with their one common
    upper cover as the top."""
    diagrams = [e.pl.diagram for e in enumerate_index(6).entries()]
    for d in diagrams + [d.mirror() for d in diagrams]:
        table, cells = d._walks(), four_cells(d)
        assert table_cells(table) == list(cells)
        for c in cells:
            s = _address_slot(d, cell_address(d, c))
            assert (*table.edge(s), table.peaks[s + 1], table.tops[s]) == c


# Trajectories and tubes --------------------------------------------------------

def test_trajectory_counts():
    assert len(trajectories(embed(B2_COVERS))) == 2
    assert len(trajectories(embed(S7_COVERS))) == 3
    assert len(trajectories(grid_diagram(2, 3))) == 5


def test_each_trajectory_has_one_tube_and_cells_line_up():
    for d in [embed(B2_COVERS), embed(S7_COVERS), grid_diagram(2, 2)]:
        mirset = set(d.lattice.mir())
        for t in trajectories(d):
            assert sum(1 for foot, _ in t.edges if foot in mirset) == 1
            assert len(t.cells) == len(t.edges) - 1


def test_trajectory_cells_match_an_east_walk():
    """On every lattice of length <= 6 and its mirror, a trajectory carries
    the cells that a fresh walk east along its edges crosses, and the walk
    from any of its edges gives the same trajectory."""
    diagrams = [e.pl.diagram for e in enumerate_index(6).entries()]
    for d in diagrams + [d.mirror() for d in diagrams]:
        for t in trajectories(d):
            walk = [east_step(d, e) for e in t.edges]
            assert [nxt for nxt, _ in walk] == [*t.edges[1:], None]
            assert tuple(cell for _, cell in walk[:-1]) == t.cells
            assert all(trajectory_through(d, e) == t for e in t.edges)


def test_trajectory_sweep_agrees_with_the_walk_oracle():
    """On every lattice of length <= 6 and its mirror, the sweep that
    validation runs and the check over whole trajectories both pass."""
    diagrams = [e.pl.diagram for e in enumerate_index(6).entries()]
    assert len(diagrams) == 106
    for d in diagrams + [d.mirror() for d in diagrams]:
        assert _trajectory_failure(d) is None
        assert trajectory_failure_by_walks(d) is None


def _patched(d, upper=None, steps=(), **state):
    """A copy of d without the validation report d may keep, with other
    upper rows, whose walk table it derives, or with east steps, (edge,
    next edge or None) pairs, planted in a copy of d's walk table with
    their west inverses, or with other derived state in place of its own."""
    p = copy.copy(d)
    vars(p).pop("_report", None)
    if upper is not None:
        p.upper, p._table, p._chains = upper, None, None
    if steps:
        table = d._walks()
        slot = {table.edge(s): s for s in range(len(table.peaks))}
        east, west = list(table.east), list(table.west)
        for edge, nxt in steps:
            s = slot[edge]
            if east[s] >= 0:
                west[east[s]] = -1
            east[s] = -1 if nxt is None else slot[nxt]
            if nxt is not None:
                west[slot[nxt]] = s
        p._table = table._replace(east=east, west=west)
    for name, value in state.items():
        setattr(p, name, value)
    return p


def _planted(kind, validated=False):
    """A built grid diagram with one planted trajectory defect, patched into
    a copy of the grid's diagram, which is validated first if `validated`.
    Grid element (i, j) is i * (q + 1) + j; grid(2, 1) has the upper rows
    (2, 1), (3,), (4, 3), (5,), (5,), (), the left chain 0, 2, 4, 5, the
    right chain 0, 1, 3, 5 and the cells (0, 2, 1, 3) and (2, 4, 3, 5),
    given as (bottom, left, right, top)."""
    g11, g21, g12 = (grid(p, q).diagram for p, q in ((1, 1), (2, 1), (1, 2)))
    if validated:
        assert all(is_slim_rectangular(g).ok for g in (g11, g21, g12))
    if kind in ("two east cells", "two west cells"):
        # one row reversed: with the rows of 2 reversed, (2, 3) is an upper
        # left side of (0, 2, 1, 3) and a lower left one of (2, 3, 4, 5);
        # with those of 0, an upper right side of (0, 1, 2, 3) and a lower
        # right one of (2, 4, 3, 5)
        u = 2 if kind == "two east cells" else 0
        return _patched(g21, tuple(r[::-1] if v == u else r for v, r in enumerate(g21.upper)))
    if kind == "revisit":
        # the walk from (4, 5) ends at (0, 1), which is sent on into the
        # left-chain edge (2, 4), where an earlier walk started
        return _patched(g21, steps=[((0, 1), (2, 4))])
    if kind == "tubes":
        # the edge (0, 2) is a trajectory of its own, with no tube
        return _patched(g11, steps=[((0, 2), None)])
    if kind == "end":
        # the walk from (4, 5) stops at (2, 3)
        return _patched(g21, steps=[((2, 3), None)])
    if kind == "unreached":
        # grid(1, 2) has the left chain 0, 3, 4, 5, the right chain 0, 1, 2,
        # 5 and the tube feet 2, 3, 4; each left-chain edge is sent straight
        # to a right-chain edge, so the trajectory of (1, 4) starts off the
        # boundary
        return _patched(g12, steps=[((0, 3), (2, 5)), ((3, 4), (0, 1)), ((4, 5), (1, 2))])
    if kind == "count":
        lat = copy.copy(g21.lattice)
        lat.length = lambda: 4
        return _patched(g21, lattice=lat)
    if kind == "tube count":
        # the meet-irreducible element 3, no corner, dropped: one neon tube fewer
        lat = copy.copy(g21.lattice)
        lat._mir = tuple(u for u in lat._mir if u != 3)
        return _patched(g21, lattice=lat)
    raise ValueError(kind)


PLANTED = [
    ("two east cells", "edge (2, 3) has two east cells"),
    ("two west cells", "edge (2, 3) has two west cells"),
    ("revisit", "trajectory revisits an edge (diagram corruption)"),
    ("tubes", "trajectory has 0 neon tubes, expected 1"),
    ("end", "trajectory does not end on the right boundary"),
    ("unreached", "trajectory does not start on the left boundary"),
    ("count", "3 trajectories but length 4"),
    ("tube count", "neon tube count differs from length"),
]


@pytest.mark.parametrize("kind, message", PLANTED)
def test_trajectory_sweep_names_a_planted_defect(kind, message):
    """No lattice that passes the checks run before the sweep fails it, so
    each defect is planted in a grid's rows, walk table, length or tubes.  The
    walk oracle fails too, though it may meet another defect first."""
    d = _planted(kind)
    assert _trajectory_failure(d) == message
    assert trajectory_failure_by_walks(d) is not None


@pytest.mark.parametrize("kind, message", PLANTED)
def test_a_kept_report_hides_no_planted_defect(kind, message):
    """The grid diagram keeps its ok report, but the patched copy derives
    its own, and it names the planted defect."""
    d = _planted(kind, validated=True)
    assert message in is_slim_rectangular(d).failures


def test_a_row_out_of_order_is_sorted():
    """Rows handed to the built-lattice constructor in another order come out
    by falling left height; every row already in order is kept."""
    d = grid(2, 2).diagram
    for side in (0, 1):             # upper, lower
        for u in range(d.n):
            rows = [list(d.upper), list(d.lower)]
            if len(rows[side][u]) < 2:
                continue
            rows[side][u] = rows[side][u][::-1]
            built = _certified_diagram(Poset._from_rows(*map(tuple, rows)), *d.corners())
            assert (built.upper, built.lower) == (d.upper, d.lower)
            got = (built.upper, built.lower)[side]
            assert [v is w for v, w in zip(got, rows[side])] == [v != u for v in range(d.n)]


def test_covers_at_one_left_height_collide():
    # grid(1, 1): 0 = (0, 0) has the upper covers 2 = (1, 0) and 1 = (0, 1)
    d = grid(1, 1).diagram
    hl, hr, lchain, rchain = d.heights()
    assert d.upper[0] == (2, 1) and hl[1] == 0
    planted = (hl[:1] + (1,) + hl[2:], hr, lchain, rchain)
    with pytest.raises(DiagramError, match=r"^covers 2,1 of 0 collide in the embedding$"):
        _sorted_diagram(d.lattice, *d.corners(), planted)


def test_neon_tubes():
    b, i = grid_diagram(2, 3).neon_tubes()
    assert len(b) == 5 and len(i) == 0
    b, i = embed(S7_COVERS).neon_tubes()
    assert len(b) == 2 and len(i) == 1
    assert i[0] == Edge(3, 6)


# Validation --------------------------------------------------------------------

def test_is_slim_rectangular():
    assert is_slim_rectangular(grid_diagram(2, 2)).ok
    assert is_slim_rectangular(embed(S7_COVERS)).ok
    rep = is_slim_rectangular(lattice_from_poset(named_posets("chain", 3)))
    assert not rep.ok
    assert any("doubly irreducible" in f or "embedding" in f for f in rep.failures)


def test_a_diagram_keeps_its_report(monkeypatch):
    """is_slim_rectangular returns the report a diagram derived on its first
    call, ok or not: for a built diagram that call is its constructor's own
    self-check.  A diagram read from JSON, a mirror image and a mutant each
    derive their own; a bare lattice is embedded and validated every time."""
    validated = counted_calls(monkeypatch, diagram, "_validate")
    built = build(parse_dsl("grid 2 1\nfork 1 0 2\n")).diagram
    assert validated == [built]
    assert is_slim_rectangular(built) is is_slim_rectangular(built)
    assert is_slim_rectangular(built).ok and validated == [built]
    read = PlanarDiagram.from_json(built.to_json())
    mirror = built.mirror()
    lower = list(built.lower)
    lower[built.lattice.top] = lower[built.lattice.top][::-1]
    mutant = PlanarDiagram(built.lattice, built.upper, lower)
    for d in (read, mirror, mutant):
        assert is_slim_rectangular(d) is is_slim_rectangular(d)
        assert validated[-1] is d
    assert len(validated) == 4
    assert is_slim_rectangular(read).ok and is_slim_rectangular(mirror).ok
    assert not is_slim_rectangular(mutant).ok
    reports = [is_slim_rectangular(built.lattice) for _ in range(2)]
    assert reports[0] == reports[1] and reports[0] is not reports[1]
    assert len(validated) == 6


def test_a_large_round_derives_con_and_each_report_once(monkeypatch):
    """One round of the benchmark's large workload on a 106-element lattice:
    build, validate, lamp report and bounds derive Con L once and validate
    each diagram once, the last one in build's own last fork step."""
    dependencies = counted_calls(monkeypatch, order, "_dependencies")
    validated = counted_calls(monkeypatch, diagram, "_validate")
    pl = build(parse_dsl("grid 7 6\nfork 5 0 2\nfork 3 4 1\nfork 1 7 2\n"))
    assert pl.n == 106
    assert is_slim_rectangular(pl.diagram).ok
    assert lamp_report(pl)["congruence_iso_ok"]
    assert check_bounds(pl).ok
    assert dependencies == [pl.lattice]
    assert len(validated) == 3 and validated[-1] is pl.diagram
    assert len({id(d) for d in validated}) == 3


def test_reversed_lower_cover_order_rejected():
    """Reversing the lower covers of one element keeps the cover sets, but
    its two neighbouring lower covers no longer bound a cell from the left
    and the right: each such mutant of a lattice of length <= 6 fails."""
    diagrams = [e.pl.diagram for e in enumerate_index(6).entries()]
    mutants = 0
    for d in diagrams:
        for t in range(d.n):
            if len(d.lower[t]) < 2:
                continue
            lower = list(d.lower)
            lower[t] = lower[t][::-1]
            rep = is_slim_rectangular(PlanarDiagram(d.lattice, d.upper, lower))
            a, b = lower[t][:2]
            assert rep.failures[0] == (
                f"lower covers {a},{b} of {t} are not the left and right sides of a cell"
            ), (d.canonical_code(), t)
            assert all(f.startswith("lower covers ") and f" of {t} are" in f
                       for f in rep.failures)
            mutants += 1
    assert mutants == 746


def test_no_jordan_holder_permutation_lists_the_failures():
    """An invalid diagram has no Jordan-Holder permutation, and the error
    lists the report's failures joined by "; ": here the four lower covers
    of element 3 of `fork 0 0 2`, reversed."""
    d = build(parse_dsl("grid 1 1\nfork 0 0 2")).diagram
    lower = list(d.lower)
    lower[3] = lower[3][::-1]
    failures = [f"lower covers {a},{b} of 3 are not the left and right sides of a cell"
                for a, b in ((1, 10), (10, 9), (9, 2))]
    with pytest.raises(DiagramError) as raised:
        _jh_permutation(PlanarDiagram(d.lattice, d.upper, lower))
    assert str(raised.value) == "no Jordan-Holder permutation: " + "; ".join(failures)


def test_repeated_cover_in_order_list_rejected():
    d = grid_diagram(1, 1)
    top = d.lattice.top
    lower = [row + row[-1:] if u == top else row for u, row in enumerate(d.lower)]
    with pytest.raises(DiagramError, match="lower order lists disagree"):
        PlanarDiagram(d.lattice, d.upper, lower)
    upper = [row + row[-1:] if u == d.lattice.bottom else row for u, row in enumerate(d.upper)]
    with pytest.raises(DiagramError, match="upper order lists disagree"):
        PlanarDiagram(d.lattice, upper, d.lower)


def test_validation_counts_trajectories_against_length():
    d = embed(S7_COVERS)
    assert d.antube() == d.lattice.length() == 3


# Mirror and codes ----------------------------------------------------------------

def test_mirror_involution():
    d = embed(S7_COVERS)
    m = d.mirror().mirror()
    assert m.upper == d.upper and m.lower == d.lower


def test_codes_mirror_invariance():
    d = grid_diagram(2, 1)
    assert canonical_code(d) == canonical_code(d.mirror())
    s = embed(S7_COVERS)
    assert canonical_code(s) == canonical_code(s.mirror())


def test_codes_distinguish():
    assert canonical_code(grid_diagram(2, 1)) != canonical_code(embed(S7_COVERS))
    assert canonical_code(grid_diagram(2, 2)) != canonical_code(grid_diagram(3, 1))


def test_json_roundtrip_bit_exact():
    d = embed(S7_COVERS)
    text = d.to_json()
    d2 = PlanarDiagram.from_json(text)
    assert d2.to_json() == text
    assert d2.upper == d.upper and d2.lower == d.lower


def test_embedding_orientation_choices_are_mirrors():
    lat = lattice_from_poset(order_from_covers(S7_COVERS))
    d1 = embed_rectangular(lat, lcorner=4)
    d2 = embed_rectangular(lat, lcorner=5)
    assert d1.upper == d2.mirror().upper
