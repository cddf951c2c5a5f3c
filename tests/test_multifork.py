import pytest

from slimlat.diagram import cell_address, is_slim_rectangular, resolve_address
from slimlat.doubling import double
from slimlat.dsl import emit_dsl, parse_dsl
from slimlat.errors import ParseError, PreconditionError
from slimlat.explore import enumerate_index
from slimlat.multifork import (
    ForkStep,
    MultiforkSequence,
    build,
    decompose,
    grid,
    multifork_extend,
)
from slimlat.order import lattice_from_poset, order_from_covers, poset_iso

from test_order import S7_COVERS


def s7_diagram():
    from slimlat.diagram import embed_rectangular
    return embed_rectangular(lattice_from_poset(order_from_covers(S7_COVERS)))


# Grid ------------------------------------------------------------------------

def test_grid_basics():
    g = grid(1, 1)
    assert g.n == 4 and g.length() == 2
    g22 = grid(2, 2)
    assert g22.n == 9
    assert len(g22.diagram.four_cells()) == 4
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
    g = grid(2, 3)
    assert len(g.tube_records) == 5
    for (f, p), rec in g.tube_records.items():
        assert rec.kind == "boundary"
        assert rec.ot
        if rec.side == "L":
            assert rec.leot == () and rec.reot == rec.ot
        else:
            assert rec.reot == () and rec.leot == rec.ot


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


def test_forest_children_counts():
    base = grid(2, 2)
    for k in (1, 2, 3):
        pl = multifork_extend(base, (1, 1), k)
        h_node = pl.step_origin[1]
        children = [nd for nd in pl.forest if nd.parent == h_node]
        assert len(children) == 2 * k + 1 + k * (k - 1) // 2
        # every path cell splits into k+1 children
        path_parents = {
            nd.parent for nd in pl.forest
            if nd.parent is not None and nd.parent != h_node
        }
        for parent in path_parents:
            kids = [nd for nd in pl.forest if nd.parent == parent]
            assert len(kids) == k + 1


def point_in_quad(quad, p):
    """True iff p lies in the convex quadrilateral (boundary included)."""
    sign = 0
    for i in range(4):
        ax, ay = quad[i]
        bx, by = quad[(i + 1) % 4]
        cr = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
        if cr == 0:
            continue
        s = 1 if cr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def assert_parents_match_geometry(pl):
    """The centroid of each stage-s cell lies in its parent's quadrilateral
    and in no other quadrilateral subdivided at stage s."""
    parents_by_stage = {}
    for nd in pl.forest:
        if nd.parent is not None:
            parents_by_stage.setdefault(nd.stage, set()).add(nd.parent)

    def quad(node):
        bottom, left, right, top = pl.forest[node].cell
        return [pl.coords[v] for v in (bottom, left, top, right)]

    for nd in pl.forest:
        if nd.parent is None:
            continue
        centroid = tuple(sum(pl.coords[v][i] for v in nd.cell) / 4 for i in (0, 1))
        inside = [p for p in parents_by_stage[nd.stage] if point_in_quad(quad(p), centroid)]
        assert inside == [nd.parent], (emit_dsl(pl.seq), nd)


def test_forest_parents_match_geometry_up_to_length_six():
    entries = enumerate_index(6).entries()
    doubles = [
        build(double(e.seq, step)[0])
        for e in entries for step in range(1, len(e.seq.steps) + 1)
    ]
    assert len(entries) == 106 and len(doubles) == 182
    for pl in [e.pl for e in entries] + doubles:
        assert_parents_match_geometry(pl)


def test_lower_covers_of_peak_stable_across_stages():
    pl = build(parse_dsl("grid 2 2\nfork 1 1 2\nfork 0 0 1\n"))
    stage1 = build(parse_dsl("grid 2 2\nfork 1 1 2\n"))
    peak = stage1.lattice.top
    assert stage1.lattice.lower_covers(peak) == pl.lattice.lower_covers(peak)


# Addresses --------------------------------------------------------------------

def test_grid_cell_addresses_are_coordinates():
    g = grid(3, 2)
    for c in g.diagram.four_cells():
        addr = cell_address(g.diagram, c)
        assert resolve_address(g.diagram, addr) == c


def test_s7_cell_addresses():
    pl = multifork_extend(grid(1, 1), (0, 0), 1)
    addrs = sorted(cell_address(pl.diagram, c) for c in pl.diagram.four_cells())
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
