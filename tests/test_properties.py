"""Property-based and cross-cutting invariant tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimlat.dsl import emit_dsl, parse_dsl
from slimlat.errors import DiagramError, PreconditionError
from slimlat.explore import _distributive_cells
from slimlat.lamps import lamp_poset, lamps_of_diagram
from slimlat.multifork import ForkStep, MultiforkSequence, build, grid, multifork_extend
from slimlat.order import (
    Poset,
    congruence_lattice,
    lattice_from_poset,
    poset_double,
    poset_iso,
    principal_congruence,
)

from oracles import covers_via_nwl_nel, is_congruence, rho_foot, verify_jir_congruences


# -- random small sequences ----------------------------------------------------

@st.composite
def sequences(draw):
    p = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.integers(min_value=1, max_value=2))
    pl = grid(p, q)
    steps = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        cells = _distributive_cells(pl)
        if not cells:
            break
        addr = draw(st.sampled_from(cells))
        k = draw(st.integers(min_value=1, max_value=2))
        pl = multifork_extend(pl, addr, k)
        steps.append(ForkStep(addr[0], addr[1], k))
    return MultiforkSequence(p, q, tuple(steps))


@given(sequences())
@settings(max_examples=30, deadline=None)
def test_built_lattices_satisfy_core_invariants(seq):
    pl = build(seq)
    d = pl.diagram
    lat = pl.lattice
    assert pl.length() == pl.antube() == len(d.trajectories())
    for x in range(lat.n):
        assert lat.join[d.l_proj(x)][d.r_proj(x)] == x
    for u in range(lat.n):
        assert len(lat.upper_covers(u)) <= 2


@given(sequences())
@settings(max_examples=30, deadline=None)
def test_dsl_roundtrip_random(seq):
    assert parse_dsl(emit_dsl(seq)) == seq


@given(sequences())
@settings(max_examples=15, deadline=None)
def test_principal_congruences_random(seq):
    lat = build(seq).lattice
    covers = sorted(lat.poset.covers)
    for a, b in covers[:: max(1, len(covers) // 4)]:
        c = principal_congruence(lat, a, b)
        assert is_congruence(lat, c)


@given(sequences())
@settings(max_examples=10, deadline=None)
def test_lamp_poset_mirror_invariant(seq):
    pl = build(seq)
    d = pl.diagram
    _, lt, _ = lamp_poset(d)
    _, lt_m, _ = lamp_poset(d.mirror())
    assert lt == lt_m  # same elements, same relation: invariance up to iso


# -- deterministic invariants ---------------------------------------------------

def test_jir_congruences_are_join_irreducible_everywhere():
    from slimlat.explore import enumerate_index
    for entry in enumerate_index(4).entries():
        assert verify_jir_congruences(congruence_lattice(entry.pl.lattice))


def test_jir_elements_lie_on_the_boundary_in_two_chains():
    from slimlat.explore import enumerate_index
    for entry in enumerate_index(5).entries():
        d = entry.pl.diagram
        lat = entry.pl.lattice
        lchain, rchain = d.boundary_chains()
        lset, rset = set(lchain), set(rchain)
        left = [j for j in lat.jir() if j in lset]
        right = [j for j in lat.jir() if j in rset and j not in lset]
        assert len(left) + len(right) == len(lat.jir())
        for chain in (left, right):
            for a, b in zip(chain, chain[1:]):
                assert lat.leq(a, b) or lat.leq(b, a)


def test_forest_leaves_root_at_stage_zero():
    pl = build(parse_dsl("grid 2 2\nfork 1 1 2\nfork 0 0 1"))
    for leaf in pl.leaf_by_bottom.values():
        node = leaf
        while pl.forest[node].parent is not None:
            node = pl.forest[node].parent
        assert pl.forest[node].stage == 0


def test_cells_and_trajectories_mirror_to_reversal():
    pl = build(parse_dsl("grid 2 1\nfork 1 0 2"))
    d = pl.diagram
    m = d.mirror()
    mirrored_cells = {
        (c.bottom, c.right, c.left, c.top) for c in d.four_cells()
    }
    assert {(c.bottom, c.left, c.right, c.top) for c in m.four_cells()} == mirrored_cells
    trajs = {tuple(sorted((e.foot, e.peak) for e in t.edges)) for t in d.trajectories()}
    trajs_m = {tuple(sorted((e.foot, e.peak) for e in t.edges)) for t in m.trajectories()}
    assert trajs == trajs_m


def test_fixpoint_internal_tube_budget():
    # at a fixpoint with k >= 1 internal lamps, the internal tube count is
    # at most 2k^2 - 2k + 1, hence total tubes at most m + 2k^2 - 2k + 1
    from slimlat.explore import enumerate_index
    from slimlat.lamps import lamps_of_diagram
    from slimlat.reduce import minimize
    for entry in enumerate_index(5).entries():
        fixed, _ = minimize(entry.pl)
        lamps = lamps_of_diagram(fixed.diagram)
        k = sum(1 for l in lamps if l.kind == "internal")
        m = sum(1 for l in lamps if l.kind == "boundary")
        if k >= 1:
            internal_tubes = sum(
                len(l.tubes) for l in lamps if l.kind == "internal"
            )
            assert internal_tubes <= 2 * k * k - 2 * k + 1
            assert fixed.antube() <= m + 2 * k * k - 2 * k + 1


def test_double_distinguishes_orbit_classes():
    from slimlat.order import named_posets
    y = named_posets("Y")
    doubles = [poset_double(y, j) for j in range(y.n)]
    # doubling the bottom or the middle both give a 3-chain under two tops;
    # doubling a maximal element gives something else
    assert poset_iso(doubles[0], doubles[1]) is not None
    assert poset_iso(doubles[2], doubles[3]) is not None
    assert poset_iso(doubles[0], doubles[2]) is None

    q = named_posets("Q", 4)
    mins = poset_double(q, 0)
    maxs = poset_double(q, 3)
    assert poset_iso(mins, maxs) is None


def test_nwl_nel_covers_match_on_deeper_fixture():
    pl = build(parse_dsl("grid 2 2\nfork 1 1 1\nfork 0 0 2\nfork 0 0 1"))
    # covers of the rho_foot closure, an order that needs provenance
    lamps = lamps_of_diagram(pl.diagram)
    idx = {l.foot: i for i, l in enumerate(lamps)}
    rho = Poset.from_relation(len(lamps), {(idx[a], idx[b]) for a, b in rho_foot(pl)})
    closure_covers = {(lamps[a].foot, lamps[b].foot) for a, b in rho.covers}
    assert covers_via_nwl_nel(pl.diagram) == frozenset(closure_covers)
