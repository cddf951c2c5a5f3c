import gc
import random
import re
import time
import weakref
from itertools import combinations, permutations
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimlat import multifork, order
from slimlat.diagram import (
    PlanarDiagram,
    _certified_diagram,
    _check_complements,
    _CornerLattice,
    boundary_heights,
    embed_rectangular,
    is_slim_rectangular,
)
from slimlat.dsl import parse_dsl
from slimlat.errors import DiagramError, OrderError
from slimlat.explore import enumerate_index
from slimlat.lamps import _tube_con, lamp_poset, lamps_of_diagram
from slimlat.order import (
    FiniteLattice,
    Poset,
    congruence_lattice,
    is_distributive_ideal_grid,
    lattice_from_poset,
    named_posets,
    poset_double,
    poset_iso,
    principal_congruence,
    _dependencies,
    _elements,
)

from oracles import (
    bound_table,
    certified_by_passes,
    _closure,
    con_listing,
    congruence_join,
    every_child,
    fork_interval,
    from_relation,
    is_congruence,
    is_full,
    is_identity,
    is_semimodular_by_pairs,
    is_slim_by_triples,
    jir_congs,
    join_row_dependencies,
    mask_sets,
    order_by_passes,
    order_from_covers,
    poset_from_up_by_rows,
    poset_iso_by_permutations,
    reachability,
    restrict,
    same_poset,
    tables,
    verify_jir_congruences,
)

# Fixture cover sets ---------------------------------------------------------

# 0 < z_l(1), z_r(2); z_l < m(3), l(4); z_r < m, r(5); m,l,r < top(6)
S7_COVERS = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 6), (5, 6)]

# pentagon: 0 < x(1) < y(2) < 1(4), 0 < z(3) < 1
N5_COVERS = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]

# 0 < a,b,c < 1
M3_COVERS = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]

B2_COVERS = [(0, 1), (0, 2), (1, 3), (2, 3)]

# B_3 = 2^3: 0 < atoms 1, 2, 3 < coatoms 4, 5, 6 < top 7
B3_COVERS = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6),
             (4, 7), (5, 7), (6, 7)]


def b2():
    return lattice_from_poset(order_from_covers(B2_COVERS))


def s7():
    return lattice_from_poset(order_from_covers(S7_COVERS))


def grid_poset(p, q):
    covers = set()
    for i in range(p + 1):
        for j in range(q + 1):
            u = i * (q + 1) + j
            if i < p:
                covers.add((u, (i + 1) * (q + 1) + j))
            if j < q:
                covers.add((u, u + 1))
    return Poset((p + 1) * (q + 1), covers)


# Poset construction ---------------------------------------------------------

def test_order_from_covers_transitivity():
    p = order_from_covers([(0, 1), (1, 2)])
    assert p.leq(0, 2)
    assert not p.leq(2, 0)


def test_order_from_covers_cycle():
    with pytest.raises(OrderError, match="cycle"):
        order_from_covers([(0, 1), (1, 0)])


def test_order_from_covers_not_reduced():
    with pytest.raises(OrderError, match="not reduced"):
        order_from_covers([(0, 1), (1, 2), (0, 2)])


def test_poset_from_rows_rejects_rows_that_are_not_transposes():
    # the chain 0 < 1 < 2
    with pytest.raises(OrderError, match=r"cover \(1,2\) is missing from the lower rows"):
        Poset._from_rows(((1,), (2,), ()), ((), (0,), ()))
    # 1 < 0 < 2 and 1 < 3, with (0,2) and (1,3) missing: the first in row
    # order is named, though the topological order reaches (1,3) first
    with pytest.raises(OrderError, match=r"^cover \(0,2\) is missing from the lower rows$"):
        Poset._from_rows(((2,), (0, 3), (), ()), ((1,), (), (), ()))
    with pytest.raises(OrderError, match="lower rows list covers that the upper rows do not"):
        Poset._from_rows(((1,), (2,), ()), ((), (0,), (1, 0)))
    with pytest.raises(OrderError, match=r"cover \(0,1\) is listed twice"):
        Poset._from_rows(((1, 1), (2,), ()), ((), (0, 0), (1,)))
    with pytest.raises(OrderError, match="cycle"):
        Poset._from_rows(((1,), (0,)), ((1,), (0,)))


def test_poset_from_rows_rejects_a_row_that_is_not_reduced():
    with pytest.raises(OrderError, match=r"^cover \(0,2\) is not reduced: 0<1<2$"):
        Poset._from_rows(((1, 2), (2,), ()), ((), (0,), (0, 1)))


def test_poset_from_rows_agrees_with_the_poset_from_its_pairs(diagrams6):
    """A built poset keeps its rows, in diagram order, and derives its cover
    set; the poset from that set lists the same rows ascending."""
    for d in diagrams6:
        p = d.lattice.poset
        assert "covers" not in vars(p)
        q = Poset(p.n, p.covers)
        assert (q.up, q.down, q._heights(), q.covers) == (p.up, p.down, p._heights(), p.covers)
        assert q == p and hash(q) == hash(p)
        assert q._upcov == tuple(tuple(sorted(r)) for r in p._upcov)
        assert q._dncov == tuple(tuple(sorted(r)) for r in p._dncov)


def test_count_downsets_chain_and_antichain():
    assert named_posets("chain", 4).count_downsets() == 5
    assert named_posets("antichain", 4).count_downsets() == 16
    # one split per element, far past the interpreter's recursion limit
    assert named_posets("chain", 1500).count_downsets() == 1501
    assert named_posets("antichain", 1500).count_downsets() == 2 ** 1500


def test_mask_decoder():
    assert list(_elements(0)) == []
    assert list(_elements(1)) == [0]
    assert list(_elements(1 << 1999)) == [1999]
    assert list(_elements(0b101100)) == [2, 3, 5]


# Lattices -------------------------------------------------------------------

def test_lattice_from_grid_poset():
    lat = lattice_from_poset(grid_poset(1, 1))
    assert lat.n == 4
    assert lat.join_of((1, 2)) == 3
    assert lat.meet_of((1, 2)) == 0
    assert lat.is_join(1, 2, 3) and lat.is_meet(1, 2, 0)
    assert not lat.is_join(1, 2, 2) and not lat.is_meet(1, 2, 1)


def test_meet_and_join_of_no_elements_are_the_top_and_the_bottom():
    """The meet of no elements is the top, the join of none the bottom, on
    a built lattice and on the same lattice certified from its JSON."""
    built = multifork.build(parse_dsl("grid 1 1\nfork 0 0 1\n")).diagram
    for d in (built, PlanarDiagram.from_json(built.to_json())):
        lat = d.lattice
        assert (lat.meet_of(()), lat.join_of(())) == (lat.top, lat.bottom)


def test_lattice_missing_lub():
    # two incomparable bottoms, two incomparable tops: no glb/lub anywhere
    p = order_from_covers([(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(OrderError):
        lattice_from_poset(p)


def test_s7_is_a_lattice():
    lat = s7()
    assert lat.n == 7
    # exhaustive glb/lub sanity: meet/join agree with the order
    for x in range(7):
        for y in range(7):
            m, j = lat.meet_of((x, y)), lat.join_of((x, y))
            assert lat.leq(m, x) and lat.leq(m, y)
            assert lat.leq(x, j) and lat.leq(y, j)


def test_semimodularity():
    assert b2().is_semimodular()
    assert s7().is_semimodular()
    assert not lattice_from_poset(order_from_covers(N5_COVERS)).is_semimodular()


def test_jir_mir():
    assert set(b2().jir()) == {1, 2}
    chain3 = lattice_from_poset(named_posets("chain", 3))
    assert set(chain3.jir()) == {1, 2}
    assert len(s7().jir()) == 4
    assert set(s7().mir()) == {3, 4, 5}


def test_is_slim():
    assert lattice_from_poset(grid_poset(2, 2)).is_slim()
    assert not lattice_from_poset(order_from_covers(M3_COVERS)).is_slim()
    # B_3 = 2^3 has a 3-atom antichain
    assert not lattice_from_poset(order_from_covers(B3_COVERS)).is_slim()


def test_distributive_ideal_grid():
    lat = s7()
    assert not is_distributive_ideal_grid(lat, 6)
    assert is_distributive_ideal_grid(lat, 3)  # ideal of m is B_2
    g = lattice_from_poset(grid_poset(2, 3))
    assert is_distributive_ideal_grid(g, g.top)


# Congruences ----------------------------------------------------------------

def test_principal_congruence_trivial_cases():
    lat = s7()
    full = principal_congruence(lat, lat.bottom, lat.top)
    assert is_full(full)
    ident = principal_congruence(lat, 3, 3)
    assert is_identity(ident)


def test_principal_congruences_are_congruences():
    lat = s7()
    for a, b in lat.poset.covers:
        assert is_congruence(lat, principal_congruence(lat, a, b))


def test_congruence_blocks_convex_and_closed():
    lat = s7()
    for a, b in lat.poset.covers:
        c = principal_congruence(lat, a, b)
        for block in c.blocks():
            for x in block:
                for y in block:
                    assert lat.meet_of((x, y)) in block
                    assert lat.join_of((x, y)) in block
                    for z in range(lat.n):
                        if lat.leq(x, z) and lat.leq(z, y):
                            assert z in block


def test_congruence_lattice_chain3_and_b2():
    chain3 = lattice_from_poset(named_posets("chain", 3))
    cl = congruence_lattice(chain3)
    assert cl.jir_count() == 2
    assert cl.con_size == 4
    assert cl.jir_poset.covers == frozenset()

    cl2 = congruence_lattice(b2())
    assert cl2.jir_count() == 2
    assert cl2.con_size == 4


def test_congruence_lattice_s7():
    lat = s7()
    cl = congruence_lattice(lat)
    assert cl.jir_count() == 3
    assert cl.con_size == 5
    # V: one bottom below two incomparable tops
    assert poset_iso(cl.jir_poset, named_posets("V")) is not None
    assert verify_jir_congruences(lat, cl)


def counted_calls(monkeypatch, module, name):
    """The list of first arguments of every call to module.name from now on."""
    calls, fn = [], getattr(module, name)

    def counted(arg, *rest):
        calls.append(arg)
        return fn(arg, *rest)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_lattice_keeps_its_con(monkeypatch):
    """congruence_lattice returns the Con L that a lattice derived on its
    first call: a built lattice, one read from JSON, and the lattice of a
    mirror image, which is the built one."""
    derived = counted_calls(monkeypatch, order, "_dependencies")
    d = multifork.build(parse_dsl("grid 2 1\nfork 1 0 2\n")).diagram
    read = PlanarDiagram.from_json(d.to_json()).lattice
    for lat in (d.lattice, read, d.mirror().lattice):
        assert congruence_lattice(lat) is congruence_lattice(lat)
    assert congruence_lattice(d.mirror().lattice) is congruence_lattice(d.lattice)
    assert derived == [d.lattice, read]
    a, b = congruence_lattice(read), congruence_lattice(d.lattice)
    assert a is not b
    assert (a.collapsed, a.jir_poset, a.con_size) == (b.collapsed, b.jir_poset, b.con_size)
    # principal_congruence reads the D that the lattice keeps beside Con L:
    # n^2 calls on a fresh lattice derive it once, and its Con L reads it too
    fresh = PlanarDiagram.from_json(d.to_json()).lattice
    derived.clear()
    for x in range(fresh.n):
        for y in range(fresh.n):
            principal_congruence(fresh, x, y)
    assert congruence_lattice(fresh).collapsed == b.collapsed
    assert derived == [fresh]


def test_congruence_join_identity():
    lat = b2()
    empty = congruence_join(lat, [])
    assert is_identity(empty)


# Poset utilities ------------------------------------------------------------

def test_poset_iso_v_cases():
    v = named_posets("V")
    assert poset_iso(v, named_posets("V")) is not None
    assert poset_iso(v, named_posets("chain", 3)) is None
    # relabeled V
    w = order_from_covers([(2, 0), (2, 1)])
    m = poset_iso(v, w)
    assert m is not None and m[0] == 2


def poset_classes(n):
    """One poset per isomorphism class on n elements.  Every poset has a
    natural labelling (i below j only if i < j), so the transitive
    relations on the pairs i < j give each class at least once; the least
    relabelled pair list of each, over all n! relabellings, drops the
    repeats."""
    pairs = list(combinations(range(n), 2))
    found = {}
    for mask in range(1 << len(pairs)):
        rel = {pair for i, pair in enumerate(pairs) if mask >> i & 1}
        if any((a, d) not in rel for a, b in rel for c, d in rel if b == c):
            continue
        key = min(tuple(sorted((perm[a], perm[b]) for a, b in rel))
                  for perm in permutations(range(n)))
        found.setdefault(key, rel)
    return [from_relation(n, rel) for rel in found.values()]


def relabelled(p, rng):
    """p with its elements renamed by a random permutation."""
    perm = list(range(p.n))
    rng.shuffle(perm)
    return Poset(p.n, [(perm[a], perm[b]) for a, b in p.covers])


def assert_iso_matches_the_permutations(p, q):
    """poset_iso(p, q) is None exactly when no relabelling maps p onto q,
    and otherwise an isomorphism; returns whether it found one."""
    got = poset_iso(p, q)
    assert (got is None) == (poset_iso_by_permutations(p, q) is None), (p, q)
    if got is not None:
        assert sorted(got) == sorted(got.values()) == list(range(p.n))
        assert all(p.leq(a, b) == q.leq(got[a], got[b]) for a in range(p.n) for b in range(p.n))
    return got is not None


# Pairs of cover lists with equal (up-size, down-size, upper cover count,
# lower cover count) multisets whose posets are not isomorphic: a V beside
# a Lambda against a zigzag of four beside a 2-chain (no such pair has five
# elements or fewer); a zigzag of six against a 2 + 2 crown beside a
# 2-chain; and the crown on 4 + 4 elements against two crowns on 2 + 2
EQUAL_DEGREES = [
    ([(0, 4), (0, 5), (1, 3), (2, 3)], [(0, 3), (0, 5), (1, 4), (2, 3)]),
    ([(0, 4), (0, 5), (1, 3), (1, 4), (2, 3)], [(0, 4), (0, 5), (1, 4), (1, 5), (2, 3)]),
    ([(i, 4 + i) for i in range(4)] + [(i, 4 + (i + 1) % 4) for i in range(4)],
     [(0, 4), (0, 5), (1, 4), (1, 5), (2, 6), (2, 7), (3, 6), (3, 7)]),
]


def test_poset_iso_matches_the_permutations_on_small_classes():
    """All 16 four-element classes, each against a random relabelling of
    every class; the 63 five-element classes, each against a relabelling
    of each other; and hand-made pairs with equal degree multisets."""
    rng = random.Random(43)
    fours, fives = poset_classes(4), poset_classes(5)
    assert (len(fours), len(fives)) == (16, 63)
    for classes in (fours, fives):
        found = 0
        for p in classes:
            for q in classes:
                found += assert_iso_matches_the_permutations(p, relabelled(q, rng))
        assert found == len(classes)
    for upper, lower in EQUAL_DEGREES:
        n = 1 + max(max(c) for c in upper + lower)
        p, q = Poset(n, upper), Poset(n, lower)
        degrees = [sorted(zip(map(int.bit_count, r.up), map(int.bit_count, r.down),
                              map(len, r._upcov), map(len, r._dncov))) for r in (p, q)]
        assert degrees[0] == degrees[1]
        assert not assert_iso_matches_the_permutations(p, q)
        assert assert_iso_matches_the_permutations(p, relabelled(p, rng))


def test_poset_iso_maps_1500_element_chains_and_antichains():
    """The backtracking keeps a stack, not the call stack: at 1,500
    elements, past the recursion limit, chains, antichains and a crown on
    750 + 750 elements map onto their relabellings.  The search follows
    the covers, so the crown maps in one walk around it.  Crowns on 40 + 40
    and 750 + 750 elements are told from two on 20 + 20 and 375 + 375 at
    once, though all have the same degrees: their component sizes differ
    (without that test the 750 pair took about 27 s)."""
    rng = random.Random(1500)

    def crown(size, count=1):
        half = size * count
        return Poset(2 * half, [(c * size + i, half + c * size + (i + d) % size)
                                for c in range(count) for i in range(size) for d in (0, 1)])

    for p in (named_posets("chain", 1500), named_posets("antichain", 1500), crown(750)):
        q = relabelled(p, rng)
        got = poset_iso(p, q)
        assert got is not None and sorted(got.values()) == list(range(1500))
        assert all(q.leq(got[a], got[b]) for a, b in p.covers)
    started = time.perf_counter()
    assert poset_iso(crown(40), crown(20, 2)) is None
    assert poset_iso(crown(750), crown(375, 2)) is None
    assert time.perf_counter() - started < 5


def test_poset_iso_frees_its_posets_with_their_last_reference():
    """The backtracking holds neither poset in a reference cycle, so
    dropping both frees them without the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        p, q = named_posets("Y"), order_from_covers([(3, 2), (2, 0), (2, 1)])
        assert poset_iso(p, q)[0] == 3
        refs = weakref.ref(p), weakref.ref(q)
        del p, q
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_poset_double_sizes_and_shape():
    single = named_posets("antichain", 1)
    two = poset_double(single, 0)
    assert two.n == 2 and two.leq(1, 0)

    v = named_posets("V")
    d = poset_double(v, 0)
    assert d.n == 4
    # bottom 2-chain below two incomparable tops
    assert d.leq(3, 0) and d.leq(3, 1) and d.leq(3, 2)
    assert d.leq(0, 1) and d.leq(0, 2)

    for p in [named_posets("Y"), named_posets("Q", 4)]:
        for j in range(p.n):
            assert poset_double(p, j).n == p.n + 1


def test_named_posets():
    assert poset_iso(named_posets("Q", 3), named_posets("V")) is not None
    assert poset_iso(named_posets("P", 4), named_posets("Y")) is not None
    assert named_posets("P", 6).n == 6
    assert named_posets("Q", 6).n == 6
    with pytest.raises(OrderError):
        named_posets("P", 3)


def test_poset_json_roundtrip():
    p = order_from_covers(S7_COVERS)
    assert Poset.from_json(p.to_json()) == p


# Brute-force references for the lattice kernels ----------------------------

def reference_table(poset, cones):
    """Meet (cones = down-sets) or join (cones = up-sets) table by the cubic
    search: x * y is the common cone element whose own cone is largest, if
    that cone holds all common elements."""
    n = poset.n
    table = []
    for x in range(n):
        row = []
        for y in range(n):
            common = cones[x] & cones[y]
            g = max(common, key=lambda u: (len(cones[u]), u))
            if not common <= cones[g]:
                raise OrderError(f"no bound for pair ({x},{y})")
            row.append(g)
        table.append(tuple(row))
    return tuple(table)


def reference_tables(poset):
    """(meet, join) of a lattice, or OrderError."""
    if len(poset.minimal_elements()) != 1 or len(poset.maximal_elements()) != 1:
        raise OrderError("no unique bottom/top")
    up, down = reachability(poset)
    return reference_table(poset, down), reference_table(poset, up)


def reference_congruence_lattice(lat):
    """Con L from one principal congruence per cover, all closed over one
    pair of tables."""
    meet, join = tables(lat)
    return con_listing([_closure(meet, join, [cover]) for cover in lat.poset.covers],
                       {j: lat.lower_covers(j)[0] for j in lat.jir()})


def assert_kernels_match_references(lat):
    meet, join = reference_tables(lat.poset)
    # the recurrence that certifies a lattice and feeds the oracles
    assert tables(lat) == (meet, join)
    for x in range(lat.n):
        for y in range(lat.n):
            assert lat.meet_of((x, y)) == meet[x][y] and lat.join_of((x, y)) == join[x][y]
    dep = _dependencies(lat)
    assert {k: dep[k] for k in lat.jir()} == join_row_dependencies(lat)
    assert_con_matches_reference(lat)


def assert_con_matches_reference(lat):
    got, want = congruence_lattice(lat), reference_congruence_lattice(lat)
    # a second read returns the Con L the lattice kept, checked here
    assert congruence_lattice(lat) is got
    assert got.collapsed == want.collapsed
    assert jir_congs(lat, got) == want.jir_congs
    assert same_poset(got.jir_poset, want.jir_poset)
    assert got.con_size == want.con_size
    meet, join = tables(lat)
    for a in range(lat.n):
        for b in range(a, lat.n):
            assert principal_congruence(lat, a, b) == _closure(meet, join, [(a, b)]), (a, b)


@pytest.fixture(scope="module")
def diagrams6():
    """The built diagrams of the 106 slim rectangular lattices of length <= 6."""
    return [e.pl.diagram for e in enumerate_index(6).entries()]


@pytest.fixture(scope="module")
def lattices6(diagrams6):
    """The 106 slim rectangular lattices of length <= 6."""
    return [d.lattice for d in diagrams6]


def test_kernels_match_references_up_to_length_six(lattices6):
    assert len(lattices6) == 106
    for lat in lattices6:
        assert_kernels_match_references(lat)


def test_lattice_keeps_no_table(lattices6):
    """A lattice keeps no n-row table, not even after the queries that once
    read the meet or join table: Con, an embedding and point queries."""
    for lat in lattices6:
        congruence_lattice(lat)
        assert is_slim_rectangular(lat).ok
        lat.meet_of(range(lat.n))
        lat.join_of(range(lat.n))
        for name, value in vars(lat).items():
            assert not (isinstance(value, (tuple, list)) and len(value) == lat.n
                        and all(isinstance(row, (tuple, list)) for row in value)), name


def random_relation(rng):
    """(n, strict pairs) of a random acyclic relation on 1..9 elements; half
    of them get a bottom and a top."""
    if rng.random() < 0.5:
        n = rng.randint(1, 7)
        pairs = set()
        offset = 0
    else:
        n = rng.randint(1, 7) + 2
        pairs = {(0, i) for i in range(1, n - 1)} | {(i, n - 1) for i in range(1, n - 1)}
        offset = 1
    density = rng.random()
    for a in range(offset, n - offset):
        for b in range(a + 1, n - offset):
            if rng.random() < density:
                pairs.add((a, b))
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [(perm[a], perm[b]) for a, b in pairs]


def random_poset(rng):
    """The poset that a random relation generates."""
    return from_relation(*random_relation(rng))


def test_kernels_match_references_on_random_posets():
    rng = random.Random(2024)
    outcomes = {"lattice": 0, "not a lattice": 0}
    for _ in range(2000):
        p = random_poset(rng)
        assert (mask_sets(p.up), mask_sets(p.down)) == reachability(p)
        try:
            want = reference_tables(p)
        except OrderError:
            with pytest.raises(OrderError):
                FiniteLattice(p)
            outcomes["not a lattice"] += 1
            continue
        assert_kernels_match_references(FiniteLattice(p))
        outcomes["lattice"] += 1
    # both branches are exercised many times
    assert min(outcomes.values()) > 300


def moore_family_lattice(rng):
    """The lattice of a random Moore family on a set of at most 6 elements:
    a few random subsets closed under intersection, with the full set, as
    masks ordered by inclusion, under shuffled ids.  Such a lattice need
    not be slim or semimodular."""
    full = (1 << rng.randint(3, 6)) - 1
    family = {full}
    for _ in range(rng.randint(2, 6)):
        s = rng.randint(0, full)
        family |= {s & t for t in family}
    sets = list(family)
    rng.shuffle(sets)
    pairs = [(a, b) for a, s in enumerate(sets) for b, t in enumerate(sets)
             if s != t and s & t == s]
    return FiniteLattice(from_relation(len(sets), pairs))


def test_con_matches_the_reference_on_moore_family_lattices():
    """Con L of generic lattices, which need not be slim or semimodular;
    many list two congruences whose masks have one size, which the
    join-irreducibles' order puts in order."""
    rng = random.Random(47)
    covers = tied = 0
    for _ in range(300):
        lat = moore_family_lattice(rng)
        assert_con_matches_reference(lat)
        covers += len(lat.poset.covers)
        sizes = [c.bit_count() for c in congruence_lattice(lat).collapsed]
        tied += len(sizes) > len(set(sizes))
    assert covers > 2000 and tied > 200


def assert_con_listing_extends_refinement(lat):
    """No congruence of Con L lies above a later one, and the congruence
    that _tube_con names for each cover, a neon tube's among them, is its
    least one, closed over the tables."""
    cl = congruence_lattice(lat)
    assert not any(m & (1 << i) - 1 for i, m in enumerate(cl.jir_poset.up))
    meet, join = tables(lat)
    listed, down = jir_congs(lat, cl), lat.poset.down
    jmask = sum(1 << j for j in lat.jir())
    for a, b in lat.poset.covers:
        d = jmask & down[b] & ~down[a]
        assert listed[_tube_con(cl, d)] == _closure(meet, join, [(a, b)]), (a, b)


def test_con_lists_each_congruence_before_every_coarser_one():
    """The listing by mask size extends refinement on the lattices of
    length <= 7, the lattices among the random posets and the Moore-family
    lattices, so the first listed congruence that collapses a cover is its
    congruence."""
    lattices = [e.pl.lattice for e in enumerate_index(7).entries()]
    rng = random.Random(2024)
    for _ in range(2000):
        try:
            lattices.append(FiniteLattice(random_poset(rng)))
        except OrderError:
            pass
    rng = random.Random(47)
    lattices += [moore_family_lattice(rng) for _ in range(300)]
    for lat in lattices:
        assert_con_listing_extends_refinement(lat)
    assert len(lattices) == 493 + 1438 + 300


def strict_order(n, pairs):
    """The strict pairs a < b of the order that the pairs generate, by a
    search along them from each element."""
    succ = [[b for a, b in pairs if a == x] for x in range(n)]
    lt = set()
    for a in range(n):
        stack = list(succ[a])
        while stack:
            b = stack.pop()
            if (a, b) not in lt:
                lt.add((a, b))
                stack += succ[b]
    return lt


def covers_by_definition(lt, elems):
    """The covers of the order lt on elems: a < b with nothing of elems
    strictly between."""
    return {(a, b) for a in elems for b in elems if (a, b) in lt
            and not any((a, c) in lt and (c, b) in lt for c in elems)}


def test_cover_reduction_matches_its_definition_on_random_posets():
    """from_relation on random generating pairs (its reduction is
    Poset._from_up's, which the lamp rule and Con L read their orders
    through) and the reduced-row check agree with a brute-force
    reduction.  A pair that is no cover and a row that lists a cover twice
    are refused with today's texts."""
    rng = random.Random(2025)
    refused = 0
    for _ in range(1000):
        n, pairs = random_relation(rng)
        lt = strict_order(n, pairs)
        p = from_relation(n, pairs)
        assert p.covers == covers_by_definition(lt, range(n))
        assert Poset(n, p.covers) == p
        if lt == p.covers:
            continue
        a, b = rng.choice(sorted(lt - p.covers))
        w = min(c for c in range(n) if (a, c) in lt and (c, b) in lt)
        with pytest.raises(OrderError, match=rf"^cover \({a},{b}\) is not reduced: {a}<{w}<{b}$"):
            Poset(n, p.covers | {(a, b)})
        a, b = rng.choice(sorted(p.covers))
        upper, lower = list(p._upcov), list(p._dncov)
        upper[a] += (b,)
        lower[b] += (a,)
        with pytest.raises(OrderError, match=rf"^cover \({a},{b}\) is listed twice$"):
            Poset._from_rows(tuple(upper), tuple(lower))
        refused += 1
    assert refused > 300


def test_a_poset_keeps_the_length_of_its_longest_chain():
    """height(), kept where the heights are derived (_derive, _from_up),
    is the longest chain of the order that random pairs generate, found
    by relaxing its strict pairs; the empty poset has height 0."""
    rng = random.Random(2026)
    for _ in range(1000):
        n, pairs = random_relation(rng)
        lt = strict_order(n, pairs)
        longest = [0] * n
        for _ in range(n):
            for a, b in lt:
                longest[b] = max(longest[b], longest[a] + 1)
        p = from_relation(n, pairs)
        assert p.height() == Poset(n, p.covers).height() == max(longest)
    assert Poset(0, []).height() == Poset._from_up(()).height() == 0


# Posets from up-set masks -------------------------------------------------

def assert_from_up_matches_the_rows(p):
    """p, built by Poset._from_up, against the poset that derives its order
    again from the cover rows (oracles.poset_from_up_by_rows): the same
    rows, up- and down-sets, heights and covers, and `_order` lists every
    element once, each after its lower covers."""
    want = poset_from_up_by_rows(p.up)
    assert (p._upcov, p._dncov, p.up, p.down, p._heights(), p.covers) == (
        want._upcov, want._dncov, want.up, want.down, want._heights(), want.covers)
    place = {u: i for i, u in enumerate(p._order)}
    assert len(p._order) == p.n and sorted(place) == list(range(p.n))
    assert all(place[a] < place[b] for a, b in p.covers)


def assert_small_posets_match_on_every_lattice(max_len):
    """On every lattice of length <= max_len: J(Con L), the lamp poset and
    the lamp poset with each element doubled (poset_double) against the
    rows; returns the number of posets checked."""
    checked = 0
    for entry in enumerate_index(max_len, allow_large=True).entries():
        lat, lamps = entry.pl.lattice, lamp_poset(entry.pl)[2]
        for p in (congruence_lattice(lat).jir_poset, lamps,
                  *(poset_double(lamps, j) for j in range(lamps.n))):
            assert_from_up_matches_the_rows(p)
            checked += 1
    return checked


def test_small_posets_from_up_sets_match_the_rows_to_length_seven():
    assert assert_small_posets_match_on_every_lattice(7) == 3895


@pytest.mark.slow
def test_small_posets_from_up_sets_match_the_rows_at_length_eight():
    assert assert_small_posets_match_on_every_lattice(8) == 24503


@st.composite
def closed_up_sets(draw, chain=0):
    """The up-set masks of a random order on 0..n-1 that holds a chain of
    `chain` elements: pairs a < b of a random linear extension, the first
    `chain` elements of the extension among them, closed transitively."""
    n = draw(st.integers(min_value=chain, max_value=9))
    rank = draw(st.permutations(range(n)))
    pairs = draw(st.sets(st.tuples(st.integers(0, max(n - 1, 0)),
                                   st.integers(0, max(n - 1, 0))), max_size=3 * n))
    first = sorted(range(n), key=rank.__getitem__)[:chain]
    pairs |= set(zip(first, first[1:]))
    up = [1 << x for x in range(n)]
    for x in sorted(range(n), key=rank.__getitem__, reverse=True):
        for a, b in pairs:
            if a == x and rank[a] < rank[b]:
                up[x] |= up[b]
    return up


@given(closed_up_sets())
@settings(max_examples=300, deadline=None)
def test_poset_from_up_sets_matches_the_rows_on_random_orders(up):
    p = Poset._from_up(up)
    assert p.up == tuple(up)
    assert_from_up_matches_the_rows(p)


@given(closed_up_sets(chain=3), st.data())
@settings(max_examples=300, deadline=None)
def test_poset_from_up_sets_refuses_masks_that_are_no_order(up, data):
    """Masks that are not antisymmetric or not closed raise a named
    OrderError.  For a cover a < b, each element below b also gets the
    up-set of a: the masks stay closed, and a and b hold each other.  An
    element c above some b above a leaves up[a]: the poset from rows
    closes that again, silently, and _from_up names a and an element b'
    in its up-set whose up-set holds some c' that up[a] misses."""
    covers = sorted(poset_from_up_by_rows(up).covers)
    a, b = data.draw(st.sampled_from(covers))
    cyclic = [m | up[a] if m >> b & 1 else m for m in up]
    with pytest.raises(OrderError, match=rf"^up-sets of {min(a, b)} and {max(a, b)} hold each other$"):
        Poset._from_up(cyclic)
    chains = [(a, c) for a, b in covers for c in _elements(up[b] ^ (1 << b))]
    a, c = data.draw(st.sampled_from(chains))
    unclosed = list(up)
    unclosed[a] ^= 1 << c
    assert poset_from_up_by_rows(unclosed).up == tuple(up)
    with pytest.raises(OrderError, match=rf"^up-set of {a} is not closed: it holds ") as raised:
        Poset._from_up(unclosed)
    held, missed = map(int, re.findall(r"\d+", str(raised.value))[1:])
    assert unclosed[a] >> held & 1 and unclosed[held] >> missed & 1
    assert not unclosed[a] >> missed & 1


def test_poset_from_up_sets_refuses_masks_out_of_range_or_not_reflexive():
    with pytest.raises(OrderError, match=r"^up-set of 1 holds elements out of range 0\.\.1$"):
        Poset._from_up([0b11, 0b110])
    with pytest.raises(OrderError, match=r"^up-set of 0 does not hold 0$"):
        Poset._from_up([0b10, 0b10])


def test_semimodular_and_slim_match_definitions(lattices6):
    """Birkhoff's covering condition and the 2-colouring of J(L) against the
    scans of all pairs and all triples, on every outcome."""
    fixtures = {name: lattice_from_poset(order_from_covers(c)) for name, c in (
        ("N5", N5_COVERS), ("M3", M3_COVERS), ("B3", B3_COVERS), ("S7", S7_COVERS))}
    assert {name: (lat.is_semimodular(), lat.is_slim()) for name, lat in fixtures.items()} == {
        "N5": (False, True), "M3": (True, False), "B3": (True, False), "S7": (True, True)}
    rng = random.Random(7)
    random_lattices = []
    for _ in range(2000):
        try:
            random_lattices.append(FiniteLattice(random_poset(rng)))
        except OrderError:
            pass
    outcomes = dict.fromkeys([(a, b) for a in (True, False) for b in (True, False)], 0)
    for lat in lattices6 + list(fixtures.values()) + random_lattices:
        got = (lat.is_semimodular(), lat.is_slim())
        assert got == (is_semimodular_by_pairs(lat), is_slim_by_triples(lat)), lat.poset
        outcomes[got] += 1
    # every (semimodular, slim) outcome is exercised many times
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("covers", [
    # unique bottom 0 and top 5, but 1 v 2 has the two minimal upper bounds
    # 3 and 4 (and, dually, 3 ^ 4 has the two maximal lower bounds 1 and 2)
    [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)],
    # the same with three atoms 1, 2, 6 and three coatoms 3, 4, 7: every
    # element that has to choose a bound has three covers
    [(0, a) for a in (1, 2, 6)] + [(a, b) for a in (1, 2, 6) for b in (3, 4, 7)]
    + [(b, 5) for b in (3, 4, 7)],
])
def test_bounded_non_lattice_rejected(covers):
    p = order_from_covers(covers)
    with pytest.raises(OrderError, match="no glb for pair"):
        FiniteLattice(p)
    with pytest.raises(OrderError):
        reference_tables(p)
    with pytest.raises(OrderError, match="no lub for pair"):
        bound_table(p, p.up, p.down, p.upper_covers, p._order[::-1])
    # 1 and 2 share the upper covers 3 and 4, and neither is their join
    lat = FiniteLattice.__new__(FiniteLattice)
    lat.poset = p
    assert lat.cover_join(1, 2) is None
    # at 1 and 2 the corner ideals are chains and the coordinates are
    # meet-closed; only the up-set test rejects the poset there
    for lc in range(p.n):
        for rc in range(p.n):
            if lc != rc:
                with pytest.raises(DiagramError):
                    _certified_diagram(p, lc, rc)


def test_mask_certificate_at_scale():
    """Three posets of about 2,000 elements, far past the random posets'
    n <= 9.  `grid 43 44`'s covers, read from pairs under shuffled ids,
    certify.  The same poset with two elements u, v put between the
    coatoms a, b and their meet c does not: a and b, at the two highest
    ids, have the two maximal common lower bounds u and v, and theirs is
    the only pair with no meet.  A chain, with no incomparable pair,
    certifies."""
    lat = multifork.grid(43, 44).lattice
    n = lat.n
    a, b = lat.lower_covers(lat.top)
    c = lat.meet_of((a, b))
    rest = [x for x in range(n) if x not in (a, b)]
    random.Random(4344).shuffle(rest)
    new = {x: i for i, x in enumerate(rest + [a, b])}
    covers = [(new[x], new[y]) for x, y in lat.poset.covers]
    assert FiniteLattice(Poset(n, covers)).n == n
    a, b, c, u, v = new[a], new[b], new[c], n, n + 1
    added = [(c, u), (c, v), (u, a), (u, b), (v, a), (v, b)]
    p = Poset(n + 2, [cv for cv in covers if cv not in {(c, a), (c, b)}] + added)
    with pytest.raises(OrderError, match=rf"^no glb for pair \({n - 2},{n - 1}\)$"):
        FiniteLattice(p)
    assert FiniteLattice(named_posets("chain", 2000)).n == 2000


@pytest.mark.parametrize("covers, jir_count, con_size, jir_covers", [
    (N5_COVERS, 3, 5, {(0, 1), (0, 2)}),
    (M3_COVERS, 1, 2, set()),
    (B3_COVERS, 3, 8, set()),
    (S7_COVERS, 3, 5, {(0, 1), (0, 2)}),
], ids=["N5", "M3", "B3", "S7"])
def test_congruence_lattice_matches_reference(covers, jir_count, con_size, jir_covers):
    """Con from the D order against one closure per cover, on the non-slim
    fixtures too; the lattices of length <= 6 and the random lattices are
    compared by assert_kernels_match_references."""
    lat = lattice_from_poset(order_from_covers(covers))
    assert_con_matches_reference(lat)
    cl = congruence_lattice(lat)
    assert (cl.jir_count(), cl.con_size, cl.jir_poset.covers) == (jir_count, con_size, jir_covers)


# Brute-force reference for distributive cells -------------------------------

def reference_two_disjoint_chains(poset, elems):
    """True iff the induced order on elems is a disjoint union of <= 2 chains,
    by connected components of the comparability graph."""
    comp = {
        u: {v for v in elems if v != u and (poset.leq(u, v) or poset.leq(v, u))}
        for u in elems
    }
    unseen = set(elems)
    components = []
    while unseen:
        stack = [unseen.pop()]
        comp_elems = set(stack)
        while stack:
            u = stack.pop()
            for v in comp[u]:
                if v in unseen:
                    unseen.remove(v)
                    comp_elems.add(v)
                    stack.append(v)
        components.append(comp_elems)
    if len(components) > 2:
        return False
    return all(
        poset.leq(a, b) or poset.leq(b, a)
        for c in components for a in c for b in c
    )


def reference_is_distributive_ideal_grid(lat, x):
    """The ideal of x rebuilt as a lattice, scanned for distributivity over
    all triples, with its join-irreducibles split into <= 2 chains."""
    sub, _ = restrict(lat.poset, lat.ideal(x))
    ideal = FiniteLattice(sub)
    meet, join = tables(ideal)
    m = ideal.n
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return False
    return reference_two_disjoint_chains(sub, ideal.jir())


def test_distributive_ideal_grid_matches_reference(lattices6):
    fixtures = [lattice_from_poset(order_from_covers(c))
                for c in (N5_COVERS, M3_COVERS, B3_COVERS, S7_COVERS)]
    n5 = fixtures[0]
    # the join-irreducibles of N5 are two disjoint chains; only the count
    # (5 elements, not 6) tells that N5 is not a product of two chains
    assert not is_distributive_ideal_grid(n5, n5.top)
    rng = random.Random(2025)
    random_lattices = []
    while len(random_lattices) < 200:
        p = random_poset(rng)
        try:
            random_lattices.append(FiniteLattice(p))
        except OrderError:
            pass
    outcomes = {"grid": 0, "two chains, too few elements": 0, "other": 0}
    for lat in lattices6 + fixtures + random_lattices:
        for x in range(lat.n):
            got = is_distributive_ideal_grid(lat, x)
            assert got == reference_is_distributive_ideal_grid(lat, x), (lat.poset, x)
            jir_below = [u for u in lat.jir() if lat.leq(u, x)]
            if got:
                outcomes["grid"] += 1
            elif reference_two_disjoint_chains(lat.poset, jir_below):
                outcomes["two chains, too few elements"] += 1
            else:
                outcomes["other"] += 1
    # every branch is exercised, the one only the count decides included
    assert min(outcomes.values()) > 100


# The corner-coordinate certificate ------------------------------------------

# The points of [0, 2] x [0, 2] on the two axes and (1, 2), (2, 1), (2, 2),
# ordered coordinatewise.  Ids 0..7 are (0,0), (1,0), (2,0), (0,1), (0,2),
# (1,2), (2,1), (2,2).  The corners 2 = (2,0) and 4 = (0,2) have the axes as
# ideals, so every element's heights are its own point, and the up-set test
# passes.  But (1,1) is missing: 1 and 3 are both maximal below 5 and 6.
UNCLOSED_COVERS = [(0, 1), (1, 2), (2, 6), (6, 7), (0, 3), (3, 4), (4, 5), (5, 7),
                   (3, 6), (1, 5)]


def certified_heights(poset, lc, rc):
    """The coordinates that certify the poset at the corners lc, rc, which
    its built diagram keeps, or None when the certificate rejects it."""
    try:
        return _certified_diagram(poset, lc, rc).heights()
    except (OrderError, DiagramError):
        return None


def table_heights(poset, lc, rc):
    """(hl, hr) off the cubic reference meet table: hl(x) = |ideal(x ^ lc)| - 1."""
    meet = reference_tables(poset)[0]
    size = [m.bit_count() for m in poset.down]
    return tuple(tuple(size[row[c]] - 1 for row in meet) for c in (lc, rc))


def assert_certificate_sound(poset, lc, rc):
    """The certificate accepts the poset at (lc, rc) iff the meet table
    accepts it, boundary_heights succeeds there and lc, rc are complements;
    then all three agree on the heights.  The certificate also rejects two
    covers of one element at one left height, which no poset that passes
    the up-set test has: its points are ordered as its elements are, and two
    covers of one element are incomparable.  Returns whether it accepted."""
    got = certified_heights(poset, lc, rc)
    try:
        lat = FiniteLattice(poset)
        want = boundary_heights(lat, lc, rc)
        _check_complements(lat, lc, rc)
    except (OrderError, DiagramError):
        assert got is None, (poset, lc, rc)
        return False
    assert got == want, (poset, lc, rc)
    assert got[:2] == table_heights(poset, lc, rc), (poset, lc, rc)
    return True


def corner_pairs(poset):
    """Ordered pairs of distinct doubly irreducible elements."""
    di = [u for u in range(poset.n)
          if len(poset.upper_covers(u)) == 1 and len(poset.lower_covers(u)) == 1]
    return [(a, b) for a in di for b in di if a != b]


def test_certificate_accepts_every_built_and_deleted_fork_lattice(diagrams6):
    """Every lattice of length <= 6, at its corners in both orientations,
    and every lattice left when the forks of an internal lamp, or of one of
    its tubes, are deleted."""
    deletions = 0
    for d in diagrams6:
        lat = d.lattice
        assert isinstance(lat, _CornerLattice)
        assert len(corner_pairs(lat.poset)) == 2
        for lc, rc in corner_pairs(lat.poset):
            assert assert_certificate_sound(lat.poset, lc, rc)
            # the built diagram keeps the heights that certified it
            oriented = d if d.corners() == (lc, rc) else d.mirror()
            assert oriented.heights() == certified_heights(lat.poset, lc, rc)
        lc, rc = d.corners()
        for lamp in lamps_of_diagram(d):
            if lamp.kind != "internal":
                continue
            for tubes in [lamp.tubes] + [(t,) for t in lamp.tubes]:
                removed = set().union(*(fork_interval(d, t.foot) for t in tubes))
                sub, old_ids = restrict(lat.poset, set(range(lat.n)) - removed)
                assert assert_certificate_sound(sub, old_ids.index(lc), old_ids.index(rc))
                deletions += 1
    assert deletions == 420


class _Raised(NamedTuple):
    """The OrderError or DiagramError that a derivation raised."""
    kind: type
    message: str


def _outcome(derive, *args):
    """derive(*args), or the _Raised error it raised."""
    try:
        return derive(*args)
    except (OrderError, DiagramError) as e:
        return _Raised(type(e), str(e))


def assert_fused_passes_match(upper, lower, corner_pairs):
    """The fused passes (Poset._from_rows, _certified_diagram) against one
    pass per derivation (tests/oracles.py) on the given rows and at each
    corner pair: the same down- and up-sets and heights, the same points
    (hl, hr) and corner chains and the same sorted rows, or an error of the
    same type and text.  Returns the certificate's outcomes."""
    want = _outcome(order_by_passes, upper, lower)
    got = _outcome(Poset._from_rows, upper, lower)
    if isinstance(want, _Raised):
        assert got == want, (upper, lower)
        return []
    assert (got.down, got.up, got._heights()) == want, (upper, lower)
    outcomes = []
    for lc, rc in corner_pairs:
        want = _outcome(certified_by_passes, got, lc, rc)
        d = _outcome(_certified_diagram, got, lc, rc)
        if isinstance(want, _Raised):
            assert d == want, (upper, lower, lc, rc)
        else:
            assert (d.upper, d.lower, d.heights()) == want, (upper, lower, lc, rc)
        outcomes.append(want)
    return outcomes


def assert_fused_passes_match_on_every_diagram(max_len):
    """Each built lattice of length <= max_len at its corners, and its mirror
    image, the rows reversed, at the corners swapped."""
    checked = 0
    for entry in enumerate_index(max_len, allow_large=True).entries():
        d = entry.pl.diagram
        lc, rc = d.corners()
        for upper, lower, corners in ((d.upper, d.lower, (lc, rc)),
                                      (tuple(r[::-1] for r in d.upper),
                                       tuple(r[::-1] for r in d.lower), (rc, lc))):
            assert assert_fused_passes_match(upper, lower, [corners]) == [
                (upper, lower, _certified_diagram(d.lattice.poset, *corners).heights())]
            checked += 1
    return checked


def test_fused_passes_match_one_pass_each_to_length_seven():
    assert assert_fused_passes_match_on_every_diagram(7) == 2 * 493


@pytest.mark.slow
def test_fused_passes_match_one_pass_each_at_length_eight():
    assert assert_fused_passes_match_on_every_diagram(8) == 2 * 2820


def test_certificate_is_sound_on_random_posets():
    """At every ordered pair of doubly irreducible elements of 2,000 seeded
    random posets, lattices or not.  On each poset's rows, and on those rows
    with one cover dropped from the lower rows or one pair above a cover
    added, the fused passes agree with one pass per derivation."""
    rng = random.Random(2024)
    outcomes = {"accepted": 0, "lattice rejected": 0, "non-lattice rejected": 0}
    refused = set()
    for _ in range(2000):
        p = random_poset(rng)
        assert_fused_passes_match(p._upcov, p._dncov, corner_pairs(p))
        if p.covers:
            a, b = rng.choice(sorted(p.covers))
            lower = list(p._dncov)
            lower[b] = tuple(x for x in lower[b] if x != a)
            assert_fused_passes_match(p._upcov, tuple(lower), [])
            above = p.upper_covers(b)
            if above:
                upper, lower = list(p._upcov), list(p._dncov)
                upper[a] += (above[0],)
                lower[above[0]] += (a,)
                got = _outcome(Poset._from_rows, tuple(upper), tuple(lower))
                refused.add(getattr(got, "kind", None))
                assert_fused_passes_match(tuple(upper), tuple(lower), [])
        for lc, rc in corner_pairs(p):
            if assert_certificate_sound(p, lc, rc):
                outcomes["accepted"] += 1
            else:
                try:
                    FiniteLattice(p)
                    outcomes["lattice rejected"] += 1
                except OrderError:
                    outcomes["non-lattice rejected"] += 1
    # every outcome is exercised many times
    assert min(outcomes.values()) > 100, outcomes
    assert refused == {OrderError}


def test_certificate_rejects_coordinates_that_are_not_meet_closed():
    p = order_from_covers(UNCLOSED_COVERS)
    hl, hr, _, _ = boundary_heights(_CornerLattice(p), 2, 4)
    points = list(zip(hl, hr))
    assert points == [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 2), (2, 1), (2, 2)]
    with pytest.raises(DiagramError, match=r"^elements 5 and 6 have no element at their"
                                           r" coordinatewise minimum \(1,1\)$"):
        _certified_diagram(p, 2, 4)
    with pytest.raises(OrderError, match="no glb for pair"):
        FiniteLattice(p)


@pytest.mark.slow
def test_certificate_matches_table_on_every_step_to_length_eight(monkeypatch):
    """Every lattice that grid and multifork_extend certify while the first
    read of an enumerate_index(8) lattice replays the search, and then
    every fork child of its entries, duplicates included (every_child),
    against the meet table and boundary_heights; and its built diagram against the embedding of the
    same covers read as foreign input, and its corners against those
    derived from its lists."""
    steps = []
    certified = multifork._certified_diagram

    def checked(poset, lc, rc, *spliced):
        assert assert_certificate_sound(poset, lc, rc)
        d = certified(poset, lc, rc, *spliced)
        fresh = embed_rectangular(FiniteLattice(Poset(poset.n, poset.covers)), lcorner=lc)
        assert (d.upper, d.lower, d.corners(), d.heights()) == (
            fresh.upper, fresh.lower, fresh.corners(), fresh.heights())
        assert d.corners() == PlanarDiagram(d.lattice, d.upper, d.lower).corners()
        steps.append(poset.n)
        return d

    monkeypatch.setattr(multifork, "_certified_diagram", checked)
    index8 = enumerate_index(8, allow_large=True)
    assert index8.counts() == {2: 1, 3: 2, 4: 6, 5: 19, 6: 78, 7: 387, 8: 2327}
    # the search certifies nothing; the replay builds each of its 2,820
    # lattices once
    assert steps == []
    assert index8.entries()[0].pl.length() == 2
    assert len(steps) == sum(index8.counts().values()) == 2820
    assert sum(1 for _ in every_child(index8)) == 3353
    assert len(steps) == 2820 + 3353
