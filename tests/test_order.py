import random

import pytest

from slimlat.errors import OrderError
from slimlat.explore import enumerate_index
from slimlat.order import (
    Congruence,
    CongruenceLattice,
    FiniteLattice,
    Poset,
    congruence_lattice,
    is_distributive_ideal_grid,
    lattice_from_poset,
    named_posets,
    order_from_covers,
    poset_double,
    poset_iso,
    principal_congruence,
)

from oracles import congruence_join, is_congruence, verify_jir_congruences

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


def test_poset_restrict_keeps_order():
    p = order_from_covers(S7_COVERS)
    sub, old = p.restrict([0, 1, 3, 6])
    assert sub.n == 4
    assert old == [0, 1, 3, 6]
    assert sub.leq(0, 3) and sub.leq(1, 2)


def test_count_downsets_chain_and_antichain():
    assert named_posets("chain", 4).count_downsets() == 5
    assert named_posets("antichain", 4).count_downsets() == 16


# Lattices -------------------------------------------------------------------

def test_lattice_from_grid_poset():
    lat = lattice_from_poset(grid_poset(1, 1))
    assert lat.n == 4
    assert lat.join[1][2] == 3
    assert lat.meet[1][2] == 0


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
            m, j = lat.meet[x][y], lat.join[x][y]
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
    assert full.is_full()
    ident = principal_congruence(lat, 3, 3)
    assert ident.is_identity()


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
                    assert lat.meet[x][y] in block
                    assert lat.join[x][y] in block
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
    cl = congruence_lattice(s7())
    assert cl.jir_count() == 3
    assert cl.con_size == 5
    # V: one bottom below two incomparable tops
    assert poset_iso(cl.jir_poset, named_posets("V")) is not None
    assert verify_jir_congruences(cl)


def test_congruence_join_identity():
    lat = b2()
    empty = congruence_join(lat, [])
    assert empty.is_identity()


# Poset utilities ------------------------------------------------------------

def test_poset_iso_v_cases():
    v = named_posets("V")
    assert poset_iso(v, named_posets("V")) is not None
    assert poset_iso(v, named_posets("chain", 3)) is None
    # relabeled V
    w = order_from_covers([(2, 0), (2, 1)])
    m = poset_iso(v, w)
    assert m is not None and m[0] == 2


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
    return reference_table(poset, poset.down), reference_table(poset, poset.up)


def reference_congruence_lattice(lat):
    """Con L from one principal congruence per cover."""
    congs = []
    seen = set()
    for a, b in sorted(lat.poset.covers):
        c = principal_congruence(lat, a, b)
        if c.block_index not in seen:
            seen.add(c.block_index)
            congs.append(c)
    congs.sort(key=lambda c: (c.block_count(), c.block_index), reverse=True)
    m = len(congs)
    poset = Poset.from_relation(m, [
        (i, j) for i in range(m) for j in range(m) if i != j and congs[i].refines(congs[j])
    ])
    return CongruenceLattice(lat, tuple(congs), poset, poset.count_downsets())


def assert_kernels_match_references(lat):
    assert (lat.meet, lat.join) == reference_tables(lat.poset)
    assert_con_matches_reference(lat)


def assert_con_matches_reference(lat):
    got, want = congruence_lattice(lat), reference_congruence_lattice(lat)
    assert got.jir_congs == want.jir_congs
    assert got.jir_poset == want.jir_poset
    assert got.con_size == want.con_size


@pytest.fixture(scope="module")
def lattices6():
    """The 106 slim rectangular lattices of length <= 6."""
    return [e.pl.lattice for e in enumerate_index(6).entries()]


def test_kernels_match_references_up_to_length_six(lattices6):
    assert len(lattices6) == 106
    for lat in lattices6:
        assert_kernels_match_references(lat)


def random_poset(rng):
    """A random poset on 1..9 elements; half of them get a bottom and a top."""
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
    return Poset.from_relation(n, [(perm[a], perm[b]) for a, b in pairs])


def test_kernels_match_references_on_random_posets():
    rng = random.Random(2024)
    outcomes = {"lattice": 0, "not a lattice": 0}
    for _ in range(2000):
        p = random_poset(rng)
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
    lat = FiniteLattice.__new__(FiniteLattice)
    lat.poset = p
    with pytest.raises(OrderError, match="no lub for pair"):
        lat._table(p.up, p.down, p.upper_covers, p._toposort()[::-1])


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
    sub, _ = lat.poset.restrict(lat.ideal(x))
    ideal = FiniteLattice(sub)
    meet, join = ideal.meet, ideal.join
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
