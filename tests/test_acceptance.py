"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import pytest

from slimlat.diagram import is_slim_rectangular
from slimlat.doubling import double
from slimlat.explore import enumerate_index, realize
from slimlat.lamps import (
    lamp_creation_step,
    lamp_poset,
    lamps_of_diagram,
    usage_stats,
    verify_lamp_con_iso,
)
from slimlat.multifork import build, decompose
from slimlat.order import (
    congruence_lattice,
    lattice_from_poset,
    named_posets,
    poset_double,
    poset_iso,
)
from slimlat.reduce import (
    check_bounds,
    length_bound,
    minimize,
    remove_neighboring,
    remove_sandwiched,
)

from oracles import fork_interval, rho_circr, rho_foot


@pytest.fixture(scope="module")
def index5():
    return enumerate_index(5)


@pytest.fixture(scope="module")
def index6():
    return enumerate_index(6)


def verdict(num, name, ok, detail):
    line = f"criterion {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_01_lamp_congruence_isomorphism(index5):
    checked = 0
    for entry in index5.entries():
        ok, witness = verify_lamp_con_iso(entry.pl)
        assert ok, f"lamp/congruence mismatch for {entry.seq}"
        assert witness is not None
        checked += 1
    verdict(1, "lamp-congruence isomorphism", True, f"{checked} lattices, exact")
    assert checked == 28


def test_criterion_02_rho_equality(index5):
    checked = 0
    for entry in index5.entries():
        assert rho_foot(entry.pl) == rho_circr(entry.pl), entry.seq
        checked += 1
    verdict(2, "rho_foot == rho_circr", True, f"{checked} lattices, exact")


def test_criterion_03_reduction_correctness(index6):
    removals = 0
    for entry in index6.entries():
        pl = entry.pl
        stats = usage_stats(pl)
        before_cl = congruence_lattice(pl.lattice)
        for lamp in lamps_of_diagram(pl.diagram):
            if lamp.kind != "internal":
                continue
            pattern = stats.patterns[lamp.foot]
            for i in range(len(pattern) - 1):
                if pattern[i : i + 2] == "00":
                    pl2, step = remove_neighboring(
                        pl, lamp.foot, lamp.tubes[i], lamp.tubes[i + 1]
                    )
                elif pattern[i : i + 3] == "0u0":
                    pl2, step = remove_sandwiched(pl, lamp.foot, lamp.tubes[i + 1])
                else:
                    continue
                # the removal ops enforce slim-rectangularity, size drop,
                # tube-count drop and per-lamp bookkeeping internally;
                # re-check the headline facts here
                assert is_slim_rectangular(pl2.diagram).ok
                assert pl2.n < pl.n
                assert pl2.antube() == pl.antube() - 1
                after_cl = congruence_lattice(pl2.lattice)
                assert before_cl.con_size == after_cl.con_size
                assert poset_iso(before_cl.jir_poset, after_cl.jir_poset) is not None
                removals += 1
    verdict(3, "reduction lemmas", True, f"{removals} removals, 100% pass")
    assert removals > 0


def test_criterion_04_meet_closure(index5):
    checked = 0
    for entry in index5.entries():
        lat = entry.pl.lattice
        boundary, internal = entry.pl.diagram.neon_tubes()
        for tube in boundary + internal:
            keep = set(range(lat.n)) - fork_interval(entry.pl.diagram, tube.foot)
            for x in keep:
                for y in keep:
                    assert lat.meet_of((x, y)) in keep, (entry.seq, tube)
            checked += 1
    verdict(4, "meet closure of fork removal", True, f"{checked} tubes, exact")


def test_criterion_05a_length_at_least_n(index6):
    for entry in index6.entries():
        rep = check_bounds(entry.pl)
        assert rep.length >= rep.n, entry.seq
    verdict(5, "(i) length >= n", True, f"{len(index6.entries())} lattices")


def test_criterion_05b_fixpoint_length_bound(index6):
    checked = 0
    for entry in index6.entries():
        fixed, _ = minimize(entry.pl)
        rep = check_bounds(fixed, at_fixpoint=True)
        if rep.k >= 1:
            assert rep.length <= length_bound(rep.n), entry.seq
            checked += 1
    verdict(5, "(ii) fixpoint length <= 2n^2-10n+15", True, f"{checked} fixpoints")


def test_criterion_05c_size_bound_as_stated(index6):
    """PAPER.md: every slim semimodular K has a slim semimodular L with
    Con L = Con K, length(L) <= 2n^2 and |L| <= 4n^4, where n is the number
    of join-irreducible congruences.  The minimize fixpoint plays L, and n
    comes from the Con oracle, not from the lamps.  The size bound in terms
    of length is |L| <= len^2 (every element is a join of at most one
    element from each boundary chain); the tighter 1 + (len-1)^2 is false
    already on the four-element square (length 2, size 4 > 2).
    """
    entries = index6.entries()
    assert len(entries) == 106
    for entry in entries:
        size, length = entry.pl.n, entry.pl.length()
        assert size <= length ** 2, (entry.seq, size, length)
        fixed, _ = minimize(entry.pl)
        size, length = fixed.n, fixed.length()
        assert size <= length ** 2, (entry.seq, size, length)
        n = congruence_lattice(fixed.lattice).jir_count()
        assert size <= 4 * n ** 4, (entry.seq, size, n)
    verdict(
        5,
        "(iii) size <= len^2, fixpoint size <= 4n^4",
        True,
        f"{len(entries)} lattices and their fixpoints",
    )


def test_criterion_06_y_poset_minimal_length():
    ans = realize(named_posets("Y"), 7)
    assert ans.status == "found"
    assert ans.min_length == 5
    assert length_bound(4) == 7
    verdict(6, "Y poset realized minimally", True, "min length 5, bound(4) = 7")


def test_criterion_07_q_and_p_witnesses():
    for n in (3, 4, 5):
        ans = realize(named_posets("Q", n), 6)
        assert ans.status == "found" and ans.min_length == n, f"Q_{n}"
    for n in (4, 5):
        target = named_posets("P", n)
        ans = realize(target, 7)
        assert ans.status == "found" and ans.min_length == n + 1, f"P_{n}"
        # find a witness in which the lamp playing u has exactly two tubes
        u_index = n - 3
        found_two_tube_u = False
        for entry in enumerate_index(n + 1).entries(n + 1):
            lamps, _, poset = lamp_poset(entry.pl)
            iso = poset_iso(poset, target)
            if iso is None:
                continue
            # element i of the lamp poset is lamps[i]
            u_lamp = next(lamps[i] for i in range(len(lamps)) if iso[i] == u_index)
            if len(u_lamp.tubes) == 2:
                found_two_tube_u = True
                break
        assert found_two_tube_u, f"no P_{n} witness with a 2-tube u lamp"
    verdict(7, "Q_n and P_n realizations", True, "Q: len n (n=3,4,5); P: len n+1, NTube(U)=2")


def test_criterion_08_doubling(index6):
    doubled = 0
    for entry in index6.entries():
        seq = entry.seq
        lamps_o, _, poset_o = lamp_poset(entry.pl)
        for t in range(1, len(seq.steps) + 1):
            target = next(
                i for i, l in enumerate(lamps_o)
                if lamp_creation_step(entry.pl, l) == t
            )
            expected = poset_double(poset_o, target)
            new_seq, pl2 = double(seq, t)
            assert pl2.antube() == entry.pl.antube() + 2
            assert pl2.length() == entry.pl.length() + 2
            # the congruence oracle sees the doubled poset too
            cl = congruence_lattice(pl2.lattice)
            assert poset_iso(cl.jir_poset, expected) is not None
            doubled += 1
    verdict(8, "lamp doubling", True, f"{doubled} (sequence, step) pairs, 100%")
    assert doubled == 182


def test_criterion_09_roundtrip(index5):
    for entry in index5.entries():
        seq = decompose(entry.pl)
        assert build(seq).canonical_code() == entry.code, entry.seq
    verdict(9, "build(decompose(L)) round-trip", True, f"{len(index5.entries())} lattices")


def test_criterion_10_trivial_classification():
    chain3 = lattice_from_poset(named_posets("chain", 3))
    cl = congruence_lattice(chain3)
    assert cl.con_size == 4 and cl.jir_count() == 2
    assert cl.jir_poset.covers == frozenset()  # 2-antichain: boolean Con

    b2 = build(decompose(enumerate_index(2).entries(2)[0].pl.diagram)).lattice
    cl2 = congruence_lattice(b2)
    assert cl2.con_size == 4 and cl2.jir_count() == 2

    for n in (1, 2):
        chain = lattice_from_poset(named_posets("chain", n))
        assert congruence_lattice(chain).jir_count() == n - 1
    verdict(10, "n <= 2 classification (forward)", True, "Con(3-chain) = Con(B_2) = B_4")


def test_criterion_11_enumeration_counts(index6):
    expected = {2: 1, 3: 2, 4: 6, 5: 19, 6: 78}
    counts = index6.counts()
    assert counts == expected, counts
    verdict(11, "enumeration counts (regression)", True, str(expected))
