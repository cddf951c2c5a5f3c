from itertools import combinations

import pytest

from slimlat.errors import BudgetError
from slimlat.explore import enumerate_index, realize, sweep_bounds
from slimlat.lamps import lamp_poset
from slimlat.multifork import build
from slimlat.order import Poset, named_posets, poset_iso
from slimlat.reduce import length_bound


@pytest.fixture(scope="module")
def index5():
    return enumerate_index(5)


@pytest.fixture(scope="module")
def index7():
    return enumerate_index(7)


def test_counts_small(index5):
    counts = index5.counts()
    assert counts[2] == 1
    assert counts[3] == 2
    assert counts[4] == 6
    assert counts[5] == 19


def test_budget_guard():
    with pytest.raises(BudgetError):
        enumerate_index(8)


def test_entries_are_valid_and_deduplicated(index5):
    from slimlat.diagram import is_slim_rectangular
    seen = set()
    for entry in index5.entries():
        assert entry.code not in seen
        seen.add(entry.code)
        assert is_slim_rectangular(entry.pl.diagram).ok
        assert entry.pl.canonical_code() == entry.code


def test_sequences_rebuild_to_codes(index5):
    for entry in index5.entries(4):
        assert build(entry.seq).canonical_code() == entry.code


def test_classification_cross_validated_by_lattice_iso(index5):
    # distinct canonical codes at lengths <= 4 really are non-isomorphic
    for length in (2, 3, 4):
        entries = index5.entries(length)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                assert poset_iso(
                    entries[i].pl.lattice.poset, entries[j].pl.lattice.poset
                ) is None


def test_mirror_closure(index5):
    for entry in index5.entries():
        assert entry.pl.diagram.mirror().canonical_code() == entry.code


def test_antichain_lamp_posets_are_exactly_grids(index5):
    for length in (3, 4, 5):
        grids = 0
        for entry in index5.entries(length):
            _, lt, _ = lamp_poset(entry.pl)
            if not lt:
                grids += 1
                assert not entry.pl.seq.steps
        assert grids == length // 2  # pairs (p,q) with p >= q >= 1, p+q = length


def test_realize_y_poset():
    ans = realize(named_posets("Y"), 7)
    assert ans.status == "found" and ans.min_length == 5


def test_realize_antichains_via_grids():
    for n in (2, 3, 4):
        ans = realize(named_posets("antichain", n), 6)
        assert ans.status == "found" and ans.min_length == n


def test_realize_q_and_p():
    for n in (3, 4, 5):
        ans = realize(named_posets("Q", n), 6)
        assert ans.min_length == n
    for n in (4, 5):
        ans = realize(named_posets("P", n), 7)
        assert ans.min_length == n + 1


def test_realize_chain_not_representable():
    ans = realize(named_posets("chain", 3), 7)
    assert ans.status == "not_representable"


def test_realize_trivial_posets():
    ans = realize(named_posets("antichain", 1), 5)
    assert ans.status == "trivial" and ans.min_length == 1


def test_realize_witness_has_matching_lamp_poset():
    ans = realize(named_posets("Q", 4), 6)
    pl = build(ans.witness_seq)
    _, _, poset = lamp_poset(pl)
    assert poset_iso(poset, named_posets("Q", 4)) is not None


def test_sweep_bounds_small():
    report = sweep_bounds(4)
    assert report["counts"][4] == 6
    # every bound holds on every lattice and on every fixpoint
    assert report["failures"] == []
    names = {a["name"] for r in report["lattices"] for a in r["bounds"]["assertions"]}
    assert "length >= n" in names and "size <= length^2" in names


def _posets(n):
    """All posets on n unlabeled elements.  Every poset has a natural
    labelling (i below j only if i < j), so the transitive relations on the
    pairs i < j give each one at least once; poset_iso drops the repeats."""
    pairs = list(combinations(range(n), 2))
    seen = []
    for mask in range(1 << len(pairs)):
        rel = {pair for i, pair in enumerate(pairs) if mask >> i & 1}
        if any((a, d) not in rel for a, b in rel for c, d in rel if b == c):
            continue
        p = Poset.from_relation(n, rel)
        if not any(poset_iso(p, q) is not None for q in seen):
            seen.append(p)
    return seen


def _all_four_element_posets():
    """All 16 posets on four unlabeled elements."""
    return _posets(4)


def test_every_four_element_poset_classified_within_length_five(index7):
    """Survey: each 4-element poset is either realizable at length <= 5 or
    definitively not realizable (full window up to the bound 7 searched).
    Nothing is realizable only above length 5."""
    posets = _all_four_element_posets()
    assert len(posets) == 16
    results = {}
    for i, p in enumerate(posets):
        found_at = None
        for length in range(4, 8):
            for entry in index7.entries(length):
                if poset_iso(entry.lamp_poset(), p) is not None:
                    found_at = length
                    break
            if found_at is not None:
                break
        results[i] = found_at
    realizable = [v for v in results.values() if v is not None]
    assert all(v <= 5 for v in realizable), results
    # posets with fewer than two maximal elements can never be lamp posets
    for i, p in enumerate(posets):
        if len(p.maximal_elements()) < 2:
            assert results[i] is None


def test_length_five_classification_cross_validated(index5):
    # same cross-validation as at lengths <= 4, one length further: distinct
    # canonical codes at length 5 are pairwise non-isomorphic lattices
    entries = index5.entries(5)
    assert len(entries) == 19
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            assert poset_iso(
                entries[i].pl.lattice.poset, entries[j].pl.lattice.poset
            ) is None


def test_roundtrip_sample_at_length_six():
    from slimlat.multifork import decompose
    entries = enumerate_index(6).entries(6)
    for entry in entries[::7]:
        seq = decompose(entry.pl)
        assert build(seq).canonical_code() == entry.code


def test_grid_and_forks_count_the_lamps(index7):
    # the two lamp facts realize prunes on: the maximal lamps are the p + q
    # boundary lamps, and each fork adds exactly one lamp
    assert len(index7.entries()) == 493
    for entry in index7.entries():
        seq, poset = entry.seq, entry.lamp_poset()
        assert len(poset.maximal_elements()) == seq.grid_p + seq.grid_q, seq
        assert poset.n == seq.grid_p + seq.grid_q + len(seq.steps), seq


def reference_realize(poset, levels, max_len, allow_large=False):
    """(status, min_length, searched_up_to) of realize(poset, max_len) by
    brute force over `levels`: length -> every lamp poset at that length."""
    n = poset.n
    if n <= 1:
        return "trivial", n, 0
    bound = max(n, length_bound(n))
    cap = max_len if allow_large else min(max_len, bound)
    for length in range(max(2, n), cap + 1):
        if any(poset_iso(q, poset) is not None for q in levels[length]):
            return "found", length, length
    return ("not_representable" if cap >= bound else "unresolved"), -1, cap


def _check_realize_against_reference(index, allow_large=False):
    levels = {
        length: [e.lamp_poset() for e in index.entries(length)]
        for length in range(2, index.max_len + 1)
    }
    posets = [p for n in range(2, 6) for p in _posets(n)]
    assert len(posets) == 2 + 5 + 16 + 63
    for p in posets:
        ans = realize(p, index.max_len, allow_large=allow_large)
        got = (ans.status, ans.min_length, ans.searched_up_to)
        assert got == reference_realize(p, levels, index.max_len, allow_large), p
        if ans.found:
            pl = build(ans.witness_seq)
            assert pl.length() == ans.min_length
            assert poset_iso(lamp_poset(pl)[2], p) is not None


def test_realize_matches_brute_force_on_small_posets(index7):
    _check_realize_against_reference(index7)


@pytest.mark.slow
def test_realize_matches_brute_force_at_length_eight():
    _check_realize_against_reference(enumerate_index(8, allow_large=True), allow_large=True)
