import gc
import hashlib
import re
import weakref
from itertools import combinations, permutations

import pytest

from slimlat import explore, multifork
from slimlat.cli import main
from slimlat.diagram import (
    PlanarDiagram,
    _forked_permutation,
    _jh_min,
    _jh_permutation,
    is_slim_rectangular,
)
from slimlat.dsl import emit_dsl, parse_dsl
from slimlat.errors import BudgetError, InternalInconsistencyError
from slimlat.explore import enumerate_index, realize, sweep_bounds
from slimlat.lamps import _lamp_places, lamp_poset
from slimlat.multifork import build, decompose
from slimlat.order import _dependencies, congruence_lattice, named_posets, poset_iso
from slimlat.reduce import length_bound

from oracles import (
    distributive_addresses_by_scan,
    distributive_cells,
    every_child,
    from_relation,
    join_row_dependencies,
    lattice_of_permutation,
    mask_sets,
    reachability,
    same_poset,
    sequence_lamp_poset_by_closure,
    trajectories,
)
from test_order import counted_calls


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


def _keys_and_codes(index):
    """(lattices, classes) over the grids of the index and every fork child
    of its entries within its budget, duplicates included (every_child).
    On each child the permutation predicted from its parent's is the one
    its validation sweeps; over all of them the Jordan-Holder key and the
    canonical code induce the same partition, and the permutation the
    mirror image's validation records is the inverse of the lattice's own."""
    def key_and_code(pl):
        d = pl.diagram
        pi, mirrored = _jh_permutation(d), _jh_permutation(d.mirror())
        assert sorted(pi) == list(range(1, len(pi) + 1)), pl.seq
        assert all(mirrored[j - 1] == i for i, j in enumerate(pi, 1)), pl.seq
        return _jh_min(pi), d.canonical_code()

    pairs = [key_and_code(entry.pl) for entry in index.entries() if not entry.seq.steps]
    for entry, address, k, child in every_child(index):
        predicted = _forked_permutation(_jh_permutation(entry.pl.diagram), address, k)
        assert predicted == _jh_permutation(child.diagram), child.seq
        pairs.append(key_and_code(child))
    classes = {key for key, _ in pairs}
    assert len(classes) == len({code for _, code in pairs}) == len(set(pairs))
    assert classes == {entry.key for entry in index.entries()}
    return len(pairs), len(classes)


def test_keys_partition_as_codes(index7):
    assert _keys_and_codes(index7) == (566, 493)


def test_enumeration_builds_only_new_lattices(monkeypatch):
    """The search builds no lattice.  The first read of an entry's lattice
    replays the whole search tree: the 12 grids and the 481 children that
    are the first of their class, one step each; later reads build
    nothing, and each lattice's sequence is its entry's."""
    extended = counted_calls(monkeypatch, explore, "multifork_extend")
    grids = counted_calls(monkeypatch, explore, "grid")
    entries = explore._enumerate(7).entries()
    assert len(entries) == 493
    assert (len(extended), len(grids)) == (0, 0)
    assert entries[-1].pl.length() == 7
    assert (len(extended), len(grids)) == (481, 12)
    assert all(e.pl.seq is e.seq for e in entries)
    assert (len(extended), len(grids)) == (481, 12)


WALK_CACHES = {"_walks": "_table", "boundary_chains": "_chains", "neon_tubes": "_tubes"}


def test_the_search_derives_each_walk_cache_once_and_releases_it(monkeypatch):
    """Building a child reads its parent's walk table before the replay
    leaves the parent, so each of the 493 lattices that the first read of
    an _enumerate(7) entry builds (481 children, 12 grids) derives its walk
    table and boundary chains exactly once, and holds none of them, nor the
    sweep's ends, when the replay returns.  None lists its neon tubes:
    the tube records are read off a grid's coordinates and a step's
    splice, and validation counts the meet-irreducible elements."""
    derived = {}
    for name, cache in WALK_CACHES.items():
        calls, fn = derived.setdefault(name, []), getattr(PlanarDiagram, name)

        def counted(d, fn=fn, cache=cache, calls=calls):
            if getattr(d, cache) is None:
                calls.append(d)
            return fn(d)

        monkeypatch.setattr(PlanarDiagram, name, counted)
    entries = explore._enumerate(7).entries()
    assert all(calls == [] for calls in derived.values())
    diagrams = [e.pl.diagram for e in entries]
    assert len(diagrams) == 493
    grids = {e.pl.diagram for e in entries if not e.seq.steps}
    for name, calls in derived.items():
        lists = set() if name == "neon_tubes" else set(diagrams)
        assert len(calls) == len(lists) and set(calls) == lists, name
    assert len(grids) == 12
    for d in diagrams:
        assert [getattr(d, cache) for cache in WALK_CACHES.values()] == [None] * 3
        assert d._ends is None


def test_released_entries_derive_what_a_fresh_build_derives():
    """An entry of the index holds none of the four walk caches; what it
    derives again, its key by a second sweep first, equals what a fresh
    build of its sequence derives, the cells of its walk table included."""
    for e in enumerate_index(6).entries():
        d = e.pl.diagram
        assert [getattr(d, cache) for cache in WALK_CACHES.values()] == [None] * 3
        assert d._ends is None
        assert _jh_min(_jh_permutation(d)) == e.key
        fresh = build(e.seq).diagram
        for name in WALK_CACHES:
            assert getattr(d, name)() == getattr(fresh, name)(), (name, e.seq)
        assert trajectories(d) == trajectories(fresh), e.seq


def _every_cell(pi):
    """A cell rule that lists every cell, distributive or not."""
    q = pi[0] - 1
    return [(a, b) for a in range(pi.index(1)) for b in range(q)]


def _unshifted(pi, address, k):
    """A fork rule that forgets to renumber the old right ends (sigma)."""
    a, b = address
    return (*pi[:a + 1], *range(b + 1 + k, b + 1, -1), *pi[a + 1:])


def test_a_wrong_prediction_names_the_sequence(monkeypatch):
    """A rule that forgets to renumber the old right ends (sigma) predicts
    the first child wrongly.  The search runs on it, and the replay that
    the first read of a lattice starts names the child when it builds it.
    A wrong rule can also predict keys that are already recorded and skip
    children; test_keys_partition_as_codes checks the rule on every
    child."""
    monkeypatch.setattr(explore, "_forked_permutation", _unshifted)
    entries = explore._enumerate(5).entries(2)
    with pytest.raises(InternalInconsistencyError, match="^" + re.escape(
            "the replay built\ngrid 1 1\nfork 0 0 1\n"
            "with permutation (3, 2, 1), not the predicted (2, 2, 1)") + r"\Z"):
        entries[0].pl


def test_a_wrong_cell_rule_names_the_sequence(monkeypatch):
    """A cell rule that lists every cell sends the replay to a cell that is
    not distributive, and the replay names the sequence it cannot build."""
    monkeypatch.setattr(explore, "_distributive_addresses", _every_cell)
    entries = explore._enumerate(5).entries(2)
    with pytest.raises(InternalInconsistencyError, match="^" + re.escape(
            "the replay cannot build\ngrid 1 1\nfork 0 0 1\nfork 0 0 1\nfork 0 1 1\n"
            "cell at (0, 1) is not distributive") + r"\Z"):
        entries[0].pl


def _check_cell_rule(entries):
    """The cells that the search reads off pi are the oracle's, on each
    entry's lattice and on its mirror image, whose pi is pi^-1."""
    for entry in entries:
        d = entry.pl.diagram
        for drawn in (d, d.mirror()):
            got = explore._distributive_addresses(_jh_permutation(drawn))
            assert got == distributive_cells(drawn), entry.seq


def test_the_cell_rule_reads_the_distributive_cells_off_pi(index7):
    assert len(index7.entries()) == 493
    _check_cell_rule(index7.entries())


def _derived_permutations(monkeypatch, max_len):
    """Every pi that the search to max_len derives, its grids' and every
    fork child's, duplicates included, in search order."""
    derived = []
    for name in ("_grid_permutation", "_forked_permutation"):
        def recorded(*args, fn=getattr(explore, name)):
            derived.append(fn(*args))
            return derived[-1]

        monkeypatch.setattr(explore, name, recorded)
    explore._enumerate(max_len)
    return derived


def _check_cell_rule_against_the_scan(derived):
    """The mask rule gives the cells of the (n + 1)^2 point scan on each pi
    and on pi^-1, the mirror image's."""
    for pi in derived:
        inv = [0] * len(pi)
        for i, j in enumerate(pi, 1):
            inv[j - 1] = i
        for drawn in (pi, tuple(inv)):
            assert explore._distributive_addresses(drawn) == (
                distributive_addresses_by_scan(drawn)), drawn


def test_the_cell_rule_equals_the_point_scan(monkeypatch):
    derived = _derived_permutations(monkeypatch, 7)
    assert len(derived) == 566  # 12 grids and 554 children
    _check_cell_rule_against_the_scan(derived)


def test_the_cell_rule_reads_a_non_permutation():
    """A wrong fork rule (_unshifted) feeds the search (2, 2, 1), which is
    no permutation.  The cell rule raises nothing on it and lists what the
    scan lists, so the replay, not the search, names the defect
    (test_a_wrong_prediction_names_the_sequence)."""
    assert explore._distributive_addresses((2, 2, 1)) == (
        distributive_addresses_by_scan((2, 2, 1))) == [(0, 0), (1, 0)]


def test_entries_are_made_on_read(monkeypatch):
    """The search keeps one array slot per node and makes no entry; an
    index makes a length's entries on its first read, one per node, and
    keeps them.  Each entry's sequence is its lattice's once replayed."""
    made = counted_calls(monkeypatch, explore._SearchTree, "entry")
    index = explore._enumerate(7)
    tree = index.tree
    assert len(tree.parent) == len(tree.a) == len(tree.b) == len(tree.k) == 493
    assert [len(tree.by_length[n]) for n in range(2, 8)] == [1, 2, 6, 19, 78, 387]
    grids = [i for i, up in enumerate(tree.parent) if up < 0]
    assert len(grids) == 12 and grids == [i for i in range(493) if tree.k[i] == 0]
    assert made == []
    sevens = index.entries(7)
    assert len(made) == 387
    assert index.entries(7) is sevens and len(made) == 387
    assert [e.node for e in sevens] == list(tree.by_length[7])
    for e in sevens:
        seq = e.seq
        assert len(e.key) == seq.grid_p + seq.grid_q + sum(st.k for st in seq.steps) == 7
        assert tree.forks(e.node) == len(seq.steps), seq
    assert all(e.pl.seq is e.seq for e in sevens)


def test_enumeration_computes_no_canonical_code(monkeypatch):
    """The DFS dedupes on keys; an entry derives its code when it is read."""
    codes = counted_calls(monkeypatch, PlanarDiagram, "canonical_code")
    index = enumerate_index(7)
    assert len(index.entries()) == 493
    assert codes == []
    entry = index.entries(7)[0]
    assert entry.code == entry.pl.diagram.canonical_code()
    assert codes == [entry.pl.diagram] * 2


def test_an_index_is_freed_with_its_last_reference():
    """Neither the DFS nor a derived Con L holds a lattice in a reference
    cycle, so dropping an index frees its lattices without the cyclic
    collector."""
    gc.collect()
    gc.disable()
    try:
        index = enumerate_index(4)
        pl = index.entries(4)[0].pl
        congruence_lattice(pl.lattice)
        refs = weakref.ref(pl), weakref.ref(pl.lattice)
        del index, pl
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_lattices_are_the_point_sets_of_their_permutations():
    """Every lattice of length <= 6 sits on the points S(pi) of its own
    Jordan-Holder permutation, in the componentwise order: x at
    (max{i : c_i <= x}, max{j : d_j <= x}), c and d its boundary chains."""
    entries = enumerate_index(6).entries()
    assert len(entries) == 106
    for entry in entries:
        d = entry.pl.diagram
        lat = d.lattice
        points, s_pi = lattice_of_permutation(_jh_permutation(d))
        lchain, rchain = d.boundary_chains()
        index = {p: k for k, p in enumerate(points)}
        image = [index[max(i for i, c in enumerate(lchain) if lat.leq(c, x)),
                       max(j for j, c in enumerate(rchain) if lat.leq(c, x))]
                 for x in range(lat.n)]
        assert sorted(image) == list(range(len(points))), entry.seq
        assert all(lat.leq(x, y) == s_pi.leq(image[x], image[y])
                   for x in range(lat.n) for y in range(lat.n)), entry.seq


def permutation_lattice_counts(max_len):
    """{length: the number of slim rectangular S(pi)}, one pi from each
    pair {pi, pi^-1} of permutations of that length, the one with
    pi <= pi^-1.  Each S(pi) is embedded as foreign input
    (is_slim_rectangular of a lattice), which shares no code with the fork
    DFS; since pi and pi^-1 give mirror images, these are the
    isomorphism classes of slim rectangular lattices of each length."""
    counts = {}
    for n in range(1, max_len + 1):
        for pi in permutations(range(1, n + 1)):
            inv = tuple(pi.index(j) + 1 for j in range(1, n + 1))
            if pi <= inv and is_slim_rectangular(lattice_of_permutation(pi)[1]).ok:
                counts[n] = counts.get(n, 0) + 1
    return counts


def test_permutation_lattices_count_as_the_enumeration(index7):
    assert permutation_lattice_counts(7) == index7.counts() == {
        2: 1, 3: 2, 4: 6, 5: 19, 6: 78, 7: 387}


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


# a 4-element poset with two maximal elements that no lattice has as its
# lamp poset: the search runs over the whole window up to length_bound(4)
CHAIN_AND_POINT = from_relation(4, {(0, 1), (1, 2)})


@pytest.mark.parametrize("poset, max_len, answer", [
    (named_posets("Y"), 7, ("found", 5, "grid 1 1\nfork 0 0 2\nfork 0 1 1\n")),
    (from_relation(5, {(0, 1), (1, 2), (2, 3), (2, 4)}), 7,
     ("found", 6, "grid 1 1\nfork 0 0 2\nfork 0 1 1\nfork 1 0 1\n")),
    (CHAIN_AND_POINT, 7, ("not_representable", -1, None)),
    (CHAIN_AND_POINT, 5, ("unresolved", -1, None)),
], ids=["Y", "five_elements", "not_representable", "unresolved"])
def test_realize_builds_only_its_witness(monkeypatch, empty_memo, poset, max_len, answer):
    """realize reads every candidate's lamp poset off its fork sequence and
    builds one lattice, the witness, with one grid and one fork step per
    step; a negative answer builds nothing.  Both the explore bindings,
    which the replay calls, and the multifork ones, which build calls,
    are counted."""
    calls = {"grid": [], "multifork_extend": []}
    for module in (explore, multifork):
        for name, made in calls.items():
            def counted(*args, fn=getattr(module, name), made=made):
                made.append(args)
                return fn(*args)

            monkeypatch.setattr(module, name, counted)
    ans = realize(poset, max_len)
    witness = emit_dsl(ans.witness_seq) if ans.witness_seq else None
    assert (ans.status, ans.min_length, witness) == answer
    steps = len(ans.witness_seq.steps) if ans.found else 0
    assert (len(calls["grid"]), len(calls["multifork_extend"])) == (int(ans.found), steps)


def test_the_answer_keeps_its_built_witness(monkeypatch):
    """The answer holds the witness realize built and checked, so reading
    it, or building its sequence, builds nothing again; the answer compares
    and prints as its five fields."""
    ans = realize(named_posets("Y"), 7)
    grids = counted_calls(monkeypatch, multifork, "grid")
    steps = counted_calls(monkeypatch, multifork, "multifork_extend")
    assert ans.witness.seq == ans.witness_seq
    assert build(ans.witness_seq) is ans.witness
    assert poset_iso(lamp_poset(ans.witness)[2], named_posets("Y")) is not None
    assert (len(grids), len(steps)) == (0, 0)
    assert "witness=" not in repr(ans)
    fields = (ans.poset, ans.status, ans.min_length, ans.witness_seq, ans.searched_up_to)
    assert ans == explore.RealizabilityAnswer(*fields)


@pytest.mark.parametrize("planted, poset, max_len, message", [
    (("_sequence_lamp_poset", lambda seq, names: named_posets("Y")), named_posets("Y"), 7,
     "realize built the witness\ngrid 1 1\nfork 0 0 1\nfork 0 0 1\n"
     "with J(Con L) not isomorphic to the query"),
    (("_forked_permutation", _unshifted), named_posets("Q", 3), 6,
     "realize built the witness\ngrid 1 1\nfork 0 0 1\n"
     "with key (3, 2, 1), not the searched (2, 2, 1)"),
    (("_distributive_addresses", _every_cell), named_posets("Y"), 7,
     "realize cannot build the witness\ngrid 1 1\nfork 0 0 1\nfork 0 1 1\n"
     "step 2: cell at (0, 1) is not distributive"),
], ids=["lamp_rule", "key", "cell_rule"])
def test_a_failed_witness_check_names_the_witness(
        monkeypatch, tmp_path, capsys, planted, poset, max_len, message):
    """A planted defect in one of the pi rules that realize searches on
    makes it answer with a witness whose built lattice disagrees: a lamp
    rule that matches every sequence (J(Con L), which reads no pi rule, is
    not the query), a fork rule that predicts a wrong key, a cell rule
    that forks a cell that is not distributive.  The
    error names the witness in DSL that parses back, and `slimlat realize`
    exits 1 with the same text."""
    monkeypatch.setattr(explore, *planted)
    with pytest.raises(InternalInconsistencyError) as info:
        realize(poset, max_len)
    assert str(info.value) == message
    dsl = "\n".join(message.splitlines()[1:-1]) + "\n"
    assert emit_dsl(parse_dsl(dsl)) == dsl
    query = tmp_path / "query.poset"
    query.write_text(poset.to_json())
    assert main(["realize", "--input", str(query), "--max-len", str(max_len)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _check_lamp_rule(entries):
    """The lamp poset that realize reads off each witness sequence is the
    one that lamp_poset derives on its built diagram through the door,
    over the diagram's own peel, up to isomorphism."""
    for entry in entries:
        lamps, _, poset = lamp_poset(entry.pl.diagram)
        assert poset_iso(explore._sequence_lamp_poset(entry.seq, range(len(lamps))),
                         poset) is not None, entry.seq


def test_the_lamp_rule_reads_the_lamp_poset_off_the_forks(index7):
    assert len(index7.entries()) == 493
    _check_lamp_rule(index7.entries())


def _check_lamp_masks(entries, names_of):
    """The lamp rule's up-set masks give the Poset, cover rows included,
    that closing the pairs each fork adds gives."""
    for entry in entries:
        names = names_of(entry)
        assert same_poset(explore._sequence_lamp_poset(entry.seq, names),
                          sequence_lamp_poset_by_closure(entry.seq, names)), entry.seq


def test_the_lamp_rule_masks_match_the_closure(index7):
    """Under each built lattice's own lamp names (lamps._lamp_places), as
    lamp_poset reads it, and under the names 0..n - 1, as realize does."""
    entries = index7.entries()
    _check_lamp_masks(entries, _lamp_places_of)
    _check_lamp_masks(entries, _count)


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
        p = from_relation(n, rel)
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
                if poset_iso(lamp_poset(entry.pl)[2], p) is not None:
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


def _check_roundtrip(entries):
    """decompose of each lattice and of its mirror image rebuilds that
    diagram's own Jordan-Holder permutation, not just its isomorphism
    class."""
    for entry in entries:
        d = entry.pl.diagram
        for drawn in (d, d.mirror()):
            rebuilt = build(decompose(drawn)).diagram
            assert _jh_permutation(rebuilt) == _jh_permutation(drawn), entry.seq


def test_roundtrip_rebuilds_the_permutation_to_length_six(index7):
    _check_roundtrip(e for length in range(2, 7) for e in index7.entries(length))


def test_grid_and_forks_count_the_lamps(index7):
    # the two lamp facts realize prunes on: the maximal lamps are the p + q
    # boundary lamps, and each fork adds exactly one lamp
    assert len(index7.entries()) == 493
    for entry in index7.entries():
        seq, poset = entry.seq, lamp_poset(entry.pl)[2]
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
        length: [lamp_poset(e.pl)[2] for e in index.entries(length)]
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


def _realize_digest(monkeypatch, cap, allow_large=False):
    """sha256 of (status, min_length, witness DSL, searched_up_to) of
    realize at cap on the 86 posets with 2-5 elements, one line each.
    realize makes an entry only for a node with exactly n lamps."""
    made = []

    def entry(tree, node, fn=explore._SearchTree.entry):
        made.append(fn(tree, node))
        return made[-1]

    monkeypatch.setattr(explore._SearchTree, "entry", entry)
    lines = []
    for p in (p for n in range(2, 6) for p in _posets(n)):
        ans = realize(p, cap, allow_large=allow_large)
        witness = emit_dsl(ans.witness_seq) if ans.witness_seq else None
        lines.append(repr((ans.status, ans.min_length, witness, ans.searched_up_to)))
        lamps = {e.seq.grid_p + e.seq.grid_q + len(e.seq.steps) for e in made}
        assert lamps <= {p.n}, (p, lamps)
        made.clear()
    assert len(lines) == 86
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_realize_answers_are_pinned_on_small_posets(monkeypatch):
    """The answers and witnesses of the search that made an entry for
    every node it visited."""
    assert _realize_digest(monkeypatch, 7) == (
        "9e2e52dd8022bf11086ca7648dcaf6c50760e323669b8d6cd0d85ff6180b97c1")


def _check_dependencies_against_join_rows(index):
    for entry in index.entries():
        lat = entry.pl.lattice
        dep = _dependencies(lat)
        assert {k: dep[k] for k in lat.jir()} == join_row_dependencies(lat), entry.seq


def test_dependencies_match_join_rows(index7):
    """D from the arrow relations against D from whole join rows, on every
    lattice of length <= 7."""
    assert len(index7.entries()) == 493
    _check_dependencies_against_join_rows(index7)


@pytest.fixture(scope="module")
def index8():
    return enumerate_index(8, allow_large=True)


@pytest.mark.slow
def test_roundtrip_rebuilds_the_permutation_at_lengths_seven_and_eight(index8):
    _check_roundtrip(index8.entries(7) + index8.entries(8))


@pytest.mark.slow
def test_realize_matches_brute_force_at_length_eight(index8):
    _check_realize_against_reference(index8, allow_large=True)


@pytest.mark.slow
def test_realize_answers_are_pinned_on_small_posets_at_length_eight(monkeypatch):
    assert _realize_digest(monkeypatch, 8, allow_large=True) == (
        "34c5ffc7064d0a24ce4dbcc3332509cf46882c3e48471d02509aef06350510e4")


def _lamp_places_of(entry):
    return _lamp_places(entry.pl)


def _count(entry):
    return range(entry.seq.grid_p + entry.seq.grid_q + len(entry.seq.steps))


@pytest.mark.slow
def test_the_lamp_rule_masks_match_the_closure_at_length_eight(index8):
    _check_lamp_masks(index8.entries(8), _count)


@pytest.mark.slow
def test_the_lamp_rule_reads_the_lamp_poset_off_the_forks_at_length_eight(index8):
    assert len(index8.entries()) == 2820
    _check_lamp_rule(index8.entries())


@pytest.mark.slow
def test_permutation_lattices_count_as_the_enumeration_at_length_eight(index8):
    assert permutation_lattice_counts(8) == index8.counts() == {
        2: 1, 3: 2, 4: 6, 5: 19, 6: 78, 7: 387, 8: 2327}


@pytest.mark.slow
def test_dependencies_match_join_rows_at_length_eight(index8):
    assert len(index8.entries(8)) == 2327
    _check_dependencies_against_join_rows(index8)


@pytest.mark.slow
def test_keys_partition_as_codes_at_length_eight(index8):
    assert _keys_and_codes(index8) == (3369, 2820)


@pytest.mark.slow
def test_the_cell_rule_equals_the_point_scan_at_length_eight(monkeypatch):
    derived = _derived_permutations(monkeypatch, 8)
    assert len(derived) == 3369  # 12 grids and 3,357 children
    _check_cell_rule_against_the_scan(derived)


@pytest.mark.slow
def test_the_cell_rule_reads_the_distributive_cells_off_pi_at_length_eight(index8):
    assert len(index8.entries(8)) == 2327
    _check_cell_rule(index8.entries(8))


@pytest.mark.slow
def test_counts_to_length_nine():
    assert enumerate_index(9, allow_large=True).counts() == {
        2: 1, 3: 2, 4: 6, 5: 19, 6: 78, 7: 387, 8: 2327, 9: 16384}


@pytest.mark.slow
def test_level_eight_counts_and_order_masks(index8):
    assert index8.counts() == {2: 1, 3: 2, 4: 6, 5: 19, 6: 78, 7: 387, 8: 2327}
    for entry in index8.entries(8):
        p = entry.pl.lattice.poset
        assert (mask_sets(p.up), mask_sets(p.down)) == reachability(p), entry.seq
