"""Exhaustive enumeration by length and poset realizability search.

The enumeration searches Jordan-Holder permutations and builds no
lattice.  A slim rectangular lattice is the point set S(pi) of its
permutation pi (Czedli and Schmidt, Algebra Universalis 66, 2011, and
Acta Sci. Math. 79, 2013), and min(pi, pi^-1) (diagram._jh_min) keys it
up to isomorphism, mirror image included.  The depth-first search starts
from the grids, reads each lattice's distributive cells off its pi
(diagram._distributive_addresses) and each fork child's pi off its
parent's (diagram._forked_permutation), and expands a state only the
first time its key is seen: the key fixes the length, so the remaining
budget, and the fork count, and isomorphic lattices extend to the same
lattices.

The search keeps its tree in flat arrays (_SearchTree): node i, in
search order, is the grid a[i] x b[i] when parent[i] = -1, or the
k[i]-fold fork at (a[i], b[i]) of node parent[i].  The dedupe keeps only
the keys, as bytes, for the search's duration, and `by_length` maps each
length to its node ids.  Entries are made when read: an index makes a
length's EnumEntry values, each with its sequence read off the parent
links (_SearchTree.entry), on the first read of that length, and keeps
them; an entry derives its key from its sequence on each read.

The first read of an entry's lattice (EnumEntry.pl or code) replays
the whole search tree (_replayed), one `grid` or one fork step of the
parent's lattice per node, as when the search built them.  Each
replayed lattice is certified and validated, and its swept permutation
must be the one the search derived, else InternalInconsistencyError
names its sequence: the fork and cell rules are checked in the replay,
not the search, so an enumeration whose lattices no one reads (slimlat
enumerate, counts) rests on the tests' cross-checks.  The replay drops
each lattice's walk caches (the walk table, boundary chains, neon tubes,
the sweep's ends) when it leaves its subtree.

Realizability rests on two lamp facts (Czedli, "Lamps in slim rectangular
planar semimodular lattices", Acta Sci. Math. 87, 2021): every multifork
adds exactly one lamp, and every new lamp lies strictly below its Nwl and
Nel lamps.  So a lattice built from `grid p q` with f forks has p + q + f
lamps, and its maximal lamps are its p + q boundary lamps.  A poset P with
n elements can only be the lamp poset of a descendant of a grid with
p + q = #maximal(P) that uses at most n - p - q forks, and `realize`
searches nothing else.  It reads each candidate's lamp poset off its fork
sequence by the second fact (multifork._sequence_lamp_poset, which
lamp_poset runs over a built lattice's own sequence), builds no lattice
and replays no tree; it builds only the witness it answers with, and
checks there the key that the pi rules gave and the query against
J(Con L), which reads no lamp rule.  A negative answer rests on the pi
cell, fork and lamp rules, which the tests check against built lattices
to length 7 (8 under `slow`), and, for `not_representable`, on the
paper's length bound.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .diagram import (
    _distributive_addresses, _forked_permutation, _grid_permutation, _jh_min, _jh_permutation)
from .dsl import emit_dsl
from .errors import BudgetError, DiagramError, InternalInconsistencyError, PreconditionError
from .multifork import (
    ForkStep, MultiforkSequence, _sequence_lamp_poset, build, grid, multifork_extend)
from .order import congruence_lattice, poset_iso
from .reduce import check_bounds, length_bound, minimize

PRACTICAL_MAX_LEN = 7


@dataclass(frozen=True, slots=True)
class EnumEntry:
    """A lattice's witness sequence and search tree node, made when it is
    read.  The search builds nothing; the first read of any entry's `pl`
    replays the tree, which builds and checks every lattice."""
    seq: object
    tree: object = field(repr=False, compare=False)
    node: int = field(repr=False, compare=False)

    @property
    def key(self):
        """min(pi, pi^-1), pi the sequence's permutation under the fork
        rule, as the search derived it; derived on each read."""
        pi = _grid_permutation(self.seq.grid_p, self.seq.grid_q)
        for st in self.seq.steps:
            pi = _forked_permutation(pi, (st.a, st.b), st.k)
        return _jh_min(pi)

    @property
    def pl(self):
        return self.tree.lattice(self.node)

    @property
    def code(self):
        """The canonical code, derived on each read (canonical_code)."""
        return self.pl.canonical_code()


@dataclass(frozen=True)
class EnumerationIndex:
    """The search's result: `by_length` maps each length to the node ids of
    `tree` at that length, in search order.  A length's entries are made on
    its first read and kept here, not in the tree, which the entries hold."""
    max_len: int
    by_length: dict
    tree: object = field(repr=False, compare=False)
    _made: dict = field(default_factory=dict, repr=False, compare=False)

    def counts(self):
        return {length: len(nodes) for length, nodes in sorted(self.by_length.items())}

    def entries(self, length=None):
        if length is None:
            return tuple(e for length in sorted(self.by_length) for e in self.entries(length))
        made = self._made.get(length)
        if made is None:
            nodes = self.by_length.get(length, ())
            made = self._made[length] = tuple(map(self.tree.entry, nodes))
        return made


class _SearchTree:
    """The search tree in flat arrays, in search order: node i is the grid
    a[i] x b[i] when parent[i] == -1, else the k[i]-fold fork at (a[i], b[i])
    of node parent[i]: 7 bytes a node, and 4 more in by_length.  Lengths
    stay below 256, as the search's bytes keys need too (_visit).  The
    lattices are built when one is read.  It holds no entry, so it makes no
    reference cycle; it keeps each sequence it hands out until the replay
    gives it to the node's lattice, so that the two share it."""

    def __init__(self):
        self.parent = array("i")
        self.a, self.b, self.k = array("B"), array("B"), array("B")
        self.by_length = {}
        self._seqs = {}
        self._lattices = None

    def forks(self, node):
        """The number of fork steps from node's grid to node."""
        count, parent = 0, self.parent
        while parent[node] >= 0:
            node, count = parent[node], count + 1
        return count

    def entry(self, node):
        """node's entry, made now: its sequence read off the parent links,
        from node up to its grid, or its lattice's once replayed."""
        if self._lattices is not None:
            return EnumEntry(self._lattices[node].seq, self, node)
        steps, i, parent = [], node, self.parent
        while parent[i] >= 0:
            steps.append(ForkStep(self.a[i], self.b[i], self.k[i]))
            i = parent[i]
        seq = MultiforkSequence(self.a[i], self.b[i], tuple(reversed(steps)))
        return EnumEntry(self._seqs.setdefault(node, seq), self, node)

    def lattice(self, node):
        if self._lattices is None:
            self._lattices = _replayed(self)
            self._seqs = None
        return self._lattices[node]


def _enumerate(max_len, boundary=None, max_forks=None):
    """The index of the lattices of length <= max_len, in first-visit order.

    With `boundary`, only grids with p + q == boundary are searched; with
    `max_forks`, no sequence grows past that many forks.  Both the
    boundary lamp count and the lamp count are isomorphism invariants, so
    the dedupe never meets a state these cuts removed, and the entries that
    survive keep their witnesses and their order.
    """
    tree, seen = _SearchTree(), set()
    for p in range(1, max_len):
        for q in range(1, p + 1):
            if p + q <= max_len and boundary in (None, p + q):
                pi = _grid_permutation(p, q)
                seen.add(bytes(_jh_min(pi)))
                _visit(tree, seen, -1, p, q, 0, pi, max_len, max_forks)
    return EnumerationIndex(max_len, tree.by_length, tree)


def _visit(tree, seen, parent, a, b, k, pi, max_len, max_forks, forks=0):
    """Record pi's lattice, node (parent, a, b, k) of the tree, whose key
    is in `seen` now and was not before (no two grids and no grid and fork
    child are isomorphic), then visit its fork children with new keys
    within the budget, depth first.  A key's entries are at most its
    length, so bytes hold it.  A module function: a nested one that calls
    itself is a reference cycle through its closure."""
    node = len(tree.parent)
    tree.parent.append(parent)
    tree.a.append(a)
    tree.b.append(b)
    tree.k.append(k)
    tree.by_length.setdefault(len(pi), array("i")).append(node)
    remaining = max_len - len(pi)
    if remaining >= 1 and forks != max_forks:
        for a, b in _distributive_addresses(pi):
            for k in range(1, remaining + 1):
                child = _forked_permutation(pi, (a, b), k)
                key = bytes(_jh_min(child))
                if key not in seen:
                    seen.add(key)
                    _visit(tree, seen, node, a, b, k, child, max_len, max_forks, forks + 1)


def _replayed(tree):
    """The lattice of each node, built in search order, depth first, from
    the tree's arrays: a grid, or a fork step of its parent's lattice, which
    the replay still holds.  Each swept pi must be the one the search
    derived, the grid's or the parent's swept pi under the fork rule.
    Leaving a lattice's subtree, the replay drops the walk caches
    (PlanarDiagram._release) its children's builds read; no one else has
    read them yet."""
    lattices, path = [], []  # path: (node, lattice, swept pi) from the grid down
    for node, up in enumerate(tree.parent):
        while path and path[-1][0] != up:
            path.pop()[1].diagram._release()
        a, b, k = tree.a[node], tree.b[node], tree.k[node]
        try:
            if path:
                pi = _forked_permutation(path[-1][2], (a, b), k)
                pl = multifork_extend(path[-1][1], (a, b), k)
            else:
                pi = _grid_permutation(a, b)
                pl = grid(a, b)
        except (PreconditionError, DiagramError) as e:
            seq = (path[-1][1].seq.extended(ForkStep(a, b, k)) if path
                   else MultiforkSequence(a, b, ()))
            raise InternalInconsistencyError(
                f"the replay cannot build\n{emit_dsl(seq)}{e}") from e
        swept = _jh_permutation(pl.diagram)
        if swept != pi:
            raise InternalInconsistencyError(
                f"the replay built\n{emit_dsl(pl.seq)}with permutation {swept},"
                f" not the predicted {pi}")
        pl.seq = tree._seqs.get(node, pl.seq)  # the entry's equal sequence, kept once
        path.append((node, pl, swept))
        lattices.append(pl)
    for _, pl, _ in path:
        pl.diagram._release()
    return lattices


def enumerate_index(max_len, allow_large=False):
    """All slim rectangular lattices of length <= max_len, up to isomorphism
    (including mirror images), each with a witness sequence."""
    if max_len > PRACTICAL_MAX_LEN and not allow_large:
        raise BudgetError(
            f"max_len {max_len} exceeds the practical budget {PRACTICAL_MAX_LEN}"
        )
    return _enumerate(max_len)


# ---------------------------------------------------------------------------
# Realizability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealizabilityAnswer:
    poset: object
    status: str            # "found" | "not_representable" | "unresolved" | "trivial"
    min_length: int        # meaningful when found/trivial
    witness_seq: object    # sequence when found
    searched_up_to: int
    # the built lattice of witness_seq, which realize checked: held here, it
    # is what build(witness_seq) returns, with nothing built again
    witness: object = field(default=None, compare=False, repr=False)

    @property
    def found(self):
        return self.status in ("found", "trivial")


def realize(poset, max_len, allow_large=False):
    """Minimal length of a slim rectangular lattice whose lamp poset is
    isomorphic to `poset`, searched length by length.

    Posets with at most one element are realized by chains (length n) and
    answered without search.  A definitive negative needs the full window
    up to 2n^2 - 10n + 15; shorter budgets return "unresolved".

    Each length searches only the descendants of grids with p + q equal to
    the number of maximal elements, with at most n - p - q forks, and
    compares lamp posets only on the lattices with exactly n lamps (see the
    module docstring): it reads each node's fork count off the search tree
    and makes an entry only for those.  A poset with one maximal element
    therefore finishes at once.  Those lamp posets are read off the fork
    sequences, and only the witness, the first match
    `enumerate_index(length)` lists at that length, is built and checked
    against J(Con L) (_check_witness).  A negative answer rests on the pi
    rules beyond the lengths the tests check them at, 7 in Tier-1 and 8
    under `slow`, and "not_representable" on the bound too.
    """
    n = poset.n
    if n <= 1:
        return RealizabilityAnswer(poset, "trivial", n, None, 0)
    bound = max(n, length_bound(n))
    cap = max_len if allow_large else min(max_len, bound)
    if cap > PRACTICAL_MAX_LEN and not allow_large:
        raise BudgetError(
            f"search cap {cap} exceeds the practical budget {PRACTICAL_MAX_LEN};"
            " rerun with allow_large"
        )
    boundary = len(poset.maximal_elements())
    for length in range(max(2, n), cap + 1):
        tree = _enumerate(length, boundary, n - boundary).tree
        for node in tree.by_length.get(length, ()):
            if boundary + tree.forks(node) != n:
                continue
            entry = tree.entry(node)
            if poset_iso(_sequence_lamp_poset(entry.seq, range(n)), poset) is not None:
                witness = _check_witness(entry, poset)
                return RealizabilityAnswer(poset, "found", length, entry.seq, length, witness)
    if cap >= bound:
        return RealizabilityAnswer(poset, "not_representable", -1, None, cap)
    return RealizabilityAnswer(poset, "unresolved", -1, None, cap)


def _check_witness(entry, poset):
    """Build the one lattice `realize` answers with, check what the search
    read off pi, and return it: its swept permutation has the entry's key,
    and J(Con L), which reads no lamp rule, is the query.  A failure, or a
    build that fails, is an InternalInconsistencyError naming the sequence."""
    try:
        pl = build(entry.seq)
    except PreconditionError as e:
        raise InternalInconsistencyError(
            f"realize cannot build the witness\n{emit_dsl(entry.seq)}{e}") from e
    key = _jh_min(_jh_permutation(pl.diagram))
    if key != entry.key:
        raise InternalInconsistencyError(
            f"realize built the witness\n{emit_dsl(entry.seq)}with key {key},"
            f" not the searched {entry.key}")
    if poset_iso(congruence_lattice(pl.lattice).jir_poset, poset) is None:
        raise InternalInconsistencyError(
            f"realize built the witness\n{emit_dsl(entry.seq)}"
            "with J(Con L) not isomorphic to the query")
    return pl


# ---------------------------------------------------------------------------
# Bound sweep
# ---------------------------------------------------------------------------

def sweep_bounds(max_len, allow_large=False):
    """Evaluate the bound assertions on every enumerated lattice and on the
    minimize-fixpoint of each; failures are listed, not raised."""
    index = enumerate_index(max_len, allow_large=allow_large)
    results = []
    failures = []
    for entry in index.entries():
        rep = check_bounds(entry.pl)
        fixed, trace = minimize(entry.pl)
        fixrep = check_bounds(fixed, at_fixpoint=True)
        results.append(
            {
                "code": entry.code,
                "length": entry.pl.length(),
                "size": entry.pl.n,
                "bounds": rep.to_dict(),
                "fixpoint_bounds": fixrep.to_dict(),
                "reduction_steps": len(trace),
            }
        )
        for name, ok, detail in rep.assertions + fixrep.assertions:
            if not ok:
                failures.append({"code": entry.code, "assertion": name, "detail": detail})
    return {
        "max_len": max_len,
        "counts": index.counts(),
        "lattices": results,
        "failures": failures,
    }
