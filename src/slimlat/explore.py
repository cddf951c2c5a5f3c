"""Exhaustive enumeration by length and poset realizability search.

Depth-first generation over grids and multifork extensions, deduplicated
by the Jordan-Holder key min(pi, pi^-1) of each diagram (diagram._jh_key),
which the validation sweep of every fork step already walks and which
folds in the mirror image.  A state is expanded only the first time its
key is seen: the key fixes the length, so the remaining budget, and the
fork count, and two isomorphic lattices extend to the same set of
lattices.  A k-fold fork changes pi by a fixed rule
(diagram._forked_permutation), so each child's key is predicted from its
parent's pi in O(length), and a child is built only when its predicted
key is new; every built child is still certified and validated, and its
swept permutation must be the predicted one.  A skipped child is exactly
one whose key was already recorded, so the entries, their witnesses and
their order are those of building every child.  When the search leaves a
lattice, its diagram drops the walk caches that building its children
read (cells, side maps, boundary chains, neon tubes, the sweep's ends);
an entry derives them again on first read, so the index holds each
lattice's rows, heights, report and key, not its walk scaffolding.
Canonical codes partition the lattices as the keys do; they are only
output (EnumEntry.code, sweep_bounds), computed when read.

Realizability rests on two lamp facts (Czedli, "Lamps in slim rectangular
planar semimodular lattices", Acta Sci. Math. 2021): every multifork adds
exactly one lamp, and every new lamp lies strictly below its Nwl and Nel
lamps.  So a lattice built from `grid p q` with f forks has p + q + f
lamps, and its maximal lamps are its p + q boundary lamps.  A poset P with
n elements can only be the lamp poset of a descendant of a grid with
p + q = #maximal(P) that uses at most n - p - q forks, and `realize`
searches nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import _forked_permutation, _jh_min, _jh_permutation, cell_address
from .dsl import emit_dsl
from .errors import BudgetError, InternalInconsistencyError
from .lamps import lamp_poset
from .multifork import grid, multifork_extend
from .order import is_distributive_ideal_grid, poset_iso
from .reduce import check_bounds, length_bound, minimize

PRACTICAL_MAX_LEN = 7


@dataclass(frozen=True, slots=True)
class EnumEntry:
    key: tuple      # the Jordan-Holder key min(pi, pi^-1) (diagram._jh_key)
    seq: object
    pl: object

    @property
    def code(self):
        """The canonical code, derived on each read (canonical_code)."""
        return self.pl.canonical_code()

    def lamp_poset(self):
        _, _, poset = lamp_poset(self.pl)
        return poset


@dataclass(frozen=True)
class EnumerationIndex:
    max_len: int
    by_length: dict

    def counts(self):
        return {length: len(entries) for length, entries in sorted(self.by_length.items())}

    def entries(self, length=None):
        if length is not None:
            return self.by_length.get(length, ())
        return tuple(e for _, es in sorted(self.by_length.items()) for e in es)


def _distributive_cells(pl):
    d = pl.diagram
    lat = d.lattice
    out = []
    for c in d.four_cells():
        if is_distributive_ideal_grid(lat, c.top):
            out.append(cell_address(d, c))
    return sorted(out)


def _enumerate(max_len, boundary=None, max_forks=None):
    """length -> entries of length <= max_len, in first-visit order.

    With `boundary`, only grids with p + q == boundary are searched; with
    `max_forks`, no sequence grows past that many forks.  Both the
    boundary lamp count and the lamp count are isomorphism invariants, so
    the dedupe never meets a state these cuts removed, and the entries that
    survive keep their witnesses and their order.  The dedupe is on the
    Jordan-Holder key (diagram._jh_key), which partitions the lattices as
    canonical codes do; no code is computed.  A grid's key is read off its
    validated diagram, a fork child's is predicted (_dfs).
    """
    found = {}
    for p in range(1, max_len):
        for q in range(1, p + 1):
            if p + q <= max_len and boundary in (None, p + q):
                pl = grid(p, q)
                pi = _jh_permutation(pl.diagram)
                if _record(found, _jh_min(pi), pl):
                    _dfs(pl, pi, found, max_len, max_forks)
    return {length: tuple(bucket.values()) for length, bucket in found.items()}


def _record(found, key, pl):
    """Whether pl is the first lattice with its key; if so, it is recorded."""
    # the key has one entry per trajectory, so its length is pl's
    bucket = found.setdefault(len(key), {})
    if key in bucket:
        return False
    bucket[key] = EnumEntry(key, pl.seq, pl)
    return True


def _dfs(pl, pi, found, max_len, max_forks):
    """Extend the recorded lattice pl, whose Jordan-Holder permutation is pi,
    by every fork within the budget, depth first, and record and extend
    each child whose key is new.  A child's permutation is predicted from pi
    (_forked_permutation), and only a child with a new key is built; a
    built child whose validation sweep reads another permutation is an
    InternalInconsistencyError.  A module function, not a nested one: a
    nested function that calls itself is a reference cycle through its
    closure, which would keep the found entries, and every lattice in them,
    alive after _enumerate returns, until the cyclic collector runs.

    Leaving pl, it releases pl's walk caches (PlanarDiagram._release),
    which building pl's children read; no one else reads pl before
    _enumerate returns."""
    remaining = max_len - len(pi)
    if remaining >= 1 and len(pl.seq.steps) != max_forks:
        for addr in _distributive_cells(pl):
            for k in range(1, remaining + 1):
                child_pi = _forked_permutation(pi, addr, k)
                key = _jh_min(child_pi)
                if key in found.get(len(key), ()):
                    continue
                child = multifork_extend(pl, addr, k)
                swept = _jh_permutation(child.diagram)
                if swept != child_pi:
                    raise InternalInconsistencyError(
                        f"the {k}-fold fork at {addr} built\n{emit_dsl(child.seq)}with"
                        f" permutation {swept}, not the predicted {child_pi}"
                    )
                _record(found, key, child)
                _dfs(child, child_pi, found, max_len, max_forks)
    pl.diagram._release()


def enumerate_index(max_len, allow_large=False):
    """All slim rectangular lattices of length <= max_len, up to isomorphism
    (including mirror images), each with a witness sequence."""
    if max_len > PRACTICAL_MAX_LEN and not allow_large:
        raise BudgetError(
            f"max_len {max_len} exceeds the practical budget {PRACTICAL_MAX_LEN}"
        )
    return EnumerationIndex(max_len, _enumerate(max_len))


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
    module docstring).  A poset with one maximal element therefore finishes
    at once.  The witness is the first match `enumerate_index(length)`
    lists at that length.
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
        for entry in _enumerate(length, boundary, n - boundary).get(length, ()):
            if (boundary + len(entry.seq.steps) == n
                    and poset_iso(entry.lamp_poset(), poset) is not None):
                return RealizabilityAnswer(poset, "found", length, entry.seq, length)
    if cap >= bound:
        return RealizabilityAnswer(poset, "not_representable", -1, None, cap)
    return RealizabilityAnswer(poset, "unresolved", -1, None, cap)


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
