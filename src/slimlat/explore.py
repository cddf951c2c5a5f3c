"""Exhaustive enumeration by length and poset realizability search.

Depth-first generation over grids and multifork extensions, deduplicated
by canonical diagram codes (which already fold in the mirror image).
Search states are pruned on (code, remaining budget): two isomorphic
lattices with equal budget extend to the same set of lattices.

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

from .diagram import cell_address
from .errors import BudgetError
from .lamps import lamp_poset
from .multifork import grid, multifork_extend
from .order import is_distributive_ideal_grid, poset_iso
from .reduce import check_bounds, length_bound, minimize

PRACTICAL_MAX_LEN = 7


@dataclass(frozen=True)
class EnumEntry:
    code: str
    seq: object
    pl: object

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
    the (code, remaining) dedupe never meets a state these cuts removed,
    and the entries that survive keep their witnesses and their order.
    """
    found = {}
    visited = set()

    def record(pl):
        code = pl.canonical_code()
        bucket = found.setdefault(pl.length(), {})
        if code not in bucket:
            bucket[code] = EnumEntry(code, pl.seq, pl)
        return code

    def dfs(pl):
        code = record(pl)
        remaining = max_len - pl.length()
        if remaining < 1 or len(pl.seq.steps) == max_forks or (code, remaining) in visited:
            return
        visited.add((code, remaining))
        for addr in _distributive_cells(pl):
            for k in range(1, remaining + 1):
                dfs(multifork_extend(pl, addr, k))

    for p in range(1, max_len):
        for q in range(1, p + 1):
            if p + q <= max_len and boundary in (None, p + q):
                dfs(grid(p, q))
    return {length: tuple(bucket.values()) for length, bucket in found.items()}


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
