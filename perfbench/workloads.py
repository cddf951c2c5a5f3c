"""The four benchmark workloads: seeded inputs, one timed item, its reference check.

Each workload has
  round_s                                 nominal reference seconds of one pass over its items;
  setup(seed) -> (items, warm-up items)   seeded input generation;
  run_item(item, out)                     the timed work, results stored in `out`;
  check(item, out) -> message or None     the reference check, run untimed.

slimlat receives only DSL text or poset JSON in the timed region.  A check
returns a message when an answer is wrong; an item whose `out` holds an
"error" raised and is counted as failed by the runner.  `full` selects the
measured sizes; the small sizes only serve the benchmark's own tests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import slimlat as sl

import oracle


def _jir(lattice):
    """(n, covers, |Con|) of the join-irreducible congruences, by the brute-force oracle."""
    cl = sl.congruence_lattice(lattice)
    return cl.jir_poset.n, tuple(cl.jir_poset.covers), cl.con_size


class Enumerate:
    """enumerate_index(L) from a cold start: thousands of small lattices
    (n <= 29), no Con, lamps, reduction or poset_iso.  The control workload."""

    round_s = 3.3

    def __init__(self, full):
        self.max_len = 7 if full else 5

    def setup(self, seed):
        return [self.max_len], [self.max_len - 2]

    def run_item(self, max_len, out):
        out["index"] = sl.enumerate_index(max_len)

    def check(self, max_len, out):
        if "index" not in out:
            return None
        want = {length: c for length, c in oracle.ENUM_COUNTS.items() if length <= max_len}
        counts = out["index"].counts()
        return None if counts == want else f"counts {counts}, expected {want}"


@dataclass(frozen=True)
class AnalyzeItem:
    dsl: str
    step: int       # the step `double` is asked to double, drawn by seed
    length: int
    lamps: int      # p + q + number of forks


class Analyze:
    """What a user does to one lattice, on sequences of lengths 6-7:
    parse, build, lamp report, minimize, bounds at the fixpoint, double."""

    round_s = 8.4

    def __init__(self, full):
        self.levels = (6, 7) if full else (4, 5)
        self.count = 100 if full else 8
        self._verdicts = {}

    def setup(self, seed):
        rng = random.Random(seed)
        index = sl.enumerate_index(self.levels[-1])
        pop = sorted(
            (e.pl.length(), e.pl.n, sl.emit_dsl(e.seq), e.seq)
            for length in self.levels
            for e in index.entries(length)
            if e.seq.steps
        )
        # one draw from each of `count` consecutive strata of the population
        # sorted by (length, n): every seed gets the same mix of sizes
        picks = [
            rng.choice(pop[i * len(pop) // self.count:(i + 1) * len(pop) // self.count])
            for i in range(self.count)
        ]
        warm = [rng.choice(pop) for _ in range(2)]

        def item(entry):
            length, _, dsl, seq = entry
            lamps = seq.grid_p + seq.grid_q + len(seq.steps)
            return AnalyzeItem(dsl, rng.randint(1, len(seq.steps)), length, lamps)

        return [item(e) for e in picks], [item(e) for e in warm]

    def run_item(self, item, out):
        pl = sl.build(sl.parse_dsl(item.dsl))
        out["pl"] = pl
        out["report"] = sl.lamp_report(pl)
        fixed, _ = sl.minimize(pl)
        out["fixed"] = fixed
        out["bounds"] = sl.check_bounds(fixed, at_fixpoint=True)
        out["doubled"] = sl.double(pl.seq, item.step)[1]

    def check(self, item, out):
        key = (item, json.dumps(out.get("report"), sort_keys=True)) + tuple(
            sl.emit_dsl(out[k].seq) if k in out else None for k in ("pl", "fixed", "doubled")
        ) + (out.get("bounds"),)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(item, out)
        return self._verdicts[key]

    def _check(self, item, out):
        if "pl" not in out:
            return None
        pl = out["pl"]
        if pl.length() != item.length:
            return f"built length {pl.length()}, expected {item.length}"
        con_n, con_covers, con_size = _jir(pl.lattice)
        if "report" in out:
            report = out["report"]
            if len(report["lamps"]) != item.lamps:
                return f"{len(report['lamps'])} lamps, expected {item.lamps}"
            same = oracle.isomorphic(len(report["lamps"]), report["poset_covers"],
                                     con_n, con_covers)
            if not same:
                return "lamp poset is not isomorphic to Jir(Con L)"
            if report["congruence_iso_ok"] is not same:
                return "verify_lamp_con_iso disagrees with the Con oracle"
        if "fixed" in out:
            fixed = out["fixed"]
            n2, covers2, size2 = _jir(fixed.lattice)
            if size2 != con_size or not oracle.isomorphic(n2, covers2, con_n, con_covers):
                return "Con of the minimize fixpoint differs from Con of the input"
            if fixed.length() > pl.length():
                return "minimize lengthened the lattice"
        if "bounds" in out:
            bounds = out["bounds"]
            if not bounds.ok or bounds.n != con_n:
                return f"bounds at the fixpoint fail: {bounds.assertions}"
        if "doubled" in out:
            doubled = out["doubled"]
            if doubled.length() != pl.length() + 2:
                return f"doubled length {doubled.length()}, expected {pl.length() + 2}"
            dn, dcovers, _ = _jir(doubled.lattice)
            non_maximal = {a for a, _ in con_covers}
            if not any(
                oracle.isomorphic(dn, dcovers, *oracle.doubled(con_n, con_covers, j))
                for j in non_maximal
            ):
                return "Con of the doubled lattice is no doubling of Con of the input"
        return None


@dataclass(frozen=True)
class LargeItem:
    dsl: str
    n: int          # by oracle.large_size
    length: int     # p + q + sum of k
    lamps: int      # p + q + number of forks


def _large_item(rng, target):
    """A grid plus three forks at pairwise incomparable grid cells, whose size
    is within 1 % of `target` (else the closest of the seeded tries).  Each
    fork rebuilds the lattice, so a fixed fork count keeps the work per size
    the same for every seed; so do a grid no more than 1.5 times as long as
    it is wide and a grid of 60-66 % of the target size, which keep the
    lamp count and the share of fork elements alike across seeds.

    Every fork cell stays distributive under the earlier forks, so build
    accepts each address; only the right height of a cell moves, by the
    multiplicities of the earlier forks, whose columns lie to its left.
    """
    best = None
    side = int(target ** 0.5) + 2
    for _ in range(5000):
        p, q = rng.randint(3, side), rng.randint(3, side)
        if 2 * max(p, q) > 3 * min(p, q) or not 60 <= 100 * (p + 1) * (q + 1) / target <= 66:
            continue
        a = sorted(rng.sample(range(p), 3), reverse=True)
        b = sorted(rng.sample(range(q), 3))
        forks = [(a[i], b[i], rng.randint(1, 2)) for i in range(3)]
        n = oracle.large_size(p, q, forks)
        if best is None or abs(n - target) < abs(best[0] - target):
            best = (n, p, q, forks)
        if abs(n - target) <= 0.01 * target:
            break
    if best is None:
        raise ValueError(f"no grid shape fits a large lattice of size {target}")
    n, p, q, forks = best
    lines = [f"grid {p} {q}"]
    shift = 0
    for a_i, b_i, k in forks:
        lines.append(f"fork {a_i} {b_i + shift} {k}")
        shift += k
    return LargeItem("\n".join(lines) + "\n", n, p + q + shift, p + q + len(forks))


class Large:
    """Ten lattices with n from about 40 to 170: build, validate, lamp
    report, bounds, render (svg, tikz) and slope validation."""

    round_s = 7.6

    def __init__(self, full):
        count, lo, hi = (10, 40, 170) if full else (3, 40, 60)
        self.targets = [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]

    def setup(self, seed):
        rng = random.Random(seed)
        items = [_large_item(rng, t) for t in self.targets]
        return items, [_large_item(rng, 40)]

    def run_item(self, item, out):
        pl = sl.build(sl.parse_dsl(item.dsl))
        out["pl"] = pl
        out["slim_rectangular"] = sl.is_slim_rectangular(pl.diagram).ok
        out["report"] = sl.lamp_report(pl)
        out["bounds"] = sl.check_bounds(pl)
        out["svg"] = sl.render(pl, "svg")
        out["tikz"] = sl.render(pl, "tikz")
        out["slopes"] = sl.validate_slopes(pl)

    def check(self, item, out):
        if "pl" in out:
            pl = out["pl"]
            if (pl.n, pl.length()) != (item.n, item.length):
                return f"n {pl.n}, length {pl.length()}; expected {item.n}, {item.length}"
        if out.get("slim_rectangular") is False:
            return "is_slim_rectangular rejects a built lattice"
        if "report" in out:
            report = out["report"]
            if len(report["lamps"]) != item.lamps:
                return f"{len(report['lamps'])} lamps, expected {item.lamps}"
            if not report["congruence_iso_ok"]:
                return "verify_lamp_con_iso rejects a built lattice"
        if "bounds" in out:
            bounds = out["bounds"]
            if not bounds.ok or bounds.length != item.length:
                return f"bounds fail: {bounds.assertions}"
        if "svg" in out and out["svg"].count("<circle") != item.n:
            return "svg does not draw every element"
        if "tikz" in out and out["tikz"].count("\\node") != item.n:
            return "tikz does not draw every element"
        if out.get("slopes") is False:
            return "validate_slopes failed"
        return None


@dataclass(frozen=True)
class RealizeItem:
    query: str        # poset JSON
    n: int
    source_len: int   # length of the lattice the lamp poset came from; 0 for negatives


class Realize:
    """realize(p, 7) on seeded 4-5-element lamp posets of lattices of length
    <= 6, and on 4-element posets with one maximal element, which need the
    full window up to length_bound(4) = 7."""

    round_s = 8.8

    def __init__(self, full):
        if full:
            # (lamp count, source lengths) -> how many queries.  Two of the
            # eleven queries are negatives, so the 90th percentile is a
            # negative and the median a (5, 5) query for every seed.
            self.source_len, self.cap, self.negatives = 6, 7, 2
            self.classes = {(4, (4,)): 2, (5, (5,)): 5, (4, (5, 6)): 1, (5, (6,)): 1}
        else:
            self.source_len, self.cap, self.negatives = 5, 5, 1
            self.classes = {(4, (4,)): 2, (5, (5,)): 2}
        self._verdicts = {}

    def setup(self, seed):
        rng = random.Random(seed)
        index = sl.enumerate_index(self.source_len)
        groups = {}
        for e in sorted(index.entries(), key=lambda e: e.code):
            lamps = e.seq.grid_p + e.seq.grid_q + len(e.seq.steps)
            groups.setdefault((lamps, e.pl.length()), []).append(e)

        def query(e):
            poset = sl.lamp_poset(e.pl)[2]
            text = json.dumps({"n": poset.n, "covers": sorted(map(list, poset.covers))})
            return RealizeItem(text, poset.n, e.pl.length())

        items = []
        for (lamps, lengths), count in self.classes.items():
            pool = [e for length in lengths for e in groups.get((lamps, length), ())]
            items += [query(rng.choice(pool)) for _ in range(count)]
        for _ in range(self.negatives):
            covers = rng.choice(oracle.ONE_MAX_4)
            perm = rng.sample(range(4), 4)
            text = json.dumps({"n": 4, "covers": sorted([perm[a], perm[b]] for a, b in covers)})
            items.append(RealizeItem(text, 4, 0))
        rng.shuffle(items)
        warm = query(rng.choice(groups[(4, 4)]))
        return items, [warm]

    def run_item(self, item, out):
        out["answer"] = sl.realize(sl.Poset.from_json(item.query), self.cap)

    def check(self, item, out):
        if "answer" not in out:
            return None
        a = out["answer"]
        witness = sl.emit_dsl(a.witness_seq) if a.witness_seq is not None else None
        key = (item, a.status, a.min_length, witness)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(item, a)
        return self._verdicts[key]

    def _check(self, item, a):
        data = json.loads(item.query)
        covers = [tuple(c) for c in data["covers"]]
        if not item.source_len:
            if oracle.maximal_count(item.n, covers) != 1:
                return "negative query does not have exactly one maximal element"
            want = "not_representable" if self.cap >= oracle.length_bound(item.n) else "unresolved"
            return None if a.status == want else f"status {a.status}, expected {want}"
        if a.status != "found":
            return f"status {a.status} for a lamp poset of a length-{item.source_len} lattice"
        if not item.n <= a.min_length <= item.source_len:
            return f"min_length {a.min_length} outside {item.n}..{item.source_len}"
        pl = sl.build(a.witness_seq)
        if pl.length() != a.min_length:
            return f"witness has length {pl.length()}, answer says {a.min_length}"
        n, wcovers, _ = _jir(pl.lattice)
        if not oracle.isomorphic(n, wcovers, item.n, covers):
            return "Jir(Con) of the witness is not isomorphic to the query"
        return None


WORKLOADS = {"enumerate": Enumerate, "analyze": Analyze, "large": Large, "realize": Realize}
