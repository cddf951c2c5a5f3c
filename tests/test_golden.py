"""Golden-output regression test.

For every slim rectangular lattice of length <= 6 (keyed by canonical
code), `tests/golden.json` stores a short SHA-256 of each output below.
A refactor that must not change behaviour has to keep every hash.

- build: the witness DSL, tube records and coordinates;
- lamps: the `lamp_report` JSON;
- minimize: the fixpoint DSL and the trace;
- decompose: the recovered DSL;
- double: the doubled DSL at every step;
- dot, svg, tikz: the three renders;
- validate: the `is_slim_rectangular` failures of the bare lattice, the
  diagram, its mirror and every one-element deletion that is a lattice.

An intended change of output regenerates the file:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from slimlat.diagram import is_slim_rectangular
from slimlat.doubling import double
from slimlat.dsl import emit_dsl
from slimlat.errors import OrderError, SlimlatError
from slimlat.explore import enumerate_index
from slimlat.lamps import lamp_report
from slimlat.multifork import decompose
from slimlat.reduce import minimize
from slimlat.render import render

from oracles import coords_of, sublattice

GOLDEN = Path(__file__).with_name("golden.json")


def _h(obj):
    text = obj if isinstance(obj, str) else repr(obj)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _attempt(fn, *args):
    """fn(*args), or the failure's type and message."""
    try:
        return fn(*args)
    except SlimlatError as e:
        return f"{type(e).__name__}: {e}"


def _deletion_failures(lat):
    out = []
    for x in range(lat.n):
        try:
            sub, _ = sublattice(lat, [u for u in range(lat.n) if u != x])
        except OrderError:
            continue
        out.append(is_slim_rectangular(sub).failures)
    return out


def _fingerprint(pl):
    seq = pl.seq
    d = pl.diagram
    # the points as the Fraction pairs, by element, that the hashes were recorded on
    points = sorted(coords_of(pl).items())

    def minimized():
        # the hashes were recorded when each step's dict ended with
        # "con_preserved", always True; the key left the output, and is
        # put back here so that the recorded hashes still pin the rest
        fixed, trace = minimize(pl)
        return emit_dsl(fixed.seq), [{**s.to_dict(), "con_preserved": True} for s in trace]

    return {
        "build": _h((emit_dsl(seq), sorted(pl.tube_records.items()), points)),
        "lamps": _h(json.dumps(lamp_report(pl), sort_keys=True)),
        "minimize": _h(_attempt(minimized)),
        "decompose": _h(_attempt(lambda: emit_dsl(decompose(d)))),
        "double": _h([
            _attempt(lambda t: emit_dsl(double(seq, t)[0]), t)
            for t in range(1, len(seq.steps) + 1)
        ]),
        "dot": _h(render(pl, "dot")),
        "svg": _h(render(pl, "svg")),
        "tikz": _h(render(pl, "tikz")),
        "validate": _h((
            is_slim_rectangular(pl.lattice).failures,
            is_slim_rectangular(d).failures,
            is_slim_rectangular(d.mirror()).failures,
            _deletion_failures(pl.lattice),
        )),
    }


def fingerprints():
    return {e.code: _fingerprint(e.pl) for e in enumerate_index(6).entries()}


def test_outputs_match_golden_hashes():
    golden = json.loads(GOLDEN.read_text())
    current = fingerprints()
    assert current.keys() == golden.keys()
    changed = sorted(
        (code, key)
        for code, fp in current.items()
        for key in fp
        if fp[key] != golden[code].get(key)
    )
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps(fingerprints(), indent=1, sort_keys=True) + "\n")
